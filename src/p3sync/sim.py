"""Deterministic discrete-event simulator of one worker/server synchronization pipeline.

Four resources are modeled: an emulated compute device (forward/backward
chains), a serial uplink, an update stage (per-key concurrent by default),
and a serial downlink. Gradients of a layer become uplink-eligible when its
backward step finishes; the next forward of a layer waits for all of its
slices to complete the downlink. All times are integer ticks.

Policies:
  aggressive-coarse  -- whole layers, links serve in generation (FIFO) order
  aggressive-sliced  -- slices of ``slice_ticks`` granularity, FIFO order
  priority-sliced    -- same slicing, links serve the most urgent slice first

A sliced layer's uplink cost is cut by ``plan.chunk_layer``, the rule that cuts
a plan's parameters: full ``slice_ticks`` slices, then any remainder as the
last slice. Update and downlink costs are split in proportion, slice s
covering uplink ticks [start, end) getting ``x * end // up - x * start // up``
of a stage cost x, so the slices sum exactly to the layer's cost.
``scenario_from_plan`` builds the scenario of a runtime plan; there one tick
is the time one float32 parameter takes on the link.

Tie-breaks on a serial link: the FIFO policies serve by arrival; priority-sliced
serves the smallest (layer, slice, iteration, arrival), since a slice's
priority is its key's order, as in ``plan``. Each link keeps a deque (FIFO)
or a heap (priority), so a link pick costs O(1) or O(log n) in the number of
queued slices. Forwards wait in a ready-set that whichever of their two
conditions arrives last fills, so a run costs O(n log n) in its entries.
"""

from __future__ import annotations

import heapq
import io
import json
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

from .model import ModelProfile, profile_from_dict, profile_to_dict
from .plan import P3_MODE, SlicePlan, chunk_layer, validate_plan

AGGRESSIVE_COARSE = "aggressive-coarse"
AGGRESSIVE_SLICED = "aggressive-sliced"
PRIORITY_SLICED = "priority-sliced"
POLICIES = (AGGRESSIVE_COARSE, AGGRESSIVE_SLICED, PRIORITY_SLICED)

COMPUTE = "compute"
UPLINK = "uplink"
UPDATE = "update"
DOWNLINK = "downlink"


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class StageCost:
    up: int
    update: int
    down: int


@dataclass(frozen=True)
class Scenario:
    profile: ModelProfile
    stages: tuple[StageCost, ...]
    policy: str
    slice_ticks: int = 1
    num_iterations: int = 1
    per_slice_overhead: int = 0
    serial_update: bool = False
    name: str = ""

    def validate(self) -> None:
        self.profile.validate()
        if self.policy not in POLICIES:
            raise ScenarioError(f"unknown policy {self.policy!r}")
        if len(self.stages) != self.profile.num_layers:
            raise ScenarioError("stages must align with profile layers")
        if self.slice_ticks < 1 or self.num_iterations < 1 or self.per_slice_overhead < 0:
            raise ScenarioError("slice_ticks/num_iterations/per_slice_overhead out of range")
        for layer, st in zip(self.profile.layers, self.stages):
            if min(st.up, st.update, st.down) < 0:
                raise ScenarioError(f"layer {layer.index}: negative stage cost")

    def slice_costs(self, layer_index: int) -> list[StageCost]:
        """The layer's per-slice costs, in slice order; they sum to its stage cost."""
        st = self.stages[layer_index]
        if self.policy == AGGRESSIVE_COARSE or st.up == 0:
            return [st]
        return [
            StageCost(
                length,
                st.update * (start + length) // st.up - st.update * start // st.up,
                st.down * (start + length) // st.up - st.down * start // st.up,
            )
            for start, length in chunk_layer(st.up, self.slice_ticks)
        ]


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "policy": sc.policy,
        "slice_ticks": sc.slice_ticks,
        "num_iterations": sc.num_iterations,
        "per_slice_overhead": sc.per_slice_overhead,
        "serial_update": sc.serial_update,
        "profile": profile_to_dict(sc.profile),
        "stages": [{"up": s.up, "update": s.update, "down": s.down} for s in sc.stages],
    }


def scenario_from_dict(obj: dict) -> Scenario:
    try:
        sc = Scenario(
            profile=profile_from_dict(obj["profile"]),
            stages=tuple(StageCost(int(s["up"]), int(s["update"]), int(s["down"])) for s in obj["stages"]),
            policy=str(obj["policy"]),
            slice_ticks=int(obj.get("slice_ticks", 1)),
            num_iterations=int(obj.get("num_iterations", 1)),
            per_slice_overhead=int(obj.get("per_slice_overhead", 0)),
            serial_update=bool(obj.get("serial_update", False)),
            name=str(obj.get("name", "")),
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    sc.validate()
    return sc


def load_scenario(path: str | Path) -> Scenario:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    return scenario_from_dict(obj)


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(sc), indent=2) + "\n")


def scenario_from_plan(
    profile: ModelProfile,
    plan: SlicePlan,
    link_bps: float,
    num_workers: int,
    num_iterations: int,
) -> Scenario:
    """The scenario of running ``plan`` on ``num_workers`` workers over links of ``link_bps``.

    One tick is the time one float32 parameter takes on the link, so compute
    times of ``us`` microseconds become ``round(us * link_bps / 32e6)`` ticks.
    A layer's downlink carries its parameters once per worker: the one
    server's bucket feeds every worker. A p3 plan runs priority-sliced with
    its slice size, a baseline plan aggressive-coarse.
    """
    validate_plan(plan, profile)
    if plan.num_servers != 1:
        raise ScenarioError(f"plan has {plan.num_servers} servers; the simulator models one")
    if link_bps <= 0 or num_workers < 1:
        raise ScenarioError("link_bps must be positive and num_workers >= 1")
    layers = tuple(
        replace(l, fwd_time=round(l.fwd_time * link_bps / 32e6), bwd_time=round(l.bwd_time * link_bps / 32e6))
        for l in profile.layers
    )
    return Scenario(
        profile=replace(profile, layers=layers),
        stages=tuple(StageCost(l.param_count, 0, num_workers * l.param_count) for l in profile.layers),
        policy=PRIORITY_SLICED if plan.mode == P3_MODE else AGGRESSIVE_COARSE,
        slice_ticks=plan.max_slice,
        num_iterations=num_iterations,
        name=f"{profile.name}-{plan.mode}",
    )


@dataclass(frozen=True)
class TimelineEntry:
    resource: str
    item: str
    start: int
    end: int


_ENTRY_ORDER = attrgetter("start", "end", "resource", "item")


@dataclass
class Timeline:
    entries: list[TimelineEntry] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return max((e.end for e in self.entries), default=0)

    def entries_for(self, resource: str) -> list[TimelineEntry]:
        return [e for e in self.entries if e.resource == resource]

    def busy_intervals(self, resource: str) -> list[tuple[int, int]]:
        spans = sorted(
            (e.start, e.end) for e in self.entries_for(resource) if e.end > e.start
        )
        merged: list[tuple[int, int]] = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        return merged

    def link_utilization(self, link: str) -> float:
        spans = self.busy_intervals(link)
        if not spans:
            return 0.0
        busy = sum(e - s for s, e in spans)
        span = self.makespan - spans[0][0]
        return busy / span if span else 0.0

    def inter_iteration_delay(self) -> int:
        delays = self.all_inter_iteration_delays()
        if not delays:
            raise ValueError("timeline holds no bwd->next-fwd pair for layer 0")
        return delays[-1]

    def all_inter_iteration_delays(self) -> list[int]:
        # reversed, so that the first entry of a repeated item wins
        compute = {e.item: e for e in reversed(self.entries) if e.resource == COMPUTE}
        delays = []
        k = 0
        while True:
            b = compute.get(f"bwd:{k}:L0")
            f = compute.get(f"fwd:{k + 1}:L0")
            if b is None or f is None:
                break
            delays.append(f.start - b.end)
            k += 1
        return delays

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("resource,item,start,end\n")
        for e in sorted(self.entries, key=_ENTRY_ORDER):
            buf.write(f"{e.resource},{e.item},{e.start},{e.end}\n")
        return buf.getvalue()

    def summary(self) -> dict:
        out = {"makespan": self.makespan}
        try:
            out["inter_iteration_delay"] = self.inter_iteration_delay()
        except ValueError:
            pass
        out["uplink_utilization"] = round(self.link_utilization(UPLINK), 6)
        out["downlink_utilization"] = round(self.link_utilization(DOWNLINK), 6)
        return out


# event kinds, in within-tick processing order
_BOOT, _FWD_DONE, _BWD_DONE, _UP_DONE, _UPDATE_DONE, _DOWN_DONE = range(6)


class _FifoLink:
    """Serial resource serving queued slices in arrival order."""

    def __init__(self) -> None:
        self.busy = False
        self.pending: deque[tuple[int, int, int]] = deque()  # (iteration, layer, slice)

    def enqueue(self, iteration: int, layer: int, sl: int) -> None:
        self.pending.append((iteration, layer, sl))

    def pick(self) -> tuple[int, int, int]:
        return self.pending.popleft()


class _PriorityLink:
    """Serial resource serving the most urgent queued slice first.

    A slice's priority is its key's order, as in ``plan``; the heap key is
    (layer, slice, iteration, arrival).
    """

    def __init__(self) -> None:
        self.busy = False
        self.pending: list[tuple[int, int, int, int]] = []
        self.arrivals = 0

    def enqueue(self, iteration: int, layer: int, sl: int) -> None:
        heapq.heappush(self.pending, (layer, sl, iteration, self.arrivals))
        self.arrivals += 1

    def pick(self) -> tuple[int, int, int]:
        layer, sl, iteration, _ = heapq.heappop(self.pending)
        return iteration, layer, sl


def simulate(scenario: Scenario) -> Timeline:
    scenario.validate()
    L = scenario.profile.num_layers
    n_iter = scenario.num_iterations
    fwd_time = [l.fwd_time for l in scenario.profile.layers]
    bwd_time = [l.bwd_time for l in scenario.profile.layers]
    costs = [scenario.slice_costs(i) for i in range(L)]
    n_slices = [len(cs) for cs in costs]
    ovh = scenario.per_slice_overhead
    up_cost = [[c.up + ovh if c.up > 0 else 0 for c in cs] for cs in costs]
    update_cost = [[c.update for c in cs] for cs in costs]
    down_cost = [[c.down + ovh if c.down > 0 else 0 for c in cs] for cs in costs]
    serial_update = scenario.serial_update

    entries: list[TimelineEntry] = []
    events: list[tuple[int, int, int, int, int]] = []  # (tick, kind, iteration, layer, slice)
    heapq.heappush(events, (0, _BOOT, 0, 0, 0))

    Link = _PriorityLink if scenario.policy == PRIORITY_SLICED else _FifoLink
    uplink = Link()
    downlink = Link()
    update_link = Link()  # used only when serial_update

    bwd_ready: set[tuple[int, int]] = set()
    # a forward (k, l) needs forward (k, l-1) or backward (k-1, 0) done (its
    # chain) and every slice of (k-1, l) downloaded (its params); whichever
    # comes last moves the key into fwd_ready
    fwd_chain_ok: set[tuple[int, int]] = set()
    fwd_params_ok: set[tuple[int, int]] = set()
    fwd_ready: set[tuple[int, int]] = set()
    down_remaining = {(k, l): n_slices[l] for k in range(n_iter) for l in range(L)}

    def chain_ok(key: tuple[int, int]) -> None:
        fwd_chain_ok.add(key)
        if key in fwd_params_ok:
            fwd_ready.add(key)

    def params_ok(key: tuple[int, int]) -> None:
        fwd_params_ok.add(key)
        if key in fwd_chain_ok:
            fwd_ready.add(key)

    def start_ready_computes(t: int) -> None:
        while bwd_ready:
            k, l = min(bwd_ready)
            bwd_ready.discard((k, l))
            entries.append(TimelineEntry(COMPUTE, f"bwd:{k}:L{l}", t, t + bwd_time[l]))
            heapq.heappush(events, (t + bwd_time[l], _BWD_DONE, k, l, 0))
            if bwd_time[l] > 0:
                break  # completion arrives later; chain resumes then
        for k, l in sorted(fwd_ready):
            entries.append(TimelineEntry(COMPUTE, f"fwd:{k}:L{l}", t, t + fwd_time[l]))
            heapq.heappush(events, (t + fwd_time[l], _FWD_DONE, k, l, 0))
        fwd_ready.clear()

    def into_update(t: int, k: int, l: int, s: int) -> None:
        cost = update_cost[l][s]
        if cost == 0:
            heapq.heappush(events, (t, _UPDATE_DONE, k, l, s))
        elif serial_update:
            update_link.enqueue(k, l, s)
        else:
            entries.append(TimelineEntry(UPDATE, f"upd:{k}:L{l}:s{s}", t, t + cost))
            heapq.heappush(events, (t + cost, _UPDATE_DONE, k, l, s))

    def handle(ev: tuple[int, int, int, int, int]) -> None:
        t, kind, k, l, s = ev
        if kind == _BOOT:
            bwd_ready.add((0, L - 1))
        elif kind == _BWD_DONE:
            for sl in range(n_slices[l]):
                if up_cost[l][sl] == 0:
                    heapq.heappush(events, (t, _UP_DONE, k, l, sl))
                else:
                    uplink.enqueue(k, l, sl)
            if l > 0:
                bwd_ready.add((k, l - 1))
            else:
                chain_ok((k + 1, 0))
        elif kind == _FWD_DONE:
            if l < L - 1:
                chain_ok((k, l + 1))
            elif k < n_iter:
                bwd_ready.add((k, L - 1))
        elif kind == _UP_DONE:
            if up_cost[l][s] > 0:
                uplink.busy = False
            into_update(t, k, l, s)
        elif kind == _UPDATE_DONE:
            if serial_update and update_cost[l][s] > 0:
                update_link.busy = False
            if down_cost[l][s] == 0:
                heapq.heappush(events, (t, _DOWN_DONE, k, l, s))
            else:
                downlink.enqueue(k, l, s)
        elif kind == _DOWN_DONE:
            if down_cost[l][s] > 0:
                downlink.busy = False
            down_remaining[(k, l)] -= 1
            if down_remaining[(k, l)] == 0:
                params_ok((k + 1, l))

    def dispatch_links(t: int) -> None:
        if not uplink.busy and uplink.pending:
            k, l, s = uplink.pick()
            uplink.busy = True
            entries.append(TimelineEntry(UPLINK, f"up:{k}:L{l}:s{s}", t, t + up_cost[l][s]))
            heapq.heappush(events, (t + up_cost[l][s], _UP_DONE, k, l, s))
        if serial_update and not update_link.busy and update_link.pending:
            k, l, s = update_link.pick()
            update_link.busy = True
            cost = update_cost[l][s]
            entries.append(TimelineEntry(UPDATE, f"upd:{k}:L{l}:s{s}", t, t + cost))
            heapq.heappush(events, (t + cost, _UPDATE_DONE, k, l, s))
        if not downlink.busy and downlink.pending:
            k, l, s = downlink.pick()
            downlink.busy = True
            entries.append(TimelineEntry(DOWNLINK, f"down:{k}:L{l}:s{s}", t, t + down_cost[l][s]))
            heapq.heappush(events, (t + down_cost[l][s], _DOWN_DONE, k, l, s))

    while events:
        t = events[0][0]
        while events and events[0][0] == t:
            batch = []
            while events and events[0][0] == t:
                batch.append(heapq.heappop(events))
            for ev in batch:
                handle(ev)
            start_ready_computes(t)
        dispatch_links(t)

    return Timeline(entries=sorted(entries, key=_ENTRY_ORDER))

