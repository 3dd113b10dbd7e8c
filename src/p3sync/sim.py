"""Deterministic discrete-event simulator of one worker/server synchronization pipeline.

Four resources are modeled: an emulated compute device (forward/backward
chains), a serial uplink, an update stage, a per-slice delay, and a serial
downlink. Gradients of a layer become uplink-eligible when its backward step
finishes; the next forward of a layer waits for all of its slices to complete
the downlink. All times are integer ticks.

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
serves the smallest (layer, slice, iteration), since a slice's priority is its
key's order, as in ``plan``. A slice enters each link once, so that heap key
is unique and needs no arrival counter. Each link keeps a deque (FIFO) or a
heap (priority), so a link pick costs O(1) or O(log n) in the number of
queued slices. Forwards wait in a ready-set that whichever of their two
conditions arrives last fills, so a run costs O(n log n) in its entries.

Timeline entries are named tuples ``(start, end, resource, item)``, so their
natural order is timeline order. ``simulate`` builds each entry as a plain
tuple, its item as a precomputed iteration prefix plus a precomputed
``:L{l}:s{s}`` suffix, sorts the list once and converts it to ``TimelineEntry``
in one pass. ``Timeline`` reads entries only in that form, so ``to_csv``
writes them as they stand and ``summary`` reads each link in one pass.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from .model import ModelProfile, profile_from_dict, typed_fields
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
    name: str = ""

    def validate(self) -> None:
        self.profile.validate()
        if self.policy not in POLICIES:
            raise ScenarioError(f"unknown policy {self.policy!r}")
        if len(self.stages) != self.profile.num_layers:
            raise ScenarioError(f"{len(self.stages)} stages for {self.profile.num_layers} profile layers")
        for name, least in (("slice_ticks", 1), ("num_iterations", 1), ("per_slice_overhead", 0)):
            if getattr(self, name) < least:
                raise ScenarioError(f"{name} {getattr(self, name)} must be >= {least}")
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


_STAGE_KINDS = {"up": int, "update": int, "down": int}
_SCENARIO_KINDS = {
    "name": str, "policy": str, "slice_ticks": int, "num_iterations": int, "per_slice_overhead": int,
    "profile": dict, "stages": list,
}


def scenario_from_dict(obj: dict) -> Scenario:
    try:
        top = typed_fields(obj, _SCENARIO_KINDS, ScenarioError)
        stages = tuple(
            StageCost(**typed_fields(s, _STAGE_KINDS, ScenarioError, f"stages[{pos}]."))
            for pos, s in enumerate(top["stages"])
        )
        sc = Scenario(**{**top, "profile": profile_from_dict(top["profile"], "profile."), "stages": stages})
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
    """Write ``sc`` as the JSON of its dataclass fields, which ``scenario_from_dict`` reads."""
    Path(path).write_text(json.dumps(asdict(sc), indent=2) + "\n")


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
    server's bucket feeds every worker. A p3 plan runs priority-sliced at its
    longest slice, a baseline plan aggressive-coarse; rows that cut a layer
    otherwise raise ScenarioError, as the timeline would not be the plan's.
    """
    validate_plan(plan, profile)
    if plan.num_servers != 1:
        raise ScenarioError(f"plan has {plan.num_servers} servers; the simulator models one")
    if not 0 < link_bps < math.inf:
        raise ScenarioError(f"link_bps {link_bps} must be finite and positive")
    if num_workers < 1:
        raise ScenarioError(f"num_workers {num_workers} must be >= 1")
    layers = tuple(
        replace(l, fwd_time=round(l.fwd_time * link_bps / 32e6), bwd_time=round(l.bwd_time * link_bps / 32e6))
        for l in profile.layers
    )
    sc = Scenario(
        profile=replace(profile, layers=layers),
        stages=tuple(StageCost(l.param_count, 0, num_workers * l.param_count) for l in profile.layers),
        policy=PRIORITY_SLICED if plan.mode == P3_MODE else AGGRESSIVE_COARSE,
        slice_ticks=max(s.length for s in plan.slices),
        num_iterations=num_iterations,
        name=f"{profile.name}-{plan.mode}",
    )
    for l in range(profile.num_layers):
        rows = [s.length for s in plan.slices_of_layer(l)]
        cut = [c.up for c in sc.slice_costs(l)]
        if rows != cut:
            raise ScenarioError(f"layer {l}: the plan's slices {rows} are not the {sc.policy} cut {cut}")
    sc.validate()
    return sc


class TimelineEntry(NamedTuple):
    """One busy span of a resource; tuple order is timeline order."""

    start: int
    end: int
    resource: str
    item: str


def _delays(layer0: dict[str, TimelineEntry]) -> list[int]:
    """fwd:k+1:L0 start - bwd:k:L0 end for k = 0, 1, ... while both exist."""
    delays = []
    k = 0
    while f"bwd:{k}:L0" in layer0 and f"fwd:{k + 1}:L0" in layer0:
        delays.append(layer0[f"fwd:{k + 1}:L0"].start - layer0[f"bwd:{k}:L0"].end)
        k += 1
    return delays


@dataclass
class Timeline:
    """The entries of a run, as ``simulate`` returns them.

    They are sorted in tuple order, each ``(resource, item)`` appears once, and
    every uplink and downlink entry is non-empty, with no two on a link
    overlapping: a link is dispatched only when it is not busy, and a
    zero-cost slice never queues on it. The readers below assume all three.
    """

    entries: list[TimelineEntry] = field(default_factory=list)

    def to_csv(self) -> str:
        rows = "".join([f"{r},{i},{s},{e}\n" for s, e, r, i in self.entries])
        return "resource,item,start,end\n" + rows

    def summary(self) -> dict:
        """Makespan, the last layer-0 delay and both links' utilization, from one walk."""
        makespan = 0
        busy = {UPLINK: 0, DOWNLINK: 0}
        first: dict[str, int] = {}
        layer0: dict[str, TimelineEntry] = {}
        for e in self.entries:
            s, end, r, item = e
            if end > makespan:
                makespan = end
            if r in busy:
                busy[r] += end - s
                first.setdefault(r, s)
            elif r == COMPUTE and item.endswith(":L0"):
                layer0[item] = e
        out = {"makespan": makespan}
        delays = _delays(layer0)
        if delays:
            out["inter_iteration_delay"] = delays[-1]
        for link, ticks in busy.items():
            out[f"{link}_utilization"] = round(ticks / (makespan - first[link]), 6) if link in first else 0.0
        return out


# event kinds, in within-tick processing order
_BOOT, _FWD_DONE, _BWD_DONE, _UP_DONE, _UPDATE_DONE, _DOWN_DONE = range(6)


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
    # a link entry's item is its iteration's prefix plus its slice's suffix
    suffix = [[f":L{l}:s{s}" for s in range(n)] for l, n in enumerate(n_slices)]
    up_item = [f"up:{k}" for k in range(n_iter)]
    upd_item = [f"upd:{k}" for k in range(n_iter)]
    down_item = [f"down:{k}" for k in range(n_iter)]

    # each serial link queues (layer, slice, iteration); a key enters a link
    # at most once, so the priority heap needs no arrival tie-break
    if scenario.policy == PRIORITY_SLICED:
        up_q, down_q = [], []
        push, pop = heapq.heappush, heapq.heappop
    else:
        up_q, down_q = deque(), deque()
        push, pop = deque.append, deque.popleft
    up_busy = down_busy = False

    entries: list[tuple[int, int, str, str]] = []  # TimelineEntry fields, as plain tuples
    append = entries.append
    events: list[tuple[int, int, int, int, int]] = [(0, _BOOT, 0, 0, 0)]  # (tick, kind, iteration, layer, slice)
    heappush, heappop = heapq.heappush, heapq.heappop

    bwd_ready: set[tuple[int, int]] = set()
    # a forward (k, l) needs forward (k, l-1) or backward (k-1, 0) done (its
    # chain) and every slice of (k-1, l) downloaded (its params); each arrives
    # once, the first parks the key in fwd_half and the second moves it to fwd_ready
    fwd_half: set[tuple[int, int]] = set()
    fwd_ready: set[tuple[int, int]] = set()
    down_remaining = [list(n_slices) for _ in range(n_iter)]

    # per tick: handle every queued event of t, start the computes that made
    # ready, repeat while that left events at t; then dispatch each link once
    # (the FIFO links' arrival order depends on this batching)
    while events:
        t = events[0][0]
        while events and events[0][0] == t:
            batch = []
            while events and events[0][0] == t:
                batch.append(heappop(events))
            for _, kind, k, l, s in batch:
                if kind == _UP_DONE:
                    if up_cost[l][s] > 0:
                        up_busy = False
                    cost = update_cost[l][s]
                    if cost == 0:
                        heappush(events, (t, _UPDATE_DONE, k, l, s))
                    else:
                        append((t, t + cost, UPDATE, upd_item[k] + suffix[l][s]))
                        heappush(events, (t + cost, _UPDATE_DONE, k, l, s))
                elif kind == _UPDATE_DONE:
                    if down_cost[l][s] == 0:
                        heappush(events, (t, _DOWN_DONE, k, l, s))
                    else:
                        push(down_q, (l, s, k))
                elif kind == _DOWN_DONE:
                    if down_cost[l][s] > 0:
                        down_busy = False
                    down_remaining[k][l] -= 1
                    if down_remaining[k][l] == 0:
                        key = (k + 1, l)
                        (fwd_ready if key in fwd_half else fwd_half).add(key)
                elif kind == _BWD_DONE:
                    for sl in range(n_slices[l]):
                        if up_cost[l][sl] == 0:
                            heappush(events, (t, _UP_DONE, k, l, sl))
                        else:
                            push(up_q, (l, sl, k))
                    if l > 0:
                        bwd_ready.add((k, l - 1))
                    else:
                        key = (k + 1, 0)
                        (fwd_ready if key in fwd_half else fwd_half).add(key)
                elif kind == _FWD_DONE:
                    if l < L - 1:
                        key = (k, l + 1)
                        (fwd_ready if key in fwd_half else fwd_half).add(key)
                    elif k < n_iter:
                        bwd_ready.add((k, L - 1))
                else:  # _BOOT
                    bwd_ready.add((0, L - 1))
            # start ready computes
            while bwd_ready:
                k, l = key = min(bwd_ready)
                bwd_ready.discard(key)
                end = t + bwd_time[l]
                append((t, end, COMPUTE, f"bwd:{k}:L{l}"))
                heappush(events, (end, _BWD_DONE, k, l, 0))
                if end > t:
                    break  # completion arrives later; chain resumes then
            if fwd_ready:
                for k, l in sorted(fwd_ready):
                    end = t + fwd_time[l]
                    append((t, end, COMPUTE, f"fwd:{k}:L{l}"))
                    heappush(events, (end, _FWD_DONE, k, l, 0))
                fwd_ready.clear()
        # dispatch the links
        if not up_busy and up_q:
            l, s, k = pop(up_q)
            up_busy = True
            end = t + up_cost[l][s]
            append((t, end, UPLINK, up_item[k] + suffix[l][s]))
            heappush(events, (end, _UP_DONE, k, l, s))
        if not down_busy and down_q:
            l, s, k = pop(down_q)
            down_busy = True
            end = t + down_cost[l][s]
            append((t, end, DOWNLINK, down_item[k] + suffix[l][s]))
            heappush(events, (end, _DOWN_DONE, k, l, s))

    entries.sort()
    return Timeline(entries=list(map(tuple.__new__, repeat(TimelineEntry), entries)))
