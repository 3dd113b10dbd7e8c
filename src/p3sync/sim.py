"""Deterministic simulator of one worker/server synchronization pipeline.

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

Iteration k's traffic drains before iteration k+1's starts. Every forward
(k+1, l) waits for all of layer l's iteration-k downloads, and backward k+1
follows the last forward of k+1, so all of iteration k's link work has ended
before any slice of iteration k+1 reaches the uplink. One iteration is five
passes, in order: the backward chain of k, the uplink, the update (a pure
delay), the downlink, and the forward chain of k+1. A serial link is one loop:
a slice starts at the later of the link's free tick and its arrival. The FIFO
policies serve in arrival order; priority-sliced serves, from a heap, the
arrived slice with the smallest (layer, slice), since a slice's priority is
its key's order, as in ``plan``. A zero-cost slice skips the link.

Ties within a tick follow a causal sub-step rule. Every event has a position
(tick t, step j); the run starts at (0, 1). A zero-tick step that an event
causes lands at (t, j+1), and a step of d > 0 ticks ends at (t+d, 1). A
compute starts at the later of its causes: a forward at the later of the
compute before it and its layer's last download. A FIFO link orders
arrivals of one tick by (step, layer, slice); a priority link picks among all
slices that have arrived by the tick at which it is free.

So every iteration has the same schedule, shifted to its start tick, and
``simulate`` runs the five passes once, from (0, 1) with both links free. The
run's period is the tick at which its last forward ends, where the next
backward starts; iteration k is the run shifted by k periods and relabelled:
  1. the links are drained: the free ticks an iteration inherits are at or
     before its first arrival on each link, so they never delay it;
  2. costs are tick differences, so a schedule that starts at tick t is the
     one that starts at tick 0, shifted by t;
  3. ties depend only on steps compared within one tick: at the start tick
     every step is the start step plus what the sub-step rule adds, and every
     later tick begins again at step 1. So the start step orders nothing, and
     an iteration that starts at (t, 3), as fig6's second one does, runs as
     one that starts at (t, 1).
The passes cost O(S log S) over the S slices of one iteration, for the
downlink's arrival sort and the priority heap, and the replay O(S) per
iteration.

A timeline entry is a plain tuple ``(start, end, resource, item)``, so its
natural order is timeline order. The run holds ``(start, end, resource, slot,
tail)``, sorted: ``slot`` 0 to 4 picks the iteration's label, ``bwd:k``,
``up:k``, ``upd:k``, ``down:k`` or ``fwd:k+1``, and ``tail`` is the ``:L{l}``
or ``:L{l}:s{s}`` after it. The one resource with two labels, compute, has
``bwd`` before ``fwd`` in both orders, so each replayed iteration is a sorted
run of entries, and the one sort of the whole list merges them. ``simulate``
returns the list as it stands: ``to_csv`` writes the entries in that order
and ``summary`` reads each link in one pass.

``simulate`` trusts its scenario: a ``Scenario`` checks itself when it is
built, its profile having checked itself before it, so none reaches
``simulate`` unchecked.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

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
    """A profile, one stage cost per layer and a policy; checked when built, as a plan is."""

    profile: ModelProfile
    stages: tuple[StageCost, ...]
    policy: str
    slice_ticks: int = 1
    num_iterations: int = 1
    per_slice_overhead: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
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

    def slice_costs(self, layer_index: int) -> list[tuple[int, int, int]]:
        """The layer's per-slice ``(up, update, down)`` costs, in slice order; they sum to its stage cost."""
        st = self.stages[layer_index]
        if self.policy == AGGRESSIVE_COARSE or st.up == 0:
            return [(st.up, st.update, st.down)]
        return [
            (
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
        return Scenario(**{**top, "profile": profile_from_dict(top["profile"], "profile."), "stages": stages})
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


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
    for l, slices in plan.by_layer().items():
        rows = [s.length for s in slices]
        cut = [up for up, _, _ in sc.slice_costs(l)]
        if rows != cut:
            raise ScenarioError(f"layer {l}: the plan's slices {rows} are not the {sc.policy} cut {cut}")
    return sc


@dataclass
class Timeline:
    """The entries of a run, as ``simulate`` returns them.

    Each entry is a plain tuple ``(start, end, resource, item)``, one busy
    span of a resource. The entries are sorted in tuple order, each
    ``(resource, item)`` appears once, and every uplink and downlink entry is
    non-empty, with no two on a link overlapping: a link is dispatched only
    when it is not busy, and a zero-cost slice never queues on it. The readers
    below assume all three. ``summary`` also relies on a run ending with
    forward N after backward N-1, and on a layer's forwards lasting alike, as
    its backwards do: entries that tie on start tie on end, so the last layer-0
    ones in entry order have the times of forward N and backward N-1.
    """

    entries: list[tuple[int, int, str, str]] = field(default_factory=list)

    def to_csv(self) -> str:
        rows = "".join([f"{r},{i},{s},{e}\n" for s, e, r, i in self.entries])
        return "resource,item,start,end\n" + rows

    def summary(self) -> dict:
        """Makespan, the last layer-0 delay and both links' utilization, from one walk."""
        makespan = 0
        busy = {UPLINK: 0, DOWNLINK: 0}
        first: dict[str, int] = {}
        last0: dict[str, tuple[int, int]] = {}  # "fwd" and "bwd": the last layer-0 entry of each
        for s, end, r, item in self.entries:
            if end > makespan:
                makespan = end
            if r in busy:
                busy[r] += end - s
                first.setdefault(r, s)
            elif r == COMPUTE and item.endswith(":L0"):
                last0[item[:3]] = (s, end)
        out = {"makespan": makespan}
        if len(last0) == 2:
            out["inter_iteration_delay"] = last0["fwd"][0] - last0["bwd"][1]
        for link, ticks in busy.items():
            out[f"{link}_utilization"] = round(ticks / (makespan - first[link]), 6) if link in first else 0.0
        return out


def _serve(arrivals, cost, priority, resource, slot, suffix, append):
    """Serve ``arrivals`` on one serial link that is free from tick 0.

    ``arrivals`` are positions ``(tick, step, slice)`` in sorted order, a slice
    being its index in ``(layer, slice)`` order. Each slice starts at the later
    of the link's free tick and its arrival; FIFO serves in arrival order,
    priority the arrived slice of smallest index. A zero-cost slice skips the
    link and is done one step after it arrives. Returns each slice's done
    position, by index.
    """
    done = [None] * len(cost)
    if priority:
        queue: list[int] = []
        push, pop = heapq.heappush, heapq.heappop
    else:
        queue = deque()
        push, pop = deque.append, deque.popleft
    free = 0
    # every queued slice has arrived by ``free``, where the next pick starts;
    # a last arrival at tick inf drains the queue
    for t, j, g in arrivals + [(math.inf, 0, -1)]:
        while queue and free < t:
            q = pop(queue)
            end = free + cost[q]
            append((free, end, resource, slot, suffix[q]))
            done[q] = (end, 1, q)
            free = end
        if g < 0:
            break
        if cost[g] == 0:
            done[g] = (t, j + 1, g)
            continue
        if free < t:
            free = t  # the link idles until this arrival
        push(queue, g)
    return done


def simulate(scenario: Scenario) -> Timeline:
    L = scenario.profile.num_layers
    fwd_time = [l.fwd_time for l in scenario.profile.layers]
    bwd_time = [l.bwd_time for l in scenario.profile.layers]
    costs = [scenario.slice_costs(i) for i in range(L)]
    # slices are numbered in (layer, slice) order, which is their priority order
    first = [0]
    for cs in costs:
        first.append(first[-1] + len(cs))
    ovh = scenario.per_slice_overhead
    up_cost = [up + ovh if up > 0 else 0 for cs in costs for up, _, _ in cs]
    update_cost = [update for cs in costs for _, update, _ in cs]
    down_cost = [down + ovh if down > 0 else 0 for cs in costs for _, _, down in cs]
    # a slice's tail in the items of its link and update entries
    suffix = [f":L{l}:s{s}" for l, cs in enumerate(costs) for s in range(len(cs))]
    priority = scenario.policy == PRIORITY_SLICED

    # one iteration as (start, end, resource, slot, tail), from (0, 1) with both links free
    run: list[tuple[int, int, str, int, str]] = []
    append = run.append
    at = (0, 1)  # the compute chain's position: where its next compute may start
    # backward chain; each layer's slices reach the uplink as it ends
    arrivals = []
    for l in range(L - 1, -1, -1):
        t, j = at
        end = t + bwd_time[l]
        append((t, end, COMPUTE, 0, f":L{l}"))
        t, j = at = (end, 1) if end > t else (t, j + 1)
        arrivals += [(t, j, g) for g in range(first[l], first[l + 1])]
    up_done = _serve(arrivals, up_cost, priority, UPLINK, 1, suffix, append)
    # the update, a pure delay; its ends are the downlink's arrivals
    arrivals = []
    for t, j, g in up_done:
        c = update_cost[g]
        if c:
            append((t, t + c, UPDATE, 2, suffix[g]))
            arrivals.append((t + c, 1, g))
        else:
            arrivals.append((t, j + 1, g))
    arrivals.sort()
    down_done = _serve(arrivals, down_cost, priority, DOWNLINK, 3, suffix, append)
    # the next forward chain; a layer's forward also waits for its parameters
    for l in range(L):
        t, j, _ = max(down_done[first[l]:first[l + 1]])
        t, j = at = max(at, (t, j))
        end = t + fwd_time[l]
        append((t, end, COMPUTE, 4, f":L{l}"))
        at = (end, 1) if end > t else (t, j + 1)
    run.sort()
    period = at[0]

    # iteration k is that run, shifted to tick k * period and relabelled
    entries: list[tuple[int, int, str, str]] = []
    for k in range(scenario.num_iterations):
        t = k * period
        labels = (f"bwd:{k}", f"up:{k}", f"upd:{k}", f"down:{k}", f"fwd:{k + 1}")
        entries += [(s + t, e + t, r, labels[slot] + tail) for s, e, r, slot, tail in run]

    entries.sort()
    return Timeline(entries=entries)
