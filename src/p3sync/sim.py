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

A ``Timeline`` is that run, its period and the number of iterations; nothing
is replayed until it is read. The run holds ``(start, end, resource, slot,
tail)``, sorted: ``slot`` 0 to 4 picks the iteration's label, ``bwd:k``,
``up:k``, ``upd:k``, ``down:k`` or ``fwd:k+1``, and ``tail`` is the ``:L{l}``
or ``:L{l}:s{s}`` after it. A timeline entry is a plain tuple ``(start, end,
resource, item)``, so its natural order is timeline order; ``entries`` builds
and sorts them all. ``to_csv`` writes them in that order straight from the
run, iteration after iteration, since every row lies within its iteration's
period and the run's order is each iteration's entry order, compute's ``bwd``
sorting before its ``fwd`` in both. Rows of two iterations can tie only at
the tick between them, and only when the run's first row spans (0, 0) and its
last (period, period); then items decide, as strings, and ``to_csv`` writes
the sorted entries. ``summary`` reads the run once: the makespan is N-1
periods past its last end, a link's busy ticks are N times the run's, and its
first start and the layer-0 delay are the run's, so every value, its
rounding too, is that of the entries. The passes cost O(S log S) over the S
slices of one iteration, for the downlink's arrival sort, the priority heap
and the run's sort; ``summary`` O(S); ``to_csv`` O(S) per iteration.

``simulate`` trusts its scenario: a ``Scenario`` checks itself when it is
built, its profile having checked itself before it, so none reaches
``simulate`` unchecked.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, replace
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


def _labels(k: int) -> tuple[str, ...]:
    """Iteration k's label of each slot of the run."""
    return f"bwd:{k}", f"up:{k}", f"upd:{k}", f"down:{k}", f"fwd:{k + 1}"


@dataclass(frozen=True)
class Timeline:
    """One iteration's run, its period and the number of iterations.

    ``run`` holds ``(start, end, resource, slot, tail)`` in sorted order, with
    every start at or after tick 0 and every end at or before ``period``.
    Iteration k is the run shifted by ``k * period``, each row labelled with
    iteration k's label of its slot; ``entries`` lists every iteration's rows
    as ``(start, end, resource, item)`` tuples, sorted. Each ``(resource,
    item)`` appears once, and every uplink and downlink row is non-empty, with
    no two on a link overlapping: a link is dispatched only when it is not
    busy, and a zero-cost slice never queues on it. The readers below assume
    all of this of the run, and ``summary`` also that it holds one layer-0
    backward and one layer-0 forward.

    ``to_csv`` writes iteration after iteration straight from the run, which
    is the sorted order of the entries unless two iterations tie at a
    boundary, as shown there. ``summary`` reads the run once. Neither builds
    ``entries``.
    """

    run: list[tuple[int, int, str, int, str]]
    period: int
    num_iterations: int

    @property
    def entries(self) -> list[tuple[int, int, str, str]]:
        entries: list[tuple[int, int, str, str]] = []
        for k in range(self.num_iterations):
            t, labels = k * self.period, _labels(k)
            entries += [(s + t, e + t, r, labels[slot] + tail) for s, e, r, slot, tail in self.run]
        entries.sort()
        return entries

    def to_csv(self) -> str:
        """The entries as CSV rows, in entry order.

        Within one iteration, the run's order is the entries' order: rows of
        one resource carry one label, so they compare by tail in both, and
        compute's two labels, ``bwd:k`` and ``fwd:k+1``, are ordered as their
        slots 0 and 4. Iteration k's rows start in [kP, (k+1)P] and end by
        (k+1)P, P being the period, so each of them sorts at or before each of
        iteration k+1's, which start at (k+1)P or later. The one tie left is a
        row of k that starts and ends at (k+1)P against a row of k+1 that
        starts and ends there. The run has the first only if its last row
        spans (P, P), the largest span a row can have, and the second only if
        its first row spans (0, 0), the smallest. Two such rows compare by
        resource and item, and items of two iterations compare as strings
        (``fwd:10`` before ``fwd:9``), so then the rows are the sorted entries.
        A period of 0 is such a case, as is zero-time compute at both ends.
        """
        run, period = self.run, self.period
        if run and run[0][:2] == (0, 0) and run[-1][:2] == (period, period):
            rows = [f"{r},{i},{s},{e}\n" for s, e, r, i in self.entries]
        else:
            rows = []
            for k in range(self.num_iterations):
                t, labels = k * period, _labels(k)
                rows += [f"{r},{labels[slot]}{tail},{s + t},{e + t}\n" for s, e, r, slot, tail in run]
        return "resource,item,start,end\n" + "".join(rows)

    def summary(self) -> dict:
        """Makespan, the last layer-0 delay and both links' utilization, from one walk of the run.

        Iteration k adds k periods to each of its times, so the makespan is
        (N-1) periods past the run's last end, each link is busy N times the
        run's ticks and first busy at the run's first start on it, and the
        delay between backward N-1 and forward N on layer 0 is the run's.
        """
        last_end = 0
        busy = {UPLINK: 0, DOWNLINK: 0}
        first: dict[str, int] = {}
        layer0: dict[int, tuple[int, int]] = {}  # slot 0 (backward) and 4 (forward)
        for s, end, r, slot, tail in self.run:
            if end > last_end:
                last_end = end
            if r in busy:
                busy[r] += end - s
                first.setdefault(r, s)
            elif r == COMPUTE and tail == ":L0":
                layer0[slot] = (s, end)
        n = self.num_iterations
        makespan = (n - 1) * self.period + last_end
        out = {"makespan": makespan}
        if len(layer0) == 2:
            out["inter_iteration_delay"] = layer0[4][0] - layer0[0][1]
        for link, ticks in busy.items():
            out[f"{link}_utilization"] = round(n * ticks / (makespan - first[link]), 6) if link in first else 0.0
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
    return Timeline(run, at[0], scenario.num_iterations)
