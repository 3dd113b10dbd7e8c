import hashlib
import json
import math
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3sync.model import BUILTIN_NAMES, LayerSpec, ModelProfile, builtin_profile
from p3sync.plan import BASELINE_MODE, MODES, P3_MODE, PlanError, Slice, SliceKey, chunk_layer, make_plan, validate_plan
from p3sync.sim import (
    AGGRESSIVE_COARSE,
    AGGRESSIVE_SLICED,
    COMPUTE,
    DOWNLINK,
    PRIORITY_SLICED,
    Scenario,
    ScenarioError,
    StageCost,
    Timeline,
    UPDATE,
    UPLINK,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_from_plan,
    simulate,
)

REPO = Path(__file__).resolve().parent.parent


def tick_profile(fwd, bwd, n, name="sc"):
    return ModelProfile(name, 0, tuple(LayerSpec(i, f"L{i}", 1, fwd, bwd) for i in range(n)))


def fig4(policy):
    return Scenario(
        profile=tick_profile(1, 1, 3),
        stages=(StageCost(2, 0, 0),) * 3,
        policy=policy,
        slice_ticks=1,
        num_iterations=1,
    )


def fig6(policy):
    return Scenario(
        profile=tick_profile(0, 0, 3),
        stages=(StageCost(1, 1, 1), StageCost(3, 3, 3), StageCost(1, 1, 1)),
        policy=policy,
        slice_ticks=1,
        num_iterations=1,
    )


def scenario_json(sc):
    """``sc`` as a scenario file holds it: the JSON of its dataclass, read back."""
    return json.loads(json.dumps(asdict(sc)))


# hand-replayed event schedules, frozen
FIG4_AGGRESSIVE_GOLDEN = [
    (COMPUTE, "bwd:0:L2", 0, 1),
    (COMPUTE, "bwd:0:L1", 1, 2),
    (UPLINK, "up:0:L2:s0", 1, 3),
    (COMPUTE, "bwd:0:L0", 2, 3),
    (UPLINK, "up:0:L1:s0", 3, 5),
    (UPLINK, "up:0:L0:s0", 5, 7),
    (COMPUTE, "fwd:1:L0", 7, 8),
    (COMPUTE, "fwd:1:L1", 8, 9),
    (COMPUTE, "fwd:1:L2", 9, 10),
]

FIG4_PRIORITY_GOLDEN = [
    (COMPUTE, "bwd:0:L2", 0, 1),
    (COMPUTE, "bwd:0:L1", 1, 2),
    (UPLINK, "up:0:L2:s0", 1, 2),
    (COMPUTE, "bwd:0:L0", 2, 3),
    (UPLINK, "up:0:L1:s0", 2, 3),
    (UPLINK, "up:0:L0:s0", 3, 4),
    (UPLINK, "up:0:L0:s1", 4, 5),
    (COMPUTE, "fwd:1:L0", 5, 6),
    (UPLINK, "up:0:L1:s1", 5, 6),
    (COMPUTE, "fwd:1:L1", 6, 7),
    (UPLINK, "up:0:L2:s1", 6, 7),
    (COMPUTE, "fwd:1:L2", 7, 8),
]


class Entry(NamedTuple):
    """A timeline entry ``(start, end, resource, item)`` with its fields named."""

    start: int
    end: int
    resource: str
    item: str


def named(timeline):
    """``timeline``'s entries as ``Entry``, so that an assertion can read ``e.start``."""
    return [Entry(*e) for e in timeline.entries]


def as_tuples(timeline):
    return [(e.resource, e.item, e.start, e.end) for e in named(timeline)]


def link_spans(timeline, link):
    """The (start, end) of each entry on ``link``, in timeline order."""
    return [(e.start, e.end) for e in named(timeline) if e.resource == link]


def replayed_entries(tl):
    """Every iteration's rows of ``tl.run``, shifted by its start, relabelled
    and sorted: the reference that ``Timeline``'s readers are checked against."""
    entries = []
    for k in range(tl.num_iterations):
        t = k * tl.period
        labels = (f"bwd:{k}", f"up:{k}", f"upd:{k}", f"down:{k}", f"fwd:{k + 1}")
        entries += [(s + t, e + t, r, labels[slot] + tail) for s, e, r, slot, tail in tl.run]
    entries.sort()
    return entries


def entries_csv(entries):
    """The CSV of sorted ``entries``, one row each, in their order."""
    return "resource,item,start,end\n" + "".join([f"{r},{i},{s},{e}\n" for s, e, r, i in entries])


def entries_summary(entries):
    """``Timeline.summary`` of sorted ``entries``, from one walk over all of them."""
    makespan = 0
    busy = {UPLINK: 0, DOWNLINK: 0}
    first = {}
    last0 = {}  # "fwd" and "bwd": the last layer-0 entry of each
    for s, end, r, item in entries:
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


def test_fig4_aggressive_golden_timeline():
    tl = simulate(fig4(AGGRESSIVE_COARSE))
    got = [t for t in as_tuples(tl) if t[0] in (COMPUTE, UPLINK)]
    assert sorted(got, key=lambda t: (t[2], t[3], t[0], t[1])) == sorted(
        FIG4_AGGRESSIVE_GOLDEN, key=lambda t: (t[2], t[3], t[0], t[1])
    )
    assert tl.summary()["inter_iteration_delay"] == 4
    assert tl.summary()["makespan"] == 10
    assert link_spans(tl, UPLINK) == [(1, 3), (3, 5), (5, 7)]


def test_fig4_priority_golden_timeline():
    tl = simulate(fig4(PRIORITY_SLICED))
    got = [t for t in as_tuples(tl) if t[0] in (COMPUTE, UPLINK)]
    assert sorted(got, key=lambda t: (t[2], t[3], t[0], t[1])) == sorted(
        FIG4_PRIORITY_GOLDEN, key=lambda t: (t[2], t[3], t[0], t[1])
    )
    assert tl.summary()["inter_iteration_delay"] == 2
    assert link_spans(tl, UPLINK) == [(t, t + 1) for t in range(1, 7)]
    fwd_spans = [(e.start, e.end) for e in named(tl) if e.item.startswith("fwd:1")]
    assert fwd_spans == [(5, 6), (6, 7), (7, 8)]


def test_fig4_utilization():
    agg = simulate(fig4(AGGRESSIVE_COARSE))
    pri = simulate(fig4(PRIORITY_SLICED))
    assert agg.summary()["uplink_utilization"] == pytest.approx(6 / 9)
    assert pri.summary()["uplink_utilization"] >= agg.summary()["uplink_utilization"]


def test_fig6_makespans_and_final_downlink():
    coarse = simulate(fig6(AGGRESSIVE_COARSE))
    sliced = simulate(fig6(AGGRESSIVE_SLICED))
    assert coarse.summary()["makespan"] == 10
    assert sliced.summary()["makespan"] == 7
    # the closing stretch of the coarse run is downlink-only
    assert link_spans(coarse, DOWNLINK)[-2:] == [(6, 7), (7, 10)]
    assert (10 - 7) / 10 == pytest.approx(0.3)


def test_fig6_update_overlap():
    # the heavy middle layer's update overlaps the light first layer's update
    coarse = simulate(fig6(AGGRESSIVE_COARSE))
    upd = {e.item: (e.start, e.end) for e in named(coarse) if e.resource == UPDATE}
    assert upd["upd:0:L1:s0"] == (4, 7)
    assert upd["upd:0:L0:s0"] == (5, 6)


def test_fig6_priority_dominates_utilization():
    coarse = simulate(fig6(AGGRESSIVE_COARSE))
    pri = simulate(fig6(PRIORITY_SLICED))
    assert pri.summary()["uplink_utilization"] >= coarse.summary()["uplink_utilization"]
    assert pri.summary()["downlink_utilization"] >= coarse.summary()["downlink_utilization"]


def test_policy_dominance_delay():
    for make in (fig4, fig6):
        agg = simulate(make(AGGRESSIVE_COARSE))
        pri = simulate(make(PRIORITY_SLICED))
        assert pri.summary()["inter_iteration_delay"] <= agg.summary()["inter_iteration_delay"]


def test_zero_cost_communication_zero_delay():
    sc = Scenario(
        profile=tick_profile(1, 1, 3),
        stages=(StageCost(0, 0, 0),) * 3,
        policy=AGGRESSIVE_COARSE,
        num_iterations=1,
    )
    assert simulate(sc).summary()["inter_iteration_delay"] == 0


def test_shipped_scenarios_match_goldens():
    fig4_file = load_scenario(REPO / "scenarios" / "fig4.json")
    fig6_file = load_scenario(REPO / "scenarios" / "fig6.json")
    assert simulate(fig4_file).summary()["inter_iteration_delay"] == 4
    assert simulate(replace(fig4_file, policy=PRIORITY_SLICED)).summary()["inter_iteration_delay"] == 2
    assert simulate(fig6_file).summary()["makespan"] == 10
    assert simulate(replace(fig6_file, policy=AGGRESSIVE_SLICED)).summary()["makespan"] == 7


def test_scenario_json_roundtrip(tmp_path):
    sc = fig6(AGGRESSIVE_SLICED)
    assert scenario_from_dict(scenario_json(sc)) == sc
    sc = replace(linkbound_scenario(PRIORITY_SLICED, 2), per_slice_overhead=1)
    save_scenario(sc, tmp_path / "lb.json")
    assert load_scenario(tmp_path / "lb.json") == sc


@pytest.mark.parametrize(
    "key,value",
    [
        ("slice_ticks", True),
        ("num_iterations", 1.0),
        ("name", 5),
        ("policy", None),
    ],
)
def test_scenario_fields_are_type_checked(key, value):
    obj = scenario_json(fig4(AGGRESSIVE_COARSE))
    obj[key] = value
    with pytest.raises(ScenarioError, match=key):
        scenario_from_dict(obj)


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match="policy"):
        fig4("whatever")
    with pytest.raises(ScenarioError, match="negative"):
        replace(fig4(AGGRESSIVE_SLICED), stages=(StageCost(2, -1, 0),) * 3)


def one_layer(stage, slice_ticks, policy=AGGRESSIVE_SLICED):
    return Scenario(
        profile=tick_profile(0, 0, 1), stages=(stage,), policy=policy, slice_ticks=slice_ticks
    )


def test_remainder_slice_is_last():
    # 3 uplink ticks in slices of 2: a full slice, then the 1-tick remainder
    sc = one_layer(StageCost(3, 0, 0), slice_ticks=2)
    assert sc.slice_costs(0) == [(2, 0, 0), (1, 0, 0)]
    assert as_tuples(simulate(sc)) == [
        (COMPUTE, "bwd:0:L0", 0, 0),
        (UPLINK, "up:0:L0:s0", 0, 2),
        (UPLINK, "up:0:L0:s1", 2, 3),
        (COMPUTE, "fwd:1:L0", 3, 3),
    ]
    assert one_layer(StageCost(3, 0, 0), 2, AGGRESSIVE_COARSE).slice_costs(0) == [(3, 0, 0)]


def test_fifo_orders_same_tick_arrivals_by_step_before_layer():
    # zero compute and zero uplink and update: L1's backward ends at (0, 2), its
    # slice leaves the update at (0, 4); L0's backward ends at (0, 3), its slice
    # leaves the update at (0, 5). So the FIFO downlink takes L1 first, though
    # L0 has the smaller layer index, and both forwards wait for L0 at tick 3.
    sc = Scenario(
        profile=tick_profile(0, 0, 2),
        stages=(StageCost(0, 0, 2), StageCost(0, 0, 1)),
        policy=AGGRESSIVE_SLICED,
        num_iterations=1,
    )
    assert as_tuples(simulate(sc)) == [
        (COMPUTE, "bwd:0:L0", 0, 0),
        (COMPUTE, "bwd:0:L1", 0, 0),
        (DOWNLINK, "down:0:L1:s0", 0, 1),
        (DOWNLINK, "down:0:L0:s0", 1, 3),
        (COMPUTE, "fwd:1:L0", 3, 3),
        (COMPUTE, "fwd:1:L1", 3, 3),
    ]


def test_uneven_costs_split_cumulatively():
    # slice s covers uplink ticks [s, s + 1) of 4, so it gets 2 * (s + 1) // 4 - 2 * s // 4
    sc = one_layer(StageCost(4, 2, 0), slice_ticks=1)
    assert [update for _, update, _ in sc.slice_costs(0)] == [0, 1, 0, 1]
    upd = [(e.item, e.start, e.end) for e in named(simulate(sc)) if e.resource == UPDATE]
    assert upd == [("upd:0:L0:s1", 2, 3), ("upd:0:L0:s3", 4, 5)]


# -- invariants over random scenarios ----------------------------------------


def random_scenarios(policies=(AGGRESSIVE_COARSE, AGGRESSIVE_SLICED, PRIORITY_SLICED), divisible=False):
    """Random scenarios; with ``divisible`` every layer splits into equal slices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 4))
        layers = tuple(
            LayerSpec(i, f"L{i}", 1, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
            for i in range(n)
        )
        ticks = draw(st.integers(1, 3))
        stages = []
        for _ in range(n):
            if not divisible:
                stages.append(StageCost(*(draw(st.integers(0, 12)) for _ in range(3))))
                continue
            chunks = draw(st.integers(0, 4))
            up = ticks * chunks
            nsl = max(chunks, 1)
            stages.append(
                StageCost(up, nsl * draw(st.integers(0, 3)), nsl * draw(st.integers(0, 3)))
            )
        return Scenario(
            profile=ModelProfile("r", 0, layers),
            stages=tuple(stages),
            policy=draw(st.sampled_from(policies)),
            slice_ticks=ticks,
            num_iterations=draw(st.integers(1, 2)),
        )

    return build()


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_slices_follow_chunk_layer_and_sum_to_the_stage(sc):
    for layer, stage in enumerate(sc.stages):
        costs = sc.slice_costs(layer)
        totals = [sum(column) for column in zip(*costs)]
        assert StageCost(*totals) == stage
        if sc.policy != AGGRESSIVE_COARSE and stage.up > 0:
            assert [up for up, _, _ in costs] == [n for _, n in chunk_layer(stage.up, sc.slice_ticks)]


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_causality(sc):
    entries = named(simulate(sc))
    by_item = {e.item: e for e in entries}
    bwd_end = {}
    for e in entries:
        if e.resource == COMPUTE and e.item.startswith("bwd:"):
            _, k, lname = e.item.split(":")
            bwd_end[(int(k), int(lname[1:]))] = e.end
    for e in entries:
        if e.resource == UPLINK:
            _, k, lname, s = e.item.split(":")
            assert e.start >= bwd_end[(int(k), int(lname[1:]))]
        elif e.resource == UPDATE:
            up = by_item.get(e.item.replace("upd:", "up:"))
            if up is not None:
                assert e.start >= up.end
        elif e.resource == DOWNLINK:
            upd = by_item.get(e.item.replace("down:", "upd:"))
            if upd is not None:
                assert e.start >= upd.end


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_determinism(sc):
    assert simulate(sc).entries == simulate(sc).entries


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_work_conservation_uplink(sc):
    tl = simulate(sc)
    # eligibility: slices of layer l become available at bwd end; the uplink
    # must never sit idle across a tick where an unserved slice was available
    bwd_end = {}
    starts = {}
    for e in named(tl):
        if e.resource == COMPUTE and e.item.startswith("bwd:"):
            _, k, lname = e.item.split(":")
            bwd_end[(int(k), int(lname[1:]))] = e.end
        elif e.resource == UPLINK:
            _, k, lname, s = e.item.split(":")
            starts[(int(k), int(lname[1:]), int(s[1:]))] = e.start
    busy = link_spans(tl, UPLINK)

    def link_busy_at(t):
        return any(s <= t < e for s, e in busy)

    for (k, l, s), started in starts.items():
        for t in range(bwd_end[(k, l)], started):
            assert link_busy_at(t), f"uplink idle at {t} while {(k, l, s)} waited"


# -- slice-size sweep ---------------------------------------------------------


def single_layer_scenario(cost, policy, overhead=0, slice_ticks=1):
    return Scenario(
        profile=tick_profile(1, 1, 1),
        stages=(StageCost(cost, cost, cost),),
        policy=policy,
        slice_ticks=slice_ticks,
        num_iterations=1,
        per_slice_overhead=overhead,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([AGGRESSIVE_SLICED, PRIORITY_SLICED]),
)
def test_sweep_monotone_without_overhead_single_layer(m, t, policy):
    sc = single_layer_scenario(6 * t * m, policy, overhead=0, slice_ticks=6 * t)
    makespans = [simulate(replace(sc, slice_ticks=n)).summary()["makespan"] for n in (6 * t, 3 * t, 2 * t, t)]
    assert all(a >= b for a, b in zip(makespans, makespans[1:]))


def without_downlink(sc):
    return replace(sc, stages=tuple(replace(s, down=0) for s in sc.stages))


# with a downlink cost the property is false; see the example test below
@settings(max_examples=60, deadline=None)
@given(
    random_scenarios(policies=(AGGRESSIVE_SLICED,), divisible=True).map(without_downlink),
    st.integers(1, 1),
)
def test_sweep_monotone_without_overhead_fifo(sc, _):
    base = max((st_.up for st_ in sc.stages), default=0)
    if base == 0:
        return
    ticks = sc.slice_ticks
    sizes = sorted({d * ticks for d in (6, 3, 2, 1) if all(
        st_.up % (d * ticks) == 0 and
        (st_.update % max(st_.up // (d * ticks), 1) == 0) and
        (st_.down % max(st_.up // (d * ticks), 1) == 0)
        for st_ in sc.stages if st_.up > 0
    )}, reverse=True)
    if len(sizes) < 2:
        return
    makespans = [simulate(replace(sc, slice_ticks=n)).summary()["makespan"] for n in sizes]
    assert all(a >= b for a, b in zip(makespans, makespans[1:]))


def test_sweep_fifo_finer_slices_can_lose_on_the_downlink():
    # at slice size 1, L2's first slice joins the FIFO downlink queue at tick 1,
    # before L0's update ends at 2, so it is sent first and L0's parameters,
    # and with them the next forward pass, arrive one tick later
    layers = tuple(LayerSpec(i, f"L{i}", 1, fwd, 0) for i, fwd in enumerate((0, 2, 0, 0)))
    sc = Scenario(
        profile=ModelProfile("r", 0, layers),
        stages=(StageCost(0, 2, 1), StageCost(0, 0, 2), StageCost(2, 0, 2), StageCost(0, 0, 0)),
        policy=AGGRESSIVE_SLICED,
        slice_ticks=2,
        num_iterations=1,
    )
    assert [simulate(replace(sc, slice_ticks=n)).summary()["makespan"] for n in (2, 1)] == [5, 6]


def test_sweep_interior_minimum_with_overhead():
    cost = 60
    sc = single_layer_scenario(cost, PRIORITY_SLICED, overhead=1)
    sizes = [60, 30, 20, 15, 12, 10, 6, 5, 4, 3, 2, 1]
    makespans = [simulate(replace(sc, slice_ticks=n)).summary()["makespan"] for n in sizes]
    best = min(makespans)
    assert makespans[0] > best      # coarse strictly worse than the optimum
    assert makespans[-1] > best     # tiniest slices strictly worse too
    assert sizes[makespans.index(best)] not in (sizes[0], sizes[-1])


def test_sweep_degenerate_single_slice_equals_coarse():
    cost = 8
    sliced = single_layer_scenario(cost, AGGRESSIVE_SLICED, slice_ticks=cost)
    coarse = single_layer_scenario(cost, AGGRESSIVE_COARSE)
    assert simulate(sliced).summary()["makespan"] == simulate(coarse).summary()["makespan"]


def test_multi_iteration_delays():
    sc = replace(fig4(AGGRESSIVE_COARSE), num_iterations=3)
    layer0 = {e.item: e for e in named(simulate(sc)) if e.resource == COMPUTE and e.item.endswith(":L0")}
    delays = [layer0[f"fwd:{k + 1}:L0"].start - layer0[f"bwd:{k}:L0"].end for k in range(3)]
    assert delays == [4, 4, 4]
    assert "fwd:4:L0" not in layer0


def test_timeline_csv_shape():
    tl = simulate(fig4(AGGRESSIVE_COARSE))
    lines = tl.to_csv().strip().splitlines()
    assert lines[0] == "resource,item,start,end"
    assert len(lines) == len(tl.entries) + 1


def test_empty_link_utilization():
    tl = simulate(fig4(AGGRESSIVE_COARSE))
    assert tl.summary()["downlink_utilization"] == 0.0


def test_summary_of_an_empty_timeline():
    assert Timeline([], 0, 1).summary() == {"makespan": 0, "uplink_utilization": 0.0, "downlink_utilization": 0.0}


@settings(max_examples=120, deadline=None)
@given(random_scenarios(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_entries_sorted_unique_and_order_free(sc, overhead, rnd):
    # summary() relies on them: sorted, unique entries, and non-empty link
    # entries that never overlap, so busy ticks need no span merging
    tl = simulate(replace(sc, per_slice_overhead=overhead))
    assert all(type(e) is tuple and tuple(map(type, e)) == (int, int, str, str) for e in tl.entries)
    assert tl.entries == sorted(tl.entries)
    # each (resource, item) appears once: a slice enters each link once
    keys = [(e.resource, e.item) for e in named(tl)]
    assert len(set(keys)) == len(keys)
    for link in (UPLINK, DOWNLINK):
        spans = link_spans(tl, link)
        assert all(s < e for s, e in spans)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    # the order is the rows' own: the run's rows in any order, sorted, give the
    # CSV and summary of the entries in any order, sorted
    run = list(tl.run)
    rnd.shuffle(run)
    other = Timeline(sorted(run), tl.period, tl.num_iterations)
    shuffled = list(tl.entries)
    rnd.shuffle(shuffled)
    assert other.to_csv() == entries_csv(sorted(shuffled))
    assert other.summary() == entries_summary(sorted(shuffled))


@settings(max_examples=120, deadline=None)
@given(random_scenarios(), st.integers(0, 2), st.integers(2, 6))
def test_each_iterations_link_work_ends_before_the_next_ones_starts(sc, overhead, iterations):
    # simulate() replays one iteration's run for every iteration, with no
    # link's free tick carried over, which relies on this: every link entry
    # of iteration k ends at or before the start of every link entry of
    # iteration k + 1. Were it false, the replayed entries would overlap here
    tl = simulate(replace(sc, per_slice_overhead=overhead, num_iterations=iterations))
    spans: dict[int, list[Entry]] = {}
    for e in named(tl):
        if e.resource in (UPLINK, DOWNLINK):
            spans.setdefault(int(e.item.split(":")[1]), []).append(e)
    for k in range(iterations - 1):
        if k in spans and k + 1 in spans:
            assert max(e.end for e in spans[k]) <= min(e.start for e in spans[k + 1])


def iteration_entries(tl, k, shift=0):
    """Iteration k's entries, its ``bwd/up/upd/down:k`` and ``fwd:k+1``, moved
    ``shift`` ticks earlier, each item as its label's kind and its tail."""
    out = []
    for e in named(tl):
        kind, it, tail = e.item.split(":", 2)
        if int(it) == (k + 1 if kind == "fwd" else k):
            out.append((e.start - shift, e.end - shift, e.resource, kind, tail))
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(random_scenarios(), st.integers(0, 2), st.integers(2, 6))
def test_every_iteration_is_iteration_0_shifted(sc, overhead, iterations):
    # iteration k starts where its first backward, bwd:k:L{n-1}, starts. With
    # zero compute, iterations start at different sub-steps of their start
    # ticks (fig6: 1, 3, 3, ...), and their schedules are still alike
    sc = replace(sc, per_slice_overhead=overhead, num_iterations=iterations)
    tl = simulate(sc)
    last = sc.profile.num_layers - 1
    start = {e.item: e.start for e in named(tl) if e.resource == COMPUTE}
    first = iteration_entries(tl, 0)
    for k in range(1, iterations):
        assert iteration_entries(tl, k, start[f"bwd:{k}:L{last}"]) == first


@settings(max_examples=200, deadline=None)
@given(random_scenarios(), st.integers(0, 2), st.one_of(st.none(), st.integers(10, 12)))
def test_summary_agrees_with_the_per_resource_readers(sc, overhead, iterations):
    # the one walk of summary() must give what reading each resource's
    # entries on its own gives: busy ticks counted one by one per link. Ten
    # iterations or more put fwd:10:L0 before fwd:9:L0 in item order.
    sc = replace(sc, per_slice_overhead=overhead, num_iterations=iterations or sc.num_iterations)
    tl = simulate(sc)
    out = tl.summary()
    assert out["makespan"] == max((e.end for e in named(tl)), default=0)
    layer0 = {e.item: e for e in named(tl) if e.resource == COMPUTE and e.item.endswith(":L0")}
    k = sc.num_iterations - 1
    assert out["inter_iteration_delay"] == layer0[f"fwd:{k + 1}:L0"].start - layer0[f"bwd:{k}:L0"].end
    for link in (UPLINK, DOWNLINK):
        ticks = {t for s, e in link_spans(tl, link) for t in range(s, e)}
        want = round(len(ticks) / (out["makespan"] - min(ticks)), 6) if ticks else 0.0
        assert out[f"{link}_utilization"] == want


@settings(max_examples=300, deadline=None)
@given(random_scenarios(), st.integers(0, 3), st.integers(1, 6))
def test_readers_of_the_run_agree_with_the_replayed_entries(sc, overhead, iterations):
    # to_csv and summary read the one run; replaying it, relabelling and
    # sorting every entry must give the same CSV and the same summary
    sc = replace(sc, per_slice_overhead=overhead, num_iterations=iterations)
    tl = simulate(sc)
    entries = replayed_entries(tl)
    assert tl.entries == entries
    assert tl.to_csv() == entries_csv(entries)
    assert tl.summary() == entries_summary(entries)
    # the period is the gap between iterations' layer-0 forwards, and one iteration's makespan
    fwd0 = {e.item: e.start for e in named(tl) if e.item.startswith("fwd:") and e.item.endswith(":L0")}
    assert all(fwd0[f"fwd:{k + 1}:L0"] - fwd0[f"fwd:{k}:L0"] == tl.period for k in range(1, iterations))
    assert simulate(replace(sc, num_iterations=1)).summary()["makespan"] == tl.period


def test_rows_that_tie_between_iterations_are_written_in_entry_order():
    # layer 1 computes in zero time, so the run starts with its backward at
    # (0, 0) and ends with its forward at (3, 3), its period: at tick 3,
    # iteration 0's fwd:1:L1 and iteration 1's bwd:1:L1 tie on times and
    # sort by item, bwd before fwd
    sc = Scenario(
        profile=ModelProfile("t", 0, (LayerSpec(0, "L0", 1, 1, 1), LayerSpec(1, "L1", 1, 0, 0))),
        stages=(StageCost(1, 0, 0), StageCost(1, 0, 0)),
        policy=AGGRESSIVE_COARSE,
        num_iterations=2,
    )
    tl = simulate(sc)
    assert (tl.run[0][:2], tl.run[-1][:2], tl.period) == ((0, 0), (3, 3), 3)
    assert tl.to_csv() == (
        "resource,item,start,end\n"
        "compute,bwd:0:L1,0,0\n"
        "compute,bwd:0:L0,0,1\n"
        "uplink,up:0:L1:s0,0,1\n"
        "uplink,up:0:L0:s0,1,2\n"
        "compute,fwd:1:L0,2,3\n"
        "compute,bwd:1:L1,3,3\n"
        "compute,fwd:1:L1,3,3\n"
        "compute,bwd:1:L0,3,4\n"
        "uplink,up:1:L1:s0,3,4\n"
        "uplink,up:1:L0:s0,4,5\n"
        "compute,fwd:2:L0,5,6\n"
        "compute,fwd:2:L1,6,6\n"
    )


# -- golden timeline digests --------------------------------------------------


def linkbound_scenario(policy, num_iterations):
    """``resnet50-like`` made link-bound: ticks of 100 us, links move 250
    params per tick each way, the update stage 1000 per tick, 4-tick slices."""
    profile = builtin_profile("resnet50-like")
    layers = tuple(
        replace(l, fwd_time=max(1, round(l.fwd_time / 100)), bwd_time=max(1, round(l.bwd_time / 100)))
        for l in profile.layers
    )
    stages = tuple(
        StageCost(l.param_count // 250, l.param_count // 1000, l.param_count // 250)
        for l in profile.layers
    )
    return Scenario(
        profile=replace(profile, layers=layers),
        stages=stages,
        policy=policy,
        slice_ticks=4,
        num_iterations=num_iterations,
    )


# SHA-256 of Timeline.to_csv(): every schedule is frozen byte for byte
TIMELINE_DIGESTS = {
    "fig4-coarse-serial0-ovh0": "0e7bfd7f25a7adc3a62e5e616376460d7e2c9636a3dbde45b9af5e82383d7975",
    "fig4-coarse-serial0-ovh1": "ff5c5f8a76c94f16714665e0f4a64edcf0b9d628615f0df6cb47b4763a9f7cc2",
    "fig4-priority-serial0-ovh0": "c28259bd032293bdfb2d272dc647b155f5693990e8f96531b79a0d4ed9406982",
    "fig4-priority-serial0-ovh1": "185db41525174e036d666d2abd1d2f7b490fbd1ecfec1cdbe58a215c112a6641",
    "fig4-sliced-serial0-ovh0": "4e33f892c67ed3b87906ff809b317aec6afabc38c2f897c2e0c16f484547c989",
    "fig4-sliced-serial0-ovh1": "7e055dcc64e24191dd4f014d14f3e6ac6a067f05e1bdaf6e21c7668777c417bf",
    "fig6-coarse-serial0-ovh0": "c8b066ebabd48919eb0c7b32f87d281e9de539321f86ea48d05e6f6102b8d074",
    "fig6-coarse-serial0-ovh1": "ec5e603296f542a1231b256bf4cd6aecbf80608c66a8d38e0c9eb66ceecb92a1",
    "fig6-priority-serial0-ovh0": "b7413f8102e202df51fd647bc43001676a1f8f082e93e7419cbbdd5763d7bfca",
    "fig6-priority-serial0-ovh1": "40593134ebbc9a889df5bb7a32b358b24c523baf5f452a88807bbead2a6e65b2",
    "fig6-sliced-serial0-ovh0": "b09082f24b1171a4fdaef1dc938e7d92ac206cb3e6dc41781786ea6956bc9283",
    "fig6-sliced-serial0-ovh1": "2704ff0739c00b0bb573b37ff33f6a2334392a4522e8a0d6821eb52eebacf4bd",
    "resnet50-linkbound-coarse": "101fa37a50a8d52438318f78ec9ef500b238e77ab27c7a2058c64b8227093fb0",
    "resnet50-linkbound-priority": "594df0ae634211e4251b7c466c44409c59692b39a6434d6abeaec23ff8e79464",
    "resnet50-linkbound-sliced": "b9007efff8e674c6261041b6a0622a0c146b908f19425468d8f5d4ef742c0746",
    # six iterations: the benchmark's link-bound size; fig6, whose iteration 0
    # starts at another sub-step than the rest; and one zero-cost layer, whose
    # every iteration starts at a sub-step of its own
    "resnet50-linkbound-coarse-6iter": "8cef815df0941d61ce62b765b831df4c5945768c24fc3f37812055bf3ff26895",
    "resnet50-linkbound-priority-6iter": "7945f4da6d2dc2792db7f52482eeaa4fabb312357df7014adc9ab5b092ecde89",
    "resnet50-linkbound-sliced-6iter": "5e4b65a259a459132ed031c8c45a4f8297a5f700f2b5d22f221347154d58a405",
    "fig6-coarse-6iter": "83bfdc05d7c6a89a77c09536e1e067e00740ac9fb05d0849d611a158229d88f0",
    "fig6-priority-6iter": "768c0aff1822297fa659d96f30868f4d7faf1cf1eef83590dacb402a1150d1fe",
    "fig6-sliced-6iter": "24e11dfc45c4c9787f3dc57d904b148adc879ff809106158264b552acc36db87",
    "zero-cost-layer-6iter": "ec1294c8322900b85d63455a173201e689a7785fa5553aa819e3f72d838b68aa",
}

# Timeline.summary() of the link-bound digest cases: the digests pin to_csv only
LINKBOUND_SUMMARIES = {
    "resnet50-linkbound-coarse": {
        "makespan": 4756,
        "inter_iteration_delay": 1473,
        "uplink_utilization": 0.722058,
        "downlink_utilization": 0.770824,
    },
    "resnet50-linkbound-priority": {
        "makespan": 3480,
        "inter_iteration_delay": 22,
        "uplink_utilization": 0.987882,
        "downlink_utilization": 0.989309,
    },
    "resnet50-linkbound-sliced": {
        "makespan": 4166,
        "inter_iteration_delay": 1178,
        "uplink_utilization": 0.824663,
        "downlink_utilization": 0.825657,
    },
    "resnet50-linkbound-coarse-6iter": {
        "makespan": 14268,
        "inter_iteration_delay": 1473,
        "uplink_utilization": 0.72064,
        "downlink_utilization": 0.736133,
    },
    "resnet50-linkbound-priority-6iter": {
        "makespan": 10440,
        "inter_iteration_delay": 22,
        "uplink_utilization": 0.985229,
        "downlink_utilization": 0.985702,
    },
    "resnet50-linkbound-sliced-6iter": {
        "makespan": 12498,
        "inter_iteration_delay": 1178,
        "uplink_utilization": 0.822813,
        "downlink_utilization": 0.823143,
    },
}

POLICY_NAMES = {AGGRESSIVE_COARSE: "coarse", AGGRESSIVE_SLICED: "sliced", PRIORITY_SLICED: "priority"}


def digest_cases():
    for make in (fig4, fig6):
        for policy in (AGGRESSIVE_COARSE, AGGRESSIVE_SLICED, PRIORITY_SLICED):
            for ovh in (0, 1):
                # "serial0" names the concurrent update stage, the one the simulator has
                name = f"{make.__name__}-{POLICY_NAMES[policy]}-serial0-ovh{ovh}"
                yield name, replace(make(policy), per_slice_overhead=ovh)
    for policy in (AGGRESSIVE_COARSE, AGGRESSIVE_SLICED, PRIORITY_SLICED):
        yield f"resnet50-linkbound-{POLICY_NAMES[policy]}", linkbound_scenario(policy, 2)
        yield f"resnet50-linkbound-{POLICY_NAMES[policy]}-6iter", linkbound_scenario(policy, 6)
        yield f"fig6-{POLICY_NAMES[policy]}-6iter", replace(fig6(policy), num_iterations=6)
    yield "zero-cost-layer-6iter", replace(one_layer(StageCost(0, 0, 0), 1), num_iterations=6)


DIGEST_CASES = dict(digest_cases())


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_timeline_digest_golden(name):
    csv = simulate(DIGEST_CASES[name]).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == TIMELINE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LINKBOUND_SUMMARIES))
def test_linkbound_summary_golden(name):
    assert simulate(DIGEST_CASES[name]).summary() == LINKBOUND_SUMMARIES[name]


def test_priority_sliced_61k_entries_within_wall_bound():
    # 44 link-bound iterations give about 61k entries: over 30 s when every
    # pick scans the queued slices, well under a second when one iteration's
    # passes pick from a heap and every iteration replays that one
    sc = linkbound_scenario(PRIORITY_SLICED, 44)
    t0 = time.perf_counter()
    tl = simulate(sc)
    tl.to_csv()
    tl.summary()
    wall = time.perf_counter() - t0
    assert len(tl.entries) > 60_000
    assert wall < 5.0


# -- scenarios from runtime plans ---------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_scenario_from_plan_slices_like_the_plan(name, mode):
    profile = builtin_profile(name)
    plan = make_plan(mode, profile, 1)
    sc = scenario_from_plan(profile, plan, 500e6, 2, 1)
    for layer in profile.layers:
        ups, updates, downs = zip(*sc.slice_costs(layer.index))
        lengths = [s.length for s in plan.by_layer()[layer.index]]
        assert list(ups) == lengths
        assert list(downs) == [2 * n for n in lengths]
        assert all(update == 0 for update in updates)


def toy3_timeline(mode):
    # at 32 Mbit/s one float32 parameter takes 1 us on the link: 1 tick = 1 us
    profile = builtin_profile("toy3")
    return simulate(scenario_from_plan(profile, make_plan(mode, profile, 1, max_slice=512), 32e6, 2, 1))


def test_scenario_from_plan_toy3_p3_golden():
    # backward ends 1000/2000/3000 (L2/L1/L0); each layer is 2 slices of 512 up
    # ticks and 2 * 512 down ticks (2 workers). The downlink takes L2 s0 at 1512,
    # then always the most urgent slice that is ready.
    tl = toy3_timeline(P3_MODE)
    assert [(e.item, e.start, e.end) for e in named(tl) if e.resource == DOWNLINK] == [
        ("down:0:L2:s0", 1512, 2536),
        ("down:0:L1:s0", 2536, 3560),
        ("down:0:L0:s0", 3560, 4584),
        ("down:0:L0:s1", 4584, 5608),
        ("down:0:L1:s1", 5608, 6632),
        ("down:0:L2:s1", 6632, 7656),
    ]
    fwd = {e.item: e.start for e in named(tl) if e.resource == COMPUTE}
    assert fwd["fwd:1:L0"] == 5608
    assert tl.summary()["inter_iteration_delay"] == 5608 - 3000


def test_scenario_from_plan_toy3_baseline_golden():
    # whole layers: up 1024 ticks each from 1000, down 2048 each behind them
    tl = toy3_timeline(BASELINE_MODE)
    assert [(e.item, e.start, e.end) for e in named(tl) if e.resource == DOWNLINK] == [
        ("down:0:L2:s0", 2024, 4072),
        ("down:0:L1:s0", 4072, 6120),
        ("down:0:L0:s0", 6120, 8168),
    ]
    assert tl.summary()["inter_iteration_delay"] == 8168 - 3000


def test_scenario_from_plan_rejections():
    toy3 = builtin_profile("toy3")
    plan = make_plan(P3_MODE, toy3, 1)
    with pytest.raises(PlanError):
        scenario_from_plan(builtin_profile("vgg19-like"), plan, 1e9, 2, 1)
    with pytest.raises(ScenarioError, match="servers"):
        scenario_from_plan(toy3, make_plan(P3_MODE, toy3, 2), 1e9, 2, 1)
    for bps, workers in ((0, 2), (-1e9, 2), (1e9, 0)):
        with pytest.raises(ScenarioError):
            scenario_from_plan(toy3, plan, bps, workers, 1)
    # a rate that is not finite would overflow or fail inside round()
    for bps in (math.inf, -math.inf, math.nan):
        with pytest.raises(ScenarioError, match=f"link_bps {bps} must be finite and positive"):
            scenario_from_plan(toy3, plan, bps, 2, 1)
    # simulate() would refuse it later; the scenario is refused where it is made
    with pytest.raises(ScenarioError, match="num_iterations 0 must be >= 1"):
        scenario_from_plan(toy3, plan, 1e9, 2, 0)


@pytest.mark.parametrize("mode", MODES)
def test_scenario_from_plan_rejects_rows_it_would_not_simulate(mode):
    # layer 0 cut 100 + 924 is a valid plan, but neither a 1,024-param slice
    # size (p3) nor whole layers (baseline) would simulate that cut
    toy3 = builtin_profile("toy3")
    plan = make_plan(mode, toy3, 1)
    rows = (Slice(SliceKey(0, 0), 0, 100, 0), Slice(SliceKey(0, 1), 100, 924, 0))
    cut = replace(plan, slices=rows + tuple(s for s in plan.slices if s.key.layer_index > 0))
    validate_plan(cut, toy3)
    with pytest.raises(ScenarioError, match=r"layer 0: the plan's slices \[100, 924\]"):
        scenario_from_plan(toy3, cut, 1e9, 2, 1)


def test_scenario_from_plan_slices_at_the_longest_row():
    profile = builtin_profile("vgg19-like")
    for max_slice in (512, 50_000, 10**6):
        plan = make_plan(P3_MODE, profile, 1, max_slice=max_slice)
        sc = scenario_from_plan(profile, plan, 500e6, 2, 1)
        assert sc.slice_ticks == min(max_slice, 715_000)


def layer0_period_ms(name, mode, link_bps, num_workers, iterations=6):
    """Mean period between the starts of fwd:k:L0, k >= 1, in milliseconds."""
    profile = builtin_profile(name)
    tl = simulate(scenario_from_plan(profile, make_plan(mode, profile, 1), link_bps, num_workers, iterations))
    starts = {e.item: e.start for e in named(tl) if e.resource == COMPUTE}
    first, last = starts["fwd:1:L0"], starts[f"fwd:{iterations}:L0"]
    return (last - first) / (iterations - 1) * 32 / link_bps * 1e3


@pytest.mark.parametrize("workers,p3_ms,baseline_ms", [(1, 68.5, 133.5), (2, 131.1, 196.0)])
def test_vgg19_at_500_mbit(workers, p3_ms, baseline_ms):
    p3 = layer0_period_ms("vgg19-like", P3_MODE, 500e6, workers)
    baseline = layer0_period_ms("vgg19-like", BASELINE_MODE, 500e6, workers)
    assert (round(p3, 1), round(baseline, 1)) == (p3_ms, baseline_ms)


@pytest.mark.parametrize("name", ["vgg19-like", "resnet50-like", "sockeye-like"])
def test_no_speedup_at_10_gbit(name):
    speedup = layer0_period_ms(name, BASELINE_MODE, 10e9, 2) / layer0_period_ms(name, P3_MODE, 10e9, 2)
    assert speedup == pytest.approx(1.0, abs=0.02)
