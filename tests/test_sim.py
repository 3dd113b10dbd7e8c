import hashlib
import json
import time
from dataclasses import asdict, replace
from pathlib import Path

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
    TimelineEntry,
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


def as_tuples(timeline):
    return [(e.resource, e.item, e.start, e.end) for e in timeline.entries]


def test_fig4_aggressive_golden_timeline():
    tl = simulate(fig4(AGGRESSIVE_COARSE))
    got = [t for t in as_tuples(tl) if t[0] in (COMPUTE, UPLINK)]
    assert sorted(got, key=lambda t: (t[2], t[3], t[0], t[1])) == sorted(
        FIG4_AGGRESSIVE_GOLDEN, key=lambda t: (t[2], t[3], t[0], t[1])
    )
    assert tl.summary()["inter_iteration_delay"] == 4
    assert tl.summary()["makespan"] == 10
    assert tl.busy_intervals(UPLINK) == [(1, 7)]


def test_fig4_priority_golden_timeline():
    tl = simulate(fig4(PRIORITY_SLICED))
    got = [t for t in as_tuples(tl) if t[0] in (COMPUTE, UPLINK)]
    assert sorted(got, key=lambda t: (t[2], t[3], t[0], t[1])) == sorted(
        FIG4_PRIORITY_GOLDEN, key=lambda t: (t[2], t[3], t[0], t[1])
    )
    assert tl.summary()["inter_iteration_delay"] == 2
    assert tl.busy_intervals(UPLINK) == [(1, 7)]
    fwd_spans = [(e.start, e.end) for e in tl.entries if e.item.startswith("fwd:1")]
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
    spans = coarse.busy_intervals(DOWNLINK)
    assert spans[-1][1] == 10 and spans[-1][0] <= 7
    assert (10 - 7) / 10 == pytest.approx(0.3)


def test_fig6_update_overlap():
    # the heavy middle layer's update overlaps the light first layer's update
    coarse = simulate(fig6(AGGRESSIVE_COARSE))
    upd = {e.item: (e.start, e.end) for e in coarse.entries if e.resource == UPDATE}
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
        fig4("whatever").validate()
    with pytest.raises(ScenarioError, match="negative"):
        replace(fig4(AGGRESSIVE_SLICED), stages=(StageCost(2, -1, 0),) * 3).validate()


def one_layer(stage, slice_ticks, policy=AGGRESSIVE_SLICED):
    return Scenario(
        profile=tick_profile(0, 0, 1), stages=(stage,), policy=policy, slice_ticks=slice_ticks
    )


def test_remainder_slice_is_last():
    # 3 uplink ticks in slices of 2: a full slice, then the 1-tick remainder
    sc = one_layer(StageCost(3, 0, 0), slice_ticks=2)
    assert sc.slice_costs(0) == [StageCost(2, 0, 0), StageCost(1, 0, 0)]
    assert as_tuples(simulate(sc)) == [
        (COMPUTE, "bwd:0:L0", 0, 0),
        (UPLINK, "up:0:L0:s0", 0, 2),
        (UPLINK, "up:0:L0:s1", 2, 3),
        (COMPUTE, "fwd:1:L0", 3, 3),
    ]
    assert one_layer(StageCost(3, 0, 0), 2, AGGRESSIVE_COARSE).slice_costs(0) == [StageCost(3, 0, 0)]


def test_uneven_costs_split_cumulatively():
    # slice s covers uplink ticks [s, s + 1) of 4, so it gets 2 * (s + 1) // 4 - 2 * s // 4
    sc = one_layer(StageCost(4, 2, 0), slice_ticks=1)
    assert [c.update for c in sc.slice_costs(0)] == [0, 1, 0, 1]
    upd = [(e.item, e.start, e.end) for e in simulate(sc).entries if e.resource == UPDATE]
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
        totals = [sum(getattr(c, f) for c in costs) for f in ("up", "update", "down")]
        assert StageCost(*totals) == stage
        if sc.policy != AGGRESSIVE_COARSE and stage.up > 0:
            assert [c.up for c in costs] == [n for _, n in chunk_layer(stage.up, sc.slice_ticks)]


def intervals_disjoint(spans):
    spans = sorted(spans)
    return all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_serial_links_never_overlap(sc):
    tl = simulate(sc)
    for link in (UPLINK, DOWNLINK):
        spans = [(e.start, e.end) for e in tl.entries if e.resource == link and e.end > e.start]
        assert intervals_disjoint(spans)


@settings(max_examples=120, deadline=None)
@given(random_scenarios())
def test_causality(sc):
    tl = simulate(sc)
    by_item = {e.item: e for e in tl.entries}
    bwd_end = {}
    for e in tl.entries:
        if e.resource == COMPUTE and e.item.startswith("bwd:"):
            _, k, lname = e.item.split(":")
            bwd_end[(int(k), int(lname[1:]))] = e.end
    for e in tl.entries:
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
    for e in tl.entries:
        if e.resource == COMPUTE and e.item.startswith("bwd:"):
            _, k, lname = e.item.split(":")
            bwd_end[(int(k), int(lname[1:]))] = e.end
        elif e.resource == UPLINK:
            _, k, lname, s = e.item.split(":")
            starts[(int(k), int(lname[1:]), int(s[1:]))] = e.start
    busy = tl.busy_intervals(UPLINK)

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
    tl = simulate(sc)
    delays = tl.all_inter_iteration_delays()
    assert len(delays) == 3
    assert all(d == 4 for d in delays)


def test_timeline_csv_shape():
    tl = simulate(fig4(AGGRESSIVE_COARSE))
    lines = tl.to_csv().strip().splitlines()
    assert lines[0] == "resource,item,start,end"
    assert len(lines) == len(tl.entries) + 1


def test_empty_link_utilization():
    tl = simulate(fig4(AGGRESSIVE_COARSE))
    assert tl.summary()["downlink_utilization"] == 0.0


def test_summary_of_a_hand_built_timeline():
    tl = Timeline(
        entries=[
            TimelineEntry(resource=UPLINK, item="up:0:L0:s0", start=4, end=6),
            TimelineEntry(resource=COMPUTE, item="fwd:1:L0", start=9, end=10),
            TimelineEntry(resource=COMPUTE, item="bwd:0:L0", start=2, end=3),  # first in list order: wins
            TimelineEntry(resource=UPLINK, item="up:0:L1:s0", start=1, end=3),
            TimelineEntry(resource=COMPUTE, item="bwd:0:L0", start=0, end=1),
            TimelineEntry(resource=UPLINK, item="up:0:L0:s1", start=6, end=6),  # empty span
            TimelineEntry(resource=UPDATE, item="upd:0:L0:s0", start=6, end=12),
        ]
    )
    # uplink busy [1, 3) and [4, 6): 4 ticks of the 11 from its first start to the makespan
    assert list(tl.summary().items()) == [
        ("makespan", 12),
        ("inter_iteration_delay", 9 - 3),
        ("uplink_utilization", 0.363636),
        ("downlink_utilization", 0.0),
    ]
    assert tl.to_csv().splitlines()[1:3] == ["compute,bwd:0:L0,0,1", "uplink,up:0:L1:s0,1,3"]
    assert Timeline().summary() == {"makespan": 0, "uplink_utilization": 0.0, "downlink_utilization": 0.0}


hand_built_entries = st.lists(
    st.builds(
        lambda resource, item, start, length: TimelineEntry(start, start + length, resource, item),
        st.sampled_from([COMPUTE, UPLINK, UPDATE, DOWNLINK]),
        st.sampled_from([f"{op}:{k}:L{l}" for op in ("fwd", "bwd") for k in range(3) for l in range(2)]),
        st.integers(0, 20),
        st.integers(0, 5),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(hand_built_entries)
def test_summary_agrees_with_the_per_resource_readers(entries):
    # unsorted, overlapping, repeated and empty entries: the one walk of
    # summary() must give what the readers of one resource give, and both
    # must match busy ticks counted one by one, with no span merging
    tl = Timeline(entries=entries)
    out = tl.summary()
    assert out["makespan"] == max((e.end for e in entries), default=0)
    delays = tl.all_inter_iteration_delays()
    assert out.get("inter_iteration_delay") == (delays[-1] if delays else None)
    for link in (UPLINK, DOWNLINK):
        ticks = {t for e in entries if e.resource == link for t in range(e.start, e.end)}
        # the busy intervals are the maximal runs of consecutive busy ticks
        busy = sorted(ticks)
        starts = [t for t in busy if t - 1 not in ticks]
        ends = [t + 1 for t in busy if t + 1 not in ticks]
        assert tl.busy_intervals(link) == list(zip(starts, ends))
        span = out["makespan"] - min(ticks) if ticks else 0
        want = round(len(ticks) / span, 6) if span else 0.0
        assert out[f"{link}_utilization"] == want


@settings(max_examples=120, deadline=None)
@given(random_scenarios(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_entries_sorted_unique_and_order_free(sc, overhead, rnd):
    tl = simulate(replace(sc, per_slice_overhead=overhead))
    assert all(type(e) is TimelineEntry for e in tl.entries)
    assert tl.entries == sorted(tl.entries)
    # each (resource, item) appears once: a slice enters each link once, so
    # the priority heap's (layer, slice, iteration) key is unique
    keys = [(e.resource, e.item) for e in tl.entries]
    assert len(set(keys)) == len(keys)
    shuffled = list(tl.entries)
    rnd.shuffle(shuffled)
    other = Timeline(entries=shuffled)
    assert other.to_csv() == tl.to_csv()
    assert other.summary() == tl.summary()


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
    # pick scans the queued slices, under a second with per-link heaps
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
        costs = sc.slice_costs(layer.index)
        lengths = [s.length for s in plan.slices_of_layer(layer.index)]
        assert [c.up for c in costs] == lengths
        assert [c.down for c in costs] == [2 * n for n in lengths]
        assert all(c.update == 0 for c in costs)


def toy3_timeline(mode):
    # at 32 Mbit/s one float32 parameter takes 1 us on the link: 1 tick = 1 us
    profile = builtin_profile("toy3")
    return simulate(scenario_from_plan(profile, make_plan(mode, profile, 1, max_slice=512), 32e6, 2, 1))


def test_scenario_from_plan_toy3_p3_golden():
    # backward ends 1000/2000/3000 (L2/L1/L0); each layer is 2 slices of 512 up
    # ticks and 2 * 512 down ticks (2 workers). The downlink takes L2 s0 at 1512,
    # then always the most urgent slice that is ready.
    tl = toy3_timeline(P3_MODE)
    assert [(e.item, e.start, e.end) for e in tl.entries if e.resource == DOWNLINK] == [
        ("down:0:L2:s0", 1512, 2536),
        ("down:0:L1:s0", 2536, 3560),
        ("down:0:L0:s0", 3560, 4584),
        ("down:0:L0:s1", 4584, 5608),
        ("down:0:L1:s1", 5608, 6632),
        ("down:0:L2:s1", 6632, 7656),
    ]
    fwd = {e.item: e.start for e in tl.entries if e.resource == COMPUTE}
    assert fwd["fwd:1:L0"] == 5608
    assert tl.summary()["inter_iteration_delay"] == 5608 - 3000


def test_scenario_from_plan_toy3_baseline_golden():
    # whole layers: up 1024 ticks each from 1000, down 2048 each behind them
    tl = toy3_timeline(BASELINE_MODE)
    assert [(e.item, e.start, e.end) for e in tl.entries if e.resource == DOWNLINK] == [
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
    starts = {e.item: e.start for e in tl.entries if e.resource == COMPUTE}
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
