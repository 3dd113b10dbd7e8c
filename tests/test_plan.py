from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3sync.model import LayerSpec, ModelProfile, builtin_profile
from p3sync.plan import (
    PlanError,
    Slice,
    SliceKey,
    load_plan,
    make_baseline_plan,
    make_p3_plan,
    plan_from_csv,
    plan_to_csv,
    save_plan,
    validate_plan,
)
from p3sync.proto import MsgType, slice_frame
from p3sync.queues import frame_order_key


def profile_of(counts, name="t", seed=0):
    layers = tuple(LayerSpec(i, f"L{i}", c, 1, 1) for i, c in enumerate(counts))
    return ModelProfile(name, seed, layers)


profiles_strategy = st.lists(
    st.integers(min_value=1, max_value=200_000), min_size=1, max_size=6
).map(profile_of)


# -- p3 plans ---------------------------------------------------------------


def test_exact_fit_single_slice():
    plan = make_p3_plan(profile_of([50_000]), num_servers=1, max_slice=50_000)
    (s,) = plan.slices
    assert (s.offset, s.length) == (0, 50_000)


def test_chunking_with_remainder():
    plan = make_p3_plan(profile_of([120_000]), num_servers=1, max_slice=50_000)
    assert [s.length for s in plan.slices] == [50_000, 50_000, 20_000]
    assert [s.offset for s in plan.slices] == [0, 50_000, 100_000]


def test_round_robin_across_model():
    plan = make_p3_plan(builtin_profile("toy3"), num_servers=2)
    assert [s.server for s in plan.slices] == [0, 1, 0]


def test_round_robin_counter_spans_layers():
    # layer0 -> 3 slices, layer1 -> 2 slices; counter runs 0..4
    plan = make_p3_plan(profile_of([25, 20]), num_servers=2, max_slice=10)
    assert [s.server for s in plan.slices] == [0, 1, 0, 1, 0]


def test_p3_plan_preconditions():
    with pytest.raises(PlanError):
        make_p3_plan(profile_of([10]), num_servers=0)
    with pytest.raises(PlanError):
        make_p3_plan(profile_of([10]), num_servers=1, max_slice=0)


# -- baseline plans ----------------------------------------------------------


def test_baseline_small_layer_deterministic():
    prof = profile_of([999_999])
    a = make_baseline_plan(prof, num_servers=4, rng_seed=77)
    b = make_baseline_plan(prof, num_servers=4, rng_seed=77)
    assert a == b
    assert len(a.slices) == 1 and 0 <= a.slices[0].server < 4


def test_baseline_big_layer_equal_split():
    plan = make_baseline_plan(profile_of([1_000_000]), num_servers=4)
    assert [s.length for s in plan.slices] == [250_000] * 4
    assert [s.server for s in plan.slices] == [0, 1, 2, 3]


def test_baseline_split_remainder_to_last():
    plan = make_baseline_plan(profile_of([1_000_002]), num_servers=4)
    assert [s.length for s in plan.slices] == [250_000, 250_000, 250_000, 250_002]


def test_baseline_threshold_boundary():
    # exactly at the threshold counts as big
    plan = make_baseline_plan(profile_of([1_000_000, 5]), num_servers=2)
    assert len(plan.slices_of_layer(0)) == 2
    assert len(plan.slices_of_layer(1)) == 1


# -- slices_of_layer ---------------------------------------------------------


def test_slices_of_layer_sorted_and_covering():
    plan = make_p3_plan(profile_of([120_000, 7]), num_servers=3, max_slice=50_000)
    slices = plan.slices_of_layer(0)
    assert [s.key.slice_index for s in slices] == [0, 1, 2]
    assert sum(s.length for s in slices) == 120_000
    with pytest.raises(PlanError):
        plan.slices_of_layer(9)


# -- priority order ----------------------------------------------------------


@given(st.permutations([SliceKey(l, s) for l in range(4) for s in range(3)]))
def test_sort_unique_order(perm):
    # a slice's priority is its key's order: headers sort into SliceKey order
    frames = [slice_frame(MsgType.PUSH, Slice(key, 0, 1, 0), 0, 0) for key in perm]
    ordered = [SliceKey(f.layer_index, f.slice_index) for f in sorted(frames, key=frame_order_key)]
    assert ordered == [SliceKey(l, s) for l in range(4) for s in range(3)]


# -- invariants over random profiles ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(profiles_strategy, st.integers(1, 5), st.integers(0, 2**64 - 1))
def test_coverage_and_determinism(profile, num_servers, seed):
    p3 = make_p3_plan(profile, num_servers)
    validate_plan(p3, profile)
    base = make_baseline_plan(profile, num_servers, rng_seed=seed)
    validate_plan(base, profile)
    assert make_p3_plan(profile, num_servers) == p3
    assert make_baseline_plan(profile, num_servers, rng_seed=seed) == base
    assert plan_to_csv(p3) == plan_to_csv(make_p3_plan(profile, num_servers))


@settings(max_examples=60, deadline=None)
@given(profiles_strategy, st.integers(1, 5))
def test_priority_monotone_across_layers(profile, num_servers):
    # a slice's priority is its key's order: headers sort into layer order,
    # and a layer's slices into offset order
    plan = make_p3_plan(profile, num_servers)
    frames = [slice_frame(MsgType.PUSH, s, 0, 0) for s in reversed(plan.slices)]
    ordered = sorted(frames, key=frame_order_key)
    layer_seq = [f.layer_index for f in ordered]
    assert layer_seq == sorted(layer_seq)
    keys = [SliceKey(f.layer_index, f.slice_index) for f in ordered]
    assert keys == sorted(s.key for s in plan.slices)
    offsets = {s.key: s.offset for s in plan.slices}
    for a, b in zip(keys, keys[1:]):
        if a.layer_index == b.layer_index:
            assert offsets[a] < offsets[b]


@pytest.mark.parametrize("name", ["toy3", "vgg19-like", "resnet50-like", "sockeye-like"])
@pytest.mark.parametrize("mode", ["p3", "baseline"])
def test_builtin_coverage(name, mode):
    prof = builtin_profile(name)
    if mode == "p3":
        plan = make_p3_plan(prof, 4)
        assert max(s.length for s in plan.slices) <= plan.max_slice
    else:
        plan = make_baseline_plan(prof, 4, rng_seed=3)
    validate_plan(plan, prof)
    for layer in prof.layers:
        assert sum(s.length for s in plan.slices_of_layer(layer.index)) == layer.param_count


def test_validate_rejects_slice_of_unknown_layer():
    toy3 = builtin_profile("toy3")
    plan = make_p3_plan(toy3, 2)
    extra = replace(plan, slices=plan.slices + (Slice(SliceKey(9, 0), 0, 10, 0),))
    with pytest.raises(PlanError, match=r"layers \[9\]"):
        validate_plan(extra, toy3)


# -- csv interchange ---------------------------------------------------------


def test_plan_csv_roundtrip(tmp_path):
    plan = make_baseline_plan(builtin_profile("vgg19-like"), 3, big_threshold=100_000, rng_seed=5)
    path = tmp_path / "plan.csv"
    save_plan(plan, path)
    assert load_plan(path) == plan


def test_plan_csv_rejects_garbage():
    with pytest.raises(PlanError):
        plan_from_csv("layer,slice\n0,0\n")


META = "# p3sync-plan mode=p3 num_servers=1 max_slice=50000 big_threshold=1000000 rng_seed=0"
HEADER = "layer,slice,offset,len,server"


@pytest.mark.parametrize(
    "text",
    [
        "",
        f"{META.replace(' max_slice=50000', '')}\n{HEADER}\n0,0,0,10,0\n",
        f"{META.replace('mode=p3', 'mode=fast')}\n{HEADER}\n0,0,0,10,0\n",
        f"{META.replace('rng_seed=0', 'rng_seed=x')}\n{HEADER}\n",
        f"{META}\n",
        f"{META}\n0,0,0,10,0\n",
        f"{META}\nlayer,slice,offset,len,priority,server\n0,0,0,10,0,0\n",
        f"{META}\n{HEADER}\n0,0,0,10\n",
        f"{META}\n{HEADER}\n0,0,0,ten,0\n",
    ],
    ids=[
        "empty",
        "missing-key",
        "unknown-mode",
        "non-integer-metadata",
        "no-header-line",
        "row-in-place-of-header",
        "priority-column",
        "short-row",
        "non-integer-row",
    ],
)
def test_plan_csv_rejects_malformed(text):
    with pytest.raises(PlanError):
        plan_from_csv(text)
