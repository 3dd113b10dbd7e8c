import hashlib
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p3sync.plan as plan_module
from p3sync.cli import main
from p3sync.model import BUILTIN_NAMES, LayerSpec, ModelProfile, builtin_profile, save_profile
from p3sync.plan import (
    DEFAULT_MAX_SLICE,
    MAX_FRAME_PARAMS,
    MAX_PLAN_SLICES,
    MODES,
    P3_MODE,
    PlanError,
    Slice,
    SliceKey,
    SlicePlan,
    load_plan,
    make_plan,
    plan_from_csv,
    plan_to_csv,
    save_plan,
    validate_plan,
)
from p3sync.proto import Frame, FrameDecoder, MsgType, encode_frame


def profile_of(counts, name="t", seed=0):
    layers = tuple(LayerSpec(i, f"L{i}", c, 1, 1) for i, c in enumerate(counts))
    return ModelProfile(name, seed, layers)


profiles_strategy = st.lists(
    st.integers(min_value=1, max_value=200_000), min_size=1, max_size=6
).map(profile_of)


# -- p3 plans ---------------------------------------------------------------


def test_exact_fit_single_slice():
    plan = make_plan("p3", profile_of([50_000]), num_servers=1, max_slice=50_000)
    (s,) = plan.slices
    assert (s.offset, s.length) == (0, 50_000)


def test_chunking_with_remainder():
    plan = make_plan("p3", profile_of([120_000]), num_servers=1, max_slice=50_000)
    assert [s.length for s in plan.slices] == [50_000, 50_000, 20_000]
    assert [s.offset for s in plan.slices] == [0, 50_000, 100_000]


def test_round_robin_across_model():
    plan = make_plan("p3", builtin_profile("toy3"), num_servers=2)
    assert [s.server for s in plan.slices] == [0, 1, 0]


def test_round_robin_counter_spans_layers():
    # layer0 -> 3 slices, layer1 -> 2 slices; counter runs 0..4
    plan = make_plan("p3", profile_of([25, 20]), num_servers=2, max_slice=10)
    assert [s.server for s in plan.slices] == [0, 1, 0, 1, 0]


def test_p3_plan_preconditions():
    with pytest.raises(PlanError):
        make_plan("p3", profile_of([10]), num_servers=0)
    with pytest.raises(PlanError):
        make_plan("p3", profile_of([10]), num_servers=1, max_slice=0)


def test_plan_preconditions_of_every_mode():
    with pytest.raises(PlanError, match="'fast'"):
        make_plan("fast", profile_of([10]), num_servers=1)
    with pytest.raises(PlanError):
        make_plan("baseline", profile_of([10]), num_servers=0)
    # baseline never reads max_slice
    assert make_plan("baseline", profile_of([10]), 1, max_slice=0).slices[0].length == 10


# -- baseline plans ----------------------------------------------------------


def test_baseline_small_layer_deterministic():
    prof = profile_of([999_999])
    a = make_plan("baseline", prof, num_servers=4, seed=77)
    b = make_plan("baseline", prof, num_servers=4, seed=77)
    assert a == b
    assert len(a.slices) == 1 and 0 <= a.slices[0].server < 4


def test_baseline_big_layer_equal_split():
    plan = make_plan("baseline", profile_of([1_000_000]), num_servers=4)
    assert [s.length for s in plan.slices] == [250_000] * 4
    assert [s.server for s in plan.slices] == [0, 1, 2, 3]


def test_baseline_split_remainder_to_last():
    plan = make_plan("baseline", profile_of([1_000_002]), num_servers=4)
    assert [s.length for s in plan.slices] == [250_000, 250_000, 250_000, 250_002]


def test_baseline_threshold_boundary():
    # exactly at the threshold counts as big
    plan = make_plan("baseline", profile_of([1_000_000, 5]), num_servers=2)
    assert [len(slices) for slices in plan.by_layer().values()] == [2, 1]


# -- by_layer ----------------------------------------------------------------


def test_by_layer_sorted_and_covering():
    plan = make_plan("p3", profile_of([120_000, 7]), num_servers=3, max_slice=50_000)
    by_layer = plan.by_layer()
    assert list(by_layer) == [0, 1]
    assert [s.key.slice_index for s in by_layer[0]] == [0, 1, 2]
    assert sum(s.length for s in by_layer[0]) == 120_000
    assert [s.length for s in by_layer[1]] == [7]
    assert [s for slices in by_layer.values() for s in slices] == list(plan.slices)


# -- priority order ----------------------------------------------------------


@given(st.permutations([SliceKey(l, s) for l in range(4) for s in range(3)]))
def test_sort_unique_order(perm):
    # a slice's priority is its key's order: headers sort into SliceKey order
    frames = [Frame(MsgType.PUSH, 0, 0, key) for key in perm]
    ordered = [f.key for f in sorted(frames, key=lambda f: f.key)]
    assert ordered == [SliceKey(l, s) for l in range(4) for s in range(3)]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("mode", MODES)
def test_a_key_survives_the_wire(name, mode):
    # a frame carries the plan's key as it is: the decoded key equals the
    # slice's and finds the same plan row
    plan = make_plan(mode, builtin_profile(name), num_servers=2)
    rows = {s.key: s for s in plan.slices}
    decoder = FrameDecoder()
    for sl in plan.slices:
        header, payload = encode_frame(Frame(MsgType.PUSH, 3, 1, sl.key))
        [frame] = decoder.feed(decoder.header(header), payload)
        assert frame.key == sl.key
        assert rows[frame.key] is sl


# -- invariants over random profiles ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(profiles_strategy, st.integers(1, 5), st.integers(0, 2**64 - 1))
def test_coverage_and_determinism(profile, num_servers, seed):
    p3 = make_plan("p3", profile, num_servers)
    validate_plan(p3, profile)
    base = make_plan("baseline", profile, num_servers, seed=seed)
    validate_plan(base, profile)
    assert make_plan("p3", profile, num_servers) == p3
    assert make_plan("baseline", profile, num_servers, seed=seed) == base
    assert plan_to_csv(p3) == plan_to_csv(make_plan("p3", profile, num_servers))


@settings(max_examples=60, deadline=None)
@given(profiles_strategy, st.integers(1, 5))
def test_priority_monotone_across_layers(profile, num_servers):
    # a slice's priority is its key's order: headers sort into layer order,
    # and a layer's slices into offset order
    plan = make_plan("p3", profile, num_servers)
    frames = [Frame(MsgType.PUSH, 0, 0, s.key) for s in reversed(plan.slices)]
    ordered = sorted(frames, key=lambda f: f.key)
    layer_seq = [f.key.layer_index for f in ordered]
    assert layer_seq == sorted(layer_seq)
    keys = [f.key for f in ordered]
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
        plan = make_plan("p3", prof, 4)
        assert max(s.length for s in plan.slices) <= DEFAULT_MAX_SLICE
    else:
        plan = make_plan("baseline", prof, 4, seed=3)
    validate_plan(plan, prof)
    for layer in prof.layers:
        assert sum(s.length for s in plan.by_layer()[layer.index]) == layer.param_count


@pytest.mark.parametrize("mode", MODES)
def test_validate_rejects_slice_larger_than_a_frame(mode):
    # one 4.2M-param layer on one server: 16.8 MB, over the 16 MiB frame payload,
    # so the plan refuses the slice as make_plan builds it
    with pytest.raises(PlanError, match=r"SliceKey\(layer_index=0, slice_index=0\).*4194304"):
        make_plan(mode, profile_of([4_200_000]), 1, max_slice=4_200_000)
    fits = profile_of([MAX_FRAME_PARAMS])
    validate_plan(make_plan(mode, fits, 1, max_slice=MAX_FRAME_PARAMS), fits)


def test_validate_rejects_slice_of_unknown_layer():
    toy3 = builtin_profile("toy3")
    plan = make_plan("p3", toy3, 2)
    extra = replace(plan, slices=plan.slices + (Slice(SliceKey(9, 0), 0, 10, 0),))
    with pytest.raises(PlanError, match=r"layers \[9\]"):
        validate_plan(extra, toy3)


def rows_csv(mode, num_servers, slices):
    """The text ``plan_to_csv`` would write for ``slices``, which no SlicePlan need hold."""
    rows = "".join(f"{s.key.layer_index},{s.key.slice_index},{s.offset},{s.length},{s.server}\n" for s in slices)
    return f"# p3sync-plan mode={mode} num_servers={num_servers}\n{HEADER}\n{rows}"


def edit_key(target, **changes):
    return lambda s: replace(s, **changes) if s.key == target else s


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: None if s.key.layer_index == 1 else s, "layer 1 not covered"),
        (edit_key(SliceKey(1, 1), offset=11), "layer 1: gap/overlap at offset 10"),
        (edit_key(SliceKey(1, 1), offset=9), "layer 1: gap/overlap at offset 10"),
        (edit_key(SliceKey(1, 2), length=0), "layer 1: empty slice SliceKey(layer_index=1, slice_index=2)"),
        (edit_key(SliceKey(1, 1), server=1), "layer 1: bad server 1"),
        (edit_key(SliceKey(1, 2), key=SliceKey(1, 3)), "layer 1: slice SliceKey(layer_index=1, slice_index=3) breaks"),
    ],
    ids=["layer-without-slices", "gap", "overlap", "empty-slice", "server-outside-the-plan", "slice-index-skipped"],
)
def test_validate_refuses_a_plan_that_does_not_tile_its_layers(tmp_path, capsys, edit, message):
    # layer 1's 25 params are slices (1,0), (1,1) and (1,2) at offsets 0, 10 and 20
    prof = profile_of([10, 25])
    plan = make_plan("p3", prof, 1, max_slice=10)
    rows = tuple(e for e in map(edit, plan.slices) if e is not None)
    # a worker checks its plan before it connects to any server
    roles = {"worker": ["--servers", "127.0.0.1:1", "--profile", str(tmp_path / "profile.json"), "--iterations", "1"]}
    if message.endswith("not covered"):  # rows that tile what they hold: only a profile sees the gap
        with pytest.raises(PlanError, match=re.escape(message)):
            validate_plan(replace(plan, slices=rows), prof)
    else:  # the plan refuses the rows as it is built, so a server, with no profile, refuses them too
        with pytest.raises(PlanError, match=re.escape(message)):
            replace(plan, slices=rows)
        roles["server"] = ["--num-workers", "1"]
    (tmp_path / "plan.csv").write_text(rows_csv("p3", 1, rows))
    save_profile(prof, tmp_path / "profile.json")
    for role, args in roles.items():
        assert main([role, "--rank", "0", "--plan", str(tmp_path / "plan.csv"), *args]) == 1
        assert message in capsys.readouterr().err


# -- csv interchange ---------------------------------------------------------


def test_plan_csv_roundtrip(tmp_path):
    plan = make_plan("baseline", builtin_profile("vgg19-like"), 3, big_threshold=100_000, seed=5)
    path = tmp_path / "plan.csv"
    save_plan(plan, path)
    assert load_plan(path) == plan


def test_plan_csv_rejects_garbage():
    with pytest.raises(PlanError):
        plan_from_csv("layer,slice\n0,0\n")


META = "# p3sync-plan mode=p3 num_servers=1"
HEADER = "layer,slice,offset,len,server"


def test_plan_csv_metadata_is_mode_and_servers():
    plan = make_plan("p3", profile_of([10]), 1)
    assert plan_to_csv(plan) == f"{META}\n{HEADER}\n0,0,0,10,0\n"
    # any other key, such as a build setting, is refused: a plan file is what plan_to_csv writes
    old = f"{META} max_slice=50000 big_threshold=1000000 rng_seed=0\n{HEADER}\n0,0,0,10,0\n"
    with pytest.raises(PlanError, match=f"plan line 1 is '{META} max_slice=50000 .*', where plan_to_csv writes"):
        plan_from_csv(old)


@pytest.mark.parametrize(
    "text",
    [
        "",
        f"{META.replace(' num_servers=1', '')}\n{HEADER}\n0,0,0,10,0\n",
        f"{META.replace('mode=p3', 'mode=fast')}\n{HEADER}\n0,0,0,10,0\n",
        f"{META.replace('num_servers=1', 'num_servers=x')}\n{HEADER}\n",
        f"{META}\n",
        f"{META}\n0,0,0,10,0\n",
        f"{META}\nlayer,slice,offset,len,priority,server\n0,0,0,10,0,0\n",
        f"{META}\n{HEADER}\n0,0,0,10\n",
        f"{META}\n{HEADER}\n0,0,0,ten,0\n",
        # each of these parses, but plan_to_csv would write it otherwise
        f"{META} num_servers=2\n{HEADER}\n0,0,0,10,0\n",
        f"{META.replace('num_servers=1', 'num_servers=1_0')}\n{HEADER}\n0,0,0,10,0\n",
        f"{META} max_slice=7\n{HEADER}\n0,0,0,10,0\n",
        f"{META}\n{HEADER}\n0,0,0,1_024,0\n",
        f"{META}\n{HEADER}\n0,0,0, +1024,0\n",
        f"{META}\n{HEADER}\n0,0,\u0660,1024,0\n",
        f"{META}\n{HEADER}\n0,0,0,10,0\n\n1,0,0,10,0\n",
        f"{META}\n{HEADER}\n0,0,0,10,0 \n",
        f"{META}\n{HEADER}\n0,0,0,10,0",
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
        "repeated-metadata-key",
        "underscore-in-metadata",
        "unknown-metadata-key",
        "underscore-in-row",
        "space-and-sign-in-row",
        "arabic-indic-digit-in-row",
        "blank-line-between-rows",
        "trailing-space",
        "no-final-newline",
    ],
)
def test_plan_csv_rejects_malformed(text):
    with pytest.raises(PlanError):
        plan_from_csv(text)


@pytest.mark.parametrize(
    "body, message",
    [
        (
            f"{HEADER}\n0,0,0,10,0\n1,0,0,1_024,0\n",
            r"line 4 is '1,0,0,1_024,0\n', where plan_to_csv writes '1,0,0,1024,0\n'",
        ),
        (f"{HEADER}\n0,0,0,10,0", r"line 3 is '0,0,0,10,0', where plan_to_csv writes '0,0,0,10,0\n'"),
        ("0,0,0,10,0\n", f"line 2 is '0,0,0,10,0\\n', where plan_to_csv writes '{HEADER}\\n'"),
    ],
    ids=["underscore", "no-final-newline", "no-header-line"],
)
def test_plan_csv_names_the_first_line_plan_to_csv_writes_otherwise(body, message):
    with pytest.raises(PlanError, match=re.escape(f"plan {message}")):
        plan_from_csv(f"{META}\n{body}")


def test_baseline_refuses_a_big_layer_with_fewer_params_than_servers():
    # 2,000 servers cannot each own a part of a 1,024-param layer
    with pytest.raises(PlanError, match="layer 1: 1024 params cannot split over 2000 servers"):
        make_plan("baseline", profile_of([5, 1024]), 2000, big_threshold=1000)
    assert len(make_plan("baseline", profile_of([5, 1024]), 1024, big_threshold=1000).slices) == 1025


def test_a_plan_at_the_slice_cap_builds_and_one_over_it_is_refused():
    assert len(make_plan("p3", profile_of([MAX_PLAN_SLICES]), 1, max_slice=1).slices) == MAX_PLAN_SLICES
    # refused from the count, before a slice is cut
    over = f"profile t cuts into {MAX_PLAN_SLICES + 1} slices; a plan holds at most {MAX_PLAN_SLICES}"
    with pytest.raises(PlanError, match=over):
        make_plan("p3", profile_of([MAX_PLAN_SLICES, 1]), 1, max_slice=1)


def test_baseline_counts_a_big_layer_as_one_slice_per_server(monkeypatch):
    monkeypatch.setattr(plan_module, "MAX_PLAN_SLICES", 4)
    prof = profile_of([10, 2_000_000])  # one whole layer and one split over every server
    assert len(make_plan("baseline", prof, 3).slices) == 4
    with pytest.raises(PlanError, match="profile t cuts into 5 slices; a plan holds at most 4"):
        make_plan("baseline", prof, 4)


def test_a_loaded_plan_over_the_slice_cap_is_refused(monkeypatch):
    plan = make_plan("p3", profile_of([5]), 1, max_slice=1)
    text = plan_to_csv(plan)  # 7 lines: metadata, header and 5 rows
    monkeypatch.setattr(plan_module, "MAX_PLAN_SLICES", 5)
    assert plan_from_csv(text) == plan
    # counted before any row is parsed, so a bad last row is not what is named
    with pytest.raises(PlanError, match="plan text of more than 7 lines; a plan holds at most 5 slices"):
        plan_from_csv(text + "not,a,row\n")
    monkeypatch.setattr(plan_module, "MAX_PLAN_SLICES", 4)
    with pytest.raises(PlanError, match="5 slices; a plan holds at most 4"):
        SlicePlan(P3_MODE, plan.slices, 1)


def test_a_plan_file_over_the_slice_cap_is_refused_before_it_is_read(monkeypatch, tmp_path):
    # a million lines, about 10 MB: load_plan reads a line past the cap and no more
    path = tmp_path / "plan.csv"
    with open(path, "w") as f:
        f.write(f"{META}\n{HEADER}\n")
        for _ in range(100):
            f.write("0,0,0,1,0\n" * 10_000)
    monkeypatch.setattr(plan_module, "MAX_PLAN_SLICES", 5)
    tracemalloc.start()
    try:
        with pytest.raises(PlanError, match="plan text of more than 7 lines; a plan holds at most 5 slices"):
            load_plan(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_plan_csv_rejects_a_repeated_slice_key():
    # two rows under key (0, 0) cover layer 0 between them, so no coverage check
    # sees it; a frame names a slice by its key alone
    text = f"{META}\n{HEADER}\n0,0,0,512,0\n0,0,512,512,0\n1,0,0,1024,0\n"
    key = r"SliceKey\(layer_index=0, slice_index=0\)"
    with pytest.raises(PlanError, match=f"slice {key} repeats slice key {key}"):
        plan_from_csv(text)


def test_plan_csv_rejects_rows_out_of_key_order():
    # toy3's plan with its first two rows swapped: every layer is still covered,
    # but a plan's rows are its slices in key order, and readers trust that
    rows = plan_to_csv(make_plan("p3", builtin_profile("toy3"), 1)).splitlines(keepends=True)
    rows[2], rows[3] = rows[3], rows[2]
    first, second = (re.escape(repr(SliceKey(l, 0))) for l in (1, 0))
    with pytest.raises(PlanError, match=f"slice {second} repeats slice key {first} or comes before it"):
        plan_from_csv("".join(rows))


# -- golden plan rows -----------------------------------------------------------

# SHA-256 of plan_to_csv without its metadata line, computed with the separate
# p3 and baseline builders that make_plan replaced: the rows must not move
PLAN_DIGESTS = {
    "resnet50-like-p3-s1-seed0": "baaa6cfef515e36e9ba1dea63462ee2310efe629a741c3c481aed6a969622de9",
    "resnet50-like-p3-s1-seed77": "baaa6cfef515e36e9ba1dea63462ee2310efe629a741c3c481aed6a969622de9",
    "resnet50-like-p3-s2-seed0": "576a6f319fc6a9615f6df8c33cc42c38465b995d3bdb882594235c3a72ced9f1",
    "resnet50-like-p3-s2-seed77": "576a6f319fc6a9615f6df8c33cc42c38465b995d3bdb882594235c3a72ced9f1",
    "resnet50-like-p3-s3-seed0": "4bb95a84fa5cd47199b58ad588c9216792c1cab8813492efd63f34b38a925efd",
    "resnet50-like-p3-s3-seed77": "4bb95a84fa5cd47199b58ad588c9216792c1cab8813492efd63f34b38a925efd",
    "resnet50-like-p3-s4-seed0": "659def023bea0bda5d153c9bd1420dad22726a74c327911877f6726c89faa534",
    "resnet50-like-p3-s4-seed77": "659def023bea0bda5d153c9bd1420dad22726a74c327911877f6726c89faa534",
    "resnet50-like-baseline-s1-seed0": "ef2608187d23d33008cd7e4073246b24ddaff7fa67e530cc67c797bdd0640789",
    "resnet50-like-baseline-s1-seed77": "ef2608187d23d33008cd7e4073246b24ddaff7fa67e530cc67c797bdd0640789",
    "resnet50-like-baseline-s2-seed0": "8e92fde235bb20085ff664763bd9ecc206de58d6e0b9ca76a0a922da99ff5b6b",
    "resnet50-like-baseline-s2-seed77": "65d9e51bd1bb71dbaa9d726ceb516fa6c4266689a6058d5c989c4bccb3290cda",
    "resnet50-like-baseline-s3-seed0": "7c4257203ef8ec9bafc6e7c79b70b9af03e30032fd3cbc432caf4b5bde2bc49c",
    "resnet50-like-baseline-s3-seed77": "105cbdff0c9affedf4b98d7c83486894bc0cc0acd60b50df1e7abedc158166fb",
    "resnet50-like-baseline-s4-seed0": "14d1e8cc3b659e1a0f55bae9933f5f2f4ea9c482156e3e234dda442a94e40657",
    "resnet50-like-baseline-s4-seed77": "4cbafca213407f4fbfc7d0b9a210608ce6fa3033ed46e30e01f37db53b96b449",
    "sockeye-like-p3-s1-seed0": "34e81d68e95663d6a39760bbee9478338c264d1e6e6685567ae00ea870516294",
    "sockeye-like-p3-s1-seed77": "34e81d68e95663d6a39760bbee9478338c264d1e6e6685567ae00ea870516294",
    "sockeye-like-p3-s2-seed0": "f2b743af0d03742304bb0a8a00f76495f00809ee8a85878b79208cd7442357ca",
    "sockeye-like-p3-s2-seed77": "f2b743af0d03742304bb0a8a00f76495f00809ee8a85878b79208cd7442357ca",
    "sockeye-like-p3-s3-seed0": "5a684659bf358f3d6b805955abb38f2ba036821f9ee375931371f9d1b75e5b75",
    "sockeye-like-p3-s3-seed77": "5a684659bf358f3d6b805955abb38f2ba036821f9ee375931371f9d1b75e5b75",
    "sockeye-like-p3-s4-seed0": "a7a32c98f4e1dbb508da90a20b737646e730ac6912f91dc98f8a4a2c953e333b",
    "sockeye-like-p3-s4-seed77": "a7a32c98f4e1dbb508da90a20b737646e730ac6912f91dc98f8a4a2c953e333b",
    "sockeye-like-baseline-s1-seed0": "0d0f702a3addd62782c4fc6d0b65ba929e8ea5cddbe97536d02dec98d4a34240",
    "sockeye-like-baseline-s1-seed77": "0d0f702a3addd62782c4fc6d0b65ba929e8ea5cddbe97536d02dec98d4a34240",
    "sockeye-like-baseline-s2-seed0": "3776a37c166763a0bdf237fddf8d1e6454ca88408d03efecef93087de3d11fe6",
    "sockeye-like-baseline-s2-seed77": "86fc44e404c9ad12506602fdd7971c290b03ebc8f51e7c2686b9c491ddbc2296",
    "sockeye-like-baseline-s3-seed0": "8a384dbe3be75a243fbb88994cf7502d5ed4f5de3b687e233b074d0351467c3e",
    "sockeye-like-baseline-s3-seed77": "eb1226a584276efe0ee5dd03d618ba9285e31aea4cd2870ddb1cf72bdd984810",
    "sockeye-like-baseline-s4-seed0": "f978f21d4a9b19566d80129a311c0f0b1c6d926feca89838b6855ef6474db929",
    "sockeye-like-baseline-s4-seed77": "c4e280c9441bbc63451f0035a028da3a06338a45b453b90fc6916b28b0721f8c",
    "toy3-p3-s1-seed0": "eda1b2fe08482aa413eb88fe97399cf9b355f2289530129c78985509a3c0a237",
    "toy3-p3-s1-seed77": "eda1b2fe08482aa413eb88fe97399cf9b355f2289530129c78985509a3c0a237",
    "toy3-p3-s2-seed0": "9facbb2b5c170fa2c01ffd96a5c524d0c2532d1fae079f5fe657c5b4015a4414",
    "toy3-p3-s2-seed77": "9facbb2b5c170fa2c01ffd96a5c524d0c2532d1fae079f5fe657c5b4015a4414",
    "toy3-p3-s3-seed0": "7a383b188782e32efd352334126b142bb66615db3ea682cd75f1622021fc9150",
    "toy3-p3-s3-seed77": "7a383b188782e32efd352334126b142bb66615db3ea682cd75f1622021fc9150",
    "toy3-p3-s4-seed0": "7a383b188782e32efd352334126b142bb66615db3ea682cd75f1622021fc9150",
    "toy3-p3-s4-seed77": "7a383b188782e32efd352334126b142bb66615db3ea682cd75f1622021fc9150",
    "toy3-baseline-s1-seed0": "eda1b2fe08482aa413eb88fe97399cf9b355f2289530129c78985509a3c0a237",
    "toy3-baseline-s1-seed77": "eda1b2fe08482aa413eb88fe97399cf9b355f2289530129c78985509a3c0a237",
    "toy3-baseline-s2-seed0": "9370512334f21f8d5b20666acd5ad9729fae765825b39ad6c8ac3de7b80c09ee",
    "toy3-baseline-s2-seed77": "21d49dc67e69087fe21a3d2dc34665fa93ed4d4829ac5fa0d125f661b4f8919e",
    "toy3-baseline-s3-seed0": "9370512334f21f8d5b20666acd5ad9729fae765825b39ad6c8ac3de7b80c09ee",
    "toy3-baseline-s3-seed77": "eda1b2fe08482aa413eb88fe97399cf9b355f2289530129c78985509a3c0a237",
    "toy3-baseline-s4-seed0": "e5a670431d02cbe86839ea0b6b1df45a1eedd0d9aa91120cdadd2ef7a2627d05",
    "toy3-baseline-s4-seed77": "21d49dc67e69087fe21a3d2dc34665fa93ed4d4829ac5fa0d125f661b4f8919e",
    "vgg19-like-p3-s1-seed0": "95cf85011133af12626e2b4dd883293e67c998f7744fa5e22ab02355da84bf32",
    "vgg19-like-p3-s1-seed77": "95cf85011133af12626e2b4dd883293e67c998f7744fa5e22ab02355da84bf32",
    "vgg19-like-p3-s2-seed0": "f8bdab967052e9da807627e2890049092f4c79f9d57240bc31ae2249f35e90e2",
    "vgg19-like-p3-s2-seed77": "f8bdab967052e9da807627e2890049092f4c79f9d57240bc31ae2249f35e90e2",
    "vgg19-like-p3-s3-seed0": "181c15da91ea723e889274cb56cb54ac365661835bf807f8acbcef34c1e9170d",
    "vgg19-like-p3-s3-seed77": "181c15da91ea723e889274cb56cb54ac365661835bf807f8acbcef34c1e9170d",
    "vgg19-like-p3-s4-seed0": "f66d651b980d35d9ad1b9f254f4c33bc5eb5bb999075be91210aa40f1072b159",
    "vgg19-like-p3-s4-seed77": "f66d651b980d35d9ad1b9f254f4c33bc5eb5bb999075be91210aa40f1072b159",
    "vgg19-like-baseline-s1-seed0": "40487d204c63a2c68ab59a07e9678d4824e6d4ca34757a379afe976661569d4e",
    "vgg19-like-baseline-s1-seed77": "40487d204c63a2c68ab59a07e9678d4824e6d4ca34757a379afe976661569d4e",
    "vgg19-like-baseline-s2-seed0": "5a0133a9a40f96bf14f8627f6309bb61b14010726422e6a1d42e2b246de117ea",
    "vgg19-like-baseline-s2-seed77": "64610115b42cf4153bd6956cced26c9364d740a3c6b942869d5c5f1901b03487",
    "vgg19-like-baseline-s3-seed0": "6b33400cdb4e1906bf1a645d361484f92da32b5910e0e819239090308b51d57c",
    "vgg19-like-baseline-s3-seed77": "c6fceb210ada0eddcb0a27b7b2f1de4751abf6650c3c7ae794f18f143a63bba2",
    "vgg19-like-baseline-s4-seed0": "40163e37504dd3b92939d00a64d1564499906f1e2cfd8216783c801e67a2d80a",
    "vgg19-like-baseline-s4-seed77": "486d99ad95d6910efd71336dbe22be0a3016072d57fbb7f172a6f862ec39fc3e",
}


@pytest.mark.parametrize("seed", [0, 77])
@pytest.mark.parametrize("num_servers", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_plan_rows_golden(name, mode, num_servers, seed):
    csv = plan_to_csv(make_plan(mode, builtin_profile(name), num_servers, seed=seed))
    rows = csv.split("\n", 1)[1]
    assert hashlib.sha256(rows.encode()).hexdigest() == PLAN_DIGESTS[f"{name}-{mode}-s{num_servers}-seed{seed}"]
