import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from p3sync.cli import RunConfig, main
from p3sync.model import (
    BUILTIN_NAMES,
    LayerSpec,
    ModelProfile,
    ProfileError,
    builtin_profile,
    load_profile,
    profile_from_dict,
    resolve_profile,
    save_profile,
)
from p3sync.sim import PRIORITY_SLICED, Scenario, ScenarioError, StageCost, load_scenario, save_scenario

REPO = Path(__file__).resolve().parent.parent


def write_profile(tmp_path, layers, name="t", seed=1):
    obj = {"name": name, "seed": seed, "layers": layers}
    p = tmp_path / "profile.json"
    p.write_text(json.dumps(obj))
    return p


def layer(i, params=10, fwd=1, bwd=1):
    return {"index": i, "name": f"L{i}", "param_count": params, "fwd_time": fwd, "bwd_time": bwd}


def test_load_three_layer_file(tmp_path):
    p = write_profile(tmp_path, [layer(0), layer(1), layer(2)])
    prof = load_profile(p)
    assert prof.num_layers == 3
    assert sum(l.param_count for l in prof.layers) == 30


def test_index_gap_rejected(tmp_path):
    p = write_profile(tmp_path, [layer(0), layer(2)])
    with pytest.raises(ProfileError, match="index"):
        load_profile(p)


def test_duplicate_index_rejected(tmp_path):
    p = write_profile(tmp_path, [layer(0), layer(0)])
    with pytest.raises(ProfileError):
        load_profile(p)


def test_zero_params_rejected(tmp_path):
    p = write_profile(tmp_path, [layer(0, params=0)])
    with pytest.raises(ProfileError, match="param_count"):
        load_profile(p)


@pytest.mark.parametrize(
    "key,value,kind",
    [
        ("param_count", 2.7, "integer"),
        ("fwd_time", True, "integer"),
        ("bwd_time", "1", "integer"),
        ("index", None, "integer"),
        ("name", ["L1"], "string"),
    ],
)
def test_mistyped_layer_field_rejected(tmp_path, key, value, kind):
    bad = layer(1)
    bad[key] = value
    p = write_profile(tmp_path, [layer(0), bad])
    with pytest.raises(ProfileError, match=rf"layers\[1\]\.{key} must be a JSON {kind}"):
        load_profile(p)


@pytest.mark.parametrize(
    "layers, seed, message",
    [
        ([layer(0), layer(1, fwd=-1)], 1, "layer 1 (L1): negative compute time"),
        ([layer(0), layer(1, bwd=-1)], 1, "layer 1 (L1): negative compute time"),
        ([], 1, "profile t: needs at least one layer"),
        # gradient_block mixes the seed as a uint64: refused here, not at a worker's first push
        ([layer(0)], -1, "profile t: seed -1 must be in 0..2**64-1"),
        ([layer(0)], 2**64, f"profile t: seed {2**64} must be in 0..2**64-1"),
    ],
    ids=["negative-fwd-time", "negative-bwd-time", "no-layers", "negative-seed", "seed-over-uint64"],
)
def test_profile_out_of_range_rejected(tmp_path, capsys, layers, seed, message):
    p = write_profile(tmp_path, layers, seed=seed)
    with pytest.raises(ProfileError, match=re.escape(message)):
        load_profile(p)
    assert main(["plan", "--profile", str(p)]) == 1
    assert message in capsys.readouterr().err


def test_seed_bounds_accepted(tmp_path):
    for seed in (0, 2**64 - 1):
        assert load_profile(write_profile(tmp_path, [layer(0)], seed=seed)).seed == seed


TOY = ModelProfile("toy", 1, tuple(LayerSpec(i, f"L{i}", 10, 1, 1) for i in range(3)))
SCENARIO = Scenario(TOY, (StageCost(2, 1, 2),) * 3, PRIORITY_SLICED)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: replace(TOY.layers[0], param_count=0), ProfileError, "layer 0 (L0): param_count must be >= 1"),
        (lambda: replace(TOY.layers[1], fwd_time=-1), ProfileError, "layer 1 (L1): negative compute time"),
        (lambda: replace(TOY, layers=()), ProfileError, "profile toy: needs at least one layer"),
        (
            lambda: replace(TOY, layers=(TOY.layers[0], replace(TOY.layers[2], index=2))),
            ProfileError,
            "profile toy: layer 'L2' has index 2, expected 1",
        ),
        (lambda: replace(TOY, seed=-1), ProfileError, "profile toy: seed -1 must be in 0..2**64-1"),
        (lambda: replace(SCENARIO, policy="x"), ScenarioError, "unknown policy 'x'"),
        (lambda: replace(SCENARIO, num_iterations=0), ScenarioError, "num_iterations 0 must be >= 1"),
        (lambda: replace(SCENARIO, slice_ticks=0), ScenarioError, "slice_ticks 0 must be >= 1"),
        (lambda: replace(SCENARIO, stages=SCENARIO.stages[:2]), ScenarioError, "2 stages for 3 profile layers"),
        (
            lambda: replace(SCENARIO, stages=(StageCost(2, -1, 2),) + SCENARIO.stages[1:]),
            ScenarioError,
            "layer 0: negative stage cost",
        ),
        (
            lambda: replace(RunConfig(), skip_iterations=RunConfig().iterations),
            ValueError,
            "need 0 <= skip_iterations (10) < iterations (10)",
        ),
        (lambda: replace(RunConfig(), num_workers=0), ValueError, "num_workers 0 must be >= 1"),
        (lambda: replace(RunConfig(), lr=math.inf), ValueError, "lr inf must be finite"),
    ],
    ids=[
        "layer-no-params", "layer-negative-fwd", "profile-no-layers", "profile-index-skipped", "profile-seed",
        "scenario-policy", "scenario-iterations", "scenario-slice-ticks", "scenario-stage-count",
        "scenario-negative-stage", "config-skip-all", "config-no-workers", "config-lr-inf",
    ],
)
def test_a_value_is_refused_where_it_is_built(build, error, message):
    # dataclasses.replace builds through __init__, so it checks what it builds too
    with pytest.raises(error, match=re.escape(message)):
        build()


@pytest.mark.parametrize("value", ["L1", [1], 5])
def test_layer_that_is_not_an_object_rejected(tmp_path, value):
    p = write_profile(tmp_path, [layer(0), value])
    with pytest.raises(ProfileError, match=r"layers\[1\] must be a JSON object"):
        load_profile(p)


def test_mistyped_seed_rejected(tmp_path):
    p = write_profile(tmp_path, [layer(0)], seed=1.0)
    with pytest.raises(ProfileError, match="seed"):
        load_profile(p)


def test_not_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{nope")
    with pytest.raises(ProfileError, match="JSON"):
        load_profile(p)


def test_total_params_single_layer():
    prof = ModelProfile("one", 0, (LayerSpec(0, "big", 1_000_000, 0, 0),))
    assert sum(l.param_count for l in prof.layers) == 1_000_000


def test_roundtrip(tmp_path):
    for name in BUILTIN_NAMES:
        prof = builtin_profile(name)
        path = tmp_path / f"{name}.json"
        save_profile(prof, path)
        assert load_profile(path) == prof


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_invariants(name):
    prof = builtin_profile(name)
    assert [l.index for l in prof.layers] == list(range(prof.num_layers))


def test_unknown_builtin():
    with pytest.raises(ProfileError, match="unknown builtin"):
        builtin_profile("alexnet")


def test_toy3_equal_layers():
    prof = builtin_profile("toy3")
    counts = {l.param_count for l in prof.layers}
    assert prof.num_layers == 3 and len(counts) == 1


def test_vgg19_like_heavy_share():
    prof = builtin_profile("vgg19-like")
    counts = [l.param_count for l in prof.layers]
    heaviest = max(range(len(counts)), key=counts.__getitem__)
    share = counts[heaviest] / sum(counts)
    assert abs(share - 0.715) <= 0.001
    assert heaviest >= prof.num_layers - 4  # near the end


def test_sockeye_like_heaviest_first():
    prof = builtin_profile("sockeye-like")
    counts = [l.param_count for l in prof.layers]
    assert max(range(len(counts)), key=counts.__getitem__) == 0


def test_resnet50_like_final_fc_heavier():
    prof = builtin_profile("resnet50-like")
    counts = [l.param_count for l in prof.layers]
    assert counts[-1] == max(counts)
    assert prof.num_layers >= 30


def test_shipped_profile_files_match_builtins():
    for name in BUILTIN_NAMES:
        path = REPO / "profiles" / f"{name}.json"
        assert path.exists(), f"missing shipped profile {path}"
        assert load_profile(path) == builtin_profile(name)


def test_shipped_files_are_the_writers_bytes(tmp_path):
    # CI rewrites these files and fails on any difference; this pins the same
    # bytes in tier-1, so a writer change that moves a byte fails here first
    for name in BUILTIN_NAMES:
        save_profile(builtin_profile(name), tmp_path / "p.json")
        assert (tmp_path / "p.json").read_bytes() == (REPO / "profiles" / f"{name}.json").read_bytes(), name
    for name in ("fig4", "fig6"):
        shipped = REPO / "scenarios" / f"{name}.json"
        save_scenario(load_scenario(shipped), tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == shipped.read_bytes(), name


def test_shipped_vgg_file_share_recomputed():
    obj = json.loads((REPO / "profiles" / "vgg19-like.json").read_text())
    counts = [l["param_count"] for l in obj["layers"]]
    total = sum(counts)
    assert max(counts) / total == pytest.approx(0.715, abs=0.001)
    prof = load_profile(REPO / "profiles" / "vgg19-like.json")
    assert sum(l.param_count for l in prof.layers) == total


def test_resolve_profile(tmp_path):
    assert resolve_profile("toy3") == builtin_profile("toy3")
    p = tmp_path / "x.json"
    save_profile(builtin_profile("toy3"), p)
    assert resolve_profile(p) == builtin_profile("toy3")
    with pytest.raises(ProfileError):
        resolve_profile("missing-thing")


def test_profile_dict_roundtrip_stable(tmp_path):
    prof = builtin_profile("vgg19-like")
    save_profile(prof, tmp_path / "p.json")
    d = json.loads((tmp_path / "p.json").read_text())
    assert json.loads(json.dumps(d)) == d
    assert profile_from_dict(d) == prof
