"""Self-test of the benchmark's own code at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the runtime's child processes import p3sync from the sources, like run.py arranges
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from p3sync.model import LayerSpec, ModelProfile  # noqa: E402
from p3sync.sim import Scenario, StageCost  # noqa: E402

from perfbench import bench, inputs, runtime_jobs as rj, sim_jobs as sj, stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def toy_workload(pairs: int) -> rj.RuntimeWorkload:
    return rj.RuntimeWorkload(
        profile=inputs.runtime_profile("toy3", seed=3, zero_compute=True),
        throttle_bps=0.0,
        iterations=rj.WARMUP_ITERATIONS + 6,
        pairs=pairs,
    )


def toy_scenario(seed: int = 0) -> Scenario:
    layers = tuple(LayerSpec(i, f"L{i}", 8, 1 + (seed + i) % 2, 2) for i in range(3))
    return Scenario(
        profile=ModelProfile("toy-scenario", seed, layers),
        stages=tuple(StageCost(up=4, update=2, down=4) for _ in layers),
        policy=sj.PRIORITY_SLICED,
        slice_ticks=2,
        num_iterations=2,
    )


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(110) == 90.0
    assert stats.tail_percentile(220) == 95.0
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50


def test_inputs_follow_the_seed():
    zero = inputs.runtime_profile("vgg19-like", seed=7, zero_compute=True)
    assert zero.seed == 7
    assert all(l.fwd_time == 0 and l.bwd_time == 0 for l in zero.layers)
    assert inputs.linkbound_scenario(4, 2) == inputs.linkbound_scenario(4, 2)
    a, b = inputs.linkbound_scenario(1, 1), inputs.linkbound_scenario(2, 1)
    a.validate()
    assert a.profile.layers != b.profile.layers
    assert a.stages == b.stages


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert "setup_s" in E2E
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_runtime_end_to_end_metrics(tmp_path):
    outcome = bench.Outcome()
    metrics = bench.runtime_metrics("toy", toy_workload(pairs=1), 3, False, tmp_path, outcome)
    assert outcome.failures == [] and outcome.attempted == 2
    assert set(metrics) == E2E
    assert all(v > 0 for v in metrics.values())


def test_sim_end_to_end_metrics(tmp_path):
    outcome = bench.Outcome()
    metrics = bench.sim_metrics(toy_scenario(), bench.SIM_MIN_REPS, False, tmp_path, outcome)
    assert outcome.failures == []
    setups = -(-bench.SIM_MIN_REPS // bench.SIM_SETUP_EVERY)
    assert outcome.attempted == len(sj.GOLDENS) + bench.SIM_MIN_REPS * len(sj.POLICIES) + setups
    assert set(metrics) == E2E
    assert all(v > 0 for v in metrics.values())


def test_traced_runs_cover_every_per_layer_metric(tmp_path):
    outcome = bench.Outcome()
    runtime = bench.runtime_metrics("toy", toy_workload(pairs=2), 3, True, tmp_path / "rt", outcome)
    (tmp_path / "sim").mkdir()
    simulated = bench.sim_metrics(toy_scenario(), bench.SIM_MIN_REPS, True, tmp_path / "sim", outcome)
    assert outcome.failures == []
    assert set(runtime) | set(simulated) == PER_LAYER
    assert not set(runtime) & set(simulated)
    for mode in rj.MODES:
        # every frame a sender encodes is decoded once on the other side
        assert runtime[f"proto.encode_frame.calls.{mode}"] == runtime[f"proto.FrameDecoder.feed.frames.{mode}"]
        assert runtime[f"hashing.gradient_block.calls.{mode}"] > 0
        assert runtime[f"cli.summarize_run.busy_ms.{mode}"] > 0
        assert runtime[f"transport.TokenBucket.consume.calls.{mode}"] == 0  # unshaped


def test_checks_catch_wrong_outputs():
    results, _ = sj.repetition(toy_scenario())
    assert sj.check_repetition(results, results) == []
    changed = dict(results)
    changed[sj.AGGRESSIVE_SLICED] = replace(results[sj.AGGRESSIVE_SLICED], csv="resource,item,start,end\n")
    assert len(sj.check_repetition(changed, results)) == 1
    slow = {**results, sj.PRIORITY_SLICED: replace(results[sj.PRIORITY_SLICED], summary={"inter_iteration_delay": 10**6})}
    assert len(sj.check_repetition(slow, slow)) == 1
    assert sj.check_goldens(ROOT / "scenarios") == []


def test_cross_mode_digest_mismatch_fails_the_pair(tmp_path, monkeypatch):
    real = rj.run_job

    def skewed(wl, mode, *args, **kwargs):
        job = real(wl, mode, *args, **kwargs)
        if mode == "baseline":
            job.digest = "0" * 16
        return job

    monkeypatch.setattr(rj, "run_job", skewed)
    outcome = bench.Outcome()
    bench.runtime_metrics("toy", toy_workload(pairs=1), 3, False, tmp_path, outcome)
    assert len(outcome.failures) == 2


def test_cli_rejects_an_unknown_workload():
    argv = ["--workload", "nope", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *argv], capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""


def test_without_sources_it_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataplane", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
