"""Workload runners and the report of one benchmark run (entry point: run.py)."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

from p3sync.sim import Scenario, load_scenario, save_scenario

from perfbench import inputs, runtime_jobs as rj, sim_jobs as sj, stats

ROOT = Path(__file__).resolve().parent.parent

# A run stops starting jobs after this many seconds, so that it ends within 180.
RUN_BUDGET_S = 165.0

# pair_seconds / rep_seconds: how long one unit of work took on a 2-core x86
# VM when this benchmark was written. They turn the requested seconds into an
# amount of work, so the same seconds always mean the same work.
RUNTIME_WORKLOADS = {
    "dataplane": {"zero_compute": True, "throttle_bps": 0.0, "iterations": 60, "pair_seconds": 16.0},
    "shaped-vgg": {"zero_compute": False, "throttle_bps": 500e6, "iterations": 25, "pair_seconds": 18.0},
}
SIM_ITERATIONS = 6
SIM_REP_SECONDS = 1.5
SIM_MIN_REPS = 20  # the fewest that leave 10 samples beyond the median in the report
# set-up is measured after every second repetition, so that its samples span
# the run like the simulations do
SIM_SETUP_EVERY = 2
# the end-to-end metrics name two jobs; on the simulator they are these policies
SIM_JOBS = {"p3": sj.PRIORITY_SLICED, "baseline": sj.AGGRESSIVE_COARSE}
WORKLOADS = (*RUNTIME_WORKLOADS, "sim-linkbound")
# a job is called cpu- or shaper-bound when that share reaches this
SATURATED = 0.7


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAILED: {why}", flush=True)


def _mib(kib: int) -> float:
    return kib / 1024.0  # ru_maxrss is in KiB on Linux


def _print_step_distribution(what: str, ms: list[float]) -> None:
    """The median and the tail that the end-to-end metrics leave out."""
    line = f"# {what}: min {min(ms):.2f} ms, p50 {statistics.median(ms):.2f} ms"
    pct = stats.tail_percentile(len(ms))
    if pct is not None:
        line += f", p{pct:g} {stats.percentile(ms, pct):.2f} ms"
    print(line + f" ({len(ms)} samples)")


def _print_spreads(series: dict[str, list[float]]) -> None:
    for name, values in series.items():
        if values:
            print(
                f"#   {name}: median {statistics.median(values):.4g} of {len(values)}, "
                f"min {min(values):.4g}, max {max(values):.4g}, spread {stats.spread(values):.1%}"
            )


# -- runtime workloads -----------------------------------------------------


def run_runtime(name: str, seed: int, seconds: int, trace: bool, work: Path, outcome: Outcome) -> dict:
    spec = RUNTIME_WORKLOADS[name]
    wl = rj.RuntimeWorkload(
        profile=inputs.runtime_profile("vgg19-like", seed, zero_compute=spec["zero_compute"]),
        throttle_bps=spec["throttle_bps"],
        iterations=spec["iterations"],
        pairs=max(2 if trace else 1, round(seconds / spec["pair_seconds"])),
    )
    return runtime_metrics(name, wl, seed, trace, work, outcome)


def runtime_metrics(
    name: str, wl: rj.RuntimeWorkload, seed: int, trace: bool, work: Path, outcome: Outcome
) -> dict:
    bound = rj.compute_bound(wl.profile)
    print(
        f"# {name} seed={seed}: {wl.pairs} x (p3, baseline) jobs of {wl.iterations} iterations, "
        f"{rj.NUM_WORKERS} workers x {rj.NUM_SERVERS} server, batch {rj.BATCH_SIZE}, "
        f"throttle {wl.throttle_bps / 1e6:g} Mbit/s"
    )
    print(
        f"# compute-only bound of {wl.profile.name}: "
        + (f"{bound:.1f} samples/s" if bound else "none (no declared compute)"),
        flush=True,
    )

    t_start = time.monotonic()
    # jobs[traced][mode]: the jobs that passed every check
    jobs: dict[bool, dict[str, list[rj.JobResult]]] = {t: {m: [] for m in rj.MODES} for t in (False, True)}
    for pair in range(wl.pairs):
        traced = trace and pair % 2 == 1
        done: dict[str, rj.JobResult] = {}
        for mode in rj.MODES:
            outcome.attempted += 1
            remaining = RUN_BUDGET_S - (time.monotonic() - t_start)
            if remaining < 5:
                outcome.fail(f"job {pair} {mode}: run budget of {RUN_BUDGET_S:.0f} s spent")
                continue
            try:
                job = rj.run_job(wl, mode, seed, work / f"job{pair}-{mode}", timeout=remaining, traced=traced)
            except rj.JobFailed as exc:
                outcome.fail(f"job {pair} {exc}")
                continue
            done[mode] = job
            share, resource_name = max((job.shaper_share, "shaper"), (job.cpu_share, "cpu"))
            bottleneck = resource_name if share >= SATURATED else "none"
            print(
                f"job {pair} {mode}{' traced' if traced else ''}: {job.samples_per_s:.1f} samples/s, "
                f"step p50 {statistics.median(job.step_ms):.2f} ms, setup {job.setup_s:.2f} s, "
                f"cpu_share {job.cpu_share:.2f}, shaper_share {job.shaper_share:.2f}, bound by {bottleneck}, "
                f"idle_fraction {job.idle_fraction:.2f}, digest {job.digest}",
                flush=True,
            )
        digests = {job.digest for job in done.values()}
        if len(digests) > 1:
            for mode in done:
                outcome.fail(f"job {pair} {mode}: p3 and baseline digests differ: {sorted(digests)}")
            continue
        for mode, job in done.items():
            jobs[traced][mode].append(job)

    if trace:
        return _runtime_layers(jobs)

    metrics: dict[str, float] = {}
    for mode in rj.MODES:
        done_jobs = jobs[False][mode]
        if not done_jobs:
            continue
        steps = [ms for job in done_jobs for ms in job.step_ms]
        metrics[f"throughput.{mode}"] = statistics.median([j.samples_per_s for j in done_jobs])
        metrics[f"step_ms.{mode}"] = statistics.median(steps)
        _print_step_distribution(f"{mode} iteration wall", steps)
    all_jobs = [job for mode in rj.MODES for job in jobs[False][mode]]
    if all_jobs:
        metrics["setup_s"] = statistics.median([job.setup_s for job in all_jobs])
        metrics["peak_rss_mb"] = _mib(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    _print_spreads(
        {
            **{f"throughput.{m}": [j.samples_per_s for j in jobs[False][m]] for m in rj.MODES},
            "setup_s": [j.setup_s for j in all_jobs],
        }
    )
    return metrics


def _runtime_layers(jobs: dict[bool, dict[str, list[rj.JobResult]]]) -> dict[str, float]:
    """Per-layer numbers per mode: means over the traced jobs, plus tracing overhead."""
    metrics: dict[str, float] = {}
    for mode in rj.MODES:
        traced, untraced = jobs[True][mode], jobs[False][mode]
        if not traced or not untraced:
            continue
        for key in traced[0].layers:
            metrics[f"{key}.{mode}"] = sum(j.layers[key] for j in traced) / len(traced)
        t_sps = statistics.median([j.samples_per_s for j in traced])
        u_sps = statistics.median([j.samples_per_s for j in untraced])
        metrics[f"trace.samples_per_s.traced.{mode}"] = t_sps
        metrics[f"trace.samples_per_s.untraced.{mode}"] = u_sps
        metrics[f"trace.samples_per_s.ratio.{mode}"] = t_sps / u_sps
        print(f"# tracing overhead {mode}: traced {t_sps:.1f} vs untraced {u_sps:.1f} samples/s")
    return metrics


# -- simulator workload ----------------------------------------------------


def run_sim(seed: int, seconds: int, trace: bool, work: Path, outcome: Outcome) -> dict:
    scenario = inputs.linkbound_scenario(seed, SIM_ITERATIONS)
    reps = max(SIM_MIN_REPS, round(seconds / SIM_REP_SECONDS))
    return sim_metrics(scenario, reps, trace, work, outcome)


def sim_metrics(generated: Scenario, reps: int, trace: bool, work: Path, outcome: Outcome) -> dict:
    scenario_path = work / "scenario.json"
    save_scenario(generated, scenario_path)
    scenario = load_scenario(scenario_path)  # the program sees only the generated file
    print(
        f"# sim-linkbound: {reps} repetitions of {', '.join(sj.POLICIES)} on {scenario.name} "
        f"({scenario.profile.num_layers} layers, {scenario.num_iterations} iterations)",
        flush=True,
    )

    outcome.attempted += len(sj.GOLDENS)
    for why in sj.check_goldens(ROOT / "scenarios"):
        outcome.fail(f"golden: {why}")

    walls: dict[str, list[float]] = {p: [] for p in sj.POLICIES}
    layers: dict[str, list[dict[str, float]]] = {p: [] for p in sj.POLICIES}
    setups: list[float] = []
    first = None
    for rep in range(reps):
        results, traced = sj.repetition(scenario, traced=trace)
        outcome.attempted += len(results)
        first = first or results
        for why in sj.check_repetition(results, first):
            outcome.fail(f"repetition {rep}: {why}")
        for policy, res in results.items():
            walls[policy].append(res.wall_s)
        for policy, numbers in traced.items():
            layers[policy].append(numbers)
        if not trace and rep % SIM_SETUP_EVERY == 0:
            outcome.attempted += 1
            try:
                setups.append(sj.setup_seconds(scenario_path))
            except subprocess.CalledProcessError as exc:
                outcome.fail(f"setup: {exc}")
    for policy, res in first.items():
        print(
            f"# {policy}: {res.entries} entries, makespan {res.summary['makespan']}, "
            f"layer-0 delay {res.summary['inter_iteration_delay']}, "
            f"median {statistics.median(walls[policy]) * 1000:.1f} ms per simulation"
        )

    if trace:
        return {
            f"{key}.{policy}": statistics.median([numbers[key] for numbers in layers[policy]])
            for policy in sj.POLICIES
            for key in layers[policy][0]
        }

    metrics: dict[str, float] = {}
    for job, policy in SIM_JOBS.items():
        best_s = min(walls[policy])
        metrics[f"throughput.{job}"] = first[policy].entries / best_s
        metrics[f"step_ms.{job}"] = best_s * 1000.0
    for policy in sj.POLICIES:
        _print_step_distribution(f"{policy} simulation wall", [w * 1000.0 for w in walls[policy]])
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        _print_spreads({"setup_s": setups})
    metrics["peak_rss_mb"] = _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return metrics


# -- report ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, Outcome]:
    outcome = Outcome()
    if workload == "sim-linkbound":
        metrics = run_sim(seed, seconds, trace, work, outcome)
    else:
        metrics = run_runtime(workload, seed, seconds, trace, work, outcome)
    return metrics, outcome


def result_line(spec: dict, trace: bool, metrics: dict[str, float], outcome: Outcome) -> str:
    """Print every metric of this run's kind by name and unit; return the JSON result."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            out[name] = {"value": float(metrics[name]), "unit": unit}
            print(f"{name} = {metrics[name]:.6g} {unit}")
        elif trace:
            out[name] = {"value": 0.0, "unit": unit}  # a layer this workload does not exercise
        else:
            outcome.fail(f"metric {name} was not measured")
    return json.dumps(
        {
            "correct": not outcome.failures,
            "attempted": max(outcome.attempted, 1),
            "failed": len(outcome.failures),
            "metrics": out,
        }
    )
