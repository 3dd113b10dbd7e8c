"""Runtime workloads: p3 and baseline ``run_bench`` jobs on loopback, checked and measured.

Topology: 2 workers and 1 server, batch 32. With 2 cores, that keeps a job
to 3 processes and 2 TCP connections; a second server would add a fourth
process and the scheduler would show up in the numbers.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from p3sync import cli
from p3sync.metrics import iteration_starts_from_csv, iterations_from_csv, samples_from_csv
from p3sync.model import ModelProfile, save_profile
from p3sync.plan import BASELINE_MODE, P3_MODE, load_plan

from perfbench import probes

MODES = (P3_MODE, BASELINE_MODE)
NUM_WORKERS = 2
NUM_SERVERS = 1
BATCH_SIZE = 32
WARMUP_ITERATIONS = 5  # as RunConfig.skip_iterations: left out of every step statistic

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


@dataclass(frozen=True)
class RuntimeWorkload:
    profile: ModelProfile
    throttle_bps: float  # 0: unshaped
    iterations: int
    pairs: int  # p3 + baseline jobs per run


@dataclass
class JobResult:
    mode: str
    samples_per_s: float
    step_ms: list[float]  # post-warm-up iteration walls of both workers
    setup_s: float
    cpu_share: float
    shaper_share: float
    idle_fraction: float
    digest: str
    layers: dict[str, float] = field(default_factory=dict)  # traced jobs only


class JobFailed(Exception):
    pass


def compute_bound(profile: ModelProfile) -> float | None:
    """Samples/s if synchronization were free: declared compute only."""
    step_us = sum(l.fwd_time + l.bwd_time for l in profile.layers)
    return NUM_WORKERS * BATCH_SIZE / (step_us / 1e6) if step_us else None


class _LauncherSubprocess:
    """Stands in for ``subprocess`` inside ``p3sync.cli`` while a job is traced.

    ``run_bench`` starts ``python -m p3sync ARGS``; this starts
    ``python launcher.py TRACE_FILE ARGS`` in its place.
    """

    PIPE = subprocess.PIPE
    TimeoutExpired = subprocess.TimeoutExpired

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = trace_dir

    def Popen(self, args, **kwargs):  # noqa: N802 - mirrors subprocess.Popen
        exe, flag, package, *rest = args
        if (flag, package) != ("-m", "p3sync"):
            raise RuntimeError(f"unexpected child command {args!r}")
        role, rank = rest[0], rest[rest.index("--rank") + 1]
        trace = self.trace_dir / f"trace_{role}{rank}.json"
        return subprocess.Popen([exe, str(LAUNCHER), str(trace), *rest], **kwargs)


def _children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_job(
    wl: RuntimeWorkload, mode: str, seed: int, outdir: Path, timeout: float, traced: bool = False
) -> JobResult:
    """One ``run_bench`` job; raises JobFailed unless every output checks out."""
    outdir.mkdir(parents=True)
    profile_path = outdir / "input_profile.json"
    save_profile(wl.profile, profile_path)
    cfg = cli.RunConfig(
        mode=mode,
        profile=str(profile_path),
        num_workers=NUM_WORKERS,
        num_servers=NUM_SERVERS,
        iterations=wl.iterations,
        batch_size=BATCH_SIZE,
        throttle_rate=wl.throttle_bps,
        seed=seed,
        output_dir=str(outdir),
        skip_iterations=WARMUP_ITERATIONS,
        timeout=timeout,
    )
    tracer = undo = None
    if traced:
        tracer = probes.Tracer()
        undo = probes.install_runtime_probes(tracer, process_role="bench")
        cli.subprocess = _LauncherSubprocess(outdir)
    cpu0 = _children_cpu_s()
    t0 = time.perf_counter()
    try:
        summary = cli.run_bench(cfg)
    except Exception as exc:  # any failure of the program under test fails this job
        raise JobFailed(f"{mode} run_bench: {type(exc).__name__}: {exc}") from exc
    finally:
        wall = time.perf_counter() - t0
        if traced:
            cli.subprocess = subprocess
            undo()
    cpu_share = (_children_cpu_s() - cpu0) / (wall * os.cpu_count())

    num_slices = len(load_plan(outdir / "plan.csv").slices)
    if summary["server_slices_verified"] != num_slices:
        raise JobFailed(
            f"{mode}: {summary['server_slices_verified']} of {num_slices} server slice digests verified"
        )

    step_ms: list[float] = []
    span_s = 0.0
    for rank in range(NUM_WORKERS):
        text = (outdir / f"throughput_worker{rank}.csv").read_text()
        walls = iterations_from_csv(text)
        if len(walls) != wl.iterations:
            raise JobFailed(f"{mode}: worker {rank} reported {len(walls)} of {wl.iterations} iterations")
        step_ms.extend(walls[WARMUP_ITERATIONS:])
        if rank == 0:
            starts = iteration_starts_from_csv(text)
            span_s = (starts[-1] + walls[-1] - starts[0]) / 1000.0

    result = JobResult(
        mode=mode,
        samples_per_s=summary["samples_per_second"],
        step_ms=step_ms,
        setup_s=wall - span_s,
        cpu_share=cpu_share,
        shaper_share=_shaper_share(outdir, wl.throttle_bps, span_s),
        idle_fraction=summary["idle_fraction"],
        digest=summary["digest"],
    )
    if traced:
        result.layers = layer_metrics(outdir, tracer, result)
    return result


def _shaper_share(outdir: Path, throttle_bps: float, span_s: float) -> float:
    """Busiest process's bytes sent over what its shaper allows in the training span.

    Near 1 means the token bucket bounded the job; 0 when unshaped.
    """
    if not throttle_bps:
        return 0.0
    sent = []
    for path in sorted(outdir.glob("net_util_*.csv")):
        samples = samples_from_csv(path.read_text())
        sent.append(samples[-1].bytes_out if samples else 0)
    return max(sent) / (throttle_bps / 8.0) / span_s


# Per-layer statistics of a traced job: span name and its stats. "calls"
# counts spans, "busy_ms"/"wait_ms" sum their durations, anything else sums
# their amounts.
SPAN_STATS = (
    ("hashing.gradient_block", ("calls", "busy_ms", "bytes")),
    ("hashing.fnv1a64", ("calls", "busy_ms", "bytes")),
    ("proto.encode_frame", ("calls", "busy_ms", "bytes")),
    ("proto.FrameDecoder.feed", ("calls", "busy_ms", "frames")),
    ("transport.FrameConnection.send_frame", ("calls", "busy_ms", "bytes")),
    ("transport.FrameConnection.recv_frame", ("calls", "wait_ms")),
    ("transport.TokenBucket.consume", ("calls", "wait_ms")),
    ("transport.connect_with_retry", ("busy_ms",)),
    ("server.ShardState.on_push", ("calls", "busy_ms")),
    ("server.ShardState.aggregate_and_update", ("calls", "busy_ms")),
    ("server.bcast_frames", ("busy_ms",)),
    ("server.ServerEngine.digests_csv", ("busy_ms",)),
    ("worker.TrainingWorker.run_iteration", ("busy_ms",)),
    ("worker.TrainingWorker.on_bcast", ("calls", "busy_ms")),
    ("cli.summarize_run", ("busy_ms",)),
)
QUEUE_ROLES = ("worker_sender", "worker_applier", "server_consumer")


def layer_metrics(outdir: Path, bench_tracer: probes.Tracer, job: JobResult) -> dict[str, float]:
    """Per-layer numbers of one traced job, summed over its processes."""
    spans = list(bench_tracer.spans)
    iterations: list[dict] = []
    for path in sorted(outdir.glob("trace_*.json")):
        data = json.loads(path.read_text())
        spans.extend(data["spans"])
        iterations.extend(data["iterations"])

    calls: dict[str, int] = {}
    busy_ns: dict[str, int] = {}
    amount: dict[str, int] = {}
    amount_max: dict[str, int] = {}
    for _sid, _parent, name, t0, t1, n in spans:
        calls[name] = calls.get(name, 0) + 1
        busy_ns[name] = busy_ns.get(name, 0) + (t1 - t0)
        amount[name] = amount.get(name, 0) + n
        amount_max[name] = max(amount_max.get(name, 0), n)

    out: dict[str, float] = {}
    for name, stats in SPAN_STATS:
        for stat in stats:
            if stat == "calls":
                value = calls.get(name, 0)
            elif stat in ("busy_ms", "wait_ms"):
                value = busy_ns.get(name, 0) / 1e6
            else:
                value = amount.get(name, 0)
            out[f"{name}.{stat}"] = value
    for role in QUEUE_ROLES:
        name = f"queues.FrameQueue.poll.{role}"
        out[f"queues.FrameQueue.poll.wait_ms.{role}"] = busy_ns.get(name, 0) / 1e6
        out[f"queues.FrameQueue.depth_max.{role}"] = amount_max.get(name, 0)

    stalls, gaps = _iteration_stats(iterations)
    out["worker.stall_ms"] = sum(stalls) / len(stalls) if stalls else 0.0
    out["worker.layer0_gap_ms"] = sum(gaps) / len(gaps) if gaps else 0.0
    out["metrics.idle_fraction"] = job.idle_fraction
    out["proc.cpu_share"] = job.cpu_share
    return out


def _iteration_stats(iterations: list[dict]) -> tuple[list[float], list[float]]:
    """Per post-warm-up iteration: stall (wall minus declared compute) and layer-0 gap.

    An iteration's wall runs to the next iteration's start, so the last one
    of each worker has neither number.
    """
    by_rank: dict[int, list[dict]] = {}
    for rec in iterations:
        by_rank.setdefault(rec["rank"], []).append(rec)
    stalls, gaps = [], []
    for recs in by_rank.values():
        recs.sort(key=lambda r: r["iteration"])
        for cur, nxt in zip(recs, recs[1:]):
            if cur["iteration"] < WARMUP_ITERATIONS:
                continue
            stalls.append((nxt["start"] - cur["start"]) * 1000.0 - cur["declared_ms"])
            gaps.append((nxt["fwd0_start"] - cur["bwd0_end"]) * 1000.0)
    return stalls, gaps
