"""Command-line surface: plan, simulate, server, worker, bench, report.

Exit codes: 0 success, 1 usage or data error, 2 protocol violation or lost peer, 3 timeout.

Each process imports only the half it runs. ``plan``, ``simulate``, ``report``
and ``bench`` load no numpy and no runtime module (``server``, ``worker``,
``transport``): the simulator never touches an array, and numpy's import was
most of what a ``p3sync simulate`` paid before it simulated. ``server`` and
``worker`` import their engine inside their commands, so neither loads the
other's.
"""

from __future__ import annotations

import argparse
import json
import math
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, fields, replace
from itertools import zip_longest
from pathlib import Path

from .metrics import (
    IDLE_THRESHOLD_BYTES,
    clip_samples,
    idle_fraction,
    iteration_starts_from_csv,
    iterations_from_csv,
    measurement_window,
    samples_from_csv,
    write_text,
)
from .model import BUILTIN_NAMES, ModelProfile, resolve_profile, save_profile
from .plan import (
    DEFAULT_BIG_THRESHOLD,
    DEFAULT_MAX_SLICE,
    MODES,
    P3_MODE,
    load_plan,
    make_plan,
    plan_to_csv,
    save_plan,
    validate_plan,
)
from .proto import MAX_WORKER_RANK, ProtocolError
from .queues import DEFAULT_DEADLOCK_TIMEOUT
from .sim import POLICIES, load_scenario, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2
EXIT_TIMEOUT = 3


# ``run_bench`` starts one interpreter per server and per worker, each some
# 40 MB resident, so 1,024 children already ask for about 40 GB of memory and as
# many process slots. A larger count is a mistyped flag, not a run to start.
MAX_CHILDREN = 1024


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunConfig:
    mode: str = P3_MODE
    profile: str = "toy3"
    num_workers: int = 2
    num_servers: int = 0  # 0 -> num_workers
    max_slice: int = DEFAULT_MAX_SLICE
    big_threshold: int = DEFAULT_BIG_THRESHOLD
    lr: float = 0.1
    iterations: int = 10
    batch_size: int = 32
    throttle_rate: float = 0.0  # bits/second; 0 disables shaping
    seed: int = 0
    output_dir: str = "bench-out"
    skip_iterations: int = 5
    timeout: float = 240.0

    def resolved_servers(self) -> int:
        return self.num_servers if self.num_servers > 0 else self.num_workers

    def __post_init__(self) -> None:
        """Reject what no child process could run; ``make_plan`` checks the plan's settings."""
        for name in ("lr", "throttle_rate", "timeout"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} must be finite")
        if self.throttle_rate < 0:
            raise ValueError(f"throttle_rate {self.throttle_rate} must be >= 0 (0 disables shaping)")
        if self.num_workers < 1:
            raise ValueError(f"num_workers {self.num_workers} must be >= 1")
        if self.num_workers > MAX_WORKER_RANK + 1:
            raise ValueError(f"num_workers {self.num_workers} must be <= {MAX_WORKER_RANK + 1} (16-bit ranks)")
        if self.num_servers < 0:
            raise ValueError(f"num_servers {self.num_servers} must be >= 0 (0: one per worker)")
        children = self.resolved_servers() + self.num_workers
        if children > MAX_CHILDREN:
            raise ValueError(
                f"num_servers {self.resolved_servers()} + num_workers {self.num_workers} is {children} "
                f"child processes; a run starts at most {MAX_CHILDREN}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size {self.batch_size} must be >= 1")
        if not 0 <= self.skip_iterations < self.iterations:
            raise ValueError(
                f"need 0 <= skip_iterations ({self.skip_iterations}) < iterations ({self.iterations})"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout {self.timeout} must be positive")


def _load_run_config(args) -> RunConfig:
    """A RunConfig with every flag given on the command line; unset flags keep the defaults."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in given.items() if v is not None})


# -- plan ---------------------------------------------------------------


def cmd_plan(args) -> int:
    profile = resolve_profile(args.profile)
    plan = make_plan(
        args.mode, profile, args.num_servers, args.max_slice, args.big_threshold, args.seed
    )
    sys.stdout.write(plan_to_csv(plan))
    return EXIT_OK


# -- simulate -------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.policy:
        scenario = replace(scenario, policy=args.policy)
    timeline = simulate(scenario)
    csv_text = timeline.to_csv()
    if args.csv:
        write_text(args.csv, csv_text)
    sys.stdout.write(csv_text)
    sys.stdout.write("# summary " + " ".join(f"{k}={v}" for k, v in timeline.summary().items()) + "\n")
    return EXIT_OK


# -- server ---------------------------------------------------------------


def cmd_server(args) -> int:
    from .server import ServerEngine
    from .transport import parse_addr

    host, port = parse_addr(args.listen)
    plan = load_plan(args.plan)
    engine = ServerEngine(
        host=host,
        port=port,
        rank=args.rank,
        plan=plan,
        num_workers=args.num_workers,
        lr=args.lr,
        throttle_rate=args.throttle_rate or None,
        deadlock_timeout=args.deadlock_timeout,
    )
    print(f"READY {engine.addr[0]}:{engine.addr[1]}", flush=True)
    engine.run()
    if args.outdir:
        engine.write_outputs(args.outdir)
    return EXIT_OK


# -- worker ---------------------------------------------------------------


def cmd_worker(args) -> int:
    from .transport import parse_addr
    from .worker import TrainingWorker, WorkerConfig

    profile = resolve_profile(args.profile)
    plan = load_plan(args.plan)
    validate_plan(plan, profile)
    servers = [parse_addr(a) for a in args.servers.split(",") if a]
    cfg = WorkerConfig(
        rank=args.rank,
        servers=servers,
        iterations=args.iterations,
        throttle_rate=args.throttle_rate or None,
        deadlock_timeout=args.deadlock_timeout,
    )
    worker = TrainingWorker(cfg, profile, plan)
    worker.run()
    digest = worker.params_digest()  # one BLAKE2b pass over every parameter
    if args.outdir:
        worker.write_outputs(args.outdir, digest)
    print(f"DONE rank={args.rank} digest={digest:016x}", flush=True)
    return EXIT_OK


# -- bench ---------------------------------------------------------------


class _ChildFailure(Exception):
    """A child that exited nonzero; one killed by a signal is a lost peer."""

    def __init__(self, what: str, code: int):
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            super().__init__(f"{what} was killed by {name}")
            code = EXIT_PROTOCOL
        else:
            super().__init__(f"{what} exited with code {code}")
        self.code = code


def _read_ready(proc: subprocess.Popen, timeout: float, log_name: str) -> str:
    """The address a server prints as READY; a server that exits first is a _ChildFailure.

    One ``select`` suffices: a server's first stdout line is READY, written
    whole by one flushed ``print``, so once its pipe is readable the whole line
    is there to read. EOF or any other line means the server is exiting.
    """
    if select.select([proc.stdout], [], [], max(timeout, 0.0))[0]:
        line = proc.stdout.readline()
        if line.startswith("READY "):
            return line.split(" ", 1)[1].strip()
        try:
            code = proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        else:
            raise _ChildFailure(f"server ({log_name})", code)
    raise TimeoutError("server did not report READY")


def run_bench(cfg: RunConfig) -> dict:
    profile = resolve_profile(cfg.profile)
    num_servers = cfg.resolved_servers()
    # a plan no child could run stops here, before anything is written
    plan = make_plan(cfg.mode, profile, num_servers, cfg.max_slice, cfg.big_threshold, cfg.seed)
    idle = sorted(set(range(num_servers)) - {s.server for s in plan.slices})
    if idle:
        raise ValueError(
            f"{len(idle)} of the plan's {num_servers} servers would own no slice, server {idle[0]} first; "
            "use fewer servers or another --seed"
        )
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    profile_path = outdir / "profile.json"
    save_profile(profile, profile_path)
    plan_path = outdir / "plan.csv"
    save_plan(plan, plan_path)

    deadline = time.monotonic() + cfg.timeout
    procs: list[tuple[subprocess.Popen, str]] = []  # (process, role and log name)
    base = [sys.executable, "-m", "p3sync"]
    throttle = ["--throttle-rate", str(cfg.throttle_rate)]

    def spawn(cmd_args, log_name, stdout=None):
        # the child writes to its own copy of the log's descriptor; stdout goes
        # there too unless the caller reads it (a server's READY line)
        with open(outdir / log_name, "w") as log:
            p = subprocess.Popen(base + cmd_args, stdout=stdout or log, stderr=log, text=True)
        procs.append((p, f"{cmd_args[0]} ({log_name})"))
        return p

    try:
        addrs = []
        for rank in range(num_servers):
            p = spawn(
                [
                    "server",
                    "--listen", "127.0.0.1:0",
                    "--rank", str(rank),
                    "--plan", str(plan_path),
                    "--num-workers", str(cfg.num_workers),
                    "--lr", str(cfg.lr),
                    "--outdir", str(outdir),
                    *throttle,
                ],
                f"server{rank}.log",
                stdout=subprocess.PIPE,
            )
            # a server prints nothing after READY, so nothing reads its pipe later
            addrs.append(_read_ready(p, deadline - time.monotonic(), f"server{rank}.log"))

        for rank in range(cfg.num_workers):
            spawn(
                [
                    "worker",
                    "--rank", str(rank),
                    "--servers", ",".join(addrs),
                    "--profile", str(profile_path),
                    "--plan", str(plan_path),
                    "--iterations", str(cfg.iterations),
                    "--outdir", str(outdir),
                    *throttle,
                ],
                f"worker{rank}.log",
            )

        for p, name in procs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("bench watchdog expired")
            try:
                code = p.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise TimeoutError("bench watchdog expired") from None
            if code != 0:
                raise _ChildFailure(name, code)
    finally:
        for p, _ in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
            if p.stdout:
                p.stdout.close()

    return summarize_run(cfg, outdir, profile)


def summarize_run(cfg: RunConfig, outdir: Path, profile: ModelProfile) -> dict:
    digests = []
    windows = []
    walls = starts = None
    for rank in range(cfg.num_workers):
        digests.append((outdir / f"digest_worker{rank}.txt").read_text().strip())
        csv_text = (outdir / f"throughput_worker{rank}.csv").read_text()
        wall_ms = iterations_from_csv(csv_text)
        if rank == 0:
            walls = wall_ms
            starts = iteration_starts_from_csv(csv_text)
        windows.append(measurement_window(wall_ms, cfg.skip_iterations))
    if len(set(digests)) != 1:
        raise ProtocolError(f"worker digests disagree: {digests}")
    measured = len(walls) - cfg.skip_iterations
    rate = measured * cfg.batch_size * cfg.num_workers / max(windows)

    # idle time over the same post-warmup window the throughput uses
    samples = samples_from_csv((outdir / "net_util_worker0.csv").read_text())
    t0 = starts[cfg.skip_iterations]
    t1 = starts[-1] + walls[-1]
    clipped = clip_samples(samples, t0, t1)
    idle = idle_fraction(clipped if len(clipped) >= 2 else samples, IDLE_THRESHOLD_BYTES)

    def rows_of(process: str) -> list[str]:  # below plan.slice_digests_csv's header
        return (outdir / f"digest_{process}.csv").read_text().splitlines()[1:]

    # every worker holds worker 0's parameters, and the servers together hold
    # each of worker 0's slices exactly once
    rows = rows_of("worker0")
    for rank in range(1, cfg.num_workers):
        for mine, theirs in zip_longest(rows_of(f"worker{rank}"), rows):
            if mine != theirs:
                raise ProtocolError(f"worker {rank} row {mine} != worker 0's row {theirs}")
    unmatched = dict.fromkeys(rows)  # a plan's slice keys, so its rows, are distinct
    for rank in range(cfg.resolved_servers()):
        for row in rows_of(f"server{rank}"):
            if row not in unmatched:
                why = "a server holds it already" if row in rows else "worker 0 has no such row"
                raise ProtocolError(f"server {rank} row {row}: {why}")
            del unmatched[row]
    if unmatched:
        raise ProtocolError(f"worker 0 row {next(iter(unmatched))} is on no server")

    summary = {
        "mode": cfg.mode,
        "profile": profile.name,
        "num_workers": cfg.num_workers,
        "num_servers": cfg.resolved_servers(),
        "iterations": cfg.iterations,
        "batch_size": cfg.batch_size,
        "skip_iterations": cfg.skip_iterations,
        "idle_threshold": IDLE_THRESHOLD_BYTES,
        "samples_per_second": rate,
        "idle_fraction": idle,
        "digest": digests[0],
        "server_slices_verified": len(rows),  # each matched by one server row
    }
    write_text(outdir / "summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


def cmd_bench(args) -> int:
    cfg = _load_run_config(args)
    summary = run_bench(cfg)
    for k, v in summary.items():
        print(f"{k}={v}")
    return EXIT_OK


def cmd_report(args) -> int:
    outdir = Path(args.output_dir)
    summary = json.loads((outdir / "summary.json").read_text())
    for k, v in summary.items():
        print(f"{k}={v}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="p3sync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print a synchronization plan as CSV")
    p.add_argument("--profile", required=True, help=f"profile file or builtin: {', '.join(BUILTIN_NAMES)}")
    p.add_argument("--mode", choices=MODES, default=P3_MODE)
    p.add_argument("--num-servers", type=int, default=1)
    p.add_argument("--max-slice", type=int, default=DEFAULT_MAX_SLICE)
    p.add_argument("--big-threshold", type=int, default=DEFAULT_BIG_THRESHOLD)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run a scenario and print its timeline")
    p.add_argument("scenario")
    p.add_argument("--policy", choices=POLICIES, default=None)
    p.add_argument("--csv", default=None, help="also write the timeline CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("server", help="run one parameter server")
    p.add_argument("--listen", default="127.0.0.1:0")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--num-workers", type=int, required=True)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--throttle-rate", type=float, default=0.0, help="bits/second; 0 = off")
    p.add_argument("--deadlock-timeout", type=float, default=DEFAULT_DEADLOCK_TIMEOUT)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_server)

    p = sub.add_parser("worker", help="run one training worker")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--servers", required=True, help="comma-separated host:port list")
    p.add_argument("--profile", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--iterations", type=int, required=True)
    p.add_argument("--throttle-rate", type=float, default=0.0, help="bits/second; 0 = off")
    p.add_argument("--deadlock-timeout", type=float, default=DEFAULT_DEADLOCK_TIMEOUT)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("bench", help="run servers+workers on loopback and aggregate metrics")
    # one flag per RunConfig field; an unset flag keeps the field's default
    for f in fields(RunConfig):
        choices = MODES if f.name == "mode" else None
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), choices=choices)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="print the summary of a finished bench directory")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except TimeoutError as exc:  # a DeadlockError too
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except _ChildFailure as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return exc.code
    except ConnectionError as exc:  # a peer hung up or reset the connection
        print(f"lost peer: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ValueError, OSError) as exc:  # ProfileError, PlanError and ScenarioError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
