#!/usr/bin/env python3
"""Benchmark of the p3sync runtime and simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a p3sync checkout. Workloads (see README.md):

  dataplane      zero-compute vgg19-like, unshaped: the Python data plane alone
  shaped-vgg     vgg19-like at 500 Mbit/s: the paper's link-bound regime
  sim-linkbound  link-bound resnet50-like scenario under all three sim policies

A run checks the program's outputs and prints a report, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics. Exit code 0 when every check
passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _bootstrap() -> None:
    """Import p3sync from the checkout's sources, in this process and in its children."""
    if not (SRC / "p3sync" / "__init__.py").is_file():
        sys.exit(f"error: no p3sync sources under {SRC}; run from the root of a p3sync checkout")
    sys.path[0] = str(ROOT)  # the perfbench package, not its modules, goes on the path
    sys.path.insert(1, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        metrics, outcome = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = bench.result_line(spec, bool(args.trace), metrics, outcome)
    print(line, flush=True)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
