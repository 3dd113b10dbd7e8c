"""Benchmark of the p3sync runtime and simulator; run it with ``python3 perfbench/run.py``."""
