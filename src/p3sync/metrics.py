"""Runtime measurement: byte counters binned by 10 ms as they count, throughput windows.

Counters are maintained in-process where frames hit the socket, not read from
the OS interface. Each count is added to the 10 ms bin it is recorded in, so
the cumulative series that feeds the idle-time analysis needs no sampler
thread: ``NetCounters.samples`` reads it off the bins.
"""

from __future__ import annotations

import csv
import io
import threading
import time
from dataclasses import dataclass
from pathlib import Path

IN = "in"
OUT = "out"

BIN_MS = 10
IDLE_THRESHOLD_BYTES = 4096  # per sample: an interval moving less counts as idle


@dataclass(frozen=True)
class Sample:
    t_ms: int
    bytes_in: int
    bytes_out: int


class NetCounters:
    """Cumulative per-direction byte counters, safe for concurrent increment.

    Bins are counted on the monotonic clock from ``t0``, the moment the
    counters are created. The first count of a new bin closes the bins before
    it at the totals so far, so ``_in_ends[k]`` and ``_out_ends[k]`` are the
    totals at the end of bin k; a bin with nothing recorded ends at the totals
    of the one before it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.t0 = time.monotonic()
        self._in = 0
        self._out = 0
        self._in_ends: list[int] = []
        self._out_ends: list[int] = []
        self._open_until = self.t0 + BIN_MS / 1000

    def _close_bins(self, now: float) -> None:
        ended = int((now - self.t0) * (1000 // BIN_MS))  # lock held
        closing = ended - len(self._in_ends)
        if closing > 0:
            self._in_ends += [self._in] * closing
            self._out_ends += [self._out] * closing
            self._open_until = self.t0 + (ended + 1) * BIN_MS / 1000

    def record_bytes(self, direction: str, n: int) -> None:
        now = time.monotonic()
        with self._lock:
            # a call that took the lock after a later one counts in that one's bin
            if now >= self._open_until:
                self._close_bins(now)
            if direction == IN:
                self._in += n
            elif direction == OUT:
                self._out += n
            else:
                raise ValueError(f"direction must be {IN!r} or {OUT!r}")

    def samples(self) -> list[Sample]:
        """The totals at each bin's end since ``t0``: ``0,0,0`` first, the current totals last."""
        now = time.monotonic()
        with self._lock:
            self._close_bins(now)
            ends = [*zip(self._in_ends, self._out_ends), (self._in, self._out)]
        return [Sample(0, 0, 0), *(Sample(BIN_MS * k, *end) for k, end in enumerate(ends, 1))]


def samples_to_csv(samples: list[Sample]) -> str:
    buf = io.StringIO()
    buf.write("t_ms,bytes_in,bytes_out\n")
    for s in samples:
        buf.write(f"{s.t_ms},{s.bytes_in},{s.bytes_out}\n")
    return buf.getvalue()


def samples_from_csv(text: str) -> list[Sample]:
    reader = csv.DictReader(io.StringIO(text))
    return [
        Sample(t_ms=int(r["t_ms"]), bytes_in=int(r["bytes_in"]), bytes_out=int(r["bytes_out"]))
        for r in reader
    ]


def idle_fraction(samples: list[Sample], threshold_bytes_per_sample: int) -> float:
    """Share of sample intervals with combined traffic below the threshold.

    Only intervals between the first and last interval with any activity count,
    so startup and teardown silence do not skew the figure. A run with no
    active interval at all reports 1.0.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    deltas = [
        (b.bytes_in - a.bytes_in) + (b.bytes_out - a.bytes_out)
        for a, b in zip(samples, samples[1:])
    ]
    active = [i for i, d in enumerate(deltas) if d > 0]
    if not active:
        return 1.0
    window = deltas[active[0] : active[-1] + 1]
    idle = sum(1 for d in window if d < threshold_bytes_per_sample)
    return idle / len(window)


def measurement_window(iteration_wall_ms: list[float], skip_iterations: int) -> float:
    """Seconds spanned by the iterations after the first ``skip_iterations``."""
    measured = iteration_wall_ms[skip_iterations:]
    if not measured:
        raise ValueError(
            f"run of {len(iteration_wall_ms)} iterations is shorter than "
            f"skip={skip_iterations} plus a nonempty measurement window"
        )
    window_s = sum(measured) / 1000.0
    if window_s <= 0:
        raise ValueError("measurement window has zero duration")
    return window_s


def iterations_to_csv(iteration_wall_ms: list[float], start_ms: list[float]) -> str:
    buf = io.StringIO()
    buf.write("iteration,wall_ms,start_ms\n")
    for i, (ms, s) in enumerate(zip(iteration_wall_ms, start_ms)):
        buf.write(f"{i},{ms:.3f},{s:.3f}\n")
    return buf.getvalue()


def iterations_from_csv(text: str) -> list[float]:
    reader = csv.DictReader(io.StringIO(text))
    return [float(r["wall_ms"]) for r in reader]


def iteration_starts_from_csv(text: str) -> list[float]:
    reader = csv.DictReader(io.StringIO(text))
    return [float(r["start_ms"]) for r in reader]


def clip_samples(samples: list[Sample], t0_ms: float, t1_ms: float) -> list[Sample]:
    return [s for s in samples if t0_ms <= s.t_ms <= t1_ms]


def write_text(path: str | Path, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
