import sys
import threading
import time

import pytest

from p3sync import metrics
from p3sync.metrics import (
    BIN_MS,
    NetCounters,
    Sample,
    idle_fraction,
    iteration_starts_from_csv,
    iterations_from_csv,
    iterations_to_csv,
    measurement_window,
    samples_from_csv,
    samples_to_csv,
)


def test_counters_accumulate_and_validate():
    c = NetCounters()
    c.record_bytes("out", 1000)
    c.record_bytes("in", 50)
    c.record_bytes("out", 24)
    last = c.samples()[-1]
    assert (last.bytes_in, last.bytes_out) == (50, 1024)
    with pytest.raises(ValueError):
        c.record_bytes("sideways", 1)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def monotonic(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(metrics, "time", fake)
    return fake


def test_counts_land_in_the_bin_they_are_recorded_in(clock):
    c = NetCounters()
    assert c.t0 == 100.0
    clock.now += 0.003
    c.record_bytes("out", 5)  # bin [0, 10) ms
    clock.now += 0.0095
    c.record_bytes("in", 7)  # bin [10, 20)
    c.record_bytes("out", 1)
    clock.now += 0.030
    c.record_bytes("out", 100)  # bin [40, 50), after two silent bins
    clock.now += 0.001
    assert c.samples() == [
        Sample(0, 0, 0),
        Sample(10, 0, 5),
        Sample(20, 7, 6),
        Sample(30, 7, 6),
        Sample(40, 7, 6),
        Sample(50, 7, 106),
    ]


def test_samples_run_to_the_bin_now_open(clock):
    # a silent stretch after the last count still yields its rows, so the idle
    # window of a run that ends quietly is measured
    c = NetCounters()
    c.record_bytes("out", 9)
    clock.now += 0.0451
    samples = c.samples()
    assert [s.t_ms for s in samples] == [0, 10, 20, 30, 40, 50]
    assert {(s.bytes_in, s.bytes_out) for s in samples[1:]} == {(0, 9)}


def test_samples_are_cumulative_rows_10_ms_apart():
    c = NetCounters()
    for _ in range(10):
        c.record_bytes("out", 100)
        time.sleep(0.005)
    samples = c.samples()
    assert samples[0] == Sample(0, 0, 0)
    assert len(samples) >= 6
    assert all(b.t_ms - a.t_ms == BIN_MS for a, b in zip(samples, samples[1:]))
    assert all(a.bytes_out <= b.bytes_out for a, b in zip(samples, samples[1:]))
    assert samples[-1] == Sample(samples[-1].t_ms, 0, 1000)


def test_silent_counters_sample_zero():
    c = NetCounters()
    time.sleep(0.02)
    samples = c.samples()
    assert len(samples) >= 3
    assert {(s.bytes_in, s.bytes_out) for s in samples} == {(0, 0)}


def test_counters_lose_no_count_under_contention():
    # more recording threads than cores, switching often, across many bins
    c = NetCounters()

    def record():
        for _ in range(5000):
            c.record_bytes("in", 3)
            c.record_bytes("out", 1)

    threads = [threading.Thread(target=record) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert [t for t in threads if t.is_alive()] == []
    samples = c.samples()
    for a, b in zip(samples, samples[1:]):
        assert a.bytes_in <= b.bytes_in and a.bytes_out <= b.bytes_out
    assert (samples[-1].bytes_in, samples[-1].bytes_out) == (120_000, 40_000)


def mk_samples(deltas):
    samples = [Sample(0, 0, 0)]
    b = 0
    for i, d in enumerate(deltas, 1):
        b += d
        samples.append(Sample(i * 10, 0, b))
    return samples


def test_idle_fraction_constant_stream():
    assert idle_fraction(mk_samples([100] * 20), threshold_bytes_per_sample=50) == 0.0


def test_idle_fraction_silent_run():
    assert idle_fraction(mk_samples([0] * 20), threshold_bytes_per_sample=1) == 1.0


def test_idle_fraction_trims_silence_at_edges():
    deltas = [0, 0, 100, 0, 100, 0, 0]
    # active window spans deltas[2:5] -> one idle interval of three
    assert idle_fraction(mk_samples(deltas), 50) == pytest.approx(1 / 3)


def test_idle_fraction_needs_two_samples():
    with pytest.raises(ValueError):
        idle_fraction([Sample(0, 0, 0)], 1)


def test_throughput_arithmetic():
    assert measurement_window([100.0] * 10, skip_iterations=5) == pytest.approx(0.5)
    assert measurement_window([900.0, 300.0, 200.0], skip_iterations=1) == pytest.approx(0.5)


def test_throughput_zero_window_rejected():
    with pytest.raises(ValueError):
        measurement_window([100.0] * 5, skip_iterations=5)
    with pytest.raises(ValueError):
        measurement_window([], skip_iterations=0)
    with pytest.raises(ValueError):
        measurement_window([100.0, 0.0, 0.0], skip_iterations=1)


def test_csv_roundtrips():
    samples = mk_samples([5, 10, 0])
    assert samples_from_csv(samples_to_csv(samples)) == samples
    walls, starts = [10.5, 20.25, 30.125], [0.0, 10.5, 30.75]
    text = iterations_to_csv(walls, starts)
    assert iterations_from_csv(text) == walls
    assert iteration_starts_from_csv(text) == starts
