import time

import pytest

from p3sync.metrics import (
    NetCounters,
    NetSampler,
    Sample,
    idle_fraction,
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
    assert c.totals() == (50, 1024)
    with pytest.raises(ValueError):
        c.record_bytes("sideways", 1)


def test_sampler_monotone():
    c = NetCounters()
    s = NetSampler(c, period_ms=5)
    s.start()
    for i in range(10):
        c.record_bytes("out", 100)
        time.sleep(0.005)
    s.stop()
    samples = s.samples
    assert len(samples) >= 3
    assert all(a.t_ms < b.t_ms for a, b in zip(samples, samples[1:]))
    assert all(a.bytes_out <= b.bytes_out for a, b in zip(samples, samples[1:]))
    assert samples[-1].bytes_out >= 1000


def test_sampler_final_sample_same_millisecond():
    # stop() right after start() lands in the millisecond of the first sample
    c = NetCounters()
    s = NetSampler(c, period_ms=10_000)
    s.start()
    c.record_bytes("out", 7)
    s.stop()
    assert all(a.t_ms < b.t_ms for a, b in zip(s.samples, s.samples[1:]))
    assert s.samples[-1].bytes_out == 7


def test_idle_samples_equal():
    c = NetCounters()
    s = NetSampler(c, period_ms=5)
    s.start()
    time.sleep(0.05)
    s.stop()
    outs = {x.bytes_out for x in s.samples} | {x.bytes_in for x in s.samples}
    assert outs == {0}


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
    walls = [10.5, 20.25, 30.125]
    assert iterations_from_csv(iterations_to_csv(walls)) == walls
