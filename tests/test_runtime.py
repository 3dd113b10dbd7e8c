"""End-to-end runs with servers and workers in one process (threads, real sockets)."""

import threading

import numpy as np
import pytest

from p3sync.hashing import digest64
from p3sync.model import LayerSpec, ModelProfile, builtin_profile
from p3sync.plan import BASELINE_MODE, P3_MODE, make_plan
from p3sync.server import ServerEngine
from p3sync.worker import TrainingWorker, WorkerConfig

TIMEOUT = 30.0


def small_profile():
    # three layers, middle one big enough to split into several slices
    return ModelProfile(
        "mini",
        seed=9,
        layers=(
            LayerSpec(0, "a", 300, 200, 300),
            LayerSpec(1, "b", 2500, 200, 300),
            LayerSpec(2, "c", 700, 200, 300),
        ),
    )


def run_topology(
    mode,
    profile,
    num_workers,
    num_servers,
    iterations,
    lr=0.1,
    max_slice=1000,
    big_threshold=2000,
    seed=0,
):
    plan = make_plan(mode, profile, num_servers, max_slice, big_threshold, seed)
    engines = [
        ServerEngine("127.0.0.1", 0, rank, plan, num_workers, lr, poll_timeout=TIMEOUT)
        for rank in range(num_servers)
    ]
    server_threads = [threading.Thread(target=e.run, name=f"srv{e.rank}") for e in engines]
    for t in server_threads:
        t.start()
    addrs = [(e.addr[0], e.addr[1]) for e in engines]
    workers = [
        TrainingWorker(
            WorkerConfig(
                rank=r,
                servers=addrs,
                iterations=iterations,
                deadlock_timeout=TIMEOUT,
            ),
            profile,
            plan,
        )
        for r in range(num_workers)
    ]
    failures = []

    def run_worker(w):
        try:
            w.run()
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)

    worker_threads = [threading.Thread(target=run_worker, args=(w,)) for w in workers]
    for t in worker_threads:
        t.start()
    for t in worker_threads:
        t.join(timeout=TIMEOUT * 3)
        assert not t.is_alive(), "worker thread hung"
    for t in server_threads:
        t.join(timeout=TIMEOUT)
        assert not t.is_alive(), "server thread hung"
    if failures:
        raise failures[0]
    return workers, engines


def merged_server_params(engines, profile):
    out = [np.zeros(l.param_count, dtype=np.float32) for l in profile.layers]
    for e in engines:
        for key, shard in e.shards.items():
            sl = e.owned[key]
            out[key.layer_index][sl.offset : sl.offset + sl.length] = shard.params
    return out


@pytest.mark.parametrize("mode", [P3_MODE, BASELINE_MODE])
def test_single_worker_single_server(mode):
    profile = small_profile()
    workers, engines = run_topology(mode, profile, 1, 1, iterations=2)
    server_params = merged_server_params(engines, profile)
    for got, want in zip(workers[0].params, server_params):
        assert got.tobytes() == want.tobytes()
    assert any(vec.any() for vec in workers[0].params)  # training moved the params


@pytest.mark.parametrize("mode", [P3_MODE, BASELINE_MODE])
def test_lr_zero_conservation(mode):
    workers, _ = run_topology(mode, small_profile(), 1, 1, iterations=2, lr=0.0)
    for vec in workers[0].params:
        assert not vec.any()


def test_cross_mode_bit_equality_multi():
    profile = small_profile()
    digests = {}
    for mode in (P3_MODE, BASELINE_MODE):
        workers, engines = run_topology(mode, profile, num_workers=2, num_servers=2, iterations=3)
        ds = {w.params_digest() for w in workers}
        assert len(ds) == 1, "workers disagree within one run"
        server_params = merged_server_params(engines, profile)
        for got, want in zip(workers[0].params, server_params):
            assert got.tobytes() == want.tobytes()
        digests[mode] = ds.pop()
    assert digests[P3_MODE] == digests[BASELINE_MODE]


def test_cross_mode_equality_toy3_four_workers():
    profile = builtin_profile("toy3")
    digests = {}
    for mode in (P3_MODE, BASELINE_MODE):
        workers, _ = run_topology(
            mode, profile, num_workers=4, num_servers=2, iterations=2, max_slice=50_000
        )
        ds = {w.params_digest() for w in workers}
        assert len(ds) == 1
        digests[mode] = ds.pop()
    assert digests[P3_MODE] == digests[BASELINE_MODE]


def test_phase_timestamps_ordered():
    workers, _ = run_topology(P3_MODE, small_profile(), 1, 1, iterations=2)
    w = workers[0]
    assert len(w.records) == 2
    for k, rec in enumerate(w.records):
        for (fs, fe) in rec.fwd_spans:
            assert fs <= fe
        assert rec.fwd_spans[-1][1] <= rec.bwd_spans[0][0]
        for (bs, be) in rec.bwd_spans:
            assert bs <= be
        assert rec.sync_end is not None
        assert rec.bwd_spans[-1][1] <= rec.sync_end
        assert rec.wall_ms > 0


def test_iteration_values_match_direct_simulation():
    # replay the arithmetic without any networking: params after k iterations
    # must equal the wire run exactly
    profile = small_profile()
    iterations = 3
    num_workers = 2
    lr = 0.1
    workers, _ = run_topology(P3_MODE, profile, num_workers, 2, iterations, lr=lr)

    from p3sync.hashing import gradient_block

    expect = [np.zeros(l.param_count, dtype=np.float32) for l in profile.layers]
    for k in range(iterations):
        for layer in profile.layers:
            g = gradient_block(profile.seed, k, layer.index, 0, layer.param_count)
            acc = np.zeros(layer.param_count, dtype=np.float32)
            for _ in range(num_workers):
                acc += g
            expect[layer.index] -= np.float32(lr) * (acc / np.float32(num_workers))
    for got, want in zip(workers[0].params, expect):
        assert got.tobytes() == want.tobytes()


def test_worker_outputs_written(tmp_path):
    workers, _ = run_topology(P3_MODE, small_profile(), 1, 1, iterations=2)
    workers[0].write_outputs(tmp_path, workers[0].params_digest())
    assert (tmp_path / "digest_worker0.txt").read_text().strip() == f"{workers[0].params_digest():016x}"
    blob = (tmp_path / "params_worker0.bin").read_bytes()
    assert blob == workers[0].params_bytes()
    assert workers[0].params_digest() == digest64(blob)
    assert (tmp_path / "net_util_worker0.csv").exists()
    assert (tmp_path / "throughput_worker0.csv").exists()


def test_metrics_accounting_closure():
    # worker-side byte counters must equal the sum of encoded frames it sent
    from p3sync.proto import HEADER_LEN

    profile = small_profile()
    workers, engines = run_topology(P3_MODE, profile, 1, 1, iterations=2)
    w = workers[0]
    n_slices = len(w.plan.slices)
    push_payload = 4 * sum(s.length for s in w.plan.slices) * 2  # 2 iterations
    expected_out = (
        push_payload
        + HEADER_LEN * n_slices * 2  # push headers
        + HEADER_LEN  # hello
        + HEADER_LEN  # fin
    )
    b_in, b_out = w.counters.totals()
    assert b_out == expected_out
    # inbound: one bcast per slice per iteration
    expected_in = push_payload + HEADER_LEN * n_slices * 2
    assert b_in == expected_in


def test_push_for_key_of_another_server_is_a_protocol_error():
    import socket
    import time

    from p3sync.proto import Frame, MsgType, ProtocolError, pack_f32, slice_frame
    from p3sync.transport import FrameConnection

    plan = make_plan(P3_MODE, small_profile(), 2, 1000, 2000, 0)
    foreign = next(s for s in plan.slices if s.server == 1)
    engine = ServerEngine("127.0.0.1", 0, 0, plan, num_workers=1, lr=0.1, poll_timeout=TIMEOUT)
    errors = []

    def serve():
        try:
            engine.run()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    server = threading.Thread(target=serve, name="srv0")
    t0 = time.monotonic()
    server.start()
    conn = FrameConnection(socket.create_connection(engine.addr, timeout=5.0))
    try:
        conn.send_frame(Frame(msg_type=MsgType.HELLO, worker_rank=0))
        grads = np.zeros(foreign.length, dtype=np.float32)
        conn.send_frame(slice_frame(MsgType.PUSH, foreign, 0, 0, pack_f32(grads)))
        server.join(timeout=5.0)
    finally:
        conn.close()
    assert not server.is_alive(), "server did not stop on a foreign key"
    assert time.monotonic() - t0 < 5.0
    assert len(errors) == 1 and isinstance(errors[0], ProtocolError)
    assert "does not own" in str(errors[0])
    assert [t.name for t in engine._threads if t.is_alive()] == []
