"""End-to-end runs with servers and workers in one process (threads, real sockets)."""

import socket
import sys
import threading
import time

import numpy as np
import pytest

from p3sync.hashing import digest64
from p3sync.metrics import iteration_starts_from_csv, iterations_from_csv
from p3sync.model import LayerSpec, ModelProfile, builtin_profile
from p3sync.plan import BASELINE_MODE, P3_MODE, make_plan, plan_fingerprint
from p3sync.proto import Frame, MsgType, ProtocolError, pack_f32, slice_frame
from p3sync.server import ServerEngine
from p3sync.transport import FrameConnection
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
    leftover = [t.name for x in (*workers, *engines) for t in x._threads if t.is_alive()]
    assert leftover == [], f"threads left running: {leftover}"
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


def test_concurrent_receivers_apply_every_slice_once():
    # four receivers per worker on a small machine, switching threads every 10 us
    profile = small_profile()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers, engines = run_topology(P3_MODE, profile, 2, 4, iterations=3, max_slice=100)
    finally:
        sys.setswitchinterval(interval)
    server_params = merged_server_params(engines, profile)
    for w in workers:
        for got, want in zip(w.params, server_params):
            assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize(
    "mode, names",
    [
        (P3_MODE, ["recv-0", "recv-1", "sender-0"]),
        (BASELINE_MODE, ["recv-0", "recv-1", "sender-0", "sender-1"]),
    ],
)
def test_worker_threads_are_one_receiver_per_server_and_the_senders(mode, names):
    # each receiver applies what it reads: no applier thread, no receive queue
    workers, _ = run_topology(mode, small_profile(), 1, 2, iterations=1)
    assert sorted(t.name for t in workers[0]._threads) == names


def test_phase_timestamps_ordered(tmp_path):
    workers, _ = run_topology(P3_MODE, small_profile(), 1, 1, iterations=2)
    w = workers[0]
    assert len(w.records) == 2
    for k, rec in enumerate(w.records):
        for (fs, fe) in rec.fwd_spans:
            assert fs <= fe
        assert rec.fwd_spans[-1][1] <= rec.bwd_spans[0][0]
        for (bs, be) in rec.bwd_spans:
            assert bs <= be
    w.write_outputs(tmp_path, w.params_digest())
    text = (tmp_path / "throughput_worker0.csv").read_text()
    walls, starts = iterations_from_csv(text), iteration_starts_from_csv(text)
    assert len(walls) == 2 and min(walls) > 0
    # the last iteration ends when its synchronization drains, after its last
    # backward pass; the CSV rounds each figure to 1 us
    last_bwd_end_ms = (w.records[-1].bwd_spans[-1][1] - w.counters.t0) * 1000.0
    assert starts[-1] + walls[-1] >= last_bwd_end_ms - 0.002


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


def serve(engine):
    """Run ``engine`` on a thread; returns the thread and the list its error lands in."""
    errors = []

    def run():
        try:
            engine.run()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    thread = threading.Thread(target=run, name=f"srv{engine.rank}")
    thread.start()
    return thread, errors


def server_error(plan, num_workers, frames):
    """The error a rank-0 server stops with after ``frames`` arrive on one raw connection.

    The server must stop within 5 s and leave no thread running.
    """
    engine = ServerEngine("127.0.0.1", 0, 0, plan, num_workers, lr=0.1, poll_timeout=TIMEOUT)
    t0 = time.monotonic()
    server, errors = serve(engine)
    conn = FrameConnection(socket.create_connection(engine.addr, timeout=5.0))
    try:
        for frame in frames:
            conn.send_frame(frame)
        server.join(timeout=5.0)
    finally:
        conn.close()
    assert not server.is_alive(), "server did not stop"
    assert time.monotonic() - t0 < 5.0
    assert [t.name for t in engine._threads if t.is_alive()] == []
    assert len(errors) == 1
    return errors[0]


def hello(plan, rank):
    return Frame(msg_type=MsgType.HELLO, iteration=plan_fingerprint(plan), worker_rank=rank)


def push(sl, rank):
    return slice_frame(MsgType.PUSH, sl, 0, rank, pack_f32(np.zeros(sl.length, dtype=np.float32)))


def test_push_for_key_of_another_server_is_a_protocol_error():
    plan = make_plan(P3_MODE, small_profile(), 2, 1000, 2000, 0)
    foreign = next(s for s in plan.slices if s.server == 1)
    error = server_error(plan, 1, [hello(plan, 0), push(foreign, 0)])
    assert isinstance(error, ProtocolError) and "does not own" in str(error)


def test_push_before_hello_is_a_protocol_error():
    plan = make_plan(P3_MODE, small_profile(), 1, 1000, 2000, 0)
    error = server_error(plan, 2, [push(plan.slices[0], 0)])
    assert isinstance(error, ProtocolError) and "PUSH before HELLO" in str(error)


def test_frame_after_fin_is_a_protocol_error():
    # unchecked, a second FIN counts as the other worker's and the server finishes without it
    plan = make_plan(P3_MODE, small_profile(), 1, 1000, 2000, 0)
    fin = Frame(msg_type=MsgType.FIN, worker_rank=0)
    error = server_error(plan, 2, [hello(plan, 0), fin, fin])
    assert isinstance(error, ProtocolError) and "FIN from rank 0 after its FIN" in str(error)


@pytest.mark.parametrize("kind", ["PUSH", "PULL", "FIN"])
def test_frame_under_another_rank_is_a_protocol_error(kind):
    plan = make_plan(P3_MODE, small_profile(), 1, 1000, 2000, 0)
    sl = plan.slices[0]
    frame = push(sl, 1) if kind == "PUSH" else slice_frame(MsgType[kind], sl, 0, 1)
    error = server_error(plan, 2, [hello(plan, 0), frame])
    assert isinstance(error, ProtocolError)
    assert f"{kind} under rank 1 on rank 0's connection" in str(error)


def test_failed_connect_stops_every_worker_thread():
    # the first server is live, the second address is dead: run() must fail at
    # the connect deadline, and the first server's receiver stops
    plan = make_plan(P3_MODE, small_profile(), 2, 1000, 2000, 0)
    engine = ServerEngine("127.0.0.1", 0, 0, plan, num_workers=1, lr=0.1, poll_timeout=TIMEOUT)
    server, errors = serve(engine)
    cfg = WorkerConfig(
        rank=0, servers=[engine.addr, ("127.0.0.1", 1)], iterations=1, deadlock_timeout=1.0
    )
    worker = TrainingWorker(cfg, small_profile(), plan)
    t0 = time.monotonic()
    with pytest.raises(TimeoutError, match="127.0.0.1:1 unreachable for 1.0s"):
        worker.run()
    assert time.monotonic() - t0 < 5.0
    assert [t.name for t in worker._threads] == ["recv-0"]
    for t in [*worker._threads, server]:
        t.join(timeout=5.0)
    assert [t.name for t in [*worker._threads, server] if t.is_alive()] == []
    assert [t.name for t in engine._threads if t.is_alive()] == []
    # the server saw its worker hang up before FIN
    assert len(errors) == 1 and isinstance(errors[0], ConnectionError)


# -- one server and two workers through the CLI, on threads of this process ----


@pytest.fixture(scope="module", params=[P3_MODE, BASELINE_MODE])
def cli_run(request, tmp_path_factory):
    """Output dir, {process: engine or worker} and {process: names of the threads it started}.

    ``p3sync server`` and two ``p3sync worker`` runs go through ``main`` on
    threads named after their processes; every thread started during the run
    belongs to the process whose thread started it.
    """
    from p3sync import cli
    from p3sync.model import save_profile
    from p3sync.plan import save_plan

    outdir = tmp_path_factory.mktemp(f"cli-{request.param}")
    save_profile(small_profile(), outdir / "profile.json")
    save_plan(make_plan(request.param, small_profile(), 1, 1000, 2000, 0), outdir / "plan.csv")
    made, codes, process_of = {}, {}, {}
    real_start = threading.Thread.start

    def start(thread):
        process_of[thread] = process_of.get(threading.current_thread(), thread.name)
        real_start(thread)

    def recorded(cls):
        def make(*args, **kwargs):
            made[threading.current_thread().name] = obj = cls(*args, **kwargs)
            return obj

        return make

    def process(name, *argv):
        thread = threading.Thread(
            target=lambda: codes.setdefault(name, cli.main(list(argv))), name=name
        )
        thread.start()
        return thread

    common = ["--plan", str(outdir / "plan.csv"), "--deadlock-timeout", str(TIMEOUT)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", start)
        mp.setattr(cli, "ServerEngine", recorded(ServerEngine))
        mp.setattr(cli, "TrainingWorker", recorded(TrainingWorker))
        threads = [
            process(
                "server", "server", "--rank", "0", "--num-workers", "2", *common,
                "--net-util", str(outdir / "net_util_server0.csv"),
            )
        ]
        deadline = time.monotonic() + TIMEOUT
        while "server" not in made and time.monotonic() < deadline:
            time.sleep(0.01)
        addr = "{}:{}".format(*made["server"].addr)
        for rank in range(2):
            threads.append(
                process(
                    f"worker{rank}", "worker", "--rank", str(rank), "--servers", addr,
                    "--profile", str(outdir / "profile.json"), "--iterations", "3", *common,
                    "--outdir", str(outdir),
                )
            )
        for t in threads:
            t.join(timeout=TIMEOUT * 3)
    assert [t.name for t in threads if t.is_alive()] == []
    assert codes == {"server": 0, "worker0": 0, "worker1": 0}
    started = {t.name: [] for t in threads}
    for thread, name in process_of.items():
        if thread.name != name:
            started[name].append(thread.name)
    return outdir, made, started


def test_worker_runs_only_receivers_and_senders(cli_run):
    _, _, started = cli_run
    for name in ("worker0", "worker1"):
        assert sorted(started[name]) == ["recv-0", "sender-0"]


def test_server_runs_only_acceptor_readers_consumer_and_senders(cli_run):
    _, _, started = cli_run
    assert sorted(started["server"]) == [
        "acceptor", "consumer", "reader-0", "reader-1", "sender-0", "sender-1"
    ]


NET_UTIL = {
    "server": "net_util_server0.csv",
    "worker0": "net_util_worker0.csv",
    "worker1": "net_util_worker1.csv",
}


def test_net_util_last_row_is_the_counters_totals(cli_run):
    from p3sync.metrics import samples_from_csv

    outdir, made, _ = cli_run
    last = {}
    for name, file in NET_UTIL.items():
        row = samples_from_csv((outdir / file).read_text())[-1]
        last[name] = (row.bytes_in, row.bytes_out)
        assert last[name] == made[name].counters.totals()
    # on loopback every byte a worker sends reaches the server, and back
    assert last["server"] == (
        last["worker0"][1] + last["worker1"][1],
        last["worker0"][0] + last["worker1"][0],
    )


def test_net_util_rows_start_at_zero_and_sit_10_ms_apart(cli_run):
    from p3sync.metrics import BIN_MS, Sample, iteration_starts_from_csv, samples_from_csv

    outdir, _, _ = cli_run
    for file in NET_UTIL.values():
        text = (outdir / file).read_text()
        assert text.startswith("t_ms,bytes_in,bytes_out\n")
        rows = samples_from_csv(text)
        assert rows[0] == Sample(0, 0, 0)
        assert [r.t_ms for r in rows] == list(range(0, BIN_MS * len(rows), BIN_MS))
        for a, b in zip(rows, rows[1:]):
            assert a.bytes_in <= b.bytes_in and a.bytes_out <= b.bytes_out
        assert rows[-1].bytes_in > 0 and rows[-1].bytes_out > 0
    # iteration starts share the rows' clock, so summarize_run clips on the right window
    for rank in range(2):
        starts = iteration_starts_from_csv((outdir / f"throughput_worker{rank}.csv").read_text())
        rows = samples_from_csv((outdir / f"net_util_worker{rank}.csv").read_text())
        assert 0 <= starts[0] <= starts[-1] < rows[-1].t_ms
