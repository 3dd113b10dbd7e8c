import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from p3sync.model import builtin_profile
from p3sync.plan import Slice, SliceKey, make_plan
from p3sync.proto import Frame, MsgType, ProtocolError
from p3sync.queues import FrameQueue
from p3sync.server import ServerEngine, ShardState, bcast_frames


def shard(n=4, num_workers=2, lr=0.1, params=None):
    p = np.zeros(n, dtype=np.float32) if params is None else np.asarray(params, np.float32)
    return ShardState(Slice(SliceKey(0, 0), 0, n, 0), p, num_workers, lr)


def scalar_update_oracle(params, grads_by_rank, lr):
    """Element-wise float32 replay: sum in ascending rank order, average, step."""
    out = np.empty_like(params)
    nw = np.float32(len(grads_by_rank))
    lr32 = np.float32(lr)
    for i in range(len(params)):
        acc = np.float32(0.0)
        for rank in sorted(grads_by_rank):
            acc = np.float32(acc + grads_by_rank[rank][i])
        g = np.float32(acc / nw)
        out[i] = np.float32(params[i] - np.float32(lr32 * g))
    return out


def test_single_worker_ready_immediately():
    s = shard(num_workers=1)
    assert s.on_push(0, 0, np.zeros(4, np.float32)) is True


def test_waits_for_all_ranks():
    s = shard(num_workers=4)
    for rank in range(3):
        assert s.on_push(rank, 0, np.zeros(4, np.float32)) is False
    assert s.on_push(3, 0, np.zeros(4, np.float32)) is True


def test_duplicate_push_rejected():
    s = shard(num_workers=2)
    s.on_push(0, 0, np.zeros(4, np.float32))
    with pytest.raises(ProtocolError, match="duplicate"):
        s.on_push(0, 0, np.zeros(4, np.float32))


def test_wrong_iteration_rejected():
    s = shard(num_workers=1)
    with pytest.raises(ProtocolError, match="iteration"):
        s.on_push(0, 3, np.zeros(4, np.float32))


def test_length_mismatch_rejected():
    s = shard(num_workers=1)
    with pytest.raises(ProtocolError, match="length"):
        s.on_push(0, 0, np.zeros(3, np.float32))


def test_unknown_rank_rejected():
    s = shard(num_workers=2)
    with pytest.raises(ProtocolError, match="rank"):
        s.on_push(5, 0, np.zeros(4, np.float32))


def test_aggregate_before_ready_rejected():
    s = shard(num_workers=2)
    s.on_push(0, 0, np.zeros(4, np.float32))
    with pytest.raises(ProtocolError, match="aggregate"):
        s.aggregate_and_update()


def test_sgd_single_worker():
    s = shard(n=1, num_workers=1, lr=0.5, params=[1.0])
    s.on_push(0, 0, np.array([2.0], np.float32))
    out = s.aggregate_and_update()
    assert out.tolist() == [0.0]
    assert s.iteration == 1 and not s.pending


def test_sgd_two_workers_mean():
    s = shard(n=1, num_workers=2, lr=1.0, params=[0.0])
    s.on_push(0, 0, np.array([1.0], np.float32))
    s.on_push(1, 0, np.array([3.0], np.float32))
    assert s.aggregate_and_update().tolist() == [-2.0]


def test_aggregate_matches_scalar_oracle():
    rng = np.random.RandomState(7)
    for _ in range(50):
        n = rng.randint(1, 33)
        nw = rng.randint(1, 5)
        lr = float(rng.uniform(0.0, 1.0))
        params = rng.uniform(-5, 5, n).astype(np.float32)
        grads = {r: rng.uniform(-3, 3, n).astype(np.float32) for r in range(nw)}
        s = ShardState(Slice(SliceKey(1, 2), 0, n, 0), params.copy(), nw, lr)
        for r in range(nw):
            s.on_push(r, 0, grads[r].copy())
        got = s.aggregate_and_update()
        want = scalar_update_oracle(params, grads, lr)
        assert got.tobytes() == want.tobytes()


def three_step_update(params, grads_by_rank, lr):
    """The update as three float32 array expressions: sum, mean, then params - lr * mean."""
    acc = np.zeros(len(params), dtype=np.float32)
    for rank in sorted(grads_by_rank):
        acc += grads_by_rank[rank]
    grad = acc / np.float32(len(grads_by_rank))
    return params - np.float32(lr) * grad


F32 = np.finfo(np.float32)
# signed zeros, subnormals, infinities and values near float32's max, in params and gradients
SPECIALS = np.array(
    [0.0, -0.0, F32.smallest_subnormal, -F32.smallest_subnormal, F32.tiny / 3, -F32.tiny]
    + [np.inf, -np.inf, F32.max, -F32.max, np.nextafter(F32.max, 0), 1.0, -1.0],
    dtype=np.float32,
)


@pytest.mark.parametrize("num_workers", [1, 2, 3, 4])
def test_in_place_update_equals_three_step_formula(num_workers):
    rng = np.random.RandomState(num_workers)
    for lr in (0.1, 1.0, 3.0, 1e-3):
        params = rng.choice(SPECIALS, 200)
        grads = {r: rng.choice(SPECIALS, 200) for r in range(num_workers)}
        s = ShardState(Slice(SliceKey(0, 0), 0, 200, 0), params.copy(), num_workers, lr)
        for r in range(num_workers):
            s.on_push(r, 0, grads[r].copy())
        # overflow to inf and inf - inf are part of what is compared
        with np.errstate(over="ignore", invalid="ignore"):
            got = s.aggregate_and_update()
            want = three_step_update(params, grads, lr)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_update_allocates_no_slice_sized_array():
    # the gradients are summed into the lowest rank's array: no accumulator
    n = 50_000
    rng = np.random.RandomState(5)
    s = ShardState(Slice(SliceKey(0, 0), 0, n, 0), rng.uniform(-1, 1, n).astype(np.float32), 3, 0.1)
    for r in range(3):
        s.on_push(r, 0, rng.uniform(-1, 1, n).astype(np.float32))
    tracemalloc.start()
    try:
        s.aggregate_and_update()
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n, [str(stat) for stat in snapshot.statistics("lineno")[:3]]


def test_lr_zero_conserves_params():
    rng = np.random.RandomState(3)
    params = rng.uniform(-2, 2, 16).astype(np.float32)
    s = ShardState(Slice(SliceKey(0, 0), 0, 16, 0), params.copy(), 2, lr=0.0)
    for k in range(3):
        s.on_push(0, k, rng.uniform(-1, 1, 16).astype(np.float32))
        s.on_push(1, k, rng.uniform(-1, 1, 16).astype(np.float32))
        out = s.aggregate_and_update()
        assert out.tobytes() == params.tobytes()


def test_arrival_order_of_keys_never_changes_values():
    # pushes for distinct keys can arrive in any order; per-key rank order is
    # fixed by sorting, so final params must be bit-identical
    rng = np.random.RandomState(11)
    grads = {
        key: {r: rng.uniform(-1, 1, 8).astype(np.float32) for r in range(3)}
        for key in [SliceKey(l, s) for l in range(3) for s in range(2)]
    }
    results = []
    for perm_seed in range(5):
        shards = {key: ShardState(Slice(key, 0, 8, 0), np.zeros(8, np.float32), 3, 0.1) for key in grads}
        events = [(key, r) for key in grads for r in range(3)]
        np.random.RandomState(perm_seed).shuffle(events)
        for key, r in events:
            ready = shards[key].on_push(r, 0, grads[key][r].copy())
            if ready:
                shards[key].aggregate_and_update()
        results.append(b"".join(shards[k].params.tobytes() for k in sorted(shards)))
    assert len(set(results)) == 1


def test_engine_refuses_more_workers_than_a_header_names(monkeypatch):
    # a rank is a 16-bit header field, so a 65537th worker could never say HELLO
    import p3sync.server as server

    def listen(*args):
        raise AssertionError("the listener was bound")

    monkeypatch.setattr(server, "listen", listen)
    plan = make_plan("p3", builtin_profile("toy3"), 1)
    with pytest.raises(ValueError, match="num_workers 65537 must be <= 65536"):
        ServerEngine("127.0.0.1", 0, 0, plan, num_workers=65537, lr=0.1)


def test_bcast_frames_shape():
    sl = Slice(SliceKey(2, 1), offset=10, length=4, server=0)
    params = np.array([1.0, 2.0, 3.0, 4.0], np.float32)
    frames = bcast_frames(sl, 7, params, [0, 1, 2, 3])
    assert len(frames) == 4
    assert {f.worker_rank for f in frames} == {0, 1, 2, 3}
    # every payload views params: nothing is copied for the wire
    assert all(np.shares_memory(f.payload_f32(), params) for f in frames)
    for f in frames:
        assert f.msg_type == MsgType.BCAST
        assert (f.key.layer_index, f.key.slice_index) == (2, 1)
        assert f.iteration == 7
        assert np.array_equal(f.payload_f32(), params)


class SlowReleaseLock:
    """A lock that sleeps for a millisecond just before it lets go.

    In that window a reader that has just queued a frame finds the lock taken
    although its holder has already seen the queue empty, so the frame is
    served only if the holder looks again after letting go.
    """

    def __init__(self):
        self._lock = threading.Lock()

    def acquire(self, blocking=True):
        return self._lock.acquire(blocking)

    def release(self):
        time.sleep(1e-3)
        self._lock.release()


def test_serve_under_contention_handles_each_frame_once_on_one_thread():
    # in each round, readers queue a frame each at random moments within 2 ms
    # and serve it, while the interpreter switches threads every 10 us
    num_readers, rounds = 4, 100
    queue = FrameQueue(priority_mode=True)
    lock = SlowReleaseLock()
    inside = threading.Lock()
    handled, overlaps, left, errors = [], [], [], []

    def handle(frame):
        if not inside.acquire(blocking=False):
            overlaps.append(frame)
            return
        try:
            time.sleep(0)
            handled.append((frame.worker_rank, frame.iteration))
        finally:
            inside.release()

    # runs once every reader has returned from its round's _serve
    barrier = threading.Barrier(num_readers, action=lambda: left.append(len(queue)))

    def reader(rank):
        rng = random.Random(rank)
        try:
            for r in range(rounds):
                time.sleep(rng.uniform(0, 2e-3))
                queue.put(Frame(msg_type=MsgType.PUSH, iteration=r, worker_rank=rank, key=SliceKey(r % 7, 0)))
                ServerEngine._serve(queue, lock, handle)
                barrier.wait(timeout=10)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(num_readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert overlaps == []
    assert left == [0] * rounds
    assert sorted(handled) == [(i, r) for i in range(num_readers) for r in range(rounds)]
