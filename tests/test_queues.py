import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3sync.proto import Frame, MsgType, SliceKey
from p3sync.queues import DeadlockError, FrameQueue


def push(layer, sl=0, it=0):
    return Frame(msg_type=MsgType.PUSH, iteration=it, key=SliceKey(layer, sl))


def test_priority_dequeue_order():
    q = FrameQueue(priority_mode=True)
    for layer in (2, 0, 1):
        q.put(push(layer))
    assert [q.poll().key.layer_index for _ in range(3)] == [0, 1, 2]


def test_tie_break_by_slice_index():
    q = FrameQueue(priority_mode=True)
    q.put(push(1, sl=1))
    q.put(push(1, sl=0))
    assert [q.poll().key.slice_index for _ in range(2)] == [0, 1]


def test_fifo_mode_arrival_order():
    q = FrameQueue(priority_mode=False)
    for layer in (2, 0, 1):
        q.put(push(layer))
    assert [q.poll().key.layer_index for _ in range(3)] == [2, 0, 1]


def test_poll_blocks_until_put():
    q = FrameQueue()
    out = []

    def consume():
        out.append(q.poll(timeout=5))

    t = threading.Thread(target=consume)
    t.start()
    q.put(push(3))
    t.join(timeout=5)
    assert out and out[0].key.layer_index == 3


def test_poll_timeout_raises():
    q = FrameQueue()
    with pytest.raises(DeadlockError):
        q.poll(timeout=0.05)


def test_close_drains_then_none():
    q = FrameQueue()
    q.put(push(5))
    q.close()
    assert q.poll().key.layer_index == 5
    assert q.poll() is None
    assert q.poll() is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 3)),
            st.tuples(st.just("poll"), st.just(0), st.just(0)),
        ),
        max_size=40,
    )
)
def test_sequential_linearization(ops):
    # after any interleaving of puts and polls, a poll returns the minimum
    # of what is currently queued
    q = FrameQueue(priority_mode=True)
    mirror = []
    for op, layer, sl in ops:
        if op == "put":
            f = push(layer, sl=sl)
            q.put(f)
            mirror.append(f)
        elif mirror:
            got = q.poll(timeout=1)
            want = min(mirror, key=lambda f: f.key)
            assert got.key == want.key
            mirror.remove(got)
    assert len(q) == len(mirror)


def test_concurrent_producers_drain_sorted():
    # with all producers joined, every remaining poll sees the full queue, so
    # the drained sequence must be perfectly sorted and complete
    q = FrameQueue(priority_mode=True)
    n_producers, per_producer = 4, 500
    rngs = [random.Random(i) for i in range(n_producers)]
    expected = []

    def producer(i):
        for _ in range(per_producer):
            f = push(rngs[i].randint(0, 9), sl=rngs[i].randint(0, 9), it=rngs[i].randint(0, 9))
            expected.append(f)
            q.put(f)

    threads = [threading.Thread(target=producer, args=(i,)) for i in range(n_producers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    drained = [q.poll(timeout=1) for _ in range(n_producers * per_producer)]
    keys = [f.key for f in drained]
    assert keys == sorted(keys)
    assert sorted(f.key for f in drained) == sorted(f.key for f in expected)
    assert len(q) == 0


def test_batch_put_is_atomic_under_concurrency():
    # whenever any element of a batch has been popped, the rest of the batch
    # must already be queued (or popped): a consumer can never observe a
    # partially inserted batch. So once take() finds the queue empty, every
    # batch the consumer has seen has been popped whole. The interpreter
    # switches threads every 10 us, so a split batch would be seen.
    q = FrameQueue(priority_mode=True)
    n_batches, batch_size = 60, 8
    popped_by_batch: dict[int, int] = {}

    def producer():
        for b in range(n_batches):
            frames = [push(b % 4, sl=s, it=b) for s in range(batch_size)]
            q.put_batch(frames)

    total = n_batches * batch_size
    seen = 0
    errors = []
    p = threading.Thread(target=producer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        p.start()
        while seen < total:
            popped = [q.poll(timeout=5)]
            while (g := q.take()) is not None:
                popped.append(g)
            seen += len(popped)
            for g in popped:
                popped_by_batch[g.iteration] = popped_by_batch.get(g.iteration, 0) + 1
            for b in {g.iteration for g in popped}:
                if popped_by_batch[b] != batch_size:
                    errors.append((b, popped_by_batch[b]))
        p.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, f"partial batches observed: {errors[:5]}"


def test_put_after_close_rejected():
    q = FrameQueue()
    q.close()
    with pytest.raises(RuntimeError):
        q.put(push(0))
