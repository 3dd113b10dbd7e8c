import socket
import threading
import time

import numpy as np
import pytest

from p3sync.metrics import NetCounters
from p3sync.proto import Frame, MsgType, encode_frame, pack_f32
from p3sync.transport import FrameConnection, TokenBucket, listen, parse_addr


def test_parse_addr():
    assert parse_addr("127.0.0.1:88") == ("127.0.0.1", 88)
    with pytest.raises(ValueError):
        parse_addr("8080")


def test_bucket_rejects_bad_rate():
    with pytest.raises(ValueError):
        TokenBucket(0)


def test_bucket_allows_initial_burst_instantly():
    b = TokenBucket(8_000_000, burst_bytes=10_000)
    t0 = time.perf_counter()
    b.consume(10_000)
    assert time.perf_counter() - t0 < 0.05


def test_bucket_rate_short_window():
    # 0.8 Mbit/s = 100 KB/s; consuming 30 KB beyond the 10 KB burst
    # needs ~0.2 s
    b = TokenBucket(800_000, burst_bytes=10_000)
    b.consume(10_000)
    t0 = time.perf_counter()
    b.consume(20_000)
    elapsed = time.perf_counter() - t0
    assert 0.15 <= elapsed <= 0.35


def test_bucket_shared_across_threads():
    # two senders share one bucket: combined rate obeys the limit
    b = TokenBucket(1_600_000, burst_bytes=5_000)  # 200 KB/s
    total = 30_000  # per thread, 60 KB combined -> ~0.27 s after burst

    def sender():
        sent = 0
        while sent < total:
            b.consume(1_000)
            sent += 1_000

    t0 = time.perf_counter()
    threads = [threading.Thread(target=sender) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert elapsed >= 0.2


def loopback_pair():
    srv = listen("127.0.0.1", 0)
    host, port = srv.getsockname()
    client = socket.create_connection((host, port))
    server_side, _ = srv.accept()
    srv.close()
    return client, server_side


def test_frame_connection_roundtrip_and_counters():
    c_sock, s_sock = loopback_pair()
    out_counters = NetCounters()
    in_counters = NetCounters()
    sender = FrameConnection(c_sock, counters=out_counters)
    receiver = FrameConnection(s_sock, counters=in_counters)
    frames = [
        Frame(msg_type=MsgType.HELLO, worker_rank=1),
        Frame(
            msg_type=MsgType.PUSH,
            priority=3,
            layer_index=3,
            payload=pack_f32(np.arange(100, dtype=np.float32)),
        ),
        Frame(msg_type=MsgType.FIN, worker_rank=1),
    ]
    for f in frames:
        sender.send_frame(f)
    got = [receiver.recv_frame(timeout=5) for _ in frames]
    assert got == frames
    wire_bytes = sum(len(encode_frame(f)) for f in frames)
    assert out_counters.totals() == (0, wire_bytes)
    # receiver counts exactly the bytes that arrived
    assert in_counters.totals()[0] == wire_bytes
    sender.close()
    assert receiver.recv_frame(timeout=5) is None
    receiver.close()


def test_large_frame_chunked_send():
    c_sock, s_sock = loopback_pair()
    sender = FrameConnection(c_sock)
    receiver = FrameConnection(s_sock)
    payload = pack_f32(np.random.RandomState(0).rand(200_000).astype(np.float32))
    f = Frame(msg_type=MsgType.BCAST, payload=payload)
    t = threading.Thread(target=sender.send_frame, args=(f,))
    t.start()
    got = receiver.recv_frame(timeout=10)
    t.join()
    assert got == f
    sender.close()
    receiver.close()
