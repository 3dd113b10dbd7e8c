import math
import socket
import struct
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from p3sync.metrics import OUT, NetCounters
from p3sync.proto import (
    DEFAULT_MAX_PAYLOAD,
    HEADER_LEN,
    MAGIC,
    Frame,
    MsgType,
    ProtocolError,
    encode_frame,
    pack_f32,
)
from p3sync.transport import SEND_CHUNK, Crew, FrameConnection, TokenBucket, listen, parse_addr


def test_parse_addr():
    assert parse_addr("127.0.0.1:88") == ("127.0.0.1", 88)
    with pytest.raises(ValueError):
        parse_addr("8080")


def test_bucket_rejects_bad_rate():
    # nan fails no `rate <= 0` check, and a nan rate would refill the whole burst at every call
    for rate in (0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"got {rate}"):
            TokenBucket(rate)


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


# -- receive path: one exact-size buffer per frame, over a real loopback pair


def raw_sender_and_receiver():
    """A bare socket to write arbitrary bytes into, and a FrameConnection reading them."""
    c_sock, s_sock = loopback_pair()
    c_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return c_sock, FrameConnection(s_sock)


def push_frame(n: int, layer: int = 2) -> Frame:
    payload = pack_f32(np.arange(n, dtype=np.float32) + layer)
    return Frame(msg_type=MsgType.PUSH, iteration=4, layer_index=layer, payload=payload)


def raw_header(msg_type: MsgType, payload_len: int, magic: bytes = MAGIC) -> bytes:
    return struct.pack("<4sBQHIII", magic, int(msg_type), 0, 0, 0, 0, payload_len)


def test_eof_mid_header_names_undecoded_bytes():
    raw, receiver = raw_sender_and_receiver()
    raw.sendall(encode_frame(Frame(msg_type=MsgType.FIN))[:10])
    raw.close()
    with pytest.raises(ConnectionError, match="EOF with 10 undecoded bytes"):
        receiver.recv_frame(timeout=5)
    receiver.close()


def test_eof_mid_payload_names_undecoded_bytes():
    raw, receiver = raw_sender_and_receiver()
    data = encode_frame(push_frame(100))
    raw.sendall(data[: HEADER_LEN + 30])
    raw.close()
    with pytest.raises(ConnectionError, match=f"EOF with {HEADER_LEN + 30} undecoded bytes"):
        receiver.recv_frame(timeout=5)
    receiver.close()


def test_clean_eof_between_frames_is_none():
    raw, receiver = raw_sender_and_receiver()
    f = push_frame(10)
    raw.sendall(encode_frame(f))
    raw.close()
    assert receiver.recv_frame(timeout=5) == f
    assert receiver.recv_frame(timeout=5) is None
    receiver.close()


@pytest.mark.parametrize(
    "header,match",
    [
        (raw_header(MsgType.PUSH, DEFAULT_MAX_PAYLOAD + 4), "exceeds"),
        (raw_header(MsgType.HELLO, 8), "nonzero payload"),
        (raw_header(MsgType.HELLO, 0, magic=b"P3W1"), "bad magic"),
    ],
    ids=["over-max-payload", "payload-on-hello", "previous-version-magic"],
)
def test_bad_header_rejected_before_payload_is_read(header, match):
    raw, receiver = raw_sender_and_receiver()
    trailer = b"\xab" * 8
    raw.sendall(header + trailer)
    with pytest.raises(ProtocolError, match=match):
        receiver.recv_frame(timeout=5)
    # every byte after the header is still in the socket
    receiver.sock.settimeout(5)
    got = b""
    while len(got) < len(trailer):
        got += receiver.sock.recv(64)
    assert got == trailer
    raw.close()
    receiver.close()


def test_frames_sent_in_tiny_pieces_decode_equal():
    raw, receiver = raw_sender_and_receiver()
    frames = [push_frame(40), Frame(msg_type=MsgType.FIN, worker_rank=1)]
    data = b"".join(encode_frame(f) for f in frames)
    rng = np.random.RandomState(3)

    def trickle():
        pos = 0
        while pos < len(data):
            n = int(rng.randint(1, 8))
            raw.sendall(data[pos : pos + n])
            pos += n
            time.sleep(0.0005)

    t = threading.Thread(target=trickle)
    t.start()
    got = [receiver.recv_frame(timeout=5) for _ in frames]
    t.join()
    assert got == frames
    raw.close()
    receiver.close()


def test_push_then_hello_back_to_back_arrive_in_order():
    raw, receiver = raw_sender_and_receiver()
    frames = [push_frame(25), Frame(msg_type=MsgType.HELLO, iteration=2**64 - 1, worker_rank=1)]
    raw.sendall(b"".join(encode_frame(f) for f in frames))
    assert [receiver.recv_frame(timeout=5) for _ in frames] == frames
    raw.close()
    receiver.close()


def test_received_payloads_are_read_only_and_not_shared():
    c_sock, s_sock = loopback_pair()
    sender, receiver = FrameConnection(c_sock), FrameConnection(s_sock)
    first, second = push_frame(50, layer=1), push_frame(50, layer=7)
    sender.send_frame(first)
    sender.send_frame(second)
    a = receiver.recv_frame(timeout=5)
    kept = a.payload_f32()
    b = receiver.recv_frame(timeout=5)
    assert not kept.flags.writeable and isinstance(a.payload, memoryview)
    assert np.array_equal(kept, np.arange(50, dtype=np.float32) + 1)
    assert np.array_equal(b.payload_f32(), np.arange(50, dtype=np.float32) + 7)
    sender.close()
    receiver.close()


class RecordingCounters(NetCounters):
    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, int]] = []

    def record_bytes(self, direction: str, n: int) -> None:
        self.calls.append((direction, n))
        super().record_bytes(direction, n)


class RecordingBucket(TokenBucket):
    def __init__(self) -> None:
        super().__init__(1e12)
        self.takes: list[int] = []

    def consume(self, n: int) -> None:
        self.takes.append(n)
        super().consume(n)


def test_unshaped_send_is_one_write_shaped_send_pays_per_chunk():
    f = push_frame(10_000)  # 40,039 wire bytes: chunks of 16384, 16384, 7271
    size = len(encode_frame(f))
    c_sock, s_sock = loopback_pair()
    counters, bucket = RecordingCounters(), RecordingBucket()
    unshaped = FrameConnection(c_sock, counters=counters)
    receiver = FrameConnection(s_sock)
    unshaped.send_frame(f)
    assert counters.calls == [(OUT, size)]
    counters.calls.clear()
    shaped = FrameConnection(c_sock, counters=counters, bucket=bucket)
    shaped.send_frame(f)
    chunks = [SEND_CHUNK, SEND_CHUNK, size - 2 * SEND_CHUNK]
    assert bucket.takes == chunks
    assert counters.calls == [(OUT, n) for n in chunks]
    assert [receiver.recv_frame(timeout=5) for _ in range(2)] == [f, f]
    unshaped.close()
    receiver.close()


# -- Crew -------------------------------------------------------------------


class Closable:
    def __init__(self):
        self.closes = 0

    def close(self):
        self.closes += 1


def test_crew_keeps_the_first_of_two_errors():
    crew = Crew()
    first, second = ValueError("first"), KeyError("second")
    stopped = threading.Event()
    crew.closing(SimpleNamespace(close=stopped.set))

    def fail_after_the_stop():
        stopped.wait(5.0)
        raise second

    def fail():
        raise first

    crew.spawn("second", fail_after_the_stop)
    crew.spawn("first", fail)
    crew.join(5.0)
    assert [t.is_alive() for t in crew.threads] == [False, False]
    assert crew.stopped and crew.error is first


def test_crew_stop_is_idempotent():
    crew = Crew()
    res = crew.closing(Closable())
    crew.stop()
    crew.stop(RuntimeError("after the stop"))
    crew.stop()
    assert crew.stopped and crew.error is None
    assert res.closes == 1


def test_crew_closes_a_resource_registered_after_the_stop_at_once():
    crew = Crew()
    crew.stop(RuntimeError("boom"))
    res = Closable()
    assert crew.closing(res) is res
    assert res.closes == 1
    crew.stop()
    assert res.closes == 1


def test_crew_error_closes_what_was_registered():
    crew = Crew()
    res = crew.closing(Closable())
    crew.spawn("failing", lambda: 1 / 0)
    crew.join(5.0)
    assert isinstance(crew.error, ZeroDivisionError) and res.closes == 1


def test_crew_closes_each_resource_once_when_registering_races_the_stop():
    # 8 threads register while 3 others stop the crew, switching every 10 us
    crew = Crew()
    made = [[Closable() for _ in range(300)] for _ in range(8)]
    errors = [RuntimeError(f"stop {i}") for i in range(3)]
    go = threading.Event()

    def register(resources):
        go.wait(5.0)
        for res in resources:
            crew.closing(res)

    def stop(exc):
        go.wait(5.0)
        time.sleep(0.001)
        crew.stop(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i, resources in enumerate(made):
            crew.spawn(f"register-{i}", register, resources)
        for i, exc in enumerate(errors):
            crew.spawn(f"stop-{i}", stop, exc)
        go.set()
        crew.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in crew.threads)
    assert crew.error in errors
    assert {res.closes for resources in made for res in resources} == {1}


def test_crew_join_takes_one_timeout_for_all_threads():
    crew = Crew()
    release = threading.Event()
    for i in range(5):
        crew.spawn(f"held-{i}", release.wait)
    t0 = time.monotonic()
    crew.join(0.3)
    waited = time.monotonic() - t0
    try:
        assert all(t.is_alive() for t in crew.threads)
        assert 0.25 <= waited < 0.9  # one timeout, not five (1.5 s)
    finally:
        release.set()
        crew.join(5.0)
    assert not any(t.is_alive() for t in crew.threads)


def test_crew_join_waits_for_threads_started_while_it_waits():
    crew = Crew()

    def parent():
        time.sleep(0.05)
        crew.spawn("child", time.sleep, 0.2)

    crew.spawn("parent", parent)
    crew.join(5.0)
    assert [t.name for t in crew.threads] == ["parent", "child"]
    assert not any(t.is_alive() for t in crew.threads)
