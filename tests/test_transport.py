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
    FrameDecoder,
    MsgType,
    ProtocolError,
    SliceKey,
    encode_frame,
    pack_f32,
)
from p3sync.transport import (
    SEND_CHUNK,
    Crew,
    FrameConnection,
    TokenBucket,
    connect_with_retry,
    listen,
    parse_addr,
)


def test_parse_addr():
    assert parse_addr("127.0.0.1:88") == ("127.0.0.1", 88)
    with pytest.raises(ValueError):
        parse_addr("8080")


@pytest.mark.parametrize("port", ["", "abc", " 80", "80 ", "+80", "-1", "8_0", "\u0668\u0660", "0x50"])
def test_parse_addr_takes_only_ascii_decimal_ports(port):
    # int() reads ' 80', '+80', '8_0' and Arabic-Indic digits as a port; none is one
    with pytest.raises(ValueError) as refused:
        parse_addr(f"host:{port}")
    assert str(refused.value) == f"address {f'host:{port}'!r}: port {port!r} is not a decimal integer"


def test_connect_with_retry_honours_a_timeout_under_5s():
    # a listener whose one-slot backlog is full: a connect to it is never
    # answered, so each attempt waits out its own timeout
    with socket.socket() as srv:
        srv.bind(("127.0.0.1", 0))
        srv.listen(0)
        host, port = srv.getsockname()
        with socket.create_connection((host, port), timeout=5.0):
            t0 = time.monotonic()
            with pytest.raises(TimeoutError, match="unreachable for 0.5s"):
                connect_with_retry(host, port, 0.5, lambda: False)
            assert time.monotonic() - t0 < 0.5 + 0.5


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
    sender = FrameConnection(c_sock, 5.0, out_counters)
    receiver = FrameConnection(s_sock, 5.0, in_counters)
    frames = [
        Frame(msg_type=MsgType.HELLO, worker_rank=1),
        Frame(
            msg_type=MsgType.PUSH,
            key=SliceKey(3, 0),
            payload=pack_f32(np.arange(100, dtype=np.float32)),
        ),
        Frame(msg_type=MsgType.FIN, worker_rank=1),
    ]
    for f in frames:
        sender.send_frame(f)
    got = [receiver.recv_frame() for _ in frames]
    assert got == frames
    wire_bytes = sum(len(b"".join(encode_frame(f))) for f in frames)
    sent, received = out_counters.samples()[-1], in_counters.samples()[-1]
    assert (sent.bytes_in, sent.bytes_out) == (0, wire_bytes)
    # receiver counts exactly the bytes that arrived
    assert received.bytes_in == wire_bytes
    sender.close()
    assert receiver.recv_frame() is None
    receiver.close()


def test_each_received_header_is_decoded_once(monkeypatch):
    # recv_frame checks a header before it reads the payload, and feed makes
    # the frame of that Header without parsing the bytes again
    decoded = []
    header = FrameDecoder.header
    monkeypatch.setattr(FrameDecoder, "header", lambda self, buf: decoded.append(buf) or header(self, buf))
    c_sock, s_sock = loopback_pair()
    sender = FrameConnection(c_sock, 5.0, NetCounters())
    receiver = FrameConnection(s_sock, 5.0, NetCounters())
    frames = [Frame(msg_type=MsgType.HELLO, worker_rank=1), push_frame(10), push_frame(1000, layer=3)]
    frames.append(Frame(msg_type=MsgType.FIN, worker_rank=1))
    try:
        for f in frames:
            sender.send_frame(f)
        got = [receiver.recv_frame() for _ in frames]
    finally:
        sender.close()
        receiver.close()
    assert got == frames
    assert len(decoded) == len(frames)


def test_large_frame_chunked_send():
    c_sock, s_sock = loopback_pair()
    sender = FrameConnection(c_sock, 10.0, NetCounters())
    receiver = FrameConnection(s_sock, 10.0, NetCounters())
    payload = pack_f32(np.random.RandomState(0).rand(200_000).astype(np.float32))
    f = Frame(msg_type=MsgType.BCAST, payload=payload)
    t = threading.Thread(target=sender.send_frame, args=(f,))
    t.start()
    got = receiver.recv_frame()
    t.join()
    assert got == f
    sender.close()
    receiver.close()


# -- receive path: each payload read into an array of its own or its receiver's, over a real loopback pair


def raw_sender_and_receiver(timeout: float = 5.0):
    """A bare socket to write arbitrary bytes into, and a FrameConnection reading them."""
    c_sock, s_sock = loopback_pair()
    c_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return c_sock, FrameConnection(s_sock, timeout, NetCounters())


def push_frame(n: int, layer: int = 2) -> Frame:
    payload = pack_f32(np.arange(n, dtype=np.float32) + layer)
    return Frame(msg_type=MsgType.PUSH, iteration=4, key=SliceKey(layer, 0), payload=payload)


def raw_header(msg_type: MsgType, payload_len: int, magic: bytes = MAGIC) -> bytes:
    return struct.pack("<4sBQHIII", magic, int(msg_type), 0, 0, 0, 0, payload_len)


def test_eof_mid_header_names_undecoded_bytes():
    raw, receiver = raw_sender_and_receiver()
    raw.sendall(b"".join(encode_frame(Frame(msg_type=MsgType.FIN)))[:10])
    raw.close()
    with pytest.raises(ConnectionError, match="EOF with 10 undecoded bytes"):
        receiver.recv_frame()
    receiver.close()


def test_eof_mid_payload_names_undecoded_bytes():
    raw, receiver = raw_sender_and_receiver()
    data = b"".join(encode_frame(push_frame(100)))
    raw.sendall(data[: HEADER_LEN + 30])
    raw.close()
    with pytest.raises(ConnectionError, match=f"EOF with {HEADER_LEN + 30} undecoded bytes"):
        receiver.recv_frame()
    receiver.close()


def test_clean_eof_between_frames_is_none():
    raw, receiver = raw_sender_and_receiver()
    f = push_frame(10)
    raw.sendall(b"".join(encode_frame(f)))
    raw.close()
    assert receiver.recv_frame() == f
    assert receiver.recv_frame() is None
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
        receiver.recv_frame()
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
    data = b"".join(part for f in frames for part in encode_frame(f))
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
    got = [receiver.recv_frame() for _ in frames]
    t.join()
    assert got == frames
    raw.close()
    receiver.close()


def test_push_then_hello_back_to_back_arrive_in_order():
    raw, receiver = raw_sender_and_receiver()
    frames = [push_frame(25), Frame(msg_type=MsgType.HELLO, iteration=2**64 - 1, worker_rank=1)]
    raw.sendall(b"".join(part for f in frames for part in encode_frame(f)))
    assert [receiver.recv_frame() for _ in frames] == frames
    raw.close()
    receiver.close()


def test_received_payloads_are_read_only_and_not_shared():
    c_sock, s_sock = loopback_pair()
    sender = FrameConnection(c_sock, 5.0, NetCounters())
    receiver = FrameConnection(s_sock, 5.0, NetCounters())
    first, second = push_frame(50, layer=1), push_frame(50, layer=7)
    sender.send_frame(first)
    sender.send_frame(second)
    a = receiver.recv_frame()
    kept = a.payload_f32()
    b = receiver.recv_frame()
    assert not kept.flags.writeable and isinstance(a.payload, memoryview)
    assert np.array_equal(kept, np.arange(50, dtype=np.float32) + 1)
    assert np.array_equal(b.payload_f32(), np.arange(50, dtype=np.float32) + 7)
    sender.close()
    receiver.close()


@pytest.mark.parametrize("where", ["own-array", "destination"])
def test_received_payloads_are_aligned(where):
    # a payload starts on its array's alignment, never at the header's odd offset
    landed = []

    def destination(head):
        # one value into its allocation, as a slice of a worker's params may be
        landed.append(head)
        return np.empty(head.payload_len // 4 + 1, dtype="<f4")[1:]

    raw, receiver = raw_sender_and_receiver()
    frames = [push_frame(n, layer=n) for n in (1, 7, 50_000)]
    raw.sendall(b"".join(part for f in frames for part in encode_frame(f)))
    try:
        got = [receiver.recv_frame(destination if where == "destination" else None) for _ in frames]
    finally:
        raw.close()
        receiver.close()
    assert got == frames
    assert all(f.payload_f32().flags.aligned for f in got)
    assert [f.payload_f32().flags.writeable for f in got] == [where == "destination"] * 3
    if where == "destination":
        assert [(h.msg_type, h.key.layer_index, h.payload_len) for h in landed] == [
            (MsgType.PUSH, f.key.layer_index, len(f.payload)) for f in frames
        ]


def test_a_destination_decides_where_each_payload_goes():
    # a control frame asks nothing; a destination may decline a payload
    raw, receiver = raw_sender_and_receiver()
    frames = [push_frame(10, layer=1), Frame(msg_type=MsgType.FIN), push_frame(10, layer=2)]
    raw.sendall(b"".join(part for f in frames for part in encode_frame(f)))
    mine = np.zeros(10, dtype=np.float32)
    asked = []

    def destination(head):
        asked.append(head.key.layer_index)
        return mine if head.key.layer_index == 1 else None

    try:
        got = [receiver.recv_frame(destination) for _ in frames]
    finally:
        raw.close()
        receiver.close()
    assert got == frames and asked == [1, 2]
    assert np.shares_memory(got[0].payload_f32(), mine) and mine.tobytes() == frames[0].payload
    assert not got[2].payload_f32().flags.writeable


def test_a_destination_of_the_wrong_size_is_refused():
    raw, receiver = raw_sender_and_receiver()
    raw.sendall(b"".join(encode_frame(push_frame(10))))
    try:
        with pytest.raises(ValueError, match="a destination of 36 bytes for a 40-byte payload"):
            receiver.recv_frame(lambda head: np.empty(9, dtype="<f4"))
    finally:
        raw.close()
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
    size = len(b"".join(encode_frame(f)))
    c_sock, s_sock = loopback_pair()
    counters, bucket = RecordingCounters(), RecordingBucket()
    unshaped = FrameConnection(c_sock, 5.0, counters)
    receiver = FrameConnection(s_sock, 5.0, NetCounters())
    unshaped.send_frame(f)
    assert counters.calls == [(OUT, size)]
    counters.calls.clear()
    shaped = FrameConnection(c_sock, 5.0, counters, bucket)
    shaped.send_frame(f)
    chunks = [SEND_CHUNK, SEND_CHUNK, size - 2 * SEND_CHUNK]
    assert bucket.takes == chunks
    assert counters.calls == [(OUT, n) for n in chunks]
    assert [receiver.recv_frame() for _ in range(2)] == [f, f]
    unshaped.close()
    receiver.close()


# -- short writes: sendmsg from the payload's own buffer, over a small send buffer


class CountingSocket(socket.socket):
    """A socket that counts its sendmsg calls, and those that wrote less than they were given."""

    sendmsgs = 0
    short_sendmsgs = 0

    def sendmsg(self, buffers, *args):
        sent = super().sendmsg(buffers, *args)
        self.sendmsgs += 1
        self.short_sendmsgs += sent < sum(memoryview(b).nbytes for b in buffers)
        return sent


def small_buffer_pair():
    """A CountingSocket with a small send buffer, connected to a plain socket."""
    srv = listen("127.0.0.1", 0)
    client = CountingSocket(socket.AF_INET, socket.SOCK_STREAM)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
    client.connect(srv.getsockname())
    server_side, _ = srv.accept()
    srv.close()
    return client, server_side


def read_in_pieces(sock, total: int, got: bytearray, stop: threading.Event, pause: float = 0.0) -> None:
    """Read up to ``total`` bytes of ``sock`` into ``got``, 4 KiB at a time, until ``stop``."""
    sock.settimeout(0.05)
    while len(got) < total and not stop.is_set():
        try:
            piece = sock.recv(min(4096, total - len(got)))
        except TimeoutError:
            continue
        if not piece:
            return
        got += piece
        time.sleep(pause)


def decode_all(data: bytes) -> list[Frame]:
    decoder, frames, pos = FrameDecoder(), [], 0
    while pos < len(data):
        head = decoder.header(data[pos : pos + HEADER_LEN])
        end = pos + HEADER_LEN + head.payload_len
        frames += decoder.feed(head, data[pos + HEADER_LEN : end])
        pos = end
    return frames


@pytest.mark.parametrize("shaped", [False, True], ids=["unshaped", "shaped"])
def test_short_writes_deliver_every_frame_whole(shaped):
    # up to vgg19-like's largest slice, 715,000 values: far over the send buffer,
    # so sendmsg returns short and sendall writes the rest
    frames = [Frame(msg_type=MsgType.HELLO, worker_rank=3)]
    frames += [push_frame(n, layer=i) for i, n in enumerate([1, 4096, 50_000, 715_000])]
    sizes = [HEADER_LEN + len(f.payload) for f in frames]
    c_sock, s_sock = small_buffer_pair()
    counters, bucket = RecordingCounters(), RecordingBucket() if shaped else None
    sender = FrameConnection(c_sock, 10.0, counters, bucket)
    got, stop = bytearray(), threading.Event()
    reader = threading.Thread(target=read_in_pieces, args=(s_sock, sum(sizes), got, stop))
    reader.start()
    try:
        for f in frames:
            sender.send_frame(f)
        reader.join(10.0)
    finally:
        stop.set()
        reader.join()
        sender.close()
        s_sock.close()
    assert decode_all(bytes(got)) == frames
    if shaped:
        # a 16 KiB chunk mostly goes out whole, so only the chunks are checked
        assert bucket.takes == [n for _, n in counters.calls]
        assert sum(bucket.takes) == sum(sizes) and max(bucket.takes) == SEND_CHUNK
        assert c_sock.sendmsgs == len(bucket.takes)  # one per piece
    else:
        assert counters.calls == [(OUT, n) for n in sizes]
        assert c_sock.sendmsgs == len(frames)  # one per frame, the whole frame its one piece
        assert c_sock.short_sendmsgs > 0  # so sendall wrote the rest


def test_a_send_stalled_mid_frame_times_out_within_one_socket_timeout():
    # the peer reads 4 KiB every 2 ms, so the writes make progress, but the
    # 2.86 MB frame needs well over a second: the sendall that finishes the short
    # sendmsg has one deadline for its whole call, and ends after the 0.4 s timeout
    f = push_frame(715_000)
    c_sock, s_sock = small_buffer_pair()
    sender = FrameConnection(c_sock, 0.4, NetCounters())
    got, stop = bytearray(), threading.Event()
    reader = threading.Thread(target=read_in_pieces, args=(s_sock, len(f.payload), got, stop, 0.002))
    reader.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(TimeoutError, match=r"sending a PUSH frame timed out after 0\.4s"):
            sender.send_frame(f)
        elapsed = time.monotonic() - t0
    finally:
        stop.set()
        reader.join()
        sender.close()
        s_sock.close()
    assert 0.35 <= elapsed < 1.2
    assert c_sock.short_sendmsgs == 1 and 0 < len(got) < len(f.payload)


def test_a_stalled_read_names_the_frame_and_the_timeout():
    raw, receiver = raw_sender_and_receiver(timeout=0.1)
    try:
        with pytest.raises(TimeoutError, match=r"receiving a frame timed out after 0\.1s"):
            receiver.recv_frame()
        raw.sendall(b"".join(encode_frame(push_frame(100)))[: HEADER_LEN + 8])
        with pytest.raises(TimeoutError, match=r"receiving a PUSH frame timed out after 0\.1s"):
            receiver.recv_frame()
    finally:
        raw.close()
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
