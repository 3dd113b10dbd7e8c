"""Plumbing shared by workers and servers: shaping, counting, framing, threads.

A shaped process owns one outbound TokenBucket and hands it to every
FrameConnection it opens, so all sends drain it together, emulating an
interface-level rate limit; an unshaped process passes None. A frame goes
out in pieces, SEND_CHUNK bytes each when shaped, so a large slice cannot
blow through the configured rate, and the whole frame when not; a shaped
piece is paid for before it is written. Each piece is one ``sendmsg`` of
views of the header and of the payload, straight from the frame's own buffer
(``proto.encode_frame``); whatever a short write leaves, ``sendall`` finishes.
A received frame's header is read first; its payload is read straight into
the float32 array that the receiver names for it (``recv_frame``'s
``destination``), or else into a new array of its own, which its decoded
payload views. Each connection has one timeout, set on its socket
when it is made, and a read or send that outlives it raises a TimeoutError
that names it.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from collections.abc import Callable, Sequence

import numpy as np

from .metrics import IN, OUT, NetCounters
from .proto import HEADER_LEN, Frame, FrameDecoder, Header, encode_frame

DEFAULT_BURST_BYTES = 50 * 1024
SEND_CHUNK = 16 * 1024


class TokenBucket:
    """Blocking token bucket: rate in bits/second, burst in bytes.

    Tokens accrue from measured elapsed time, so sleep overshoot never
    accumulates into a long-run rate error.
    """

    def __init__(self, rate_bps: float, burst_bytes: int = DEFAULT_BURST_BYTES) -> None:
        if not (rate_bps > 0 and math.isfinite(rate_bps)):
            raise ValueError(f"rate must be positive and finite, got {rate_bps}; use None for no shaping")
        self.rate_bytes = rate_bps / 8.0
        self.burst = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate_bytes)
        self._last = now

    # Takes the tokens there are and polls for the rest, rather than reserving
    # a slot in a FIFO of future tokens. With a reserving bucket a server's
    # 27-byte NOTIFY waited behind the 16 KiB chunks the other rank's sender had
    # reserved: on shaped-vgg (seeds 7301-7306) throughput.baseline went
    # 284.7 -> 276.7/s, worse in 5 of 6 pairs, while p3 went 463.6 -> 462.9/s.
    def consume(self, n: int) -> None:
        """Block until n tokens are available, then take them. n may exceed burst."""
        remaining = float(n)
        while remaining > 0:
            with self._lock:
                now = time.monotonic()
                self._refill(now)
                take = min(self._tokens, remaining)
                self._tokens -= take
                remaining -= take
                if remaining <= 0:
                    return
                wait = min(remaining, self.burst) / self.rate_bytes
            time.sleep(min(wait, 0.05))


class FrameConnection:
    """One TCP connection carrying frames, with shaping and byte accounting.

    ``timeout`` is set on the socket once, here: every read and every send on
    the connection waits at most that long for its peer, the HELLO a worker
    sends first too. Concurrent senders must serialize externally (a worker's
    connections are written by its one sender thread, a server's by the
    reader that holds the rank's send lock); receives are single-threaded per
    connection.
    """

    def __init__(
        self,
        sock: socket.socket,
        timeout: float,
        counters: NetCounters,
        bucket: TokenBucket | None = None,
    ) -> None:
        self.sock = sock
        self.counters = counters
        self.bucket = bucket
        self._decoder = FrameDecoder()
        self._closed = False
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send_frame(self, frame: Frame) -> None:
        """Write ``frame`` whole, in SEND_CHUNK pieces when shaped, each paid for
        before it is written, and in one piece when not.

        A piece is one ``sendmsg`` of views of the header and the payload;
        after a short write ``sendall`` writes the rest, view by view. The
        socket's timeout bounds each of these calls, not the piece: a stall
        raises TimeoutError naming the frame's type and the timeout. The
        payload is written from the frame's own buffer, so that buffer must
        hold still until this returns."""
        parts = encode_frame(frame)
        size = sum(map(len, parts))
        step = size if self.bucket is None else SEND_CHUNK
        try:
            for pos in range(0, size, step):
                n = min(step, size - pos)
                if self.bucket is not None:
                    self.bucket.consume(n)
                views = _span(parts, pos, pos + n)
                sent = self.sock.sendmsg(views)
                for view in _span(views, sent, n):
                    self.sock.sendall(view)
                self.counters.record_bytes(OUT, n)
        except TimeoutError:
            raise TimeoutError(
                f"sending a {frame.msg_type.name} frame timed out after {self.sock.gettimeout()}s"
            ) from None

    def _recv_into(self, view: memoryview, what: str) -> int:
        """Fill ``view`` from the socket; fewer bytes only at EOF. A stall names ``what`` it was reading."""
        got = 0
        while got < len(view):
            try:
                n = self.sock.recv_into(view[got:])
            except TimeoutError:
                raise TimeoutError(f"receiving a {what} timed out after {self.sock.gettimeout()}s") from None
            if n == 0:
                break
            self.counters.record_bytes(IN, n)
            got += n
        return got

    def recv_frame(self, destination: Callable[[Header], np.ndarray | None] | None = None) -> Frame | None:
        """Next frame, or None on clean EOF. Raises TimeoutError on a stall of the connection's timeout.

        The header is validated before any payload byte is read. A payload is
        then read into ``destination(header)``, a writable C-contiguous
        float32 array of exactly the announced length that the frame's
        payload views, or, if there is no destination or it returns None,
        into a new array that the payload views read-only.
        """
        header = bytearray(HEADER_LEN)
        got = self._recv_into(memoryview(header), "frame")
        if got == 0:
            return None
        if got < HEADER_LEN:
            raise ConnectionError(f"EOF with {got} undecoded bytes")
        head = self._decoder.header(header)
        payload = b""
        if size := head.payload_len:
            out = None if destination is None else destination(head)
            # np.empty: the payload is read over it at once, so zero-filling is waste
            payload = memoryview(np.empty(size // 4, dtype="<f4") if out is None else out).cast("B")
            if payload.nbytes != size:
                raise ValueError(f"a destination of {payload.nbytes} bytes for a {size}-byte payload")
            got = self._recv_into(payload, f"{head.msg_type.name} frame")
            if got < size:
                raise ConnectionError(f"EOF with {HEADER_LEN + got} undecoded bytes")
            if out is None:
                payload = payload.toreadonly()
        [frame] = self._decoder.feed(head, payload)
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            shut_and_close(self.sock)


def _span(parts: Sequence[bytes | memoryview], start: int, stop: int) -> list[memoryview]:
    """Views of bytes [start, stop) of ``parts`` read end to end, none of them empty."""
    views, base = [], 0
    for part in parts:
        lo, hi = max(start - base, 0), min(stop - base, len(part))
        if lo < hi:
            views.append(memoryview(part)[lo:hi])
        base += len(part)
    return views


class Crew:
    """The threads of one run, and the one rule by which they stop.

    The first error wins: the first thread to fail, or the first ``stop(exc)``,
    stops the crew, and an error that arrives after the stop is dropped as its
    echo. Stopping closes everything registered with ``closing``, each once; a
    resource registered after the stop is closed on arrival, so nothing opened
    late outlives the stop. ``join`` waits for every thread, those started
    while it waits too, against one deadline.
    """

    def __init__(self) -> None:
        self.threads: list[threading.Thread] = []
        self.error: BaseException | None = None
        self.stopped = False
        self._open: list = []
        self._lock = threading.Lock()

    def spawn(self, name: str, fn, *args) -> None:
        """Run ``fn(*args)`` on a daemon thread; an error in it stops the crew."""
        t = threading.Thread(target=self._run, args=(fn, *args), name=name, daemon=True)
        t.start()
        self.threads.append(t)

    def _run(self, fn, *args) -> None:
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - kept in self.error
            self.stop(exc)

    def closing(self, x):
        """Have ``x.close()`` called on stop, or now if the crew has stopped; returns ``x``."""
        with self._lock:
            if not self.stopped:
                self._open.append(x)
                return x
        x.close()
        return x

    def stop(self, exc: BaseException | None = None) -> None:
        """Stop the crew, keeping ``exc`` if no stop came first, and close what is registered."""
        with self._lock:
            if self.stopped:
                return
            self.stopped = True
            self.error = exc
            resources, self._open = self._open, []
        for x in resources:
            x.close()

    def join(self, timeout: float | None) -> None:
        """Wait for every thread until ``timeout`` seconds from now, or for good if None."""
        deadline = None if timeout is None else time.monotonic() + timeout
        # a list iterator sees the items appended while it runs
        for t in self.threads:
            t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))


def listen(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(64)
    return srv


def shut_and_close(sock: socket.socket) -> None:
    """Close ``sock``; shutting it down first wakes a thread blocked on it, in accept() too."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


def connect_with_retry(host: str, port: int, timeout_s: float, stopped: Callable[[], bool]) -> socket.socket:
    """A connection to ``host:port``, retried for ``timeout_s`` seconds.

    ``stopped()`` is asked before each attempt; once it is true the retries
    end with ConnectionError. An attempt waits at most 5 s, and never past
    the deadline, so an unanswered connect cannot outlast ``timeout_s``.
    """
    deadline = time.monotonic() + timeout_s
    while not stopped():
        left = deadline - time.monotonic()
        try:  # a timeout of 0 would make the connect non-blocking
            return socket.create_connection((host, port), timeout=min(5.0, max(left, 0.001)))
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{host}:{port} unreachable for {timeout_s}s: {exc}") from exc
            time.sleep(0.05)
    raise ConnectionError(f"stopped before connecting to {host}:{port}")


def parse_addr(text: str) -> tuple[str, int]:
    """``host:port`` as (host, port); the port is ASCII decimal digits only."""
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"address {text!r} must be host:port")
    # int() would also take ' 80', '+80', '8_0' and non-ASCII digits
    if not (port.isascii() and port.isdigit()):
        raise ValueError(f"address {text!r}: port {port!r} is not a decimal integer")
    if not 0 <= int(port) <= 65535:
        raise ValueError(f"address {text!r}: port {port} outside 0-65535")
    return host, int(port)
