"""Socket plumbing shared by workers and servers: shaping, counting, framing.

A shaped process owns one outbound TokenBucket and hands it to every
FrameConnection it opens, so all sends drain it together, emulating an
interface-level rate limit; an unshaped process passes None. Shaped sends
are chopped into SEND_CHUNK pieces, each paid for before it is written, so a
large slice cannot blow through the configured rate; an unshaped frame goes
out in one write. A received frame is read into a buffer of its own exact
size, which its decoded payload views.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

from .metrics import IN, OUT, NetCounters
from .proto import HEADER_LEN, Frame, FrameDecoder, encode_frame

DEFAULT_BURST_BYTES = 50 * 1024
SEND_CHUNK = 16 * 1024


class TokenBucket:
    """Blocking token bucket: rate in bits/second, burst in bytes.

    Tokens accrue from measured elapsed time, so sleep overshoot never
    accumulates into a long-run rate error.
    """

    def __init__(self, rate_bps: float, burst_bytes: int = DEFAULT_BURST_BYTES) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive; use None for no shaping")
        self.rate_bytes = rate_bps / 8.0
        self.burst = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate_bytes)
        self._last = now

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

    Concurrent senders must serialize externally (each connection is written
    by exactly one thread in this codebase); receives are single-threaded per
    connection as well.
    """

    def __init__(
        self,
        sock: socket.socket,
        counters: NetCounters | None = None,
        bucket: TokenBucket | None = None,
    ) -> None:
        self.sock = sock
        self.counters = counters
        self.bucket = bucket
        self._decoder = FrameDecoder()
        self._closed = False
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _count(self, direction: str, n: int) -> None:
        if self.counters:
            self.counters.record_bytes(direction, n)

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame)
        if self.bucket is None:
            self.sock.sendall(data)
            self._count(OUT, len(data))
            return
        view = memoryview(data)
        for pos in range(0, len(view), SEND_CHUNK):
            chunk = view[pos : pos + SEND_CHUNK]
            self.bucket.consume(len(chunk))
            self.sock.sendall(chunk)
            self._count(OUT, len(chunk))

    def _recv_into(self, view: memoryview) -> int:
        """Fill ``view`` from the socket; fewer bytes only at EOF."""
        got = 0
        while got < len(view):
            n = self.sock.recv_into(view[got:])
            if n == 0:
                break
            self._count(IN, n)
            got += n
        return got

    def recv_frame(self, timeout: float | None = None) -> Frame | None:
        """Next frame, or None on clean EOF. Raises socket.timeout on stall.

        The header is validated before any payload byte is read; the frame
        is then read into a fresh buffer of its exact size, which the decoded
        payload views.
        """
        self.sock.settimeout(timeout)
        header = bytearray(HEADER_LEN)
        got = self._recv_into(memoryview(header))
        if got == 0:
            return None
        if got < HEADER_LEN:
            raise ConnectionError(f"EOF with {got} undecoded bytes")
        buf = header
        size = self._decoder.header(header)
        if size:
            # np.empty: the payload is read over it at once, so zero-filling is waste
            buf = memoryview(np.empty(HEADER_LEN + size, dtype=np.uint8))
            buf[:HEADER_LEN] = header
            got = self._recv_into(buf[HEADER_LEN:])
            if got < size:
                raise ConnectionError(f"EOF with {HEADER_LEN + got} undecoded bytes")
        [frame] = self._decoder.feed(buf)
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.sock.close()


def listen(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(64)
    return srv


def connect_with_retry(host: str, port: int, timeout_s: float = 20.0) -> socket.socket:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return socket.create_connection((host, port), timeout=5.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{host}:{port} unreachable for {timeout_s}s: {exc}") from exc
            time.sleep(0.05)


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"address {text!r} must be host:port")
    return host, int(port)
