"""Socket plumbing shared by workers and servers: shaping, counting, framing.

A shaped process owns one outbound TokenBucket and hands it to every
FrameConnection it opens, so all sends drain it together, emulating an
interface-level rate limit; an unshaped process passes None. Sends are
chopped into SEND_CHUNK pieces, each paid for before it is written, so a
large slice cannot blow through the configured rate.
"""

from __future__ import annotations

import socket
import threading
import time

from .metrics import IN, OUT, NetCounters
from .proto import Frame, FrameDecoder, encode_frame

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
        self._ready: list[Frame] = []
        self._closed = False
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame)
        view = memoryview(data)
        while view:
            chunk = view[:SEND_CHUNK]
            if self.bucket is not None:
                self.bucket.consume(len(chunk))
            self.sock.sendall(chunk)
            if self.counters:
                self.counters.record_bytes(OUT, len(chunk))
            view = view[len(chunk):]

    def recv_frame(self, timeout: float | None = None) -> Frame | None:
        """Next frame, or None on clean EOF. Raises socket.timeout on stall."""
        self.sock.settimeout(timeout)
        while True:
            if self._ready:
                return self._ready.pop(0)
            data = self.sock.recv(65536)
            if not data:
                if self._decoder.pending_bytes:
                    raise ConnectionError(
                        f"EOF with {self._decoder.pending_bytes} undecoded bytes"
                    )
                return None
            if self.counters:
                self.counters.record_bytes(IN, len(data))
            self._ready.extend(self._decoder.feed(data))

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
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"address {text!r} must be host:port")
    return host, int(port)
