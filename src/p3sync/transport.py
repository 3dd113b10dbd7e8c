"""Plumbing shared by workers and servers: shaping, counting, framing, threads.

A shaped process owns one outbound TokenBucket and hands it to every
FrameConnection it opens, so all sends drain it together, emulating an
interface-level rate limit; an unshaped process passes None. Shaped sends
are chopped into SEND_CHUNK pieces, each paid for before it is written, so a
large slice cannot blow through the configured rate; an unshaped frame goes
out in one write. A received frame is read into a buffer of its own exact
size, which its decoded payload views.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from collections.abc import Callable

import numpy as np

from .metrics import IN, OUT, NetCounters
from .proto import HEADER_LEN, Frame, FrameDecoder, encode_frame

DEFAULT_BURST_BYTES = 50 * 1024
SEND_CHUNK = 16 * 1024
# seconds a worker or server waits on a peer or a queue before it gives up
DEFAULT_DEADLOCK_TIMEOUT = 60.0


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
            shut_and_close(self.sock)


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
    end with ConnectionError.
    """
    deadline = time.monotonic() + timeout_s
    while not stopped():
        try:
            return socket.create_connection((host, port), timeout=5.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{host}:{port} unreachable for {timeout_s}s: {exc}") from exc
            time.sleep(0.05)
    raise ConnectionError(f"stopped before connecting to {host}:{port}")


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"address {text!r} must be host:port")
    if not 0 <= int(port) <= 65535:
        raise ValueError(f"address {text!r}: port {port} outside 0-65535")
    return host, int(port)
