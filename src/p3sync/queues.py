"""Thread-safe frame queues: priority-ordered (most urgent slice first) or FIFO.

A slice's priority is its key's order, (layer, slice), as ``plan`` defines it.
"""

from __future__ import annotations

import heapq
import threading

from .proto import Frame

# seconds a worker or server waits on a peer or a queue before it gives up
DEFAULT_DEADLOCK_TIMEOUT = 60.0


class DeadlockError(TimeoutError):
    """A blocking wait exceeded its deadline; the protocol has stalled.

    A TimeoutError, so it exits 3 like every other stall (``cli.main``)."""


class FrameQueue:
    """Blocking producer/consumer queue of frames.

    In priority mode the consumer always receives the frame of the smallest
    slice key among those currently queued; in FIFO mode, arrival order.
    Batched puts are atomic: a consumer can never observe a partial batch.
    """

    def __init__(self, priority_mode: bool = True) -> None:
        self.priority_mode = priority_mode
        self._heap: list[tuple[tuple, int, Frame]] = []
        self._seq = 0
        self._closed = False
        self._cond = threading.Condition()

    def _entry(self, frame: Frame) -> tuple[tuple, int, Frame]:
        key = frame.key if self.priority_mode else ()
        entry = (key, self._seq, frame)
        self._seq += 1
        return entry

    def put(self, frame: Frame) -> None:
        self.put_batch([frame])

    def put_batch(self, frames: list[Frame]) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("queue is closed")
            for frame in frames:
                heapq.heappush(self._heap, self._entry(frame))
            self._cond.notify_all()

    def poll(self, timeout: float | None = None) -> Frame | None:
        """Pop the next frame; block while empty. None once closed and drained."""
        with self._cond:
            while not self._heap and not self._closed:
                if not self._cond.wait(timeout):
                    raise DeadlockError(
                        f"queue poll stalled for {timeout}s ({len(self._heap)} queued)"
                    )
            if self._heap:
                return heapq.heappop(self._heap)[2]
            return None

    def take(self) -> Frame | None:
        """Pop the next frame without waiting; None while empty."""
        with self._cond:
            if self._heap:
                return heapq.heappop(self._heap)[2]
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)
