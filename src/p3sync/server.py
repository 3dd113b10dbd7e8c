"""Parameter server engine: aggregate pushed gradients, update, send parameters back.

One server process owns the slices its rank was assigned in the plan and
runs in the plan's mode. ``run()`` accepts the workers itself, and its only
threads are one reader per worker. Its queues are built with it: one outbox
per worker rank.

Frames are handled one at a time, in arrival order, as the simulator's
update stage assumes: a reader that has read a PUSH or PULL handles it
itself under the handler lock, which it waits for, and which it holds for
no I/O. It then serves the outboxes (``_serve``): for each rank, it sends
that rank's outbox for as long as it holds the rank's send lock. No reader
waits for a send lock, and a holder looks at its outbox again after it lets
go, so a queued frame is never left without a reader to send it. So each
rank's frames leave in outbox order. A reader that is handling or sending
reads nothing, so a backlog waits in its socket buffer, where TCP flow
control bounds it, rather than in this process's heap.

The send locks are per rank so that two readers can send to two ranks at
once: a ``sendall`` blocked on one worker's connection leaves the shared
token bucket to the other ranks. One shared downlink sender read p3 at
436-441 samples/s against 452-455 on shaped-vgg (3 pairs, seeds 7202-7204).
The mode picks only the outboxes' order and what an update sends: in p3
mode the most urgent slice leaves first and a completed update is broadcast
to every worker at once; in baseline mode frames leave in the order they
were queued, and workers are notified, then pull.

A PUSH lands where it is summed. Its payload is read from the socket
straight into a new aligned array (``_destination``), which ``on_push``
takes over, and ``aggregate_and_update`` sums every rank's gradients into
the lowest rank's array in place, with no accumulator of its own.

A BCAST's payload views its shard's ``params``, uncopied, from the outbox
until ``send_frame`` has written it. That is safe because a shard is updated
again only after every rank has pushed its next iteration, and a rank pushes
that only after it has received this whole BCAST: each layer's forward pass
waits for all of that layer's parameters. So every byte of a BCAST has left
the buffer before the buffer can change.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .metrics import NetCounters, samples_to_csv, write_text
from .plan import P3_MODE, Slice, SlicePlan, plan_fingerprint, slice_digests_csv
from .proto import MAX_WORKER_RANK, Frame, Header, MsgType, ProtocolError, pack_f32
from .queues import DEFAULT_DEADLOCK_TIMEOUT, FrameQueue
from .transport import Crew, FrameConnection, TokenBucket, listen, shut_and_close


@dataclass
class ShardState:
    """Authoritative state for one slice."""

    sl: Slice
    params: np.ndarray
    num_workers: int
    lr: float
    iteration: int = 0
    pending: dict[int, np.ndarray] = field(default_factory=dict)

    def on_push(self, worker_rank: int, iteration: int, grad: np.ndarray) -> bool:
        """Store one worker's gradient; True when all ranks have pushed.

        The shard takes ownership of ``grad``, a writable float32 array:
        ``aggregate_and_update`` may sum into it, so the caller must neither
        reuse nor read it afterwards."""
        if iteration != self.iteration:
            raise ProtocolError(
                f"key {self.sl.key}: push for iteration {iteration}, shard at {self.iteration}"
            )
        if not 0 <= worker_rank < self.num_workers:
            raise ProtocolError(f"key {self.sl.key}: push from unknown rank {worker_rank}")
        if worker_rank in self.pending:
            raise ProtocolError(
                f"key {self.sl.key}: duplicate push from rank {worker_rank} at iteration {iteration}"
            )
        if len(grad) != len(self.params):
            raise ProtocolError(
                f"key {self.sl.key}: gradient length {len(grad)} != {len(self.params)}"
            )
        self.pending[worker_rank] = grad
        return len(self.pending) == self.num_workers

    def aggregate_and_update(self) -> np.ndarray:
        """Average pending gradients in ascending rank order and apply SGD."""
        if len(self.pending) != self.num_workers:
            raise ProtocolError(
                f"key {self.sl.key}: aggregate with {len(self.pending)}/{self.num_workers} pushes"
            )
        # on_push admitted each of the ranks 0..n-1 once
        acc = self.pending[0]
        # 0 + g, as a zeroed accumulator would start: -0.0 becomes +0.0
        acc += np.float32(0)
        for rank in range(1, self.num_workers):
            acc += self.pending[rank]
        # params -= lr * (acc / n), in place: the same float32 operations and roundings
        acc /= np.float32(self.num_workers)
        acc *= np.float32(self.lr)
        self.params -= acc
        self.pending.clear()
        self.iteration += 1
        return self.params


def bcast_frames(
    sl: Slice, iteration: int, params: np.ndarray, worker_ranks: Iterable[int]
) -> list[Frame]:
    """One BCAST per worker, the slice's header on each, and each payload a view
    of ``params`` (see the module docstring for why it need not be copied)."""
    payload = pack_f32(params)
    return [Frame(MsgType.BCAST, iteration, rank, sl.key, payload) for rank in worker_ranks]


class ServerEngine:
    def __init__(
        self,
        host: str,
        port: int,
        rank: int,
        plan: SlicePlan,
        num_workers: int,
        lr: float,
        throttle_rate: float | None = None,
        deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
    ) -> None:
        # checked before the listener binds, so a refusal leaks no socket
        if num_workers < 1:
            raise ValueError(f"num_workers {num_workers} must be >= 1")
        if num_workers > MAX_WORKER_RANK + 1:
            raise ValueError(f"num_workers {num_workers} must be <= {MAX_WORKER_RANK + 1} (16-bit ranks)")
        if not 0 <= rank < plan.num_servers:
            raise ValueError(f"rank {rank} outside the plan's {plan.num_servers} servers")
        if not (deadlock_timeout > 0 and math.isfinite(deadlock_timeout)):
            raise ValueError(f"deadlock timeout {deadlock_timeout} must be positive and finite")
        if not math.isfinite(lr):
            raise ValueError(f"lr {lr} must be finite")
        self.rank = rank
        self.p3 = plan.mode == P3_MODE
        self.plan_fingerprint = plan_fingerprint(plan)
        self.num_workers = num_workers
        self.deadlock_timeout = deadlock_timeout
        self.shards = {
            s.key: ShardState(s, np.zeros(s.length, dtype=np.float32), num_workers, lr)
            for s in plan.slices
            if s.server == rank
        }
        self.counters = NetCounters()
        self._bucket = TokenBucket(throttle_rate) if throttle_rate else None
        self.crew = Crew()
        self.outboxes = [FrameQueue(priority_mode=self.p3) for _ in range(num_workers)]
        self._handling = threading.Lock()
        self._sending = [threading.Lock() for _ in range(num_workers)]
        # conns[rank] is set by the rank's HELLO, before any frame for it is queued
        self._conns: list[FrameConnection | None] = [None] * num_workers
        self._listener = listen(host, port)
        self.addr = self._listener.getsockname()
        # close() alone would not wake run() out of accept()
        self.crew.closing(SimpleNamespace(close=lambda: shut_and_close(self._listener)))

    # -- thread bodies -------------------------------------------------

    def _register(self, conn: FrameConnection, rank: int, fingerprint: int) -> None:
        if fingerprint != self.plan_fingerprint:
            raise ProtocolError(
                f"HELLO from rank {rank} with plan fingerprint {fingerprint:016x}, "
                f"this server's plan is {self.plan_fingerprint:016x}"
            )
        if not 0 <= rank < self.num_workers:
            raise ProtocolError(f"HELLO from out-of-range rank {rank}")
        with self._handling:
            if self._conns[rank] is not None:
                raise ProtocolError(f"duplicate HELLO from rank {rank}")
            self._conns[rank] = conn

    @staticmethod
    def _serve(queue: FrameQueue, lock: threading.Lock, handle) -> None:
        """Pass ``queue``'s frames to ``handle`` for as long as this thread holds ``lock``.

        The lock is never waited for: a caller that finds it taken leaves the
        queue to its holder, and the holder looks again after it lets go. A
        send that times out is re-raised naming the rank it was for.
        """
        while len(queue) and lock.acquire(blocking=False):
            try:
                while (frame := queue.take()) is not None:
                    try:
                        handle(frame)
                    except TimeoutError as exc:
                        raise TimeoutError(f"rank {frame.worker_rank}: {exc}") from None
            finally:
                lock.release()

    def _reader(self, conn: FrameConnection) -> None:
        """Handle one worker's frames, then serve the outboxes; its HELLO binds the connection to its rank."""
        rank = None
        fin_seen = False
        while True:
            try:
                frame = conn.recv_frame(self._destination)
            except TimeoutError as exc:
                peer = "a worker before its HELLO" if rank is None else f"rank {rank}"
                raise TimeoutError(f"{peer}: {exc}") from None
            if frame is None:
                if not fin_seen and not self.crew.stopped:
                    raise ConnectionError("worker hung up before FIN")
                return
            kind = frame.msg_type
            if rank is None:
                if kind != MsgType.HELLO:
                    raise ProtocolError(f"{kind.name} before HELLO")
                rank = frame.worker_rank
                self._register(conn, rank, frame.iteration)
            elif fin_seen:
                raise ProtocolError(f"{kind.name} from rank {rank} after its FIN")
            elif frame.worker_rank != rank:
                raise ProtocolError(
                    f"{kind.name} under rank {frame.worker_rank} on rank {rank}'s connection"
                )
            elif kind in (MsgType.PUSH, MsgType.PULL):
                with self._handling:
                    self._handle(frame)
                for outbox, sending, peer in zip(self.outboxes, self._sending, self._conns):
                    if peer is not None:
                        self._serve(outbox, sending, peer.send_frame)
            elif kind == MsgType.FIN:
                fin_seen = True
            else:
                raise ProtocolError(f"server got unexpected {kind.name}")

    def _destination(self, head: Header) -> np.ndarray | None:
        """Where a received payload goes: a PUSH of an owned slice with the
        slice's length into a new array for its shard to own; anything else
        into a read-only one (None), for ``_handle`` to refuse."""
        shard = self.shards.get(head.key)
        if head.msg_type != MsgType.PUSH or shard is None or head.payload_len != 4 * shard.sl.length:
            return None
        return np.empty(shard.sl.length, dtype="<f4")

    def _handle(self, frame: Frame) -> None:
        key = frame.key
        shard = self.shards.get(key)
        if shard is None:
            raise ProtocolError(f"rank {self.rank} does not own key {key}")
        if frame.msg_type == MsgType.PUSH:
            if not shard.on_push(frame.worker_rank, frame.iteration, frame.payload_f32()):
                return
            answered = shard.iteration
            params = shard.aggregate_and_update()
            ranks = range(self.num_workers)
            if self.p3:
                frames = bcast_frames(shard.sl, answered, params, ranks)
            else:
                frames = [Frame(MsgType.NOTIFY, answered, rank, key) for rank in ranks]
        else:  # PULL; the readers handle nothing else
            if shard.iteration != frame.iteration + 1:
                raise ProtocolError(
                    f"key {key}: pull for iteration {frame.iteration} but shard at "
                    f"{shard.iteration} (not yet updated)"
                )
            frames = bcast_frames(shard.sl, frame.iteration, shard.params, [frame.worker_rank])
        for f in frames:
            self.outboxes[f.worker_rank].put(f)

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        """Accept, then serve until every worker has sent FIN and hung up; raises the crew's first error."""
        try:
            for i in range(self.num_workers):
                sock, _ = self._listener.accept()
                conn = FrameConnection(sock, self.deadlock_timeout * 2, self.counters, self._bucket)
                self.crew.spawn(f"reader-{i}", self._reader, self.crew.closing(conn))
        except BaseException as exc:
            # a stop wakes accept() with an OSError, dropped as the stop's echo
            self.crew.stop(exc)
        # no deadline: a stalled read or send in a reader times out and stops the crew
        self.crew.join(None)
        self.crew.stop()
        if self.crew.error is not None:
            raise self.crew.error

    def digests_csv(self) -> str:
        return slice_digests_csv((shard.sl, shard.params) for shard in self.shards.values())

    def write_outputs(self, outdir: str | Path) -> None:
        """Write ``net_util_server<rank>.csv`` and ``digest_server<rank>.csv``, a
        digest row per owned slice in the rows workers write too (``plan.slice_digests_csv``)."""
        write_text(Path(outdir, f"digest_server{self.rank}.csv"), self.digests_csv())
        write_text(Path(outdir, f"net_util_server{self.rank}.csv"), samples_to_csv(self.counters.samples()))
