"""Parameter server engine: aggregate pushed gradients, update, send parameters back.

One server process owns the slice keys its rank was assigned in the plan and
runs in the plan's mode. Its queues are built with it: one inbox, drained by
one consumer thread, and one outbox per worker rank, drained by a sender that
the rank's HELLO starts. Each rank keeps its own sender so that a ``sendall``
blocked on one worker's connection leaves the shared token bucket to the
other ranks' senders: one shared downlink sender read p3 at 436-441 samples/s
against 452-455 on shaped-vgg (3 pairs, seeds 7202-7204). ``run()`` accepts
the workers itself, one reader each. The mode picks only the queues' order:
in p3 mode incoming pushes drain through a priority queue and completed
updates are broadcast to every worker immediately; in baseline mode pushes
are handled in arrival order and workers are notified, then pull.
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
from .plan import P3_MODE, SliceKey, Slice, SlicePlan, plan_fingerprint, slice_digests_csv
from .proto import Frame, MsgType, ProtocolError, pack_f32, slice_frame
from .queues import FrameQueue
from .transport import DEFAULT_DEADLOCK_TIMEOUT, Crew, FrameConnection, TokenBucket, listen, shut_and_close


@dataclass
class ShardState:
    """Authoritative state for one slice key."""

    key: SliceKey
    params: np.ndarray
    num_workers: int
    lr: float
    iteration: int = 0
    pending: dict[int, np.ndarray] = field(default_factory=dict)

    def on_push(self, worker_rank: int, iteration: int, grad: np.ndarray) -> bool:
        """Store one worker's gradient; True when all ranks have pushed."""
        if iteration != self.iteration:
            raise ProtocolError(
                f"key {self.key}: push for iteration {iteration}, shard at {self.iteration}"
            )
        if not 0 <= worker_rank < self.num_workers:
            raise ProtocolError(f"key {self.key}: push from unknown rank {worker_rank}")
        if worker_rank in self.pending:
            raise ProtocolError(
                f"key {self.key}: duplicate push from rank {worker_rank} at iteration {iteration}"
            )
        if len(grad) != len(self.params):
            raise ProtocolError(
                f"key {self.key}: gradient length {len(grad)} != {len(self.params)}"
            )
        self.pending[worker_rank] = grad
        return len(self.pending) == self.num_workers

    def aggregate_and_update(self) -> np.ndarray:
        """Average pending gradients in ascending rank order and apply SGD."""
        if len(self.pending) != self.num_workers:
            raise ProtocolError(
                f"key {self.key}: aggregate with {len(self.pending)}/{self.num_workers} pushes"
            )
        acc = np.zeros(len(self.params), dtype=np.float32)
        for rank in sorted(self.pending):
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
    """One BCAST per worker, identical payloads, the slice's header on each."""
    payload = pack_f32(params)
    return [slice_frame(MsgType.BCAST, sl, iteration, rank, payload) for rank in worker_ranks]


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
        poll_timeout: float = DEFAULT_DEADLOCK_TIMEOUT,
    ) -> None:
        # checked before the listener binds, so a refusal leaks no socket
        if num_workers < 1:
            raise ValueError(f"num_workers {num_workers} must be >= 1")
        if not 0 <= rank < plan.num_servers:
            raise ValueError(f"rank {rank} outside the plan's {plan.num_servers} servers")
        if not (poll_timeout > 0 and math.isfinite(poll_timeout)):
            raise ValueError(f"deadlock timeout {poll_timeout} must be positive and finite")
        if not math.isfinite(lr):
            raise ValueError(f"lr {lr} must be finite")
        self.rank = rank
        self.p3 = plan.mode == P3_MODE
        self.plan_fingerprint = plan_fingerprint(plan)
        self.num_workers = num_workers
        self.poll_timeout = poll_timeout
        self.owned: dict[SliceKey, Slice] = {
            s.key: s for s in plan.slices if s.server == rank
        }
        self.shards = {
            key: ShardState(key, np.zeros(s.length, dtype=np.float32), num_workers, lr)
            for key, s in self.owned.items()
        }
        self.counters = NetCounters()
        self._bucket = TokenBucket(throttle_rate) if throttle_rate else None
        self.crew = Crew()
        self.inbox = self.crew.closing(FrameQueue(priority_mode=self.p3))
        self.outboxes = [self.crew.closing(FrameQueue(priority_mode=self.p3)) for _ in range(num_workers)]
        self._greeted: set[int] = set()
        self._fins = 0
        self._lock = threading.Lock()
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
        with self._lock:
            if rank in self._greeted:
                raise ProtocolError(f"duplicate HELLO from rank {rank}")
            self._greeted.add(rank)
        outbox = self.outboxes[rank]
        self.crew.spawn(f"sender-{rank}", outbox.drain, conn.send_frame, self.poll_timeout * 2)

    def _reader(self, conn: FrameConnection) -> None:
        """Queue one worker's frames; its HELLO binds the connection to the rank it names."""
        rank = None
        fin_seen = False
        while True:
            frame = conn.recv_frame(timeout=self.poll_timeout * 2)
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
                self.inbox.put(frame)
            elif kind == MsgType.FIN:
                fin_seen = True
                with self._lock:
                    self._fins += 1
                    if self._fins == self.num_workers:
                        self.inbox.close()
            else:
                raise ProtocolError(f"server got unexpected {kind.name}")

    def _consumer(self) -> None:
        self.inbox.drain(self._handle, self.poll_timeout)
        for outbox in self.outboxes:
            outbox.close()

    def _handle(self, frame: Frame) -> None:
        key = SliceKey(frame.layer_index, frame.slice_index)
        sl = self.owned.get(key)
        if sl is None:
            raise ProtocolError(f"rank {self.rank} does not own key {key}")
        shard = self.shards[key]
        if frame.msg_type == MsgType.PUSH:
            if not shard.on_push(frame.worker_rank, frame.iteration, frame.payload_f32()):
                return
            answered = shard.iteration
            params = shard.aggregate_and_update()
            # every rank has pushed this slice, and a rank's HELLO started its
            # sender before any of its pushes was queued: each outbox is drained
            ranks = range(self.num_workers)
            if self.p3:
                frames = bcast_frames(sl, answered, params, ranks)
            else:
                frames = [slice_frame(MsgType.NOTIFY, sl, answered, rank) for rank in ranks]
        else:  # PULL; the readers queue nothing else
            if shard.iteration != frame.iteration + 1:
                raise ProtocolError(
                    f"key {key}: pull for iteration {frame.iteration} but shard at "
                    f"{shard.iteration} (not yet updated)"
                )
            frames = bcast_frames(sl, frame.iteration, shard.params, [frame.worker_rank])
        for f in frames:
            self.outboxes[f.worker_rank].put(f)

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        """Accept, then serve until every worker has sent FIN and hung up; raises the crew's first error."""
        self.crew.spawn("consumer", self._consumer)
        try:
            for i in range(self.num_workers):
                sock, _ = self._listener.accept()
                conn = FrameConnection(sock, counters=self.counters, bucket=self._bucket)
                self.crew.spawn(f"reader-{i}", self._reader, self.crew.closing(conn))
        except BaseException as exc:
            # a stop wakes accept() with an OSError, dropped as the stop's echo
            self.crew.stop(exc)
        # no deadline: a stalled wait in any of these threads times out and stops the crew
        self.crew.join(None)
        self.crew.stop()
        if self.crew.error is not None:
            raise self.crew.error

    def digests_csv(self) -> str:
        return slice_digests_csv((self.owned[k], shard.params) for k, shard in self.shards.items())

    def write_outputs(self, outdir: str | Path) -> None:
        """Write ``net_util_server<rank>.csv`` and ``digest_server<rank>.csv``, a
        digest row per owned slice in the rows workers write too (``plan.slice_digests_csv``)."""
        write_text(Path(outdir, f"digest_server{self.rank}.csv"), self.digests_csv())
        write_text(Path(outdir, f"net_util_server{self.rank}.csv"), samples_to_csv(self.counters.samples()))
