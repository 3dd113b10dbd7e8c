"""Parameter server engine: aggregate pushed gradients, update, send parameters back.

One server process owns the slice keys its rank was assigned in the plan and
runs in the plan's mode. In p3 mode incoming pushes drain through a priority
queue and completed updates are broadcast to every worker immediately; in
baseline mode pushes are handled in arrival order and workers are notified,
then pull.
"""

from __future__ import annotations

import io
import threading
from dataclasses import dataclass, field

import numpy as np

from .hashing import digest64
from .metrics import NetCounters
from .plan import P3_MODE, SliceKey, Slice, SlicePlan
from .proto import Frame, MsgType, ProtocolError, pack_f32, slice_frame
from .queues import FrameQueue
from .transport import FrameConnection, TokenBucket, listen


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
        grad = acc / np.float32(self.num_workers)
        self.params -= np.float32(self.lr) * grad
        self.pending.clear()
        self.iteration += 1
        return self.params


def bcast_frames(
    sl: Slice, iteration: int, params: np.ndarray, worker_ranks: list[int]
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
        poll_timeout: float = 60.0,
    ) -> None:
        self.rank = rank
        self.p3 = plan.mode == P3_MODE
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
        self.inbox = FrameQueue(priority_mode=self.p3)
        self._conns: dict[int, FrameConnection] = {}
        self._outboxes: dict[int, FrameQueue] = {}
        self._threads: list[threading.Thread] = []
        self._fins = 0
        self._lock = threading.Lock()
        self._errors: list[BaseException] = []
        self._stopping = threading.Event()
        self._listener = listen(host, port)
        self.addr = self._listener.getsockname()

    # -- thread bodies -------------------------------------------------

    def _guard(self, fn, *args):
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - recorded and re-raised in run()
            self._abort(exc)

    def _abort(self, exc: BaseException) -> None:
        if self._stopping.is_set():
            return
        self._errors.append(exc)
        self._stopping.set()
        self.inbox.close()
        with self._lock:
            outboxes = list(self._outboxes.values())
            conns = list(self._conns.values())
        for ob in outboxes:
            ob.close()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            conn.close()

    def _spawn(self, name, fn, *args):
        t = threading.Thread(target=self._guard, args=(fn, *args), name=name, daemon=True)
        t.start()
        self._threads.append(t)

    def _accept_loop(self) -> None:
        accepted = 0
        self._listener.settimeout(1.0)
        while accepted < self.num_workers and not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            conn = FrameConnection(sock, counters=self.counters, bucket=self._bucket)
            self._spawn(f"reader-{accepted}", self._reader, conn)
            accepted += 1

    def _register(self, conn: FrameConnection, rank: int) -> None:
        with self._lock:
            if not 0 <= rank < self.num_workers:
                raise ProtocolError(f"HELLO from out-of-range rank {rank}")
            if rank in self._conns:
                raise ProtocolError(f"duplicate HELLO from rank {rank}")
            self._conns[rank] = conn
            outbox = FrameQueue(priority_mode=self.p3)
            self._outboxes[rank] = outbox
            self._spawn(f"sender-{rank}", outbox.drain, conn.send_frame, self.poll_timeout * 2)

    def _reader(self, conn: FrameConnection) -> None:
        fin_seen = False
        while True:
            frame = conn.recv_frame(timeout=self.poll_timeout * 2)
            if frame is None:
                if not fin_seen and not self._stopping.is_set():
                    raise ConnectionError("worker hung up before FIN")
                return
            if frame.msg_type == MsgType.HELLO:
                self._register(conn, frame.worker_rank)
            elif frame.msg_type in (MsgType.PUSH, MsgType.PULL):
                self.inbox.put(frame)
            elif frame.msg_type == MsgType.FIN:
                fin_seen = True
                with self._lock:
                    self._fins += 1
                    if self._fins == self.num_workers:
                        self.inbox.close()
            else:
                raise ProtocolError(f"server got unexpected {frame.msg_type.name}")

    def _worker_ranks(self) -> list[int]:
        with self._lock:
            return sorted(self._outboxes)

    def _consumer(self) -> None:
        self.inbox.drain(self._handle, self.poll_timeout)
        for outbox in self._outboxes.values():
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
            if self.p3:
                frames = bcast_frames(sl, answered, params, self._worker_ranks())
            else:
                frames = [
                    slice_frame(MsgType.NOTIFY, sl, answered, rank) for rank in self._worker_ranks()
                ]
        else:  # PULL; the readers queue nothing else
            if shard.iteration != frame.iteration + 1:
                raise ProtocolError(
                    f"key {key}: pull for iteration {frame.iteration} but shard at "
                    f"{shard.iteration} (not yet updated)"
                )
            frames = bcast_frames(sl, frame.iteration, shard.params, [frame.worker_rank])
        for f in frames:
            self._outboxes[f.worker_rank].put(f)

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        """Serve until every worker has sent FIN; raises the first internal error."""
        self._spawn("acceptor", self._accept_loop)
        consumer = threading.Thread(
            target=self._guard, args=(self._consumer,), name="consumer", daemon=True
        )
        consumer.start()
        consumer.join()
        for t in self._threads:
            t.join(timeout=self.poll_timeout)
        self.close()
        if self._errors:
            raise self._errors[0]

    def close(self) -> None:
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in self._conns.values():
            conn.close()

    def digests_csv(self) -> str:
        buf = io.StringIO()
        buf.write("layer,slice,offset,len,digest\n")
        for key in sorted(self.shards):
            sl = self.owned[key]
            digest = digest64(pack_f32(self.shards[key].params))
            buf.write(
                f"{key.layer_index},{key.slice_index},{sl.offset},{sl.length},{digest:016x}\n"
            )
        return buf.getvalue()
