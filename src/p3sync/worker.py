"""Training-loop emulator: fake compute, synthetic gradients, wire synchronization.

The worker sleeps for each layer's declared forward/backward duration,
produces deterministic gradients, and pushes them to the parameter servers.
Outgoing frames are routed by their slice's server to an outbox; one sender
thread per outbox polls it and sends each frame on its server's connection.
In p3 mode every server maps to a single priority outbox, which a layer's
slices enter atomically, so the most urgent slice goes next; in baseline mode
each server has its own FIFO outbox, filled in generation order, and updated
parameters are fetched with notify+pull. On the receive side one thread per
server connection reads each frame, checks it and applies it: a BCAST is
copied into place and a NOTIFY queues its PULL. Priority only orders what is
sent, so received frames are never reordered. Forward progress of each layer
is gated on having received that layer's parameters for the current
iteration, so the next forward pass overlaps with the tail of synchronization
whenever the arrival order allows it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .hashing import digest64, gradient_block
from .metrics import NetCounters, iterations_to_csv, samples_to_csv, write_text
from .model import ModelProfile
from .plan import P3_MODE, SliceKey, SlicePlan, plan_fingerprint
from .proto import Frame, MsgType, ProtocolError, pack_f32, slice_frame
from .queues import DeadlockError, FrameQueue
from .transport import FrameConnection, TokenBucket, connect_with_retry

DEFAULT_DEADLOCK_TIMEOUT = 60.0


@dataclass
class WorkerConfig:
    rank: int
    servers: list[tuple[str, int]]
    iterations: int
    throttle_rate: float | None = None
    deadlock_timeout: float = DEFAULT_DEADLOCK_TIMEOUT


@dataclass
class IterationRecord:
    start: float
    fwd_spans: list[tuple[float, float]] = field(default_factory=list)
    bwd_spans: list[tuple[float, float]] = field(default_factory=list)


class TrainingWorker:
    def __init__(self, config: WorkerConfig, profile: ModelProfile, plan: SlicePlan) -> None:
        if len(config.servers) != plan.num_servers:
            raise ValueError(
                f"{len(config.servers)} server addresses given, the plan has {plan.num_servers} servers"
            )
        self.cfg = config
        self.profile = profile
        self.plan = plan
        self.params = [np.zeros(l.param_count, dtype=np.float32) for l in profile.layers]
        self.num_layers = profile.num_layers
        # flags[l] == k: layer l holds the parameters needed by forward pass k
        self.flags = [0] * self.num_layers
        self._flag_cond = threading.Condition()
        self.slice_info = {s.key: s for s in plan.slices}
        self.slices_by_layer = {
            l.index: plan.slices_of_layer(l.index) for l in profile.layers
        }
        self._recv_seen: dict[int, set[SliceKey]] = {l: set() for l in range(self.num_layers)}
        # when the last layer of the latest iteration finished syncing
        self.last_sync_end: float | None = None
        self.records: list[IterationRecord] = []

        self.counters = NetCounters()
        self._bucket = TokenBucket(config.throttle_rate) if config.throttle_rate else None
        # server rank -> outbox; one sender thread drains each distinct outbox
        servers = range(len(config.servers))
        if plan.mode == P3_MODE:
            self.outboxes = dict.fromkeys(servers, FrameQueue(priority_mode=True))
        else:
            self.outboxes = {s: FrameQueue(priority_mode=False) for s in servers}
        self._conns: dict[int, FrameConnection] = {}
        self._threads: list[threading.Thread] = []
        self._errors: list[BaseException] = []
        self._stopping = threading.Event()
        self._finished = threading.Event()
        self._sleep_debt = 0.0

    # -- plumbing --------------------------------------------------------

    def _guard(self, fn, *args):
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - surfaced from run()
            self._abort(exc)

    def _abort(self, exc: BaseException) -> None:
        if self._stopping.is_set():
            return
        self._errors.append(exc)
        self._stopping.set()
        for q in self._all_outboxes():
            q.close()
        for conn in self._conns.values():
            conn.close()
        with self._flag_cond:
            self._flag_cond.notify_all()

    def _all_outboxes(self) -> list[FrameQueue]:
        return list(dict.fromkeys(self.outboxes.values()))

    def _spawn(self, name: str, fn, *args) -> None:
        t = threading.Thread(target=self._guard, args=(fn, *args), name=name, daemon=True)
        t.start()
        self._threads.append(t)

    def _connect_all(self) -> None:
        # HELLO's iteration field carries the plan fingerprint, for the server to
        # check: equal plans let each end look a slice up by its key alone
        hello = Frame(
            msg_type=MsgType.HELLO, iteration=plan_fingerprint(self.plan), worker_rank=self.cfg.rank
        )
        for srank, (host, port) in enumerate(self.cfg.servers):
            sock = connect_with_retry(host, port, self.cfg.deadlock_timeout)
            conn = FrameConnection(sock, counters=self.counters, bucket=self._bucket)
            conn.send_frame(hello)
            self._conns[srank] = conn
            self._spawn(f"recv-{srank}", self._receiver, conn)
        for i, outbox in enumerate(self._all_outboxes()):
            self._spawn(f"sender-{i}", outbox.drain, self._send, self.cfg.deadlock_timeout * 2)

    # -- send path ---------------------------------------------------------

    def enqueue_layer(self, layer_index: int, iteration: int) -> None:
        # a push is queued as its bare header; the payload is synthesized at
        # send time, so queued slices stay cheap and a preempting slice never
        # waits behind another slice's serialization
        batches: dict[FrameQueue, list[Frame]] = {}
        for sl in self.slices_by_layer[layer_index]:
            frame = slice_frame(MsgType.PUSH, sl, iteration, self.cfg.rank)
            batches.setdefault(self.outboxes[sl.server], []).append(frame)
        for outbox, frames in batches.items():
            outbox.put_batch(frames)

    def _send(self, frame: Frame) -> None:
        sl = self.slice_info[SliceKey(frame.layer_index, frame.slice_index)]
        if frame.msg_type == MsgType.PUSH:
            grads = gradient_block(
                self.profile.seed, frame.iteration, frame.layer_index, sl.offset, sl.length
            )
            frame = replace(frame, payload=pack_f32(grads))
        self._conns[sl.server].send_frame(frame)

    # -- receive path --------------------------------------------------------

    def _receiver(self, conn: FrameConnection) -> None:
        while True:
            try:
                frame = conn.recv_frame(timeout=self.cfg.deadlock_timeout * 2)
            except OSError:
                if self._finished.is_set() or self._stopping.is_set():
                    return
                raise
            if frame is None:
                if not self._finished.is_set() and not self._stopping.is_set():
                    raise ConnectionError("server hung up before the run finished")
                return
            self._apply(frame)

    def _apply(self, frame: Frame) -> None:
        if frame.msg_type == MsgType.BCAST:
            self.on_bcast(frame)
        elif frame.msg_type == MsgType.NOTIFY:
            self._on_notify(frame)
        else:
            raise ProtocolError(f"worker got unexpected {frame.msg_type.name}")

    def _on_notify(self, frame: Frame) -> None:
        # a NOTIFY carries this worker's rank and the slice header: the PULL
        # answering it is the same frame under another type
        server = self.slice_info[SliceKey(frame.layer_index, frame.slice_index)].server
        self.outboxes[server].put(replace(frame, msg_type=MsgType.PULL))

    def on_bcast(self, frame: Frame) -> None:
        key = SliceKey(frame.layer_index, frame.slice_index)
        sl = self.slice_info.get(key)
        if sl is None:
            raise ProtocolError(f"BCAST for unknown key {key}")
        layer = key.layer_index
        seen = self._recv_seen[layer]
        # the receivers of several servers apply at once
        with self._flag_cond:
            if frame.iteration != self.flags[layer]:
                raise ProtocolError(
                    f"layer {layer}: BCAST for iteration {frame.iteration}, "
                    f"worker holds parameters of iteration {self.flags[layer]}"
                )
            if key in seen:
                raise ProtocolError(f"duplicate BCAST slice {key} at iteration {frame.iteration}")
            values = frame.payload_f32()
            if len(values) != sl.length:
                raise ProtocolError(
                    f"slice {key}: payload holds {len(values)} values, expected {sl.length}"
                )
            self.params[layer][sl.offset : sl.offset + sl.length] = values
            seen.add(key)
            # checked, distinct, full-length keys: their count tells when the layer is complete
            if len(seen) == len(self.slices_by_layer[layer]):
                seen.clear()
                self.flags[layer] = frame.iteration + 1
                if min(self.flags) == frame.iteration + 1:
                    self.last_sync_end = time.monotonic()
                self._flag_cond.notify_all()

    # -- compute loop ------------------------------------------------------

    def _check_errors(self) -> None:
        if self._errors:
            raise self._errors[0]

    def _wait_layer(self, layer: int, iteration: int) -> None:
        deadline = time.monotonic() + self.cfg.deadlock_timeout
        with self._flag_cond:
            while self.flags[layer] < iteration and not self._errors:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(self._deadlock_dump(iteration))
                self._flag_cond.wait(min(remaining, 1.0))
        self._check_errors()

    def _wait_all(self, iteration: int) -> None:
        for layer in range(self.num_layers):
            self._wait_layer(layer, iteration)

    def _deadlock_dump(self, iteration: int) -> str:
        unmet = [l for l in range(self.num_layers) if self.flags[l] < iteration]
        return (
            f"worker {self.cfg.rank} stalled waiting for iteration-{iteration} parameters; "
            f"unmet layers {unmet}; flags={self.flags}; "
            f"outbox={[len(q) for q in self._all_outboxes()]}"
        )

    def _emulate(self, duration_us: int) -> None:
        # sleep() overshoot is carried as debt so emulated compute tracks the
        # declared durations; otherwise workers drift apart by tens of ms per
        # iteration and stall each other at every aggregation rendezvous
        if duration_us <= 0:
            return
        target = duration_us / 1e6
        t0 = time.perf_counter()
        request = target - self._sleep_debt
        if request > 0:
            time.sleep(request)
        self._sleep_debt += (time.perf_counter() - t0) - target

    def run_iteration(self, iteration: int) -> IterationRecord:
        rec = IterationRecord(start=time.monotonic())
        for layer in self.profile.layers:
            self._wait_layer(layer.index, iteration)
            t0 = time.monotonic()
            self._emulate(layer.fwd_time)
            rec.fwd_spans.append((t0, time.monotonic()))
        for layer in reversed(self.profile.layers):
            t0 = time.monotonic()
            self._emulate(layer.bwd_time)
            rec.bwd_spans.append((t0, time.monotonic()))
            self.enqueue_layer(layer.index, iteration)
        self.records.append(rec)
        return rec

    def run(self) -> None:
        try:
            self._connect_all()
            for k in range(self.cfg.iterations):
                self.run_iteration(k)
                self._check_errors()
            self._wait_all(self.cfg.iterations)
            self._finished.set()
            self._shutdown_clean()
        except BaseException as exc:
            self._abort(exc)
            # the first error is the cause; a later one (a closed outbox) is its echo
            raise self._errors[0] from None
        self._check_errors()

    def _shutdown_clean(self) -> None:
        for q in self._all_outboxes():
            q.close()
        for t in self._threads:
            if t.name.startswith("sender"):
                t.join(timeout=self.cfg.deadlock_timeout)
        for conn in self._conns.values():
            conn.send_frame(Frame(msg_type=MsgType.FIN, worker_rank=self.cfg.rank))
        for conn in self._conns.values():
            conn.close()
        for t in self._threads:
            if t.name.startswith("recv"):
                t.join(timeout=self.cfg.deadlock_timeout)

    # -- outputs -----------------------------------------------------------

    def params_digest(self) -> int:
        return digest64(self.params_bytes())

    def params_bytes(self) -> bytes:
        return b"".join(pack_f32(vec) for vec in self.params)

    def write_outputs(self, outdir: str | Path, digest: int) -> None:
        """Write this worker's result files; ``digest`` is ``params_digest()``.

        Rank 0 also dumps its parameters, for the bench's server digest check.
        """
        outdir = Path(outdir)
        rank = self.cfg.rank
        write_text(outdir / f"net_util_worker{rank}.csv", samples_to_csv(self.counters.samples()))
        # an iteration's wall is the period between forward-pass starts; the
        # last iteration ends when its synchronization drains
        starts = [r.start for r in self.records]
        ends = starts[1:] + [self.last_sync_end]
        write_text(
            outdir / f"throughput_worker{rank}.csv",
            iterations_to_csv(
                [(e - s) * 1000.0 for s, e in zip(starts, ends)],
                [(s - self.counters.t0) * 1000.0 for s in starts],
            ),
        )
        write_text(outdir / f"digest_worker{rank}.txt", f"{digest:016x}\n")
        if rank == 0:
            (outdir / f"params_worker{rank}.bin").write_bytes(self.params_bytes())
