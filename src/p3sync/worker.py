"""Training-loop emulator: fake compute, synthetic gradients, wire synchronization.

The worker sleeps for each layer's declared forward/backward duration,
produces deterministic gradients, and pushes them to the parameter servers.
Its frames leave through one outbox and one sender thread, as over one
serial uplink: the sender sends each frame on its slice's server connection
and, once the run is done, ends every connection with FIN. The sender
synthesizes each push's gradients when it sends the push, into one buffer of
its own sized to the plan's longest slice, and frames them without packing
them into bytes first.
The mode picks only the outbox's order. In p3 mode it is a priority queue,
which a layer's slices enter atomically, so the most urgent slice goes next;
in baseline mode it is FIFO, so frames go in generation order across all
servers, and updated parameters are fetched with notify+pull. On the receive
side one thread per server connection reads each frame, checks it and
applies it: a BCAST is copied into place and a NOTIFY queues its PULL.
Priority only orders what is sent, so received frames are never reordered.
Forward progress of each layer is gated on having received that layer's
parameters for the current iteration, so the next forward pass overlaps with
the tail of synchronization whenever the arrival order allows it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .hashing import digest64, gradient_block
from .metrics import NetCounters, iterations_to_csv, samples_to_csv, write_text
from .model import ModelProfile
from .plan import P3_MODE, SliceKey, SlicePlan, plan_fingerprint, slice_digests_csv
from .proto import MAX_WORKER_RANK, Frame, MsgType, ProtocolError, pack_f32, slice_frame
from .queues import DeadlockError, FrameQueue
from .transport import DEFAULT_DEADLOCK_TIMEOUT, Crew, FrameConnection, TokenBucket, connect_with_retry


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
        # checked before anything connects, so a refusal reaches no server
        if not 0 <= config.rank <= MAX_WORKER_RANK:
            raise ValueError(f"rank {config.rank} outside the frame header's 0-{MAX_WORKER_RANK}")
        if not (config.deadlock_timeout > 0 and math.isfinite(config.deadlock_timeout)):
            raise ValueError(f"deadlock timeout {config.deadlock_timeout} must be positive and finite")
        if len(config.servers) != plan.num_servers:
            raise ValueError(
                f"{len(config.servers)} server addresses given, the plan has {plan.num_servers} servers"
            )
        if any(port == 0 for _, port in config.servers):
            raise ValueError(f"server addresses {config.servers}: no server listens on port 0")
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
        self.crew = Crew()
        # the one uplink: frames to every server, drained by one sender
        self.outbox = self.crew.closing(FrameQueue(priority_mode=plan.mode == P3_MODE))
        # server rank -> its connection
        self._conns: list[FrameConnection] = []
        # a stop wakes the compute loop out of _wait_layer
        self.crew.closing(SimpleNamespace(close=self._wake))
        self._finished = threading.Event()
        self._sleep_debt = 0.0

    # -- plumbing --------------------------------------------------------

    def _wake(self) -> None:
        with self._flag_cond:
            self._flag_cond.notify_all()

    def _connect_all(self) -> None:
        # HELLO's iteration field carries the plan fingerprint, for the server to
        # check: equal plans let each end look a slice up by its key alone
        hello = Frame(
            msg_type=MsgType.HELLO, iteration=plan_fingerprint(self.plan), worker_rank=self.cfg.rank
        )
        for srank, (host, port) in enumerate(self.cfg.servers):
            sock = connect_with_retry(host, port, self.cfg.deadlock_timeout, lambda: self.crew.stopped)
            conn = FrameConnection(sock, counters=self.counters, bucket=self._bucket)
            self._conns.append(self.crew.closing(conn))
            conn.send_frame(hello)
            self.crew.spawn(f"recv-{srank}", self._receiver, conn)
        self.crew.spawn("sender-0", self._sender)

    # -- send path ---------------------------------------------------------

    def enqueue_layer(self, layer_index: int, iteration: int) -> None:
        # a push is queued as its bare header; the payload is synthesized at
        # send time, into the sender's one reused buffer, so queued slices stay
        # cheap and a preempting slice never waits behind another slice's serialization
        slices = self.slices_by_layer[layer_index]
        self.outbox.put_batch([slice_frame(MsgType.PUSH, sl, iteration, self.cfg.rank) for sl in slices])

    def _sender(self) -> None:
        """Send the outbox until it closes; at a clean finish, end every connection with FIN."""
        grads = np.empty(max(s.length for s in self.plan.slices), dtype="<f4")
        self.outbox.drain(lambda frame: self._send(frame, grads), self.cfg.deadlock_timeout * 2)
        if self._finished.is_set():
            for conn in self._conns:
                conn.send_frame(Frame(msg_type=MsgType.FIN, worker_rank=self.cfg.rank))
                conn.close()

    def _send(self, frame: Frame, buf: np.ndarray) -> None:
        sl = self.slice_info[SliceKey(frame.layer_index, frame.slice_index)]
        if frame.msg_type == MsgType.PUSH:
            grads = gradient_block(
                self.profile.seed, frame.iteration, frame.layer_index, sl.offset, sl.length, out=buf
            )
            # the payload views ``buf`` uncopied: send_frame encodes the frame into
            # wire bytes of its own before it returns, so the next push may overwrite it
            frame = replace(frame, payload=memoryview(grads).cast("B"))
        self._conns[sl.server].send_frame(frame)

    # -- receive path --------------------------------------------------------

    def _receiver(self, conn: FrameConnection) -> None:
        while True:
            try:
                frame = conn.recv_frame(timeout=self.cfg.deadlock_timeout * 2)
            except OSError:
                if self._finished.is_set() or self.crew.stopped:
                    return
                raise
            if frame is None:
                if not self._finished.is_set() and not self.crew.stopped:
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
        key = SliceKey(frame.layer_index, frame.slice_index)
        if key not in self.slice_info:
            raise ProtocolError(f"NOTIFY for unknown key {key}")
        self.outbox.put(replace(frame, msg_type=MsgType.PULL))

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

    def _wait_layer(self, layer: int, iteration: int) -> None:
        deadline = time.monotonic() + self.cfg.deadlock_timeout
        with self._flag_cond:
            while self.flags[layer] < iteration and not self.crew.stopped:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(self._deadlock_dump(iteration))
                self._flag_cond.wait(remaining)
        if self.crew.stopped:
            raise self.crew.error

    def _wait_all(self, iteration: int) -> None:
        for layer in range(self.num_layers):
            self._wait_layer(layer, iteration)

    def _deadlock_dump(self, iteration: int) -> str:
        unmet = [l for l in range(self.num_layers) if self.flags[l] < iteration]
        return (
            f"worker {self.cfg.rank} stalled waiting for iteration-{iteration} parameters; "
            f"unmet layers {unmet}; flags={self.flags}; "
            f"outbox={len(self.outbox)}"
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
        """Train, then wait for every thread; raises the crew's first error."""
        try:
            self._connect_all()
            for k in range(self.cfg.iterations):
                self.run_iteration(k)
            self._wait_all(self.cfg.iterations)
            self._finished.set()
            self.outbox.close()
        except BaseException as exc:
            self.crew.stop(exc)
        self.crew.join(self.cfg.deadlock_timeout)
        self.crew.stop()
        if self.crew.error is not None:
            raise self.crew.error

    # -- outputs -----------------------------------------------------------

    def params_digest(self) -> int:
        return digest64(b"".join(pack_f32(vec) for vec in self.params))

    def write_outputs(self, outdir: str | Path, digest: int) -> None:
        """Write ``net_util_worker<rank>.csv``, ``throughput_worker<rank>.csv``,
        ``digest_worker<rank>.txt`` (``digest``, i.e. ``params_digest()``, alike under both
        modes' plans) and ``digest_worker<rank>.csv``, a digest row per slice in the rows
        servers write too (``plan.slice_digests_csv``)."""
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
        rows = slice_digests_csv(
            (sl, self.params[sl.key.layer_index][sl.offset : sl.offset + sl.length])
            for sl in self.plan.slices
        )
        write_text(outdir / f"digest_worker{rank}.csv", rows)
