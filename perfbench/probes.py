"""Spans around calls into p3sync's public callables, recorded from outside the package.

Nothing under ``src/`` knows about tracing. ``install_runtime_probes`` and
``install_sim_probes`` replace public functions and methods with timing
wrappers in the current process and return a function that puts the
originals back. A ``Tracer`` keeps its spans in memory; the runtime's child
processes write theirs to a JSON file when they exit (see ``launcher.py``).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

from p3sync import cli, hashing, proto, queues, server, sim, transport, worker
from p3sync.proto import HEADER_LEN


class Tracer:
    """In-memory span store.

    A span is ``(id, parent_id, name, start_ns, end_ns, amount)``. The parent
    is the span open on the same thread when the call began (-1 for none), so
    a span's self time is its duration minus that of its children. ``amount``
    is a per-callable count such as bytes or frames.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.iterations: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, amount=None):
        """Timing wrapper for ``fn``.

        ``name`` is a string or a function of the call's arguments;
        ``amount(args, result)`` gives the span's count when the call returns.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            n = 0
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    n = amount(args, result)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                label = name(args) if callable(name) else name
                tracer.spans.append((sid, parent, label, t0, t1, n))

        return traced

    def dump(self, path: str | Path, role: str) -> None:
        Path(path).write_text(
            json.dumps({"role": role, "spans": list(self.spans), "iterations": list(self.iterations)})
        )


class _Patcher:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, orig, wrapper) -> None:
        """Rebind ``orig`` to ``wrapper`` in every p3sync module that imported it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "p3sync" or modname.startswith("p3sync.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    def method(self, cls, attr: str, wrapper) -> None:
        self._set(cls, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _queue_role(process_role: str) -> str:
    """Name a queue consumer by its process and polling thread, as in
    ``worker_sender`` (threads ``sender`` and ``sender-<n>``) or ``server_consumer``."""
    return f"{process_role}_{threading.current_thread().name.split('-')[0]}"


def install_runtime_probes(tracer: Tracer, process_role: str):
    """Wrap the runtime's public callables; returns the undo function."""
    p = _Patcher()
    wrap = tracer.wrap
    FC, TW = transport.FrameConnection, worker.TrainingWorker

    p.function(
        hashing.gradient_block,
        wrap("hashing.gradient_block", hashing.gradient_block, lambda a, r: r.nbytes),
    )
    p.function(
        hashing.fnv1a64,
        wrap("hashing.fnv1a64", hashing.fnv1a64, lambda a, r: memoryview(a[0]).nbytes),
    )
    p.function(proto.encode_frame, wrap("proto.encode_frame", proto.encode_frame, lambda a, r: len(r)))
    p.method(
        proto.FrameDecoder,
        "feed",
        wrap("proto.FrameDecoder.feed", proto.FrameDecoder.feed, lambda a, r: len(r)),
    )
    p.method(
        FC,
        "send_frame",
        wrap(
            "transport.FrameConnection.send_frame",
            FC.send_frame,
            lambda a, r: HEADER_LEN + len(a[1].payload),
        ),
    )
    p.method(FC, "recv_frame", wrap("transport.FrameConnection.recv_frame", FC.recv_frame))
    p.method(
        transport.TokenBucket,
        "consume",
        wrap("transport.TokenBucket.consume", transport.TokenBucket.consume),
    )
    p.function(
        transport.connect_with_retry,
        wrap("transport.connect_with_retry", transport.connect_with_retry),
    )
    # amount: the depth the consumer found, i.e. what is left plus the frame it took
    p.method(
        queues.FrameQueue,
        "poll",
        wrap(
            lambda a: f"queues.FrameQueue.poll.{_queue_role(process_role)}",
            queues.FrameQueue.poll,
            lambda a, r: len(a[0]) + (r is not None),
        ),
    )
    p.method(server.ShardState, "on_push", wrap("server.ShardState.on_push", server.ShardState.on_push))
    p.method(
        server.ShardState,
        "aggregate_and_update",
        wrap("server.ShardState.aggregate_and_update", server.ShardState.aggregate_and_update),
    )
    p.function(server.bcast_frames, wrap("server.bcast_frames", server.bcast_frames))
    p.method(
        server.ServerEngine,
        "digests_csv",
        wrap("server.ServerEngine.digests_csv", server.ServerEngine.digests_csv),
    )
    p.method(TW, "run_iteration", _iteration_probe(tracer, TW.run_iteration))
    p.method(TW, "on_bcast", wrap("worker.TrainingWorker.on_bcast", TW.on_bcast))
    p.function(cli.summarize_run, wrap("cli.summarize_run", cli.summarize_run))
    return p.undo


def _iteration_probe(tracer: Tracer, run_iteration):
    """Time ``run_iteration`` and keep what its IterationRecord says about the step."""
    timed = tracer.wrap("worker.TrainingWorker.run_iteration", run_iteration)

    @functools.wraps(run_iteration)
    def probe(self, iteration):
        rec = timed(self, iteration)
        declared_us = sum(l.fwd_time + l.bwd_time for l in self.profile.layers)
        tracer.iterations.append(
            {
                "rank": self.cfg.rank,
                "iteration": iteration,
                "start": rec.start,
                "fwd0_start": rec.fwd_spans[0][0],
                "bwd0_end": rec.bwd_spans[-1][1],
                "declared_ms": declared_us / 1000.0,
            }
        )
        return rec

    return probe


def install_sim_probes(tracer: Tracer):
    """Wrap the simulator's public callables; returns the undo function."""
    p = _Patcher()
    p.function(sim.simulate, tracer.wrap("sim.simulate", sim.simulate, lambda a, r: len(r.entries)))
    p.method(sim.Timeline, "to_csv", tracer.wrap("sim.Timeline.to_csv", sim.Timeline.to_csv))
    p.method(sim.Timeline, "summary", tracer.wrap("sim.Timeline.summary", sim.Timeline.summary))
    return p.undo
