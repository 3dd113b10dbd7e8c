"""The benchmark's tracer wraps p3sync callables by name: each must still exist."""

import sys
from pathlib import Path

from p3sync import sim, transport, worker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # perfbench sits beside src/
from perfbench.probes import Tracer, install_runtime_probes, install_sim_probes  # noqa: E402


def test_runtime_probes_install_and_undo():
    originals = (worker.gradient_block, transport.FrameConnection.send_frame)
    undo = install_runtime_probes(Tracer(), "worker")
    try:
        # the worker's gradient calls are counted only through its module-level name
        assert worker.gradient_block is not originals[0]
        assert transport.FrameConnection.send_frame is not originals[1]
    finally:
        undo()
    assert (worker.gradient_block, transport.FrameConnection.send_frame) == originals


def test_sim_probes_install_and_undo():
    original = sim.simulate
    undo = install_sim_probes(Tracer())
    try:
        assert sim.simulate is not original
    finally:
        undo()
    assert sim.simulate is original
