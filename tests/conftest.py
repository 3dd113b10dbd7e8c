"""Suite-wide guards."""

import glob
import os
import threading
import time

import pytest

THREAD_GRACE_S = 5.0
CHILD_GRACE_S = 5.0


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started alive 5 s after it ends."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_GRACE_S
    started = [t for t in threading.enumerate() if t not in before]
    for t in started:
        t.join(max(0.0, deadline - time.monotonic()))
    left = sorted(t.name for t in started if t.is_alive())
    if left:
        pytest.fail(f"threads still running {THREAD_GRACE_S:.0f} s after the test: {left}")


def live_children() -> set[int]:
    """Pids of this process's children not yet reaped; empty where /proc lacks the list."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as f:
                pids.update(int(pid) for pid in f.read().split())
        except OSError:  # the thread has ended
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a child process it started unreaped 5 s after it ends."""
    before = live_children()
    yield
    deadline = time.monotonic() + CHILD_GRACE_S
    while (left := live_children() - before) and time.monotonic() < deadline:
        time.sleep(0.05)
    if left:
        pytest.fail(f"child processes not reaped {CHILD_GRACE_S:.0f} s after the test: {sorted(left)}")
