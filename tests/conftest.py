"""Suite-wide guards."""

import threading
import time

import pytest

THREAD_GRACE_S = 5.0


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
