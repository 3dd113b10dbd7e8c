"""Each p3sync process imports only the half it runs.

The simulator and the ``plan`` and ``simulate`` commands load no numpy and no
runtime module; a server does not load the worker, nor a worker the server.
Every case runs in a fresh interpreter, since this one has loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p3sync

REPO = Path(__file__).resolve().parent.parent
FIG4 = REPO / "scenarios" / "fig4.json"
SRC = str(Path(p3sync.__file__).resolve().parent.parent)
RUNTIME = ("numpy", "p3sync.server", "p3sync.worker", "p3sync.transport")


def loaded_after(code: str, tmp_path: Path) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def main_exits(code: int, argv: list[str]) -> str:
    return f"from p3sync.cli import main\nassert main({argv!r}) == {code}"


@pytest.mark.parametrize(
    "code",
    [
        "import p3sync.sim, p3sync.plan, p3sync.model",
        main_exits(0, ["simulate", str(FIG4)]),
        main_exits(0, ["plan", "--profile", "toy3"]),
    ],
    ids=["sim-plan-model", "simulate", "plan"],
)
def test_the_simulator_half_loads_no_numpy_and_no_runtime(tmp_path, code):
    loaded = loaded_after(code, tmp_path)
    assert "p3sync.plan" in loaded
    assert [m for m in RUNTIME if m in loaded] == []


def test_a_server_does_not_load_the_worker(tmp_path):
    argv = ["server", "--rank", "0", "--num-workers", "1", "--plan", str(tmp_path / "missing.csv")]
    loaded = loaded_after(main_exits(1, argv), tmp_path)
    assert "p3sync.server" in loaded
    assert "p3sync.worker" not in loaded


def test_a_worker_does_not_load_the_server(tmp_path):
    argv = [
        "worker", "--rank", "0", "--servers", "127.0.0.1:1", "--profile", "toy3",
        "--plan", str(tmp_path / "missing.csv"), "--iterations", "1",
    ]
    loaded = loaded_after(main_exits(1, argv), tmp_path)
    assert "p3sync.worker" in loaded
    assert "p3sync.server" not in loaded
