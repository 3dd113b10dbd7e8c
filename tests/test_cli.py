import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from p3sync.cli import EXIT_PROTOCOL, EXIT_TIMEOUT, EXIT_USAGE, RunConfig, main, run_bench, summarize_run
from p3sync.model import ProfileError, builtin_profile, profile_from_dict
from p3sync.plan import make_plan
from p3sync.proto import ProtocolError
from p3sync.sim import ScenarioError, scenario_from_dict

REPO = Path(__file__).resolve().parent.parent
FIG4 = REPO / "scenarios" / "fig4.json"
FIG6 = REPO / "scenarios" / "fig6.json"
TOY3 = REPO / "profiles" / "toy3.json"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_toy3_rows(capsys):
    code, out, _ = run_cli(["plan", "--profile", "toy3", "--num-servers", "2"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and "," in l][1:]
    assert len(rows) == 3
    servers = [int(r.split(",")[-1]) for r in rows]
    assert servers == [0, 1, 0]


def test_plan_vgg_row_count(capsys):
    code, out, _ = run_cli(["plan", "--profile", "vgg19-like", "--num-servers", "4"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    profile = builtin_profile("vgg19-like")
    expected = sum(-(-l.param_count // 50_000) for l in profile.layers)
    assert len(rows) == expected
    heavy_rows = [r for r in rows if r.startswith("16,")]
    assert len(heavy_rows) == 15  # 715000 / 50000
    servers = [int(r.split(",")[-1]) for r in rows]
    assert servers == [i % 4 for i in range(len(rows))]


def test_plan_missing_profile(capsys):
    code, _, err = run_cli(["plan", "--profile", "nope.json"], capsys)
    assert code == EXIT_USAGE
    assert "nope.json" in err


def test_usage_error_is_exit_1(capsys):
    assert main(["plan"]) == EXIT_USAGE  # missing --profile
    capsys.readouterr()


def summary_line(out):
    line = [l for l in out.splitlines() if l.startswith("# summary")][0]
    return dict(kv.split("=") for kv in line[len("# summary "):].split())


def test_simulate_fig4_policies(capsys):
    code, out, _ = run_cli(["simulate", str(FIG4)], capsys)
    assert code == 0
    assert summary_line(out)["inter_iteration_delay"] == "4"
    code, out, _ = run_cli(["simulate", str(FIG4), "--policy", "priority-sliced"], capsys)
    assert summary_line(out)["inter_iteration_delay"] == "2"


def test_simulate_fig6_policies(capsys):
    code, out, _ = run_cli(["simulate", str(FIG6)], capsys)
    assert summary_line(out)["makespan"] == "10"
    code, out, _ = run_cli(["simulate", str(FIG6), "--policy", "aggressive-sliced"], capsys)
    assert summary_line(out)["makespan"] == "7"


def test_simulate_writes_csv(tmp_path, capsys):
    target = tmp_path / "tl.csv"
    code, out, _ = run_cli(["simulate", str(FIG4), "--csv", str(target)], capsys)
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "resource,item,start,end"
    assert len(lines) > 5


def test_simulate_missing_scenario(capsys):
    code, _, err = run_cli(["simulate", "missing.json"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "path,value,field",
    [
        ((), ("num_iterations", "2"), "num_iterations"),  # int("2") would be 2
        (("stages", 1), ("up", 2.7), "stages[1].up"),  # int(2.7) would be 2
        (("stages", 1), ("up", "abc"), "stages[1].up"),
        (("profile", "layers", 2), ("fwd_time", 1.5), "profile.layers[2].fwd_time"),
        (("profile",), ("seed", "42"), "profile.seed"),
    ],
)
def test_simulate_rejects_mistyped_field(tmp_path, capsys, path, value, field):
    obj = json.loads(FIG4.read_text())
    target = obj
    for step in path:
        target = target[step]
    target[value[0]] = value[1]
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(obj))
    code, _, err = run_cli(["simulate", str(scenario)], capsys)
    assert code == EXIT_USAGE
    assert field in err


@pytest.mark.parametrize(
    "command,file,path,key,error,field",
    [
        # a field this version does not have may not be read as if it were unset
        ("simulate", FIG6, (), "serial_update", ScenarioError, "serial_update"),
        ("simulate", FIG6, ("stages", 1), "cost", ScenarioError, "stages[1].cost"),
        ("simulate", FIG6, ("profile",), "flops", ProfileError, "profile.flops"),
        ("simulate", FIG6, ("profile", "layers", 2), "flops", ProfileError, "profile.layers[2].flops"),
        ("plan", TOY3, (), "flops", ProfileError, "flops"),
        ("plan", TOY3, ("layers", 2), "flops", ProfileError, "layers[2].flops"),
    ],
)
def test_unknown_key_is_refused(tmp_path, capsys, command, file, path, key, error, field):
    obj = json.loads(file.read_text())
    target = obj
    for step in path:
        target = target[step]
    target[key] = True
    read = scenario_from_dict if command == "simulate" else profile_from_dict
    with pytest.raises(error, match=re.escape(f"unknown key {field}")):
        read(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    flag = [] if command == "simulate" else ["--profile"]
    code, _, err = run_cli([command, *flag, str(bad)], capsys)
    assert code == EXIT_USAGE
    assert f"unknown key {field}" in err


@pytest.mark.parametrize("mode", ["p3", "baseline"])
def test_bench_toy3_and_report(tmp_path, capsys, mode):
    # two workers and, by default, one server per worker
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        [
            "bench",
            "--profile", "toy3",
            "--mode", mode,
            "--num-workers", "2",
            "--iterations", "6",
            "--skip-iterations", "2",
            "--output-dir", str(outdir),
            "--timeout", "120",
        ],
        capsys,
    )
    assert code == 0, out
    kv = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert kv["mode"] == mode
    assert float(kv["samples_per_second"]) > 0
    assert (outdir / "plan.csv").exists()
    assert (outdir / "summary.json").exists()
    assert (outdir / "digest_server0.csv").exists()
    assert (outdir / "digest_server1.csv").exists()
    assert int(kv["server_slices_verified"]) == len(
        make_plan(mode, builtin_profile("toy3"), 2).slices
    )
    # report replays the stored summary
    code, out2, _ = run_cli(["report", "--output-dir", str(outdir)], capsys)
    assert code == 0
    assert dict(l.split("=", 1) for l in out2.strip().splitlines())["digest"] == kv["digest"]


def test_bench_baseline_from_flags(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        [
            "bench",
            "--profile", "toy3",
            "--iterations", "4",
            "--num-workers", "1",
            "--mode", "baseline",
            "--skip-iterations", "1",
            "--output-dir", str(outdir),
        ],
        capsys,
    )
    assert code == 0
    kv = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert kv["mode"] == "baseline" and kv["iterations"] == "4"


@pytest.fixture
def spawned(monkeypatch):
    """Every process run_bench starts, recorded as it starts it."""
    import p3sync.cli as cli

    procs = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(cli.subprocess, "Popen", popen)
    return procs


def test_bench_negative_throttle_rate_is_a_usage_error(tmp_path, capsys, spawned):
    t0 = time.monotonic()
    code, _, err = run_cli(
        ["bench", "--throttle-rate", "-1", "--output-dir", str(tmp_path / "run")], capsys
    )
    assert code == EXIT_USAGE
    assert time.monotonic() - t0 < 5
    assert "throttle_rate" in err
    assert [p for p in spawned if p.poll() is None] == []


@pytest.mark.parametrize("flag", ["--lr", "--throttle-rate", "--timeout"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bench_refuses_a_value_that_is_not_finite(tmp_path, capsys, spawned, flag, value):
    # refused before anything is spawned: a NaN lr would train every parameter to
    # NaN with the digest checks still passing, and a NaN rate would run unshaped
    outdir = tmp_path / "run"
    t0 = time.monotonic()
    code, _, err = run_cli(["bench", flag, value, "--output-dir", str(outdir)], capsys)
    assert code == EXIT_USAGE
    assert time.monotonic() - t0 < 1
    assert f"{flag[2:].replace('-', '_')} {value} must be finite" in err
    assert "Traceback" not in err
    assert spawned == [] and not (outdir / "server0.log").exists()


def test_bench_rejects_skip_iterations_not_below_iterations(tmp_path, capsys, spawned):
    outdir = tmp_path / "run"
    code, _, err = run_cli(
        ["bench", "--iterations", "5", "--skip-iterations", "5", "--output-dir", str(outdir)], capsys
    )
    assert code == EXIT_USAGE
    assert "skip_iterations" in err
    assert spawned == [] and not outdir.exists()


def test_bench_waits_for_ready_no_longer_than_its_timeout(tmp_path, capsys, spawned, monkeypatch):
    record = subprocess.Popen  # the spawned fixture's recorder
    mute = [sys.executable, "-c", "import time; time.sleep(60)"]  # never prints READY
    monkeypatch.setattr(subprocess, "Popen", lambda cmd, **kw: record(mute, **kw))
    t0 = time.monotonic()
    code, _, err = run_cli(["bench", "--timeout", "2", "--output-dir", str(tmp_path / "run")], capsys)
    assert code == EXIT_TIMEOUT
    assert time.monotonic() - t0 < 4
    assert "READY" in err
    assert len(spawned) == 1 and spawned[0].poll() is not None


def big_layer_profile(tmp_path):
    # 4.2M float32 params are 16.8 MB: whole, they do not fit one 16 MiB frame
    layer = {"index": 0, "name": "big", "param_count": 4_200_000, "fwd_time": 0, "bwd_time": 0}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "seed": 1, "layers": [layer]}))
    return str(path)


def test_plan_rejects_slice_larger_than_a_frame(tmp_path, capsys):
    args = ["plan", "--profile", big_layer_profile(tmp_path), "--mode", "baseline"]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "slice SliceKey(layer_index=0, slice_index=0) holds 4200000 params" in err


def test_bench_rejects_slice_larger_than_a_frame_before_spawning(tmp_path, capsys, spawned):
    outdir = tmp_path / "run"
    args = ["bench", "--profile", big_layer_profile(tmp_path), "--mode", "baseline", "--num-servers", "1"]
    code, _, err = run_cli([*args, "--output-dir", str(outdir)], capsys)
    assert code == EXIT_USAGE
    assert "4200000 params" in err
    assert spawned == [] and not outdir.exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_workers", 0),
        ("timeout", 0.0),
        ("skip_iterations", -1),
        ("batch_size", 0),
        ("num_servers", -1),
    ],
)
def test_run_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value}).validate()


def test_server_that_exits_before_ready_is_a_child_failure(tmp_path, monkeypatch, spawned):
    from p3sync.cli import _ChildFailure

    # let the bad rate through to the server, which rejects it and exits 1
    monkeypatch.setattr(RunConfig, "validate", lambda self: None)
    cfg = RunConfig(profile="toy3", num_workers=1, throttle_rate=-1.0, output_dir=str(tmp_path))
    with pytest.raises(_ChildFailure, match="server0.log") as info:
        run_bench(cfg)
    assert info.value.code == 1
    assert "rate must be positive" in (tmp_path / "server0.log").read_text()
    assert len(spawned) == 1 and spawned[0].poll() == 1


def test_bench_names_the_child_that_failed(tmp_path, capsys, spawned):
    import threading

    # a killed worker makes the server exit 2; a server killed by a signal
    # (the bench waits for it first) is a lost peer, 2 as well
    for victim, log in ((2, "worker1"), (0, "server0")):
        first = len(spawned)
        args = [
            "bench", "--profile", "toy3", "--num-workers", "2", "--num-servers", "1",
            "--iterations", "100000", "--timeout", "60", "--output-dir", str(tmp_path / log),
        ]
        result = []
        bench = threading.Thread(target=lambda: result.append(main(args)))
        t0 = time.monotonic()
        bench.start()
        while len(spawned) < first + 3 and bench.is_alive() and time.monotonic() - t0 < 15:
            time.sleep(0.05)
        assert len(spawned) == first + 3  # one server, two workers
        time.sleep(2.0)  # a worker starts and connects in well under a second
        spawned[first + victim].kill()
        bench.join(timeout=30)
        assert not bench.is_alive()
        err = capsys.readouterr().err
        assert result == [EXIT_PROTOCOL]
        assert time.monotonic() - t0 < 30
        line = next(l for l in err.splitlines() if l.startswith("bench failed: "))
        assert re.search(r"\((server|worker)\d+\.log\)", line), line
        assert "--" not in line
        assert [p for p in spawned if p.poll() is None] == []
    assert line == "bench failed: server (server0.log) was killed by SIGKILL"


def test_worker_without_server_times_out(tmp_path):
    plan_path = tmp_path / "plan.csv"
    from p3sync.plan import save_plan

    save_plan(make_plan("p3", builtin_profile("toy3"), 1), plan_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "p3sync", "worker",
            "--rank", "0",
            "--servers", "127.0.0.1:1",
            "--profile", "toy3",
            "--plan", str(plan_path),
            "--iterations", "1",
            "--deadlock-timeout", "2",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_TIMEOUT
    assert time.monotonic() - t0 < 15
    assert "127.0.0.1:1 unreachable for 2.0s" in proc.stderr


def test_worker_rejects_plan_of_another_profile(tmp_path):
    # same layers as toy3 but a wider layer 1, so the toy3 plan leaves half of
    # it uncovered; checked before connecting, or the connect retries to the
    # dead server address would run for the whole deadlock timeout
    from dataclasses import replace

    from p3sync.model import save_profile
    from p3sync.plan import save_plan

    toy3 = builtin_profile("toy3")
    layers = list(toy3.layers)
    layers[1] = replace(layers[1], param_count=2 * layers[1].param_count)
    profile_path = tmp_path / "wide.json"
    save_profile(replace(toy3, name="toy3-wide", layers=tuple(layers)), profile_path)
    plan_path = tmp_path / "plan.csv"
    save_plan(make_plan("p3", toy3, 1), plan_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "p3sync", "worker",
            "--rank", "0",
            "--servers", "127.0.0.1:1",
            "--profile", str(profile_path),
            "--plan", str(plan_path),
            "--iterations", "1",
            "--deadlock-timeout", "30",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert time.monotonic() - t0 < 5
    assert "layer 1: covers 1024 of 2048" in proc.stderr


def test_worker_rejects_server_list_of_another_length(tmp_path):
    # a plan of two servers given one address: refused before connecting, or
    # the connect retries to the dead address would run for the whole timeout
    from p3sync.plan import save_plan

    plan_path = tmp_path / "plan.csv"
    save_plan(make_plan("p3", builtin_profile("toy3"), 2), plan_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "p3sync", "worker",
            "--rank", "0",
            "--servers", "127.0.0.1:1",
            "--profile", "toy3",
            "--plan", str(plan_path),
            "--iterations", "1",
            "--deadlock-timeout", "30",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert time.monotonic() - t0 < 5
    assert "Traceback" not in proc.stderr
    assert "1 server addresses given, the plan has 2 servers" in proc.stderr


def test_exit_code_mapping(monkeypatch, capsys):
    import p3sync.cli as cli
    from p3sync.proto import ProtocolError
    from p3sync.queues import DeadlockError

    assert main(["report", "--output-dir", "/does/not/exist"]) == EXIT_USAGE
    capsys.readouterr()

    def raising(exc):
        def fn(args):
            raise exc

        return fn

    # build_parser reads cmd_report when main calls it, so the patch is what runs
    monkeypatch.setattr(cli, "cmd_report", raising(ProtocolError("x")))
    assert cli.main(["report", "--output-dir", "."]) == EXIT_PROTOCOL
    monkeypatch.setattr(cli, "cmd_report", raising(DeadlockError("y")))
    assert cli.main(["report", "--output-dir", "."]) == EXIT_TIMEOUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--num-workers", "0", "num_workers 0 must be >= 1"),
        ("--rank", "3", "rank 3 outside the plan's 1 servers"),
        ("--deadlock-timeout", "0", "deadlock timeout 0.0 must be positive"),
        ("--deadlock-timeout", "nan", "deadlock timeout nan must be positive and finite"),
        ("--deadlock-timeout", "inf", "deadlock timeout inf must be positive and finite"),
        ("--listen", "127.0.0.1:70000", "port 70000 outside 0-65535"),
        ("--lr", "nan", "lr nan must be finite"),
        ("--throttle-rate", "nan", "rate must be positive and finite, got nan"),
        ("--throttle-rate", "inf", "rate must be positive and finite, got inf"),
    ],
    ids=[
        "num-workers-0", "rank-3", "deadlock-timeout-0", "deadlock-timeout-nan", "deadlock-timeout-inf",
        "listen-port-70000", "lr-nan", "throttle-rate-nan", "throttle-rate-inf",
    ],
)
def test_server_refuses_arguments_out_of_range(tmp_path, capsys, flag, value, message):
    from p3sync.plan import save_plan

    save_plan(make_plan("p3", builtin_profile("toy3"), 1), tmp_path / "plan.csv")
    args = {"--rank": "0", "--num-workers": "1", "--deadlock-timeout": "5", flag: value}
    t0 = time.monotonic()
    code, out, err = run_cli(
        ["server", "--plan", str(tmp_path / "plan.csv")] + [a for item in args.items() for a in item],
        capsys,
    )
    assert code == EXIT_USAGE
    assert time.monotonic() - t0 < 1
    assert message in err
    assert "READY" not in out
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rank", "-1", "rank -1 outside the frame header's 0-65535"),
        ("--rank", "65536", "rank 65536 outside the frame header's 0-65535"),
        ("--servers", "127.0.0.1:70000", "port 70000 outside 0-65535"),
        ("--servers", "127.0.0.1:0", "no server listens on port 0"),
        ("--deadlock-timeout", "0", "deadlock timeout 0.0 must be positive"),
        ("--deadlock-timeout", "nan", "deadlock timeout nan must be positive and finite"),
        ("--deadlock-timeout", "inf", "deadlock timeout inf must be positive and finite"),
        ("--throttle-rate", "nan", "rate must be positive and finite, got nan"),
        ("--throttle-rate", "inf", "rate must be positive and finite, got inf"),
    ],
    ids=[
        "rank--1", "rank-65536", "port-70000", "port-0", "deadlock-timeout-0", "deadlock-timeout-nan",
        "deadlock-timeout-inf", "throttle-rate-nan", "throttle-rate-inf",
    ],
)
def test_worker_refuses_arguments_out_of_range(tmp_path, capsys, flag, value, message):
    # refused before connecting: at 127.0.0.1:1 the connect retries would run
    # for the whole deadlock timeout
    from p3sync.plan import save_plan

    save_plan(make_plan("p3", builtin_profile("toy3"), 1), tmp_path / "plan.csv")
    args = {"--rank": "0", "--servers": "127.0.0.1:1", "--deadlock-timeout": "30", flag: value}
    t0 = time.monotonic()
    code, _, err = run_cli(
        ["worker", "--profile", "toy3", "--plan", str(tmp_path / "plan.csv"), "--iterations", "1"]
        + [a for item in args.items() for a in item],
        capsys,
    )
    assert code == EXIT_USAGE
    assert time.monotonic() - t0 < 1
    assert message in err
    assert "Traceback" not in err


def test_notify_for_unknown_key_is_a_protocol_error(tmp_path, capsys):
    # a fake server answers the worker's HELLO with a NOTIFY for key (99, 0)
    import socket
    import threading

    from p3sync.plan import save_plan
    from p3sync.proto import HEADER_LEN, Frame, MsgType, encode_frame

    save_plan(make_plan("baseline", builtin_profile("toy3"), 1), tmp_path / "plan.csv")
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def fake_server():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            conn.recv(HEADER_LEN, socket.MSG_WAITALL)  # the HELLO
            conn.sendall(encode_frame(Frame(MsgType.NOTIFY, worker_rank=0, layer_index=99)))
            try:
                while conn.recv(1 << 16):  # until the worker hangs up
                    pass
            except OSError:
                pass

    server = threading.Thread(target=fake_server)
    server.start()
    try:
        code, _, err = run_cli(
            [
                "worker",
                "--rank", "0",
                "--servers", "127.0.0.1:{}".format(listener.getsockname()[1]),
                "--profile", "toy3",
                "--plan", str(tmp_path / "plan.csv"),
                "--iterations", "1",
                "--deadlock-timeout", "10",
            ],
            capsys,
        )
    finally:
        server.join(15.0)
        listener.close()
    assert code == EXIT_PROTOCOL
    assert "NOTIFY for unknown key SliceKey(layer_index=99, slice_index=0)" in err


def test_server_rejects_malformed_plan(tmp_path):
    plan_path = tmp_path / "plan.csv"
    plan_path.write_text("# p3sync-plan mode=p3\nlayer,slice,offset,len,server\n0,0,0,10,0\n")
    proc = subprocess.run(
        [
            sys.executable, "-m", "p3sync", "server",
            "--rank", "0",
            "--plan", str(plan_path),
            "--num-workers", "1",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "plan metadata lacks num_servers" in proc.stderr


@pytest.mark.parametrize("role", ["worker", "server"])
def test_plan_with_a_repeated_slice_key_is_refused(tmp_path, role):
    # toy3's p3 plan with layer 0 cut in two halves under one key
    from p3sync.plan import plan_to_csv

    text = plan_to_csv(make_plan("p3", builtin_profile("toy3"), 1))
    plan_path = tmp_path / "plan.csv"
    plan_path.write_text(text.replace("0,0,0,1024,0\n", "0,0,0,512,0\n0,0,512,512,0\n"))
    args = {
        "worker": ["--servers", "127.0.0.1:1", "--profile", "toy3", "--iterations", "1"],
        "server": ["--num-workers", "1"],
    }[role]
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "p3sync", role,
            "--rank", "0",
            "--plan", str(plan_path),
            "--deadlock-timeout", "30",
            *args,
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert time.monotonic() - t0 < 5
    assert "Traceback" not in proc.stderr
    assert "repeats slice key" in proc.stderr


def test_worker_with_another_plan_fails_fast(tmp_path):
    # two toy3 plans that differ only in --max-slice: the server must refuse
    # the worker's HELLO at once, not stall until the deadlock timeout
    from p3sync.plan import plan_fingerprint, save_plan

    plans = {}
    for role, max_slice in (("server", 50_000), ("worker", 1_000)):
        plans[role] = make_plan("p3", builtin_profile("toy3"), 1, max_slice)
        save_plan(plans[role], tmp_path / f"{role}.csv")
    base = [sys.executable, "-m", "p3sync"]
    t0 = time.monotonic()
    server = subprocess.Popen(
        base + [
            "server",
            "--rank", "0",
            "--plan", str(tmp_path / "server.csv"),
            "--num-workers", "1",
            "--deadlock-timeout", "30",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        addr = server.stdout.readline().split()[1]  # "READY host:port"
        worker = subprocess.run(
            base + [
                "worker",
                "--rank", "0",
                "--servers", addr,
                "--profile", "toy3",
                "--plan", str(tmp_path / "worker.csv"),
                "--iterations", "50",
                "--deadlock-timeout", "30",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        _, server_err = server.communicate(timeout=60)
    finally:
        server.kill()
        server.wait()
    assert time.monotonic() - t0 < 15
    assert server.returncode == EXIT_PROTOCOL
    for role in ("worker", "server"):
        assert f"{plan_fingerprint(plans[role]):016x}" in server_err
    assert worker.returncode == EXIT_PROTOCOL
    assert "Traceback" not in worker.stderr + server_err



# -- a lost peer, through the CLI on loopback subprocesses ---------------------

P3SYNC = [sys.executable, "-m", "p3sync"]


@pytest.fixture
def toy3_plan(tmp_path):
    from p3sync.plan import save_plan

    plan = make_plan("p3", builtin_profile("toy3"), 1)
    save_plan(plan, tmp_path / "plan.csv")
    return plan, tmp_path / "plan.csv"


@pytest.fixture
def children():
    """Child processes a test starts; killed at teardown if still running."""
    procs = []
    yield procs
    for p in procs:
        if p.poll() is None:
            p.kill()
        p.communicate()


def still_running(children):
    return [p.args[3] for p in children if p.poll() is None]


def start(children, *args):
    proc = subprocess.Popen(
        [*P3SYNC, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    children.append(proc)
    return proc


def start_server(children, plan_path, num_workers):
    server = start(
        children, "server", "--rank", "0", "--plan", str(plan_path),
        "--num-workers", str(num_workers), "--deadlock-timeout", "30",
    )
    return server, server.stdout.readline().split()[1]  # "READY host:port"


def start_run(children, plan_path, num_workers):
    """One server and ``num_workers`` workers on a toy3 run far longer than the test."""
    server, addr = start_server(children, plan_path, num_workers)
    workers = [
        start(
            children, "worker", "--rank", str(rank), "--servers", addr, "--profile", "toy3",
            "--plan", str(plan_path), "--iterations", "100000", "--deadlock-timeout", "30",
        )
        for rank in range(num_workers)
    ]
    time.sleep(2.0)  # a worker starts and connects in well under a second
    assert [p.poll() for p in children] == [None] * (1 + num_workers)
    return server, workers


def exit_codes(procs, timeout=12.0):
    deadline = time.monotonic() + timeout
    codes = []
    for p in procs:
        try:
            codes.append(p.wait(timeout=max(0.0, deadline - time.monotonic())))
        except subprocess.TimeoutExpired:
            codes.append(None)
    return codes


def test_killed_worker_fails_the_server_and_the_other_worker(toy3_plan, children):
    _, plan_path = toy3_plan
    t0 = time.monotonic()
    server, workers = start_run(children, plan_path, 2)
    workers[0].kill()
    workers[0].wait()
    assert exit_codes([server, workers[1]]) == [EXIT_PROTOCOL, EXIT_PROTOCOL]
    assert time.monotonic() - t0 < 15
    assert still_running(children) == []
    assert "lost peer" in server.communicate()[1]


def test_killed_server_fails_every_worker(toy3_plan, children):
    _, plan_path = toy3_plan
    t0 = time.monotonic()
    server, workers = start_run(children, plan_path, 2)
    server.kill()
    server.wait()
    assert exit_codes(workers) == [EXIT_PROTOCOL, EXIT_PROTOCOL]
    assert time.monotonic() - t0 < 15
    assert still_running(children) == []
    for w in workers:
        assert "lost peer" in w.communicate()[1]


def test_stream_cut_mid_push_fails_the_server(toy3_plan, children):
    import socket

    from p3sync.plan import plan_fingerprint
    from p3sync.proto import Frame, MsgType, encode_frame, pack_f32, slice_frame
    from p3sync.transport import parse_addr

    plan, plan_path = toy3_plan
    t0 = time.monotonic()
    server, addr = start_server(children, plan_path, 1)
    sl = plan.slices[0]
    push = encode_frame(
        slice_frame(MsgType.PUSH, sl, 0, 0, pack_f32(np.zeros(sl.length, dtype=np.float32)))
    )
    half = push[: len(push) // 2]
    with socket.create_connection(parse_addr(addr), timeout=5.0) as sock:
        sock.sendall(encode_frame(Frame(MsgType.HELLO, iteration=plan_fingerprint(plan), worker_rank=0)))
        sock.sendall(half)
    assert exit_codes([server]) == [EXIT_PROTOCOL]
    assert time.monotonic() - t0 < 15
    assert still_running(children) == []
    assert f"EOF with {len(half)} undecoded bytes" in server.communicate()[1]


def test_push_with_a_payload_not_float32_fails_the_server(toy3_plan, children):
    # refused at the header, before its 5 payload bytes are read
    import socket
    import struct

    from p3sync.plan import plan_fingerprint
    from p3sync.proto import MAGIC, Frame, MsgType, encode_frame
    from p3sync.transport import parse_addr

    plan, plan_path = toy3_plan
    server, addr = start_server(children, plan_path, 1)
    hello = encode_frame(Frame(MsgType.HELLO, iteration=plan_fingerprint(plan), worker_rank=0))
    push = struct.pack("<4sBQHIII", MAGIC, int(MsgType.PUSH), 0, 0, 0, 0, 5) + b"\x00" * 5
    with socket.create_connection(parse_addr(addr), timeout=5.0) as sock:
        sock.sendall(hello + push)
        assert exit_codes([server]) == [EXIT_PROTOCOL]
    assert still_running(children) == []
    assert "PUSH payload_len 5 not a float32 array" in server.communicate()[1]


# -- summarize_run's checks of a finished run ---------------------------------

TOY3_RUN = dict(profile="toy3", num_workers=2, iterations=4, skip_iterations=1, timeout=120.0)


@pytest.fixture(scope="module")
def finished_toy3_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("toy3") / "run"
    summary = run_bench(RunConfig(**TOY3_RUN, output_dir=str(outdir)))
    assert summary["server_slices_verified"] == len(make_plan("p3", builtin_profile("toy3"), 2).slices)
    return outdir


def summarize_copy(run_dir, tmp_path, edit):
    """Copy a finished run, apply ``edit(outdir)``, then run summarize_run on the copy."""
    outdir = tmp_path / "run"
    shutil.copytree(run_dir, outdir)
    edit(outdir)
    cfg = RunConfig(**TOY3_RUN, output_dir=str(outdir))
    return summarize_run(cfg, outdir, builtin_profile("toy3"))


def test_summarize_untouched_run_passes(finished_toy3_run, tmp_path):
    summary = summarize_copy(finished_toy3_run, tmp_path, lambda outdir: None)
    assert summary["digest"] == (finished_toy3_run / "digest_worker0.txt").read_text().strip()
    assert not (finished_toy3_run / "params_worker0.bin").exists()


def edit_rows(process, edit):
    """Replace the rows of ``digest_<process>.csv`` (toy3 in p3: server 0 holds
    layers 0 and 2, server 1 layer 1) with ``edit(rows)``."""

    def edit_file(outdir):
        path = outdir / f"digest_{process}.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *edit(rows)]) + "\n")

    return edit_file


def flip_digest(row):
    *place, digest = row.split(",")
    return ",".join([*place, f"{int(digest, 16) ^ 1:016x}"])


def test_summarize_rejects_flipped_param(finished_toy3_run, tmp_path):
    # a flipped parameter on worker 1 changes the digest of its slice's row
    edit = edit_rows("worker1", lambda rows: [flip_digest(rows[0]), *rows[1:]])
    with pytest.raises(ProtocolError, match="worker 1 row 0,0,0,1024,[0-9a-f]{16} != worker 0's row 0,0,0,1024,"):
        summarize_copy(finished_toy3_run, tmp_path, edit)


def test_summarize_rejects_params_of_wrong_length(finished_toy3_run, tmp_path):
    # worker 1 reports one slice fewer than worker 0
    edit = edit_rows("worker1", lambda rows: rows[:-1])
    with pytest.raises(ProtocolError, match="worker 1 row None != worker 0's row 2,0,0,1024,"):
        summarize_copy(finished_toy3_run, tmp_path, edit)


def test_summarize_rejects_changed_server_digest(finished_toy3_run, tmp_path):
    edit = edit_rows("server0", lambda rows: [flip_digest(rows[0]), *rows[1:]])
    with pytest.raises(ProtocolError, match="server 0 row 0,0,0,1024,.*: worker 0 has no such row"):
        summarize_copy(finished_toy3_run, tmp_path, edit)


def test_summarize_rejects_server_digest_of_unknown_layer(finished_toy3_run, tmp_path):
    edit = edit_rows("server1", lambda rows: [*rows, "9" + rows[0][1:]])
    with pytest.raises(ProtocolError, match="server 1 row 9,0,0,1024,.*: worker 0 has no such row"):
        summarize_copy(finished_toy3_run, tmp_path, edit)


def test_summarize_rejects_missing_server_row(finished_toy3_run, tmp_path):
    edit = edit_rows("server0", lambda rows: rows[:1])
    with pytest.raises(ProtocolError, match="worker 0 row 2,0,0,1024,.* is on no server"):
        summarize_copy(finished_toy3_run, tmp_path, edit)


def test_summarize_rejects_row_on_two_servers(finished_toy3_run, tmp_path):
    def copy_to_server1(outdir):
        layer0 = (outdir / "digest_server0.csv").read_text().splitlines()[1]
        edit_rows("server1", lambda rows: [*rows, layer0])(outdir)

    with pytest.raises(ProtocolError, match="server 1 row 0,0,0,1024,.*: a server holds it already"):
        summarize_copy(finished_toy3_run, tmp_path, copy_to_server1)
