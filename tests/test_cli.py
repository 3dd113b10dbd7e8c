import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from p3sync.cli import EXIT_PROTOCOL, EXIT_TIMEOUT, EXIT_USAGE, RunConfig, main, run_bench, summarize_run
from p3sync.model import builtin_profile, total_params
from p3sync.plan import make_p3_plan
from p3sync.proto import ProtocolError

REPO = Path(__file__).resolve().parent.parent
FIG4 = REPO / "scenarios" / "fig4.json"
FIG6 = REPO / "scenarios" / "fig6.json"


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


def test_bench_toy3_p3_and_report(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        [
            "bench",
            "--profile", "toy3",
            "--mode", "p3",
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
    assert kv["mode"] == "p3"
    assert float(kv["samples_per_second"]) > 0
    assert (outdir / "plan.csv").exists()
    assert (outdir / "summary.json").exists()
    assert (outdir / "digest_server0.csv").exists()
    assert (outdir / "digest_server1.csv").exists()
    assert int(kv["server_slices_verified"]) == len(
        make_p3_plan(builtin_profile("toy3"), 2).slices
    )
    # report replays the stored summary
    code, out2, _ = run_cli(["report", "--output-dir", str(outdir)], capsys)
    assert code == 0
    assert dict(l.split("=", 1) for l in out2.strip().splitlines())["digest"] == kv["digest"]


def test_bench_config_file_with_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"profile": "toy3", "iterations": 4, "num_workers": 1}))
    outdir = tmp_path / "run"
    code, out, _ = run_cli(
        [
            "bench",
            "--config", str(cfg_file),
            "--mode", "baseline",
            "--skip-iterations", "1",
            "--output-dir", str(outdir),
        ],
        capsys,
    )
    assert code == 0
    kv = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert kv["mode"] == "baseline" and kv["iterations"] == "4"


def test_bench_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"profle": "toy3"}))
    code, _, err = run_cli(["bench", "--config", str(cfg_file)], capsys)
    assert code == EXIT_USAGE
    assert "profle" in err


def test_worker_without_server_times_out(tmp_path):
    plan_path = tmp_path / "plan.csv"
    from p3sync.plan import save_plan

    save_plan(make_p3_plan(builtin_profile("toy3"), 1), plan_path)
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
    assert proc.returncode == EXIT_USAGE  # connection refused surfaces as OSError


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
    save_plan(make_p3_plan(toy3, 1), plan_path)
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


def test_server_rejects_malformed_plan(tmp_path):
    plan_path = tmp_path / "plan.csv"
    plan_path.write_text(
        "# p3sync-plan mode=p3 num_servers=1\nlayer,slice,offset,len,server\n0,0,0,10,0\n"
    )
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
    assert "plan metadata lacks max_slice, big_threshold, rng_seed" in proc.stderr


# -- summarize_run's checks of a finished run ---------------------------------

TOY3_RUN = dict(profile="toy3", num_workers=2, iterations=4, skip_iterations=1, timeout=120.0)


@pytest.fixture(scope="module")
def finished_toy3_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("toy3") / "run"
    summary = run_bench(RunConfig(**TOY3_RUN, output_dir=str(outdir)))
    assert summary["server_slices_verified"] == len(make_p3_plan(builtin_profile("toy3"), 2).slices)
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


def test_summarize_rejects_flipped_param(finished_toy3_run, tmp_path):
    def flip_one_float(outdir):
        path = outdir / "params_worker0.bin"
        params = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
        params[7] = -params[7] if params[7] else np.float32(1.0)
        path.write_bytes(params.tobytes())

    with pytest.raises(ProtocolError, match="does not match worker 0's digest"):
        summarize_copy(finished_toy3_run, tmp_path, flip_one_float)


def test_summarize_rejects_params_of_wrong_length(finished_toy3_run, tmp_path):
    def truncate(outdir):
        path = outdir / "params_worker0.bin"
        path.write_bytes(path.read_bytes()[:-4])

    with pytest.raises(ProtocolError, match="float32 parameters"):
        summarize_copy(finished_toy3_run, tmp_path, truncate)


def edit_server_row(edit_fields):
    def edit(outdir):
        path = outdir / "digest_server0.csv"
        header, first, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, ",".join(edit_fields(first.split(","))), *rest]) + "\n")

    return edit


def test_summarize_rejects_changed_server_digest(finished_toy3_run, tmp_path):
    def change_digest(row):
        row[-1] = f"{int(row[-1], 16) ^ 1:016x}"
        return row

    with pytest.raises(ProtocolError, match="server 0 slice .* != worker-side"):
        summarize_copy(finished_toy3_run, tmp_path, edit_server_row(change_digest))


def test_summarize_rejects_server_digest_of_unknown_layer(finished_toy3_run, tmp_path):
    def unknown_layer(row):
        return ["9", *row[1:]]

    with pytest.raises(ProtocolError, match="profile has no layer 9"):
        summarize_copy(finished_toy3_run, tmp_path, edit_server_row(unknown_layer))
