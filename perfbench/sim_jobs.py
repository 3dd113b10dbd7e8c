"""Simulator workload: the steps ``p3sync simulate`` performs, timed and checked."""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from p3sync import sim
from p3sync.sim import AGGRESSIVE_COARSE, AGGRESSIVE_SLICED, PRIORITY_SLICED, Scenario, load_scenario

from perfbench import probes

# run order within one repetition
POLICIES = (PRIORITY_SLICED, AGGRESSIVE_SLICED, AGGRESSIVE_COARSE)

# (scenario file, policy, summary key, expected value), as shipped with the repo
GOLDENS = (
    ("fig4.json", AGGRESSIVE_COARSE, "inter_iteration_delay", 4),
    ("fig4.json", PRIORITY_SLICED, "inter_iteration_delay", 2),
    ("fig6.json", AGGRESSIVE_COARSE, "makespan", 10),
    ("fig6.json", AGGRESSIVE_SLICED, "makespan", 7),
)

_SETUP_CODE = "import sys\nfrom p3sync.sim import load_scenario\nload_scenario(sys.argv[1])\n"


@dataclass
class SimResult:
    csv: str
    summary: dict
    entries: int
    wall_s: float


def simulate_steps(scenario: Scenario) -> SimResult:
    """``simulate`` + ``Timeline.to_csv`` + ``Timeline.summary``, as ``cmd_simulate`` runs them."""
    t0 = time.perf_counter()
    timeline = sim.simulate(scenario)
    csv = timeline.to_csv()
    summary = timeline.summary()
    wall = time.perf_counter() - t0
    return SimResult(csv, summary, len(timeline.entries), wall)


def check_goldens(scenarios_dir: Path) -> list[str]:
    """Failures among the shipped fig4/fig6 goldens (empty when all hold)."""
    failures = []
    for filename, policy, key, want in GOLDENS:
        scenario = replace(load_scenario(scenarios_dir / filename), policy=policy)
        got = sim.simulate(scenario).summary().get(key)
        if got != want:
            failures.append(f"{filename} {policy}: {key} {got} != {want}")
    return failures


def check_repetition(results: dict[str, SimResult], first: dict[str, SimResult]) -> list[str]:
    """Failures of one repetition: timelines must repeat byte for byte, and
    priority-sliced must not delay layer 0 longer than aggressive-sliced."""
    failures = [
        f"{policy}: timeline CSV differs from the first repetition"
        for policy, res in results.items()
        if res.csv != first[policy].csv
    ]
    pri = results[PRIORITY_SLICED].summary["inter_iteration_delay"]
    agg = results[AGGRESSIVE_SLICED].summary["inter_iteration_delay"]
    if pri > agg:
        failures.append(f"priority-sliced layer-0 delay {pri} > aggressive-sliced {agg}")
    return failures


def setup_seconds(scenario_path: Path) -> float:
    """Wall of a fresh interpreter that imports p3sync and loads the scenario:
    what ``p3sync simulate`` pays before it simulates."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(scenario_path)], check=True)
    return time.perf_counter() - t0


def repetition(scenario: Scenario, traced: bool = False):
    """Every policy once, in POLICIES order.

    Returns the results and, when ``traced``, per-policy numbers of each
    simulator callable measured under the sim probes.
    """
    results: dict[str, SimResult] = {}
    layers: dict[str, dict[str, float]] = {}
    for policy in POLICIES:
        variant = replace(scenario, policy=policy)
        if not traced:
            results[policy] = simulate_steps(variant)
            continue
        tracer = probes.Tracer()
        undo = probes.install_sim_probes(tracer)
        try:
            results[policy] = simulate_steps(variant)
        finally:
            undo()
        busy = {name: (t1 - t0, n) for _sid, _parent, name, t0, t1, n in tracer.spans}
        sim_ns, entries = busy["sim.simulate"]
        layers[policy] = {
            "sim.simulate.busy_ms": sim_ns / 1e6,
            "sim.simulate.entries": entries,
            "sim.entries_per_s": entries / (sim_ns / 1e9),
            "sim.Timeline.to_csv.busy_ms": busy["sim.Timeline.to_csv"][0] / 1e6,
            "sim.Timeline.summary.busy_ms": busy["sim.Timeline.summary"][0] / 1e6,
        }
    return results, layers
