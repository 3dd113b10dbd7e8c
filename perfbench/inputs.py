"""Benchmark inputs, generated from the workload seed.

The program only ever sees the files written here: a profile for the
runtime workloads and a scenario for the simulator workload. The shipped
``profiles/`` and ``scenarios/`` files are read only by the golden checks.
"""

from __future__ import annotations

import random
from dataclasses import replace

from p3sync.model import ModelProfile, builtin_profile
from p3sync.sim import PRIORITY_SLICED, Scenario, StageCost

# The link-bound scenario: microseconds become ticks of 100 us, and the links
# move 250 params per tick each way while the server updates 1000 per tick,
# so the links, not compute or update, are the bottleneck.
US_PER_TICK = 100
PARAMS_PER_LINK_TICK = 250
PARAMS_PER_UPDATE_TICK = 1000
SLICE_TICKS = 4


def runtime_profile(name: str, seed: int, zero_compute: bool) -> ModelProfile:
    """Builtin profile ``name`` with its gradient seed set to ``seed``.

    With ``zero_compute`` every forward and backward time is 0, so a run
    measures the data plane alone.
    """
    profile = builtin_profile(name)
    layers = profile.layers
    if zero_compute:
        layers = tuple(replace(l, fwd_time=0, bwd_time=0) for l in layers)
    return replace(profile, seed=seed, layers=layers)


def linkbound_scenario(seed: int, iterations: int) -> Scenario:
    """Link-bound scenario derived from ``resnet50-like``.

    The seed moves each layer's forward and backward time by -1, 0 or +1
    tick. That changes the schedule but not the number of timeline entries,
    so every seed asks the simulator for the same amount of work.
    """
    rng = random.Random(seed)
    profile = builtin_profile("resnet50-like")
    layers = []
    stages = []
    for layer in profile.layers:
        fwd = max(1, round(layer.fwd_time / US_PER_TICK) + rng.randint(-1, 1))
        bwd = max(1, round(layer.bwd_time / US_PER_TICK) + rng.randint(-1, 1))
        layers.append(replace(layer, fwd_time=fwd, bwd_time=bwd))
        link = layer.param_count // PARAMS_PER_LINK_TICK
        stages.append(StageCost(up=link, update=layer.param_count // PARAMS_PER_UPDATE_TICK, down=link))
    return Scenario(
        profile=replace(profile, name="resnet50-linkbound", seed=seed, layers=tuple(layers)),
        stages=tuple(stages),
        policy=PRIORITY_SLICED,
        slice_ticks=SLICE_TICKS,
        num_iterations=iterations,
        name=f"resnet50-linkbound-s{seed}",
    )
