"""Synchronization plans: how a model's parameters are sliced, prioritized, and sharded.

Two planning modes exist. The priority mode chops every layer into chunks no
larger than ``max_slice`` and deals the chunks across servers round-robin; the
baseline mode keeps small layers whole on a randomly chosen server and splits
only layers at or above ``big_threshold`` equally across all servers. A
slice's priority is not stored: it is its layer's forward index (0 = most
urgent), which the wire header carries and the queues order by.

``chunk_layer`` is the one slicing rule of the package: the simulator cuts a
layer's uplink cost with it too, so a scenario slices as a plan does.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

from .hashing import digest64, splitmix64_stream
from .model import ModelProfile

P3_MODE = "p3"
BASELINE_MODE = "baseline"
MODES = (P3_MODE, BASELINE_MODE)

DEFAULT_MAX_SLICE = 50_000
DEFAULT_BIG_THRESHOLD = 1_000_000


class PlanError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class SliceKey:
    layer_index: int
    slice_index: int


@dataclass(frozen=True)
class Slice:
    key: SliceKey
    offset: int
    length: int
    server: int


@dataclass(frozen=True)
class SlicePlan:
    mode: str
    slices: tuple[Slice, ...]
    num_servers: int
    max_slice: int = DEFAULT_MAX_SLICE
    big_threshold: int = DEFAULT_BIG_THRESHOLD
    rng_seed: int = 0

    def slices_of_layer(self, layer_index: int) -> list[Slice]:
        found = sorted(
            (s for s in self.slices if s.key.layer_index == layer_index),
            key=lambda s: s.key.slice_index,
        )
        if not found:
            raise PlanError(f"no layer {layer_index} in plan")
        return found


def priority_sort_key(priority: int, key: SliceKey) -> tuple[int, int, int]:
    """Total-order key: lower priority value first, ties by layer then slice index."""
    return (priority, key.layer_index, key.slice_index)


def chunk_layer(param_count: int, chunk: int) -> list[tuple[int, int]]:
    """(offset, length) pairs: full-size chunks in offset order, remainder last."""
    out = []
    offset = 0
    while offset + chunk <= param_count:
        out.append((offset, chunk))
        offset += chunk
    if offset < param_count:
        out.append((offset, param_count - offset))
    return out


def make_p3_plan(
    profile: ModelProfile,
    num_servers: int,
    max_slice: int = DEFAULT_MAX_SLICE,
) -> SlicePlan:
    if num_servers < 1:
        raise PlanError("num_servers must be >= 1")
    if max_slice < 1:
        raise PlanError("max_slice must be >= 1")
    slices = []
    counter = 0
    for layer in profile.layers:
        for slice_index, (offset, length) in enumerate(chunk_layer(layer.param_count, max_slice)):
            slices.append(
                Slice(
                    key=SliceKey(layer.index, slice_index),
                    offset=offset,
                    length=length,
                    server=counter % num_servers,
                )
            )
            counter += 1
    return SlicePlan(
        mode=P3_MODE, slices=tuple(slices), num_servers=num_servers, max_slice=max_slice
    )


def make_baseline_plan(
    profile: ModelProfile,
    num_servers: int,
    big_threshold: int = DEFAULT_BIG_THRESHOLD,
    rng_seed: int = 0,
) -> SlicePlan:
    if num_servers < 1:
        raise PlanError("num_servers must be >= 1")
    slices = []
    for layer in profile.layers:
        if layer.param_count < big_threshold:
            server = splitmix64_stream(rng_seed, layer.index) % num_servers
            slices.append(
                Slice(
                    key=SliceKey(layer.index, 0),
                    offset=0,
                    length=layer.param_count,
                    server=server,
                )
            )
        else:
            base = layer.param_count // num_servers
            offset = 0
            for part in range(num_servers):
                length = base if part < num_servers - 1 else layer.param_count - offset
                slices.append(
                    Slice(
                        key=SliceKey(layer.index, part),
                        offset=offset,
                        length=length,
                        server=part,
                    )
                )
                offset += length
    return SlicePlan(
        mode=BASELINE_MODE,
        slices=tuple(slices),
        num_servers=num_servers,
        big_threshold=big_threshold,
        rng_seed=rng_seed,
    )


def make_plan(
    mode: str,
    profile: ModelProfile,
    num_servers: int,
    max_slice: int = DEFAULT_MAX_SLICE,
    big_threshold: int = DEFAULT_BIG_THRESHOLD,
    seed: int = 0,
) -> SlicePlan:
    """The plan of ``mode``; p3 reads only ``max_slice``, baseline the other two."""
    if mode == P3_MODE:
        return make_p3_plan(profile, num_servers, max_slice)
    if mode == BASELINE_MODE:
        return make_baseline_plan(profile, num_servers, big_threshold, seed)
    raise PlanError(f"unknown plan mode {mode!r}")


def validate_plan(plan: SlicePlan, profile: ModelProfile) -> None:
    """Check full, non-overlapping coverage of every layer, no others (and p3 granularity)."""
    by_layer: dict[int, list[Slice]] = {}
    for s in plan.slices:
        by_layer.setdefault(s.key.layer_index, []).append(s)
    unknown = sorted(set(by_layer) - {layer.index for layer in profile.layers})
    if unknown:
        raise PlanError(f"slices for layers {unknown} that profile {profile.name} does not have")
    for layer in profile.layers:
        slices = sorted(by_layer.get(layer.index, []), key=lambda s: s.key.slice_index)
        if not slices:
            raise PlanError(f"layer {layer.index} not covered")
        cursor = 0
        for s in slices:
            if s.offset != cursor:
                raise PlanError(f"layer {layer.index}: gap/overlap at offset {cursor}")
            if s.length < 1:
                raise PlanError(f"layer {layer.index}: empty slice {s.key}")
            if plan.mode == P3_MODE and s.length > plan.max_slice:
                raise PlanError(f"layer {layer.index}: slice {s.key} exceeds max_slice")
            if not (0 <= s.server < plan.num_servers):
                raise PlanError(f"layer {layer.index}: bad server {s.server}")
            cursor += s.length
        if cursor != layer.param_count:
            raise PlanError(f"layer {layer.index}: covers {cursor} of {layer.param_count}")


_META_PREFIX = "# p3sync-plan "
_INT_META_KEYS = ("num_servers", "max_slice", "big_threshold", "rng_seed")
_META_KEYS = ("mode", *_INT_META_KEYS)
PLAN_CSV_HEADER = "layer,slice,offset,len,server"


def plan_to_csv(plan: SlicePlan) -> str:
    buf = io.StringIO()
    buf.write(_META_PREFIX + " ".join(f"{k}={getattr(plan, k)}" for k in _META_KEYS) + "\n")
    buf.write(PLAN_CSV_HEADER + "\n")
    for s in sorted(plan.slices, key=lambda s: (s.key.layer_index, s.key.slice_index)):
        buf.write(f"{s.key.layer_index},{s.key.slice_index},{s.offset},{s.length},{s.server}\n")
    return buf.getvalue()


def plan_fingerprint(plan: SlicePlan) -> int:
    """digest64 of the plan's CSV: a worker sends it in HELLO, its server checks it."""
    return digest64(plan_to_csv(plan).encode())


def plan_from_csv(text: str) -> SlicePlan:
    """Parse ``plan_to_csv`` output; a missing or malformed part raises PlanError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_META_PREFIX):
        raise PlanError("missing plan metadata line")
    meta = dict(kv.partition("=")[::2] for kv in lines[0][len(_META_PREFIX):].split())
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise PlanError(f"plan metadata lacks {', '.join(missing)}")
    if meta["mode"] not in MODES:
        raise PlanError(f"plan mode {meta['mode']!r} is not one of {MODES}")
    try:
        numbers = {k: int(meta[k]) for k in _INT_META_KEYS}
    except ValueError:
        raise PlanError(f"bad plan metadata: {lines[0]!r}") from None
    if len(lines) < 2 or lines[1] != PLAN_CSV_HEADER:
        raise PlanError(f"plan header line must be {PLAN_CSV_HEADER!r}")
    slices = []
    for ln in lines[2:]:
        try:
            layer, sl, offset, length, server = (int(x) for x in ln.split(","))
        except ValueError:
            raise PlanError(f"bad plan row {ln!r}: want {PLAN_CSV_HEADER}") from None
        slices.append(Slice(SliceKey(layer, sl), offset, length, server))
    return SlicePlan(mode=meta["mode"], slices=tuple(slices), **numbers)


def load_plan(path: str | Path) -> SlicePlan:
    return plan_from_csv(Path(path).read_text())


def save_plan(plan: SlicePlan, path: str | Path) -> None:
    Path(path).write_text(plan_to_csv(plan))
