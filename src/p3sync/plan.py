"""Synchronization plans: how a model's parameters are sliced, prioritized, and sharded.

A plan is its rows: each slice's key, offset, length and server, plus the mode
and the server count. ``make_plan`` is the one builder, and the mode chooses
only how it cuts a layer and where each piece goes. p3 chops every layer into
chunks no larger than ``max_slice`` and deals them across servers round-robin;
baseline keeps a layer below ``big_threshold`` whole on a seeded server and
splits a larger one equally across all servers. The settings are not stored:
whoever reads a plan reads its rows, so a loaded plan means what it says.

A slice's priority is not stored either: it is the order of its key, (layer,
slice), so a layer nearer the input (0 = most urgent) goes first and a layer's
slices go in offset order. Every priority queue of the runtime and the
simulator orders by that key. ``SliceKey`` is defined in ``proto`` and
re-exported here: a frame carries its slice's key as the plan names it.

Whoever builds a ``SlicePlan``, it refuses more than ``MAX_PLAN_SLICES`` rows,
rows out of strictly increasing key order, rows that do not number and tile a
layer from slice 0 and offset 0, and slices over one frame or off the plan's
servers. So every reader, a server too, trusts the rows as they stand, and
``validate_plan`` checks only what needs a profile.

``chunk_layer`` is the one slicing rule of the package: the simulator cuts a
layer's uplink cost with it too, so a scenario slices as a plan does.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby, islice, zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from .hashing import digest64, splitmix64_stream
from .model import ModelProfile
from .proto import DEFAULT_MAX_PAYLOAD, SliceKey, pack_f32

if TYPE_CHECKING:
    import numpy as np

P3_MODE = "p3"
BASELINE_MODE = "baseline"
MODES = (P3_MODE, BASELINE_MODE)

DEFAULT_MAX_SLICE = 50_000
DEFAULT_BIG_THRESHOLD = 1_000_000
MAX_FRAME_PARAMS = DEFAULT_MAX_PAYLOAD // 4  # float32 params in the largest frame payload
# Every process of a run holds each slice of its plan, and every plan file a row
# per slice, so a plan of one slice per param (``--max-slice 1``) is a mistyped
# flag, not a plan to build. A paper-scale VGG-19 fits: its 143,667,240 params in
# 38 weight and bias arrays, cut at 2,000 params (the finest slice size a
# slice-size sweep tries), make 71,855 slices.
MAX_PLAN_SLICES = 131_072  # 2**17


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class Slice:
    key: SliceKey
    offset: int
    length: int
    server: int


@dataclass(frozen=True)
class SlicePlan:
    """A mode, a server count and the slices, in strictly increasing key order."""

    mode: str
    slices: tuple[Slice, ...]
    num_servers: int

    def __post_init__(self) -> None:
        if self.mode not in MODES or self.num_servers < 1:
            raise PlanError(f"need a mode of {MODES} and num_servers >= 1, not {self.mode!r} and {self.num_servers}")
        if len(self.slices) > MAX_PLAN_SLICES:
            raise PlanError(f"{len(self.slices)} slices; a plan holds at most {MAX_PLAN_SLICES}")
        for prev, s in zip((None,) + self.slices, self.slices):
            layer = s.key.layer_index
            if prev and s.key <= prev.key:  # frames name a slice by its key alone
                raise PlanError(f"slice {s.key} repeats slice key {prev.key} or comes before it")
            same = prev and prev.key.layer_index == layer
            if s.key.slice_index != (prev.key.slice_index + 1 if same else 0):  # so it fits a header's 32-bit field
                raise PlanError(f"layer {layer}: slice {s.key} breaks its layer's count of slices from 0")
            cursor = prev.offset + prev.length if same else 0
            if s.offset != cursor:
                raise PlanError(f"layer {layer}: gap/overlap at offset {cursor}")
            if s.length < 1:
                raise PlanError(f"layer {layer}: empty slice {s.key}")
            if s.length > MAX_FRAME_PARAMS:
                raise PlanError(
                    f"layer {layer}: slice {s.key} holds {s.length} params, "
                    f"more than the {MAX_FRAME_PARAMS} one frame carries"
                )
            if not 0 <= s.server < self.num_servers:
                raise PlanError(f"layer {layer}: bad server {s.server}")

    def by_layer(self) -> dict[int, list[Slice]]:
        """Each layer's slices in slice order, the layers in index order."""
        return {layer: list(group) for layer, group in groupby(self.slices, lambda s: s.key.layer_index)}


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


def make_plan(
    mode: str,
    profile: ModelProfile,
    num_servers: int,
    max_slice: int = DEFAULT_MAX_SLICE,
    big_threshold: int = DEFAULT_BIG_THRESHOLD,
    seed: int = 0,
) -> SlicePlan:
    """The plan of ``mode``; p3 reads only ``max_slice``, baseline the other two."""
    SlicePlan(mode, (), num_servers)  # the plan's own check of its mode and server count, before any cut
    if mode == P3_MODE and max_slice < 1:
        raise PlanError(f"no p3 plan with max_slice={max_slice}: need max_slice >= 1")
    count = 0  # the slices the loop below would cut, counted before it cuts any
    for layer in profile.layers:
        n = layer.param_count
        if mode == P3_MODE:
            count += -(-n // max_slice)
        elif n < big_threshold:
            count += 1
        elif n < num_servers:
            raise PlanError(f"layer {layer.index}: {n} params cannot split over {num_servers} servers")
        else:
            count += num_servers
    if count > MAX_PLAN_SLICES:
        raise PlanError(f"profile {profile.name} cuts into {count} slices; a plan holds at most {MAX_PLAN_SLICES}")
    slices: list[Slice] = []
    for layer in profile.layers:
        n = layer.param_count
        if mode == P3_MODE:  # round-robin, the counter running on across layers
            pieces = chunk_layer(n, max_slice)
            servers = [(len(slices) + i) % num_servers for i in range(len(pieces))]
        elif n < big_threshold:  # whole, on a seeded server
            pieces = [(0, n)]
            servers = [splitmix64_stream(seed, layer.index) % num_servers]
        else:  # equal parts, the remainder in the last, part i on server i
            part = n // num_servers
            last = (num_servers - 1) * part
            pieces = [(i * part, part) for i in range(num_servers - 1)] + [(last, n - last)]
            servers = range(num_servers)
        for i, ((offset, length), server) in enumerate(zip(pieces, servers)):
            slices.append(Slice(SliceKey(layer.index, i), offset, length, server))
    return SlicePlan(mode, tuple(slices), num_servers)


def validate_plan(plan: SlicePlan, profile: ModelProfile) -> None:
    """Check that the plan's rows cover every layer of ``profile`` and no other; the plan checked the rest."""
    ends = {s.key.layer_index: s.offset + s.length for s in plan.slices}  # the rows tile each layer up to here
    known = {layer.index for layer in profile.layers}
    unknown = [l for l in ends if l not in known]
    if unknown:
        raise PlanError(f"slices for layers {unknown} that profile {profile.name} does not have")
    for layer in profile.layers:
        end = ends.get(layer.index)
        if end is None:
            raise PlanError(f"layer {layer.index} not covered")
        if end != layer.param_count:
            raise PlanError(f"layer {layer.index}: covers {end} of {layer.param_count}")


_META_PREFIX = "# p3sync-plan "
_META_KEYS = ("mode", "num_servers")
PLAN_CSV_HEADER = "layer,slice,offset,len,server"


def slice_digests_csv(slices: Iterable[tuple[Slice, np.ndarray]]) -> str:
    """The one result format of workers and servers: a row per (slice, its float32
    values), in the order given, which is key order as in a plan, with the slice's
    place in its layer and digest64 of its values."""
    rows = [
        f"{s.key.layer_index},{s.key.slice_index},{s.offset},{s.length},{digest64(pack_f32(v)):016x}\n"
        for s, v in slices
    ]
    return "layer,slice,offset,len,digest\n" + "".join(rows)


def plan_to_csv(plan: SlicePlan) -> str:
    buf = io.StringIO()
    buf.write(_META_PREFIX + " ".join(f"{k}={getattr(plan, k)}" for k in _META_KEYS) + "\n")
    buf.write(PLAN_CSV_HEADER + "\n")
    for s in plan.slices:
        buf.write(f"{s.key.layer_index},{s.key.slice_index},{s.offset},{s.length},{s.server}\n")
    return buf.getvalue()


def plan_fingerprint(plan: SlicePlan) -> int:
    """digest64 of the plan's CSV: a worker sends it in HELLO, its server checks it."""
    return digest64(plan_to_csv(plan).encode())


def plan_from_csv(text: str) -> SlicePlan:
    """The plan whose ``plan_to_csv`` is ``text``, byte for byte; any other text is a PlanError."""
    return _plan_from_lines(io.StringIO(text))


def _plan_from_lines(text_lines: Iterable[str]) -> SlicePlan:
    # the metadata line, the header and a row per slice: one line past them is
    # read, and refused, before any row is parsed, however long the text
    lines = list(islice(text_lines, MAX_PLAN_SLICES + 3))
    if len(lines) > MAX_PLAN_SLICES + 2:
        raise PlanError(
            f"plan text of more than {MAX_PLAN_SLICES + 2} lines; a plan holds at most {MAX_PLAN_SLICES} slices"
        )
    if not lines or not lines[0].startswith(_META_PREFIX):
        raise PlanError("missing plan metadata line")
    meta = dict(kv.partition("=")[::2] for kv in lines[0][len(_META_PREFIX):].split())
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise PlanError(f"plan metadata lacks {', '.join(missing)}")
    try:
        num_servers = int(meta["num_servers"])
    except ValueError:
        raise PlanError(f"bad plan metadata: {lines[0]!r}") from None
    slices: list[Slice] = []
    for ln in lines[2:]:
        try:
            layer, sl, offset, length, server = (int(x) for x in ln.split(","))
        except ValueError:
            raise PlanError(f"bad plan row {ln!r}: want {PLAN_CSV_HEADER}") from None
        slices.append(Slice(SliceKey(layer, sl), offset, length, server))
    plan = SlicePlan(meta["mode"], tuple(slices), num_servers)
    for n, (got, want) in enumerate(zip_longest(lines, plan_to_csv(plan).splitlines(keepends=True), fillvalue=""), 1):
        if got != want:  # a missing header, another key, a blank line, "1_024" or " 7"
            raise PlanError(f"plan line {n} is {got!r}, where plan_to_csv writes {want!r}")
    return plan


def load_plan(path: str | Path) -> SlicePlan:
    with open(path) as f:
        return _plan_from_lines(f)


def save_plan(plan: SlicePlan, path: str | Path) -> None:
    Path(path).write_text(plan_to_csv(plan))
