"""Declarative model profiles: per-layer parameter counts and emulated compute times.

A profile drives both the networked workload emulator (times in microseconds)
and the discrete-event simulator (times in abstract ticks). No real math is
attached to a layer; compute is represented purely by its declared duration.

A profile file is the JSON of ``ModelProfile``'s fields (``dataclasses.asdict``),
and ``profile_from_dict`` reads it back, refusing any key the dataclasses lack.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


class ProfileError(ValueError):
    """Raised when a profile file or structure violates its invariants."""


@dataclass(frozen=True)
class LayerSpec:
    index: int
    name: str
    param_count: int
    fwd_time: int
    bwd_time: int

    def validate(self) -> None:
        if self.param_count < 1:
            raise ProfileError(f"layer {self.index} ({self.name}): param_count must be >= 1")
        if self.fwd_time < 0 or self.bwd_time < 0:
            raise ProfileError(f"layer {self.index} ({self.name}): negative compute time")


@dataclass(frozen=True)
class ModelProfile:
    name: str
    seed: int
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def validate(self) -> None:
        if not self.layers:
            raise ProfileError(f"profile {self.name}: needs at least one layer")
        for pos, layer in enumerate(self.layers):
            layer.validate()
            if layer.index != pos:
                raise ProfileError(
                    f"profile {self.name}: layer {layer.name!r} has index {layer.index}, "
                    f"expected {pos}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)


_JSON_TYPES = {int: "integer", str: "string", list: "array", dict: "object"}
_LAYER_KINDS = {"index": int, "name": str, "param_count": int, "fwd_time": int, "bwd_time": int}


def typed_fields(obj: dict, kinds: dict[str, type], error: type[Exception], where: str = "") -> dict:
    """``obj``, each key of which must name a field of ``kinds`` and hold exactly its JSON type.

    So a bool is not an integer and 2.7 is not 2. An unknown key or a mistyped
    value raises ``error`` naming the field ``where + key``: a file that sets a
    field this version does not have is refused, not read as if it were unset.
    """
    if type(obj) is not dict:
        raise error(f"{where.rstrip('.') or 'the top level'} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in kinds:
            raise error(f"unknown key {where}{key}")
        if type(obj[key]) is not kinds[key]:
            raise error(f"{where}{key} must be a JSON {_JSON_TYPES[kinds[key]]}, got {obj[key]!r}")
    return obj


def profile_from_dict(obj: dict, where: str = "") -> ModelProfile:
    """The profile in ``obj``; an unknown or mistyped field's error names it ``where`` + its path."""
    try:
        top = typed_fields(obj, {"name": str, "seed": int, "layers": list}, ProfileError, where)
        layers = tuple(
            LayerSpec(**typed_fields(l, _LAYER_KINDS, ProfileError, f"{where}layers[{pos}]."))
            for pos, l in enumerate(top["layers"])
        )
        profile = ModelProfile(top["name"], top["seed"], layers)
    except (KeyError, TypeError) as exc:
        raise ProfileError(f"malformed profile object: {exc}") from exc
    profile.validate()
    return profile


def load_profile(path: str | Path) -> ModelProfile:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path}: not valid JSON: {exc}") from exc
    return profile_from_dict(obj)


def save_profile(profile: ModelProfile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(profile), indent=2) + "\n")


def _toy3() -> ModelProfile:
    layers = tuple(LayerSpec(i, f"layer{i}", 1024, 1000, 1000) for i in range(3))
    return ModelProfile(name="toy3", seed=42, layers=layers)


def _vgg19_like() -> ModelProfile:
    # 19 layers, 1,000,000 params total; the fc layer at index 16 holds
    # exactly 715,000 (a 0.715 share), mirroring the heavy-FC skew.
    conv_sizes = [
        2_000, 4_000, 8_000, 8_000,
        16_000, 16_000, 16_000, 16_000,
        20_000, 20_000, 20_000, 20_000,
        24_000, 24_000, 24_000, 24_000,
    ]
    layers = []
    for i, params in enumerate(conv_sizes):
        layers.append(LayerSpec(i, f"conv{i}", params, 1400, 2100))
    # fc layers carry the parameters but almost none of the compute
    layers.append(LayerSpec(16, "fc16", 715_000, 400, 600))
    layers.append(LayerSpec(17, "fc17", 18_000, 300, 450))
    layers.append(LayerSpec(18, "fc18", 5_000, 200, 300))
    return ModelProfile(name="vgg19-like", seed=19, layers=tuple(layers))


def _resnet50_like() -> ModelProfile:
    # many small conv layers, a heavier final fc
    sizes = [4_000] * 12 + [6_000] * 12 + [8_000] * 13 + [12_000] * 12
    layers = [LayerSpec(i, f"conv{i}", p, 700, 1100) for i, p in enumerate(sizes)]
    layers.append(LayerSpec(len(sizes), "fc", 60_000, 900, 1400))
    return ModelProfile(name="resnet50-like", seed=50, layers=tuple(layers))


def _sockeye_like() -> ModelProfile:
    # translation-model skew: the embedding at index 0 is the heaviest layer
    layers = [LayerSpec(0, "embed", 400_000, 1800, 2600)]
    for i in range(1, 13):
        layers.append(LayerSpec(i, f"enc{i}", 10_000, 1200, 1800))
    for i in range(13, 25):
        layers.append(LayerSpec(i, f"dec{i}", 15_000, 1200, 1800))
    return ModelProfile(name="sockeye-like", seed=7, layers=tuple(layers))


_BUILTINS = {
    "toy3": _toy3,
    "vgg19-like": _vgg19_like,
    "resnet50-like": _resnet50_like,
    "sockeye-like": _sockeye_like,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_profile(name: str) -> ModelProfile:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ProfileError(f"unknown builtin profile {name!r}; have {', '.join(BUILTIN_NAMES)}") from None
    profile = factory()
    profile.validate()
    return profile


def resolve_profile(name_or_path: str | Path) -> ModelProfile:
    """Load a profile from a file path, falling back to a builtin name."""
    p = Path(name_or_path)
    if p.exists():
        return load_profile(p)
    if str(name_or_path) in _BUILTINS:
        return builtin_profile(str(name_or_path))
    raise ProfileError(f"no profile file or builtin named {name_or_path!r}")
