"""Deterministic integer hashing: splitmix64 mixing, synthetic gradients, digests.

Everything here is pure and bit-stable across platforms; the distributed
runtime leans on that for cross-mode and cross-process equality checks.
``digest64`` (64-bit BLAKE2b, in C) is the digest the runtime uses for
parameters. ``fnv1a64`` is a pure-Python FNV-1a that the runtime does not
call; ``perfbench/probes.py`` still wraps it by name.
"""

from __future__ import annotations

# hashlib.blake2b is this same type, but importing hashlib also loads OpenSSL's libcrypto
from _blake2 import blake2b

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
GRAD_ITER_MULT = 0x9E3779B97F4A7C15
GRAD_LAYER_MULT = 0xC2B2AE3D27D4EB4F
GRAD_ELEM_MULT = 0x165667B19E3779F9

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def splitmix64_mix(x: int) -> int:
    """splitmix64 output mixer over a 64-bit state."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def splitmix64_stream(seed: int, index: int) -> int:
    """index-th output of the splitmix64 sequence started at ``seed``."""
    state = (seed + (index + 1) * SPLITMIX_GAMMA) & MASK64
    return splitmix64_mix(state)


def _mix_array_u64(x: np.ndarray) -> np.ndarray:
    # vectorized splitmix64_mix; x is uint64, wraps silently
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def gradient_value(seed: int, iteration: int, layer_index: int, element_index: int) -> np.float32:
    """Synthetic gradient for one element, in [-1, 1), reproducible everywhere."""
    x = seed
    x ^= (iteration * GRAD_ITER_MULT) & MASK64
    x ^= (layer_index * GRAD_LAYER_MULT) & MASK64
    x ^= (element_index * GRAD_ELEM_MULT) & MASK64
    top24 = splitmix64_mix(x) >> 40
    return np.float32(np.float64(top24) * 2.0**-23 - 1.0)


def gradient_block(seed: int, iteration: int, layer_index: int, start: int, count: int) -> np.ndarray:
    """float32 vector of gradient_value over elements [start, start+count)."""
    base = seed
    base ^= (iteration * GRAD_ITER_MULT) & MASK64
    base ^= (layer_index * GRAD_LAYER_MULT) & MASK64
    elems = np.arange(start, start + count, dtype=np.uint64)
    x = np.uint64(base) ^ (elems * np.uint64(GRAD_ELEM_MULT))
    top24 = _mix_array_u64(x) >> np.uint64(40)
    return (top24.astype(np.float64) * 2.0**-23 - 1.0).astype(np.float32)


def digest64(data: bytes | bytearray | memoryview) -> int:
    """64-bit BLAKE2b (``digest_size=8``) of a byte buffer, read as a big-endian integer."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def fnv1a64(data: bytes | bytearray | memoryview, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a over a byte string; ``h`` allows chained digests."""
    for b in bytes(data):
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h
