"""Deterministic integer hashing: splitmix64 mixing, synthetic gradients, digests.

Everything here is pure and bit-stable across platforms; the distributed
runtime leans on that for cross-mode and cross-process equality checks.
``gradient_block`` synthesizes a block in passes of CHUNK elements, in
scratch that each thread keeps, and can write into a caller's buffer
(``out``), so a long block allocates no memory of its own.
``digest64`` (64-bit BLAKE2b, in C) is the digest the runtime uses for
parameters. ``fnv1a64`` is a pure-Python FNV-1a that the runtime does not
call; ``perfbench/probes.py`` still wraps it by name.

numpy is imported inside the functions that use it, never at the top: the
simulator and the ``plan`` and ``simulate`` commands use only the pure
functions here, and a process that never touches an array should not pay
numpy's import (most of what starting the simulator cost).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
GRAD_ITER_MULT = 0x9E3779B97F4A7C15
GRAD_LAYER_MULT = 0xC2B2AE3D27D4EB4F
GRAD_ELEM_MULT = 0x165667B19E3779F9

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

# elements gradient_block synthesizes per pass: its scratch stays in cache
CHUNK = 32 * 1024
_THREAD = threading.local()


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


def gradient_value(seed: int, iteration: int, layer_index: int, element_index: int) -> np.float32:
    """Synthetic gradient for one element, in [-1, 1), reproducible everywhere."""
    import numpy as np

    x = seed
    x ^= (iteration * GRAD_ITER_MULT) & MASK64
    x ^= (layer_index * GRAD_LAYER_MULT) & MASK64
    x ^= (element_index * GRAD_ELEM_MULT) & MASK64
    top24 = splitmix64_mix(x) >> 40
    return np.float32(np.float64(top24) * 2.0**-23 - 1.0)


def _thread_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This thread's read-only table of ``i * GRAD_ELEM_MULT mod 2**64`` for i in
    [0, CHUNK), its two CHUNK-element uint64 scratch arrays and its
    CHUNK-element int32 one.

    Built on first use, so importing this module stays cheap, and kept, since
    fresh pages for every block cost more than the mixing.
    """
    import numpy as np

    arrays = getattr(_THREAD, "arrays", None)
    if arrays is None:
        steps = np.arange(CHUNK, dtype=np.uint64)
        steps *= np.uint64(GRAD_ELEM_MULT)
        steps.flags.writeable = False
        arrays = _THREAD.arrays = (
            steps, np.empty(CHUNK, np.uint64), np.empty(CHUNK, np.uint64), np.empty(CHUNK, np.int32)
        )
    return arrays


def gradient_block(
    seed: int, iteration: int, layer_index: int, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """float32 vector of gradient_value over elements [start, start+count).

    Written into ``out[:count]`` and returned as that view when ``out`` is
    given (a float32 array of at least ``count`` elements), else into a new
    array. Works CHUNK elements at a time, in scratch arrays that each thread
    allocates once, so it allocates nothing but the result, however long the
    block.
    """
    import numpy as np

    base = seed
    base ^= (iteration * GRAD_ITER_MULT) & MASK64
    base ^= (layer_index * GRAD_LAYER_MULT) & MASK64
    base = np.uint64(base)
    out = np.empty(count, dtype=np.float32) if out is None else out[:count]
    # splitmix64_mix in place on one uint64 array (wrapping), with one scratch array
    steps, x, t, i32 = _thread_arrays()
    for pos in range(0, count, CHUNK):
        n = min(CHUNK, count - pos)
        xc, tc, ic, oc = x[:n], t[:n], i32[:n], out[pos : pos + n]
        # (start + pos + i) * GRAD_ELEM_MULT, wrapping: one add to the i * GRAD_ELEM_MULT table
        np.add(steps[:n], np.uint64(((start + pos) * GRAD_ELEM_MULT) & MASK64), out=xc)
        xc ^= base
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(xc, np.uint64(shift), out=tc)
            xc ^= tc
            xc *= np.uint64(mult)
        # splitmix64_mix ends with x ^= x >> 31, which cannot reach the 24 bits kept:
        # (x ^ (x >> 31)) >> 40 == (x >> 40) ^ (x >> 71) == x >> 40, as x >> 71 is 0
        np.right_shift(xc, np.uint64(40), out=xc)
        # top24 * 2**-23 - 1 is exact in float32: top24 and top24 - 2**23 fit in 24 bits.
        # top24 reads the same as int64 and as int32; numpy converts int64 to float32
        # about twice as fast as uint64, and int64 to int32, then to float32, faster still
        ic[...] = xc.view(np.int64)
        oc[...] = ic
        oc *= np.float32(2.0**-23)
        oc -= np.float32(1.0)
    return out


def digest64(*parts: bytes | bytearray | memoryview) -> int:
    """64-bit BLAKE2b (``digest_size=8``) of byte buffers, read as a big-endian integer.

    Several parts are hashed in turn, which equals hashing their concatenation,
    so a digest over many arrays needs no joined copy of them."""
    # imported here so processes that never digest (the simulator) do not load it;
    # hashlib.blake2b is this same type, but importing hashlib also loads OpenSSL's libcrypto
    from _blake2 import blake2b

    h = blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return int.from_bytes(h.digest(), "big")


def fnv1a64(data: bytes | bytearray | memoryview, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a over a byte string; ``h`` allows chained digests."""
    for b in bytes(data):
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h
