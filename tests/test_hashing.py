import hashlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3sync.hashing import (
    CHUNK,
    GRAD_ELEM_MULT,
    GRAD_ITER_MULT,
    GRAD_LAYER_MULT,
    MASK64,
    digest64,
    fnv1a64,
    gradient_block,
    gradient_value,
    splitmix64_mix,
    splitmix64_stream,
)
from p3sync.model import builtin_profile
from p3sync.plan import BASELINE_MODE, P3_MODE, make_plan

U64 = st.integers(min_value=0, max_value=2**64 - 1)

# frozen outputs of the stated formula, computed once by an independent
# step-by-step scalar replay
GOLDEN = [
    ((0, 0, 0, 0), -1.0),
    ((0, 0, 0, 1), 0.402935266494751),
    ((0, 0, 1, 0), -0.1834399700164795),
    ((0, 1, 0, 0), 0.7666215896606445),
    ((1, 0, 0, 0), -0.3236668109893799),
    ((42, 3, 2, 7), 0.17637872695922852),
    ((2**64 - 1, 9, 17, 123456), -0.8298367261886597),
]


@pytest.mark.parametrize("args,expected", GOLDEN)
def test_gradient_golden_vector(args, expected):
    got = gradient_value(*args)
    assert got == np.float32(expected)
    assert got.dtype == np.float32


@given(U64, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 2**40))
def test_gradient_pure_and_bounded(seed, it, layer, elem):
    a = gradient_value(seed, it, layer, elem)
    b = gradient_value(seed, it, layer, elem)
    assert a == b and a.tobytes() == b.tobytes()
    assert -1.0 <= float(a) < 1.0


# element offsets near 0 and near 2**40
STARTS = st.one_of(st.integers(0, 10_000), st.integers(2**40 - 2**20, 2**40 + 2**20))


@given(U64, st.integers(0, 100), st.integers(0, 50), STARTS, st.integers(1, 64))
def test_gradient_block_matches_scalar(seed, it, layer, start, count):
    blk = gradient_block(seed, it, layer, start, count)
    ref = np.array(
        [gradient_value(seed, it, layer, e) for e in range(start, start + count)],
        dtype=np.float32,
    )
    assert np.array_equal(blk, ref)
    assert blk.dtype == np.float32


# digest64 of gradient_block(19, k, layer, offset, length) for every slice of the
# vgg19-like p3 plan, in plan order, as computed by the float64 implementation
# that gradient_block replaced (33 slices, 1M elements)
VGG19_SLICE_DIGESTS = {
    0: (
        "6d014a686542fdb3 e19cde784ed12ef8 6378e8da8ab98aa6 fa2dfec20bc38d9b 6940873ea8ecc27a "
        "33717c1d8aef781b 0da32b59fdbdc2ef 78ad1904176f4f78 2558b64d3247446c 34e9d754df94dcdf "
        "f02509621a3d0d62 9dda687cf776cc7b b229ef0b664ef8ed 0bc185261adacb94 2d3d31ef79d40523 "
        "439074b578b59206 65c3e151b4dbf34b c0463b6f0487c662 36900528778a3e4f 8b9f6aac50389d81 "
        "fe7020fafc1ceb9a 237358b18bd38b66 04e7b2a6ffb014ad 4290cd38579caf46 d9c4a15396ea4682 "
        "35a40cc27561756e 74404d2ea41fdd2f ac27b57d44185c7d 8172b1a6237f549c 20f0338061408afa "
        "9c58628eaea9899d 3e6e0dffb4ee4790 d09674e5084f67f1"
    ),
    7: (
        "a32f66bf748fbe16 d08eff715a1a1983 8fc0ef1438a8cb8f 2ee8e750904f458c dd6e1c0a9dc3d166 "
        "50c017a55b24045f a770fab97c97c3f6 f7501d72bea5dae9 88c0fb5e99566b3e 43014e33cbf435d8 "
        "0270558289bf9a62 dfef7cf0a4e26213 c10ee1fef7c82a26 f9881e87d55fb66d 35bf659b9f2ed77d "
        "270757820be66ed5 6a3c44e8fac5e705 bf084e7317e44b83 46706d60af9f2b12 b206e19dca98a1de "
        "f59a2cb0639f2a4c 7585a1dba9dd9149 dc7fa0ba57b9bb2a c285dd82983d8306 98cb55eb17310996 "
        "34461b8d5670c470 1b582df1bdba5994 e81ea175535b50dd 9f7f7a057618e019 c2f8aa17462667ce "
        "6883d8fe5b14df66 7d8514c52e5ad192 49f5635af9fd760c"
    ),
}


@pytest.mark.parametrize("iteration", sorted(VGG19_SLICE_DIGESTS))
def test_gradient_block_pinned_on_vgg19_slices(iteration):
    plan = make_plan(P3_MODE, builtin_profile("vgg19-like"), 1)
    blocks = (gradient_block(19, iteration, s.key.layer_index, s.offset, s.length) for s in plan.slices)
    got = [f"{digest64(b.tobytes()):016x}" for b in blocks]
    assert got == VGG19_SLICE_DIGESTS[iteration].split()


# the same digests for every block of the vgg19-like baseline plan: whole layers,
# layer 16 in one block of 715,000 elements, as computed by the unchunked
# implementation that gradient_block replaced (19 blocks, 1M elements)
VGG19_BASELINE_DIGESTS = {
    0: (
        "6d014a686542fdb3 e19cde784ed12ef8 6378e8da8ab98aa6 fa2dfec20bc38d9b 6940873ea8ecc27a "
        "33717c1d8aef781b 0da32b59fdbdc2ef 78ad1904176f4f78 2558b64d3247446c 34e9d754df94dcdf "
        "f02509621a3d0d62 9dda687cf776cc7b b229ef0b664ef8ed 0bc185261adacb94 2d3d31ef79d40523 "
        "439074b578b59206 da4947366b8976df 3e6e0dffb4ee4790 d09674e5084f67f1"
    ),
    7: (
        "a32f66bf748fbe16 d08eff715a1a1983 8fc0ef1438a8cb8f 2ee8e750904f458c dd6e1c0a9dc3d166 "
        "50c017a55b24045f a770fab97c97c3f6 f7501d72bea5dae9 88c0fb5e99566b3e 43014e33cbf435d8 "
        "0270558289bf9a62 dfef7cf0a4e26213 c10ee1fef7c82a26 f9881e87d55fb66d 35bf659b9f2ed77d "
        "270757820be66ed5 3f8cc586d2fb0a5d 7d8514c52e5ad192 49f5635af9fd760c"
    ),
}


@pytest.mark.parametrize("iteration", sorted(VGG19_BASELINE_DIGESTS))
def test_gradient_block_pinned_on_vgg19_baseline_blocks(iteration):
    plan = make_plan(BASELINE_MODE, builtin_profile("vgg19-like"), 1)
    # one buffer for every block, as a worker's sender synthesizes its pushes
    buf = np.empty(max(s.length for s in plan.slices), dtype="<f4")
    got = []
    for s in plan.slices:
        blk = gradient_block(19, iteration, s.key.layer_index, s.offset, s.length, out=buf)
        got.append(f"{digest64(memoryview(blk).cast('B')):016x}")
    assert got == VGG19_BASELINE_DIGESTS[iteration].split()


def unchunked_gradient_block(seed, iteration, layer_index, start, count):
    """gradient_block as it was before it worked in chunks: the whole block in one pass."""
    base = seed
    base ^= (iteration * GRAD_ITER_MULT) & MASK64
    base ^= (layer_index * GRAD_LAYER_MULT) & MASK64
    x = np.arange(start, start + count, dtype=np.uint64)
    x *= np.uint64(GRAD_ELEM_MULT)
    x ^= np.uint64(base)
    t = np.empty_like(x)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, np.uint64(shift), out=t)
        x ^= t
        x *= np.uint64(mult)
    np.right_shift(x, np.uint64(40), out=x)
    out = x.view(np.int64).astype(np.float32)
    out *= np.float32(2.0**-23)
    out -= np.float32(1.0)
    return out


@pytest.mark.parametrize("start", [3, 2**40 - CHUNK // 2])
@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_gradient_block_bit_identical_across_chunk_borders(start, count):
    blk = gradient_block(2**64 - 5, 9, 16, start, count)
    ref = unchunked_gradient_block(2**64 - 5, 9, 16, start, count)
    assert blk.dtype == np.float32
    assert np.array_equal(blk.view(np.uint32), ref.view(np.uint32))
    for first in range(0, count, CHUNK):
        last = min(first + CHUNK, count) - 1
        for e in (first, last):
            assert blk[e].tobytes() == gradient_value(2**64 - 5, 9, 16, start + e).tobytes()


def test_gradient_block_reuses_its_out_buffer():
    buf = np.empty(3 * CHUNK + 7, dtype="<f4")
    long = gradient_block(7, 1, 2, 0, len(buf), out=buf)
    assert np.shares_memory(long, buf) and len(long) == len(buf)
    tail = buf[CHUNK + 1 :].copy()
    short = gradient_block(7, 2, 3, 2**40, CHUNK + 1, out=buf)
    assert np.shares_memory(short, buf) and len(short) == CHUNK + 1
    ref = unchunked_gradient_block(7, 2, 3, 2**40, CHUNK + 1)
    assert np.array_equal(short.view(np.uint32), ref.view(np.uint32))
    assert buf[CHUNK + 1 :].tobytes() == tail.tobytes()  # past ``count`` nothing is written


def test_threads_synthesizing_at_once_get_their_own_blocks():
    # each thread's scratch is its own: four threads, more than the cores, switching often
    args = [(5, k, 16, k * 100_003, 2 * CHUNK + 11) for k in range(4)]
    want = [unchunked_gradient_block(*a) for a in args]
    got = [[] for _ in args]

    def synthesize(i):
        buf = np.empty(args[i][-1], dtype="<f4")
        for _ in range(20):
            got[i].append(gradient_block(*args[i], out=buf).copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=synthesize, args=(i,)) for i in range(len(args))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for blocks, ref in zip(got, want):
        assert len(blocks) == 20
        assert all(np.array_equal(b.view(np.uint32), ref.view(np.uint32)) for b in blocks)


def test_long_block_into_a_buffer_allocates_little():
    # the unchunked version peaked at 14.3 MB here, 5x the block
    buf = np.empty(715_000, dtype="<f4")
    gradient_block(19, 0, 16, 0, len(buf), out=buf)  # builds this thread's table and scratch
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        gradient_block(19, 1, 16, 0, len(buf), out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_gradient_mean_near_zero():
    blk = gradient_block(12345, 0, 0, 0, 1_000_000)
    assert -0.01 < float(blk.mean()) < 0.01


def test_splitmix_mix_fixed_point_and_range():
    assert splitmix64_mix(0) == 0
    assert 0 <= splitmix64_mix(1) < 2**64
    assert splitmix64_mix(2**64 - 1) == splitmix64_mix(-1)  # masked


def test_splitmix_stream_distinct_per_index():
    seen = {splitmix64_stream(9, i) for i in range(1000)}
    assert len(seen) == 1000


# reference vectors from the classic FNV-1a test suite
@pytest.mark.parametrize(
    "data,expected",
    [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
    ],
)
def test_fnv1a64_reference(data, expected):
    assert fnv1a64(data) == expected


def test_fnv1a64_chaining():
    whole = fnv1a64(b"hello world")
    part = fnv1a64(b" world", fnv1a64(b"hello"))
    assert whole == part


# hashlib's blake2b is the independent reference for the runtime's digest
@pytest.mark.parametrize(
    "data",
    [b"", b"a", b"foobar", bytes(range(256)) * 17, np.arange(1000, dtype="<f4").tobytes()],
)
def test_digest64_is_blake2b_64(data):
    ref = hashlib.blake2b(data, digest_size=8)
    assert digest64(data) == int.from_bytes(ref.digest(), "big")
    assert f"{digest64(data):016x}" == ref.hexdigest()  # the hex the result files hold
    assert digest64(memoryview(data)) == digest64(bytearray(data)) == digest64(data)


@given(st.lists(st.binary(max_size=300), max_size=6))
def test_digest64_over_parts_equals_digest64_over_their_join(parts):
    # params_digest hashes each layer's array in turn instead of joining copies of them
    assert digest64(*parts) == digest64(b"".join(parts))
    assert digest64(*map(memoryview, parts)) == digest64(b"".join(parts))


def loaded_on_import(module: str) -> bool:
    """Whether importing p3sync's modules, in a fresh interpreter, loads ``module``."""
    code = f"import sys, p3sync, p3sync.cli, p3sync.sim; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_does_not_load_openssl():
    # importing hashlib would load OpenSSL's libcrypto (via _hashlib) into every process
    assert not loaded_on_import("_hashlib")


def test_import_does_not_load_blake2():
    # only digest64 needs it; the simulator and the planner never digest
    assert not loaded_on_import("_blake2")
