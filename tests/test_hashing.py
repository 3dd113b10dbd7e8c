import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3sync.hashing import (
    digest64,
    fnv1a64,
    gradient_block,
    gradient_value,
    splitmix64_mix,
    splitmix64_stream,
)
from p3sync.model import builtin_profile
from p3sync.plan import P3_MODE, make_plan

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
