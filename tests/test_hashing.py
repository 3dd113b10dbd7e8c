import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3sync.hashing import (
    fnv1a64,
    gradient_block,
    gradient_value,
    splitmix64_mix,
    splitmix64_stream,
)

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


@given(U64, st.integers(0, 100), st.integers(0, 50), st.integers(0, 10_000), st.integers(1, 64))
def test_gradient_block_matches_scalar(seed, it, layer, start, count):
    blk = gradient_block(seed, it, layer, start, count)
    ref = np.array(
        [gradient_value(seed, it, layer, e) for e in range(start, start + count)],
        dtype=np.float32,
    )
    assert np.array_equal(blk, ref)
    assert blk.dtype == np.float32


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
