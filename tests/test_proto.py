import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3sync.proto import (
    DEFAULT_MAX_PAYLOAD,
    HEADER_LEN,
    MAGIC,
    Frame,
    FrameDecoder,
    MsgType,
    ProtocolError,
    encode_frame,
    pack_f32,
)


def frame_strategy():
    payload_types = st.sampled_from([MsgType.PUSH, MsgType.BCAST])
    empty_types = st.sampled_from([MsgType.PULL, MsgType.NOTIFY, MsgType.HELLO, MsgType.FIN])
    f32s = st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False), min_size=0, max_size=16
    )
    common = {
        "iteration": st.integers(0, 2**64 - 1),
        "worker_rank": st.integers(0, 2**16 - 1),
        "layer_index": st.integers(0, 2**32 - 1),
        "slice_index": st.integers(0, 2**32 - 1),
    }
    with_payload = st.builds(
        Frame,
        msg_type=payload_types,
        payload=f32s.map(lambda v: pack_f32(np.array(v, dtype=np.float32))),
        **common,
    )
    without = st.builds(Frame, msg_type=empty_types, payload=st.just(b""), **common)
    return st.one_of(with_payload, without)


def test_header_len():
    assert HEADER_LEN == 27  # 4+1+8+2+4+4+4


def test_hello_is_header_only():
    data = encode_frame(Frame(msg_type=MsgType.HELLO, worker_rank=7))
    assert len(data) == HEADER_LEN
    payload_len = struct.unpack_from("<I", data, 23)[0]
    assert payload_len == 0


def test_push_payload_len_field():
    payload = pack_f32(np.array([1.5, -2.0], dtype=np.float32))
    data = encode_frame(Frame(msg_type=MsgType.PUSH, payload=payload))
    assert struct.unpack_from("<I", data, 23)[0] == 8
    assert len(data) == HEADER_LEN + 8


def test_field_offsets_little_endian():
    f = Frame(
        msg_type=MsgType.PUSH,
        iteration=0x1112131415161718,
        worker_rank=0x2122,
        layer_index=0x31323334,
        slice_index=0x41424344,
        payload=pack_f32(np.array([0.0], dtype=np.float32)),
    )
    data = encode_frame(f)
    assert data[0:4] == MAGIC
    assert data[4] == 0
    assert struct.unpack_from("<Q", data, 5)[0] == 0x1112131415161718
    assert struct.unpack_from("<H", data, 13)[0] == 0x2122
    assert struct.unpack_from("<I", data, 15)[0] == 0x31323334
    assert struct.unpack_from("<I", data, 19)[0] == 0x41424344
    assert struct.unpack_from("<I", data, 23)[0] == 4


DECODER = FrameDecoder()


def refused(data: bytes, match: str) -> None:
    """Both the header check and the frame decode refuse ``data``."""
    with pytest.raises(ProtocolError, match=match):
        DECODER.header(data[:HEADER_LEN])
    with pytest.raises(ProtocolError, match=match):
        DECODER.feed(data)


def test_bad_magic():
    refused(b"XXXX" + encode_frame(Frame(msg_type=MsgType.HELLO))[4:], "magic")


def test_unknown_msg_type():
    data = bytearray(encode_frame(Frame(msg_type=MsgType.HELLO)))
    data[4] = 99
    refused(bytes(data), "msg_type")


def test_oversize_payload_rejected():
    header = struct.pack("<4sBQHIII", MAGIC, int(MsgType.PUSH), 0, 0, 0, 0, DEFAULT_MAX_PAYLOAD + 4)
    refused(header, "exceeds")


@pytest.mark.parametrize("kind", ["PUSH", "BCAST"])
def test_payload_not_float32_rejected(kind):
    # refused at the header, before any payload byte is read, as encode_frame refuses to send it
    header = struct.pack("<4sBQHIII", MAGIC, int(MsgType[kind]), 0, 0, 0, 0, 5)
    refused(header + b"\x00" * 5, "payload_len 5 not a float32 array")


def test_nonzero_payload_on_control_frame_rejected():
    header = struct.pack("<4sBQHIII", MAGIC, int(MsgType.PULL), 0, 0, 0, 0, 4)
    refused(header + b"\x00" * 4, "nonzero payload")


def test_encode_rejects_payload_on_control_frame():
    with pytest.raises(ProtocolError):
        encode_frame(Frame(msg_type=MsgType.FIN, payload=b"zz"))


@settings(max_examples=300, deadline=None)
@given(frame_strategy())
def test_roundtrip(frame):
    data = encode_frame(frame)
    assert DECODER.header(data[:HEADER_LEN]) == len(data) - HEADER_LEN
    assert DECODER.feed(data) == [frame]


@settings(max_examples=100, deadline=None)
@given(frame_strategy(), st.binary(min_size=1, max_size=64))
def test_bytes_after_the_frame_are_refused(frame, extra):
    # a buffer holds one frame: whatever follows it, a second frame too, is refused
    data = encode_frame(frame)
    for tail in (extra, encode_frame(frame)):
        with pytest.raises(ProtocolError, match=f"{len(tail)} bytes after a {frame.msg_type.name} frame"):
            DECODER.feed(data + tail)


@settings(max_examples=100, deadline=None)
@given(frame_strategy(), st.data())
def test_a_frame_cut_short_is_refused(frame, data):
    # the decoder holds no partial frame: a buffer that ends inside its frame
    # is refused, with the count of bytes missing
    encoded = encode_frame(frame)
    cut = data.draw(st.integers(1, len(encoded) - 1))
    kept = len(encoded) - cut
    missing = HEADER_LEN - kept if kept < HEADER_LEN else cut
    with pytest.raises(ProtocolError, match=f"truncated .*: {missing} bytes missing"):
        DECODER.feed(encoded[:-cut])


def test_truncated_header_reports_needed():
    data = encode_frame(Frame(msg_type=MsgType.HELLO))
    with pytest.raises(ProtocolError, match=f"truncated frame header: {HEADER_LEN - 10} bytes missing"):
        DECODER.feed(data[:10])


def test_truncated_payload_reports_needed():
    data = encode_frame(Frame(msg_type=MsgType.PUSH, payload=pack_f32(np.zeros(4, np.float32))))
    with pytest.raises(ProtocolError, match="truncated PUSH frame: 3 bytes missing"):
        DECODER.feed(data[:-3])


def test_payload_f32_view():
    vec = np.array([1.0, -0.5, 3.25], dtype=np.float32)
    f = Frame(msg_type=MsgType.BCAST, payload=pack_f32(vec))
    assert np.array_equal(f.payload_f32(), vec)
