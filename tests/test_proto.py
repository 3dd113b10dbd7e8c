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
    try_decode,
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


def test_truncated_header_reports_needed():
    data = encode_frame(Frame(msg_type=MsgType.HELLO))
    frame, needed = try_decode(data[:10])
    assert frame is None and needed == HEADER_LEN - 10


def test_truncated_payload_reports_needed():
    data = encode_frame(Frame(msg_type=MsgType.PUSH, payload=pack_f32(np.zeros(4, np.float32))))
    frame, needed = try_decode(data[:-3])
    assert frame is None and needed == 3


def test_bad_magic():
    data = b"XXXX" + encode_frame(Frame(msg_type=MsgType.HELLO))[4:]
    with pytest.raises(ProtocolError, match="magic"):
        try_decode(data)


def test_unknown_msg_type():
    data = bytearray(encode_frame(Frame(msg_type=MsgType.HELLO)))
    data[4] = 99
    with pytest.raises(ProtocolError, match="msg_type"):
        try_decode(bytes(data))


def test_oversize_payload_rejected():
    header = struct.pack("<4sBQHIII", MAGIC, int(MsgType.PUSH), 0, 0, 0, 0, DEFAULT_MAX_PAYLOAD + 4)
    with pytest.raises(ProtocolError, match="exceeds"):
        try_decode(header)


def test_nonzero_payload_on_control_frame_rejected():
    header = struct.pack("<4sBQHIII", MAGIC, int(MsgType.PULL), 0, 0, 0, 0, 4)
    with pytest.raises(ProtocolError, match="nonzero payload"):
        try_decode(header + b"\x00" * 4)


def test_encode_rejects_payload_on_control_frame():
    with pytest.raises(ProtocolError):
        encode_frame(Frame(msg_type=MsgType.FIN, payload=b"zz"))


@settings(max_examples=300, deadline=None)
@given(frame_strategy())
def test_roundtrip(frame):
    data = encode_frame(frame)
    decoded, consumed = try_decode(data)
    assert consumed == len(data)
    assert decoded == frame


@settings(max_examples=100, deadline=None)
@given(st.lists(frame_strategy(), min_size=0, max_size=6), st.data())
def test_stream_split_safety(frames, data):
    blob = b"".join(encode_frame(f) for f in frames)
    # arbitrary chunking must produce the same frame sequence as one shot
    decoder = FrameDecoder()
    out = []
    pos = 0
    while pos < len(blob):
        cut = data.draw(st.integers(1, len(blob) - pos))
        out.extend(decoder.feed(blob[pos : pos + cut]))
        pos += cut
    assert out == list(frames)
    assert decoder.pending_bytes == 0


def test_two_concatenated_frames_decode_in_order():
    a = Frame(msg_type=MsgType.PUSH, layer_index=1, payload=pack_f32(np.ones(2, np.float32)))
    b = Frame(msg_type=MsgType.FIN, worker_rank=3)
    blob = encode_frame(a) + encode_frame(b)
    fa, used = try_decode(blob)
    fb, used2 = try_decode(blob[used:])
    assert (fa, fb) == (a, b) and used + used2 == len(blob)


def test_payload_f32_view():
    vec = np.array([1.0, -0.5, 3.25], dtype=np.float32)
    f = Frame(msg_type=MsgType.BCAST, payload=pack_f32(vec))
    assert np.array_equal(f.payload_f32(), vec)
