"""Framed wire protocol for worker<->server traffic.

Every frame starts with a fixed 27-byte little-endian header: magic (4 bytes),
message type (1), iteration (8), sender rank (2), layer index (4), slice index
(4) and payload length (4). PUSH and BCAST frames append a packed float32
payload (gradients and updated parameters respectively).

The header carries only what a receiver reads. A receiver takes a slice's
offset, length and priority from its own plan, by the slice key (a slice's
priority is its key's order, see ``plan``). That plan equals the sender's:
HELLO carries the worker's plan fingerprint in its iteration field, and the
server refuses a worker whose fingerprint differs from its own.

Decoding copies no payload: a decoded frame's payload is a read-only view of
the buffer the frame was decoded from, so that buffer must not be reused.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # plan imports this module for its frame size limit
    from .plan import Slice

MAGIC = b"P3W2"

_HEADER = struct.Struct("<4sBQHIII")
HEADER_LEN = _HEADER.size  # 27

DEFAULT_MAX_PAYLOAD = 16 * 1024 * 1024


class MsgType(enum.IntEnum):
    PUSH = 0
    BCAST = 1
    PULL = 2
    NOTIFY = 3
    HELLO = 4
    FIN = 5


_PAYLOAD_TYPES = (MsgType.PUSH, MsgType.BCAST)


class ProtocolError(Exception):
    """Corrupt or rule-violating traffic; fatal for the connection."""


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    iteration: int = 0
    worker_rank: int = 0
    layer_index: int = 0
    slice_index: int = 0
    # bytes when built for sending; a read-only view of its buffer when decoded
    payload: bytes | memoryview = b""

    def payload_f32(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype="<f4")


def slice_frame(
    msg_type: MsgType, sl: Slice, iteration: int, worker_rank: int, payload: bytes = b""
) -> Frame:
    """A frame about one slice, which the header names by its key."""
    return Frame(
        msg_type=msg_type,
        iteration=iteration,
        worker_rank=worker_rank,
        layer_index=sl.key.layer_index,
        slice_index=sl.key.slice_index,
        payload=payload,
    )


def pack_f32(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f4").tobytes()


def encode_frame(frame: Frame) -> bytes:
    if frame.msg_type in _PAYLOAD_TYPES:
        if len(frame.payload) % 4 != 0:
            raise ProtocolError(f"{frame.msg_type.name} payload not a float32 array")
    elif frame.payload:
        raise ProtocolError(f"{frame.msg_type.name} frames carry no payload")
    header = _HEADER.pack(
        MAGIC,
        int(frame.msg_type),
        frame.iteration,
        frame.worker_rank,
        frame.layer_index,
        frame.slice_index,
        len(frame.payload),
    )
    return header + frame.payload


def _unpack_header(view: memoryview, max_payload: int) -> tuple:
    """The header's fields after the magic, with the type as MsgType; raises
    ProtocolError on bad magic, unknown type or a payload length the type forbids."""
    magic, raw_type, *fields, payload_len = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {bytes(magic)!r}")
    try:
        msg_type = MsgType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown msg_type {raw_type}") from None
    if payload_len > max_payload:
        raise ProtocolError(f"payload_len {payload_len} exceeds max {max_payload}")
    if msg_type not in _PAYLOAD_TYPES and payload_len != 0:
        raise ProtocolError(f"{msg_type.name} frame with nonzero payload_len {payload_len}")
    return msg_type, *fields, payload_len


def payload_length(
    header: bytes | bytearray | memoryview, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> int:
    """Validate a frame's HEADER_LEN-byte header; the payload length it announces."""
    return _unpack_header(memoryview(header), max_payload)[-1]


def try_decode(
    buf: bytes | bytearray | memoryview, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[Frame | None, int]:
    """Decode one frame from the head of ``buf``.

    Returns (frame, bytes_consumed) on success, or (None, bytes_still_needed)
    when the buffer holds only part of a frame. Raises ProtocolError on bad
    magic, unknown message type, or an oversized payload length. The frame's
    payload is a read-only view of ``buf``.
    """
    view = memoryview(buf).toreadonly()
    if len(view) < HEADER_LEN:
        return None, HEADER_LEN - len(view)
    msg_type, iteration, rank, layer, sl, payload_len = _unpack_header(view, max_payload)
    total = HEADER_LEN + payload_len
    if len(view) < total:
        return None, total - len(view)
    frame = Frame(
        msg_type=msg_type,
        iteration=iteration,
        worker_rank=rank,
        layer_index=layer,
        slice_index=sl,
        payload=view[HEADER_LEN:total],
    )
    return frame, total


@dataclass
class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get whole frames out.

    Whole frames are decoded in place from the buffer they arrive in; only
    an incomplete tail is copied, to be joined with the next chunk. A fed
    buffer backs the payloads decoded from it and must not be reused.
    """

    max_payload: int = DEFAULT_MAX_PAYLOAD
    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes | bytearray | memoryview) -> list[Frame]:
        if self._buf:
            self._buf += data
            data, self._buf = self._buf, bytearray()
        view = memoryview(data)
        frames = []
        pos = 0
        while True:
            frame, n = try_decode(view[pos:], self.max_payload)
            if frame is None:
                break
            frames.append(frame)
            pos += n
        if pos < len(view):
            self._buf = bytearray(view[pos:])
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
