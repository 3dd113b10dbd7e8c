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

One decoder reads frames: ``FrameDecoder.header`` checks a header before its
payload is read, and ``FrameDecoder.feed`` decodes one whole frame. It holds
no partial frame between calls; the transport reads each frame whole, into a
buffer of its own, before it decodes it. Decoding copies no payload: a decoded
frame's payload is a read-only view of the buffer the frame was decoded from,
so that buffer must not be reused.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # plan imports this module for its frame size limit
    from .plan import Slice

MAGIC = b"P3W2"

_HEADER = struct.Struct("<4sBQHIII")
HEADER_LEN = _HEADER.size  # 27
MAX_WORKER_RANK = 0xFFFF  # the header's sender rank is an unsigned 16-bit field

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


class FrameDecoder:
    """Stateless frame decoder; raises ProtocolError on bad magic, an unknown
    message type, a payload length the type forbids, that is no whole float32
    array or over DEFAULT_MAX_PAYLOAD, a truncated frame, or bytes after it.

    ``feed`` keeps its name and its list return, always of one frame, because
    the benchmark's probes wrap ``FrameDecoder.feed`` and count the frames it
    returns.
    """

    def _fields(self, buf: bytes | bytearray | memoryview) -> tuple:
        """The fields of the header at the start of ``buf`` after the magic, the type as MsgType."""
        if len(buf) < HEADER_LEN:
            raise ProtocolError(f"truncated frame header: {HEADER_LEN - len(buf)} bytes missing")
        magic, raw_type, *fields, payload_len = _HEADER.unpack_from(buf)
        if magic != MAGIC:
            raise ProtocolError(f"bad magic {bytes(magic)!r}")
        try:
            msg_type = MsgType(raw_type)
        except ValueError:
            raise ProtocolError(f"unknown msg_type {raw_type}") from None
        if payload_len > DEFAULT_MAX_PAYLOAD:
            raise ProtocolError(f"payload_len {payload_len} exceeds max {DEFAULT_MAX_PAYLOAD}")
        if msg_type not in _PAYLOAD_TYPES and payload_len != 0:
            raise ProtocolError(f"{msg_type.name} frame with nonzero payload_len {payload_len}")
        if payload_len % 4 != 0:
            raise ProtocolError(f"{msg_type.name} payload_len {payload_len} not a float32 array")
        return msg_type, *fields, payload_len

    def header(self, buf: bytes | bytearray | memoryview) -> int:
        """Validate a frame's HEADER_LEN-byte header; the payload length it announces."""
        return self._fields(buf)[-1]

    def feed(self, buf: bytes | bytearray | memoryview) -> list[Frame]:
        """The one frame that ``buf`` holds, as a list of it."""
        view = memoryview(buf).toreadonly()
        msg_type, iteration, rank, layer, sl, payload_len = self._fields(view)
        end = HEADER_LEN + payload_len
        if end > len(view):
            raise ProtocolError(f"truncated {msg_type.name} frame: {end - len(view)} bytes missing")
        if end < len(view):
            raise ProtocolError(f"{len(view) - end} bytes after a {msg_type.name} frame")
        return [Frame(msg_type, iteration, rank, layer, sl, view[HEADER_LEN:])]
