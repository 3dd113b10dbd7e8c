"""Framed wire protocol for worker<->server traffic.

Every frame starts with a fixed 27-byte little-endian header: magic (4 bytes),
message type (1), iteration (8), sender rank (2), layer index (4), slice index
(4) and payload length (4). PUSH and BCAST frames append a packed float32
payload (gradients and updated parameters respectively).

The header carries only what a receiver reads. A frame names its slice by
one ``SliceKey``, (layer index, slice index), defined here and re-exported by
``plan``: it is the plan's key too, so a receiver looks up the slice's
offset, length and priority in its own plan by the frame's ``key`` as it is
(a slice's priority is its key's order, see ``plan``). That plan equals the
sender's: HELLO carries the worker's plan fingerprint in its iteration field,
and the server refuses a worker whose fingerprint differs from its own.

One decoder reads frames: ``FrameDecoder.header`` checks a header before its
payload is read and returns it as a ``Header``, and ``FrameDecoder.feed``
makes one whole frame of that ``Header`` and its payload, so each header is
parsed once. It holds no partial frame between calls; the transport reads
each payload whole, straight into the float32 array where the receiver wants
it, before it decodes the frame. Decoding copies no payload: a decoded
frame's payload is a byte view of the buffer it was decoded from, read-only
if that buffer is, so that buffer must not be reused. A payload read into an
array starts on the array's own alignment, never at the header's odd offset,
so numpy works on it at full speed.

Encoding copies no payload either. ``pack_f32`` views float32 values as
little-endian bytes, and ``encode_frame`` returns the packed header and a
byte view of the frame's payload as a pair, for the transport to write with
one ``sendmsg``. A frame's payload is read-only to the protocol, and its
buffer must hold still until ``send_frame`` has returned: the sender's
reused gradient buffer is refilled only by its next push, and a server's
BCAST views a shard that changes only after every rank has received it (see
``server``).

numpy is imported inside ``pack_f32`` and ``Frame.payload_f32``, the only
code here that touches an array: ``plan``, and through it the simulator and
the ``plan`` and ``simulate`` commands, import this module for its names and
never load numpy or the runtime.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

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


class SliceKey(NamedTuple):
    """A slice's name, in a plan and on the wire; its order is the slice's priority."""

    layer_index: int
    slice_index: int


class Header(NamedTuple):
    """A checked frame header, as ``FrameDecoder.header`` decodes it."""

    msg_type: MsgType
    iteration: int
    worker_rank: int
    key: SliceKey
    payload_len: int


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    iteration: int = 0
    worker_rank: int = 0
    key: SliceKey = SliceKey(0, 0)
    # bytes or a byte view (pack_f32) when built for sending; a byte view of
    # the array it was read into when decoded
    payload: bytes | memoryview = b""

    def payload_f32(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.payload, dtype="<f4")


def pack_f32(values: np.ndarray) -> memoryview:
    """A read-only little-endian float32 byte view of ``values``; it copies only
    values that are not already contiguous little-endian float32."""
    import numpy as np

    return memoryview(np.ascontiguousarray(values, dtype="<f4")).cast("B").toreadonly()


def encode_frame(frame: Frame) -> tuple[bytes, memoryview]:
    """The frame's wire form as (header, payload): the packed HEADER_LEN-byte
    header and a byte view of the frame's payload, which is not copied."""
    payload = memoryview(frame.payload).cast("B")
    if frame.msg_type in _PAYLOAD_TYPES:
        if len(payload) % 4 != 0:
            raise ProtocolError(f"{frame.msg_type.name} payload not a float32 array")
    elif payload:
        raise ProtocolError(f"{frame.msg_type.name} frames carry no payload")
    header = _HEADER.pack(
        MAGIC,
        int(frame.msg_type),
        frame.iteration,
        frame.worker_rank,
        *frame.key,
        len(payload),
    )
    return header, payload


class FrameDecoder:
    """Stateless frame decoder; raises ProtocolError on bad magic, an unknown
    message type, a payload length the type forbids, that is no whole float32
    array or over DEFAULT_MAX_PAYLOAD, a truncated frame, or bytes after it.

    ``feed`` keeps its name and its list return, always of one frame, because
    the benchmark's probes wrap ``FrameDecoder.feed`` and count the frames it
    returns.
    """

    def header(self, buf: bytes | bytearray | memoryview) -> Header:
        """Validate a frame's HEADER_LEN-byte header and decode it."""
        if len(buf) < HEADER_LEN:
            raise ProtocolError(f"truncated frame header: {HEADER_LEN - len(buf)} bytes missing")
        magic, raw_type, iteration, rank, layer, index, payload_len = _HEADER.unpack_from(buf)
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
        return Header(msg_type, iteration, rank, SliceKey(layer, index), payload_len)

    def feed(self, head: Header, payload: bytes | memoryview | np.ndarray) -> list[Frame]:
        """The one frame of ``head``, a header that ``header`` checked, and
        ``payload``, a buffer that holds exactly its payload, as a list of it.
        The frame's payload is a byte view of ``payload``."""
        view = memoryview(payload).cast("B")
        name = head.msg_type.name
        if len(view) < head.payload_len:
            raise ProtocolError(f"truncated {name} frame: {head.payload_len - len(view)} bytes missing")
        if len(view) > head.payload_len:
            raise ProtocolError(f"{len(view) - head.payload_len} bytes after a {name} frame")
        return [Frame(*head[:-1], view)]
