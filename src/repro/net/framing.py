"""Length-prefixed JSON frames: the one message codec over TCP streams.

The database protocol, delta sync and the WAP/Palm middleware all send
dicts as frames: a 4-byte big-endian length followed by compact JSON.
A ``bytes`` value travels as ``{"__b64__": ...}``; dict key order is
kept, so a frame's bytes follow from its dict alone.
"""

from __future__ import annotations

import base64
import json
import struct

__all__ = ["encode_obj", "decode_obj", "encode_frame", "FrameReader"]


def _bytes_as_b64(value):
    if isinstance(value, bytes):
        return {"__b64__": base64.b64encode(value).decode()}
    raise TypeError(f"unencodable {type(value).__name__}")


def _b64_as_bytes(obj: dict):
    return base64.b64decode(obj["__b64__"]) if "__b64__" in obj else obj


# One encoder and one decoder for every frame, built once instead of
# per call.
_encode_json = json.JSONEncoder(separators=(",", ":"),
                                default=_bytes_as_b64).encode
_decode_json = json.JSONDecoder(object_hook=_b64_as_bytes).decode


def encode_obj(obj: dict) -> bytes:
    """JSON with bytes values as {"__b64__": ...} (no length prefix).

    Used directly over record-preserving transports (WTLS records);
    :func:`encode_frame` adds the length prefix for byte streams.
    """
    return _encode_json(obj).encode()


def decode_obj(data: bytes) -> dict:
    """Inverse of :func:`encode_obj`."""
    return _decode_json(data.decode())


def encode_frame(obj: dict) -> bytes:
    """Length-prefixed :func:`encode_obj` output."""
    body = encode_obj(obj)
    return struct.pack(">I", len(body)) + body


class FrameReader:
    """Incremental decoder for :func:`encode_frame` output."""

    def __init__(self):
        self._buffer = b""

    def feed(self, data: bytes) -> list[dict]:
        """Add bytes; return every complete frame now available."""
        self._buffer += data
        frames = []
        while len(self._buffer) >= 4:
            (length,) = struct.unpack(">I", self._buffer[:4])
            if len(self._buffer) < 4 + length:
                break
            frames.append(decode_obj(self._buffer[4: 4 + length]))
            self._buffer = self._buffer[4 + length:]
        return frames
