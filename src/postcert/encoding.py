"""Canonical byte encoding and the tagged artifact envelope.

The wire format is deliberately simple and bit-exact: fields are concatenated
in declaration order, integers are big-endian fixed width, byte strings and
text are length-prefixed (u32 length), optionals carry a one-byte presence
flag. Hashes and signatures are computed over these bytes, so two encoders
must agree exactly.

``encode_artifact``/``decode_artifact`` wrap a payload with a one-byte type
tag so log entries and trace records are self-describing.
"""

from __future__ import annotations

import struct
from typing import Callable, TypeVar

T = TypeVar("T")


class DecodeError(ValueError):
    pass


class ByteWriter:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError("u8 out of range")
        self._parts.append(bytes([value]))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack(">I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack(">Q", value))

    def i64(self, value: int) -> None:
        self._parts.append(struct.pack(">q", value))

    def boolean(self, value: bool) -> None:
        self.u8(1 if value else 0)

    def blob(self, value: bytes) -> None:
        self.u32(len(value))
        self._parts.append(bytes(value))

    def text(self, value: str) -> None:
        self.blob(value.encode("utf-8"))

    def optional_u64(self, value: int | None) -> None:
        self.boolean(value is not None)
        if value is not None:
            self.u64(value)

    def optional_i64(self, value: int | None) -> None:
        self.boolean(value is not None)
        if value is not None:
            self.i64(value)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError("truncated input")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def boolean(self) -> bool:
        flag = self.u8()
        if flag not in (0, 1):
            raise DecodeError("invalid boolean")
        return flag == 1

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid utf-8") from exc

    def optional_u64(self) -> int | None:
        return self.u64() if self.boolean() else None

    def optional_i64(self) -> int | None:
        return self.i64() if self.boolean() else None

    def expect_eof(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes")


# Artifact envelope: one byte of type tag, then the type's own encoding.

_ENCODERS: dict[type, tuple[int, Callable[[ByteWriter, object], None]]] = {}
_DECODERS: dict[int, Callable[[ByteReader], object]] = {}


def register_artifact(tag: int, cls: type, encode: Callable, decode: Callable) -> None:
    if tag in _DECODERS:
        raise ValueError(f"duplicate artifact tag {tag}")
    _ENCODERS[cls] = (tag, encode)
    _DECODERS[tag] = decode


def encode_artifact(obj: object) -> bytes:
    entry = _ENCODERS.get(type(obj))
    if entry is None:
        raise TypeError(f"no artifact codec for {type(obj).__name__}")
    tag, encode = entry
    writer = ByteWriter()
    writer.u8(tag)
    encode(writer, obj)
    return writer.getvalue()


def decode_artifact(data: bytes) -> object:
    reader = ByteReader(data)
    tag = reader.u8()
    decode = _DECODERS.get(tag)
    if decode is None:
        raise DecodeError(f"unknown artifact tag {tag}")
    obj = decode(reader)
    reader.expect_eof()
    return obj


# Human-readable fixture form: "key: value" lines plus the exact bytes in a
# final "bytes:" line, so text fixtures always round-trip via the canonical
# encoding.

def text_block(kind: str, fields: list[tuple[str, object]], payload: bytes) -> str:
    lines = [f"kind: {kind}"]
    for key, value in fields:
        lines.append(f"{key}: {value}")
    lines.append(f"bytes: {payload.hex()}")
    return "\n".join(lines) + "\n"


def text_block_bytes(text: str) -> bytes:
    for line in text.splitlines():
        if line.startswith("bytes:"):
            return bytes.fromhex(line.split(":", 1)[1].strip())
    raise DecodeError("text block has no bytes line")
