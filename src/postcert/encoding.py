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


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_BYTES = [bytes([value]) for value in range(256)]


class ByteWriter:
    """Collects the encoded fields as parts joined once by ``getvalue``."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError("u8 out of range")
        self._parts.append(_BYTES[value])

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self._parts.append(_U64.pack(value))

    def i64(self, value: int) -> None:
        self._parts.append(_I64.pack(value))

    def boolean(self, value: bool) -> None:
        self._parts.append(b"\x01" if value else b"\x00")

    def blob(self, value: bytes) -> None:
        self._parts.extend((_U32.pack(len(value)), bytes(value)))

    def text(self, value: str) -> None:
        data = value.encode("utf-8")
        self._parts.extend((_U32.pack(len(data)), data))

    def artifact(self, obj: object) -> None:
        """A nested artifact, as a blob of its tagged encoding."""
        self.blob(encode_artifact(obj))

    def optional_u64(self, value: int | None) -> None:
        if value is None:
            self._parts.append(b"\x00")
        else:
            self._parts.extend((b"\x01", _U64.pack(value)))

    def optional_i64(self, value: int | None) -> None:
        if value is None:
            self._parts.append(b"\x00")
        else:
            self._parts.extend((b"\x01", _I64.pack(value)))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _skip(self, n: int) -> int:
        """Start offset of the next ``n`` bytes, which the reader moves past."""
        pos = self._pos
        if pos + n > len(self._data):
            raise DecodeError("truncated input")
        self._pos = pos + n
        return pos

    def _take(self, n: int) -> bytes:
        pos = self._skip(n)
        return self._data[pos : pos + n]

    def u8(self) -> int:
        return self._data[self._skip(1)]

    def u32(self) -> int:
        return _U32.unpack_from(self._data, self._skip(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self._data, self._skip(8))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self._data, self._skip(8))[0]

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

    def artifact(self, cls: type[T]) -> T:
        """A nested artifact written by ``ByteWriter.artifact``; it must be
        a ``cls``."""
        obj = decode_artifact(self.blob())
        if not isinstance(obj, cls):
            raise DecodeError(f"expected a nested {cls.__name__}, got {type(obj).__name__}")
        return obj

    def optional_u64(self) -> int | None:
        return self.u64() if self.boolean() else None

    def optional_i64(self) -> int | None:
        return self.i64() if self.boolean() else None

    def expect_eof(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes")


# Artifact envelope: one byte of type tag, then the type's own encoding.

_ENCODERS: dict[type, tuple[int, Callable[[ByteWriter, object], None]]] = {}
_DECODERS: dict[int, tuple[str, Callable[[ByteReader], object]]] = {}


def register_artifact(tag: int, cls: type, encode: Callable, decode: Callable) -> None:
    if tag in _DECODERS:
        raise ValueError(f"duplicate artifact tag {tag}")
    _ENCODERS[cls] = (tag, encode)
    _DECODERS[tag] = (cls.__name__, decode)


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
    """Decode a tagged artifact; every failure raises ``DecodeError``.

    Bytes that parse but break an invariant of the artifact's type (a value
    its constructor rejects, an unknown enum value) are malformed input too,
    so their ``ValueError`` becomes a ``DecodeError`` naming the artifact.
    """
    reader = ByteReader(data)
    tag = reader.u8()
    entry = _DECODERS.get(tag)
    if entry is None:
        raise DecodeError(f"unknown artifact tag {tag}")
    name, decode = entry
    try:
        obj = decode(reader)
    except DecodeError:
        raise
    except ValueError as exc:
        raise DecodeError(f"invalid {name}: {exc}") from exc
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
