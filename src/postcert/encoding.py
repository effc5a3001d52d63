"""Canonical byte encoding, declared once per artifact type.

The wire format is deliberately simple and bit-exact: fields are concatenated
in declaration order, integers are big-endian fixed width, byte strings and
text are length-prefixed (u32 length), optionals carry a one-byte presence
flag. Hashes and signatures are computed over these bytes, so two encoders
must agree exactly.

Each artifact's layout is written once, as ``@wire(...)`` on its dataclass:
the fields in wire order, each with its kind, and a type tag for the types
that travel on their own. The kinds are

    U32 U64 I64 BOOL    fixed width (BOOL is one byte, 0 or 1)
    BLOB TEXT           a u32 length, then the bytes (TEXT as UTF-8)
    an Enum class       its value, as TEXT
    optional(k)         a presence byte, then the value when present
    seq(k)              a u32 count, then the items
    inline(cls)         cls's declared fields, in place
    nested(cls)         a BLOB holding cls's tagged encoding
    encoded(cls)        a BLOB holding cls's untagged encoding, read from the
                        value's cached ``encoded`` attribute; a decoded value
                        gets the blob it came from as that cache

At import each tagged declaration is compiled into one encoder and one
decoder of straight-line source, the way ``dataclasses`` builds
``__init__``; inline fields are written out in place, and adjacent
fixed-width values, length prefixes included, are packed and read by one
``struct.Struct``. ``encoder(inline(cls))`` encodes a cls without its tag
and ``signing_payload(cls)`` gives the bytes a signature covers: the
declared fields before ``signature``. To add an artifact, declare it with a
tag no other type uses; ``encode_artifact``/``decode_artifact`` then carry
it, behind its one-byte tag, in log entries, trace records and proof
bundles.

``fields_line`` and ``FieldLine`` write and read one line of ``key=value``
fields, the text form of trace lines, log snapshots and scenario files; their
integer fields are read with ``canonical_int``. A key appears once in a line,
and a line of fixed layout has only the keys it reads, in the order it writes
them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import struct
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


class DecodeError(ValueError):
    pass


class ScenarioError(Exception):
    """A scenario the simulator refuses (an unknown line, no header, a value
    out of range); ``postcert.sim`` raises it."""


# Declarations -------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Kind:
    """How one field is written: ``name`` as in the module docstring, ``arg``
    the inner kind, Enum class or artifact class it names."""

    name: str
    arg: object = None


U32, U64, I64, BOOL, BLOB, TEXT = map(Kind, ("u32", "u64", "i64", "bool", "blob", "text"))
_FIXED = {"u32": "I", "u64": "Q", "i64": "q", "bool": "?"}


def _kind(kind: Kind | type[enum.Enum]) -> Kind:
    return kind if isinstance(kind, Kind) else Kind("enum", kind)


def optional(kind: Kind | type[enum.Enum]) -> Kind:
    return Kind("optional", _kind(kind))


def seq(kind: Kind | type[enum.Enum]) -> Kind:
    return Kind("seq", _kind(kind))


inline, nested, encoded = (functools.partial(Kind, name) for name in ("inline", "nested", "encoded"))


# Every declared type's (field, kind) pairs in wire order.
DECLARED: dict[type, tuple[tuple[str, Kind], ...]] = {}
_ENCODERS: dict[type, Callable[[object], bytes]] = {}
_DECODERS: dict[int, tuple[str, Callable[[bytes, int], tuple[object, int]]]] = {}


def wire(tag: int | None = None, /, **fields: Kind | type[enum.Enum]) -> Callable[[type[T]], type[T]]:
    """Class decorator declaring a dataclass's wire fields, and its artifact
    tag if it has one; see the module docstring."""

    def declare(cls: type[T]) -> type[T]:
        names = sorted(f.name for f in dataclasses.fields(cls))
        if sorted(fields) != names:
            raise TypeError(f"{cls.__name__} declares {sorted(fields)}, its fields are {names}")
        DECLARED[cls] = tuple((name, _kind(kind)) for name, kind in fields.items())
        if tag is not None:
            if tag in _DECODERS:
                raise ValueError(f"duplicate artifact tag {tag}")
            _ENCODERS[cls] = encoder(inline(cls), tag)
            _DECODERS[tag] = (cls.__name__, _decoder(inline(cls)))
        return cls

    return declare


def signing_payload(cls: type) -> Callable[..., bytes]:
    """A function of ``cls``'s declared fields before ``signature``, taken
    positionally in wire order, giving the bytes the signature covers."""
    fields = DECLARED[cls]
    signed = fields[: [name for name, _ in fields].index("signature")]
    source = _EncoderSource()
    for name, kind in signed:
        _encode(source, kind, name)
    return source.finish(f"{cls.__name__}_signing_payload", ", ".join(name for name, _ in signed))


# Compilation --------------------------------------------------------------------

@functools.cache
def _struct(fmt: str) -> struct.Struct:
    return struct.Struct(">" + fmt)


class _Source:
    """The lines of one generated function and the constants they name."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self._locals = 0

    def local(self) -> str:
        self._locals += 1
        return f"_{self._locals}"

    def const(self, obj: object) -> str:
        name = f"_c{id(obj)}"
        self.consts[name] = obj
        return name

    def compile(self, name: str, params: str) -> Callable:
        # The source comes only from this package's declarations, never from
        # input. The constants become closure cells of the function; its
        # globals are this module's, so nested artifacts go through
        # encode_artifact and decode_artifact as looked up at call time.
        body = "".join(f"\n        {line}" for code in self.lines for line in code.split("\n"))
        source = f"def _make({', '.join(self.consts)}):\n    def {name}({params}):{body}\n    return {name}\n"
        namespace: dict[str, Callable] = {}
        exec(source, globals(), namespace)
        return namespace["_make"](**self.consts)


class _EncoderSource(_Source):
    """Builds ``return <bytes>``; fixed-width values gather into one struct
    until a variable-length part follows."""

    def __init__(self) -> None:
        super().__init__()
        self._parts: list[str] = []
        self._fmt = ""
        self._args: list[str] = []

    def fixed(self, char: str, expr: str) -> None:
        self._fmt += char
        self._args.append(expr)

    def part(self, expr: str) -> None:
        self._pack()
        self._parts.append(expr)

    def _pack(self) -> None:
        if self._fmt:
            self._parts.append(f"{self.const(_struct(self._fmt))}.pack({', '.join(self._args)})")
            self._fmt, self._args = "", []

    def finish(self, name: str, params: str) -> Callable:
        self._pack()
        parts = self._parts
        joined = " + ".join(parts) if len(parts) <= 2 else f"b''.join(({', '.join(parts)}))"
        self.lines.append(f"return {joined}")
        return self.compile(name, params)


_DATA = {
    "blob": "{}",
    "text": "{}.encode()",
    "enum": "{}.value.encode()",
    "nested": "encode_artifact({})",
    "encoded": "{}.encoded",
}


def _encode(source: _EncoderSource, kind: Kind, expr: str) -> None:
    """Add the encoding of ``expr``, a value of ``kind``, to ``source``."""
    name = kind.name
    if name in _FIXED:
        source.fixed(_FIXED[name], expr)
        return
    value, expr = expr, source.local()
    source.lines.append(f"{expr} = {_DATA.get(name, '{}').format(value)}")
    if name in _DATA:
        source.fixed("I", f"len({expr})")
        source.part(expr)
    elif name == "inline":
        for field, field_kind in DECLARED[kind.arg]:
            _encode(source, field_kind, f"{expr}.{field}")
    elif name == "optional":
        item = source.const(encoder(kind.arg))
        source.part(f"(b'\\x00' if {expr} is None else b'\\x01' + {item}({expr}))")
    else:
        item = source.const(encoder(kind.arg))
        source.fixed("I", f"len({expr})")
        source.part(f"b''.join([{item}(_i) for _i in {expr}])")


@functools.cache
def encoder(kind: Kind, tag: int | None = None) -> Callable[[object], bytes]:
    """The encoder of one ``kind`` value; ``tag`` is written first when given."""
    source = _EncoderSource()
    if tag is not None:
        source.fixed("B", str(tag))
    _encode(source, kind, "v")
    return source.finish(f"encode_{kind.name}_{getattr(kind.arg, '__name__', '')}", "v")


class _DecoderSource(_Source):
    """Builds a decoder ``(d, p) -> (value, end)`` of the value at offset
    ``p`` of ``d``; adjacent fixed-width values are read together, after one
    bounds check."""

    def __init__(self) -> None:
        super().__init__()
        self.lines.append("n = len(d)")
        self._run: list[tuple[str, str]] = []

    def fixed(self, char: str) -> str:
        """A local holding the next fixed-width value."""
        local = self.local()
        self._run.append((char, local))
        return local

    def line(self, *code: str) -> None:
        self._read()
        self.lines.extend(code)

    def _read(self) -> None:
        if self._run:
            layout = _struct("".join(char for char, _ in self._run))
            self.lines += [
                f"if p + {layout.size} > n:\n    raise DecodeError('truncated input')",
                f"{', '.join(local for _, local in self._run)}, = {self.const(layout)}.unpack_from(d, p)",
                f"p += {layout.size}",
            ]
            self._run = []


_READ = {
    "blob": "{0}",
    "text": "{0}.decode()",
    "enum": "{1}({0}.decode())",
    "nested": "_nested({0}, {1})",
}


def _decode(source: _DecoderSource, kind: Kind) -> str:
    """Add the decoding of one ``kind`` value to ``source``; returns an
    expression of the value, valid from then on."""
    name = kind.name
    if name == "bool":
        return f"_boolean({source.fixed('B')})"
    if name in _FIXED:
        return source.fixed(_FIXED[name])
    if name == "inline":
        values = {field: _decode(source, field_kind) for field, field_kind in DECLARED[kind.arg]}
        args = ", ".join(values[field.name] for field in dataclasses.fields(kind.arg))
        return f"{source.const(kind.arg)}({args})"
    value = source.local()
    if name == "optional":
        flag = source.fixed("B")
        source.line(
            f"if _boolean({flag}):\n    {value}, p = {source.const(_decoder(kind.arg))}(d, p)\n"
            f"else:\n    {value} = None"
        )
        return value
    if name == "seq":
        count = source.fixed("I")
        source.line(
            f"{value} = []",
            f"for _ in range({count}):\n    _x, p = {source.const(_decoder(kind.arg))}(d, p)\n"
            f"    {value}.append(_x)",
        )
        return f"tuple({value})"
    length = source.fixed("I")
    source.line(f"_e = p + {length}", "if _e > n:\n    raise DecodeError('truncated input')")
    if name == "encoded":  # the blob holds exactly one untagged kind.arg
        # Decoding is canonical, so the blob is the value's encoding: it
        # becomes the cached ``encoded`` and is never encoded again.
        source.line(
            "_b = d[p:_e]",
            f"{value}, _end = {source.const(_decoder(inline(kind.arg)))}(_b, 0)",
            "if _end != _e - p:\n    raise DecodeError('trailing bytes')",
            f"{value}.__dict__['encoded'] = _b",
        )
    else:
        source.line(f"{value} = " + _READ[name].format("d[p:_e]", kind.arg and source.const(kind.arg)))
    source.line("p = _e")
    return value


@functools.cache
def _decoder(kind: Kind) -> Callable[[bytes, int], tuple[object, int]]:
    source = _DecoderSource()
    value = _decode(source, kind)
    source.line(f"return {value}, p")
    return source.compile(f"decode_{kind.name}_{getattr(kind.arg, '__name__', '')}", "d, p")


def _boolean(flag: int) -> bool:
    if flag > 1:
        raise DecodeError("invalid boolean")
    return flag == 1


def _nested(data: bytes, cls: type[T]) -> T:
    obj = decode_artifact(data)
    if not isinstance(obj, cls):
        raise DecodeError(f"expected a nested {cls.__name__}, got {type(obj).__name__}")
    return obj


# Artifact envelope: one byte of type tag, then the type's declared fields.

def encode_artifact(obj: object) -> bytes:
    encode = _ENCODERS.get(type(obj))
    if encode is None:
        raise TypeError(f"no artifact codec for {type(obj).__name__}")
    return encode(obj)


def decode_artifact(data: bytes) -> object:
    """Decode a tagged artifact; every failure raises ``DecodeError``.

    Bytes that parse but break an invariant of the artifact's type (a value
    its constructor rejects, an unknown enum value) are malformed input too,
    so their ``ValueError`` becomes a ``DecodeError`` naming the artifact.
    """
    if not data:
        raise DecodeError("truncated input")
    entry = _DECODERS.get(data[0])
    if entry is None:
        raise DecodeError(f"unknown artifact tag {data[0]}")
    name, decode = entry
    try:
        obj, end = decode(data, 1)
    except DecodeError:
        raise
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid utf-8") from exc
    except ValueError as exc:
        raise DecodeError(f"invalid {name}: {exc}") from exc
    if end != len(data):
        raise DecodeError("trailing bytes")
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
            try:
                return bytes.fromhex(line.split(":", 1)[1].strip())
            except ValueError as exc:
                raise DecodeError(f"bytes line: {exc}") from None
    raise DecodeError("text block has no bytes line")


# Field lines: one line of space-separated "key=value" fields.

def fields_line(pairs: Iterable[tuple[str, object]]) -> str:
    return " ".join(f"{key}={value}" for key, value in pairs)


def canonical_int(text: str) -> int:
    """An integer field written as ``str`` writes it: ``0``, or an optional
    ``-`` and digits without a leading ``0``. ``int`` alone would also read a
    sign, underscores, spaces, non-ASCII digits, leading zeros and ``-0``,
    which do not write back as the same text."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit() and (digits[0] != "0" or text == "0"):
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


class FieldLine:
    """The fields of one ``fields_line``, read by key; a key appears once.
    Every failure is a DecodeError naming the line (``label lineno``) and the
    field; the name is built only on failure."""

    __slots__ = ("fields", "label", "lineno")

    def __init__(self, text: str, label: str, lineno: int) -> None:
        self.label = label
        self.lineno = lineno
        self.fields: dict[str, str] = {}
        for item in text.split():
            key, sep, value = item.partition("=")
            if not sep:
                raise self.error(f"malformed field {item!r}")
            if key in self.fields:
                raise self.error(f"repeated field {key!r}")
            self.fields[key] = value

    def error(self, what: str) -> DecodeError:
        return DecodeError(f"{self.label} {self.lineno}: {what}")

    def only(self, keys: Sequence[str]) -> None:
        """Refuse a field whose key is not in ``keys``, or keys in another
        order than theirs: a fixed layout writes back only the keys it
        reads, in its own order."""
        for key in self.fields:
            if key not in keys:
                raise self.error(f"unknown field {key!r}")
        if list(self.fields) != [key for key in keys if key in self.fields]:
            raise self.error(f"fields out of order, expected {' '.join(keys)}")

    def get(self, key: str, parse: Callable[[str], object] = str, *default: object):
        """Field ``key`` through ``parse``, or ``default`` when it is absent."""
        if key not in self.fields:
            if default:
                return default[0]
            raise self.error(f"missing field {key!r}")
        try:
            return parse(self.fields[key])
        except ValueError as exc:
            raise self.error(f"{exc} (bad {key} value)") from None

    @staticmethod
    def read(text: str, keys: Sequence[tuple[str, Callable[[str], object]]], label: str, lineno: int) -> list:
        """The fields ``keys`` names, each through its parser, from a line
        with exactly those keys in that order: the path for a fixed layout
        read line after line, which builds a FieldLine only to name a
        failure."""
        items = text.split()
        if len(items) == len(keys):
            try:
                values = []
                for item, (key, parse) in zip(items, keys):
                    name, value = item.split("=", 1)
                    if name != key:
                        break
                    values.append(parse(value))
                else:
                    return values
            except ValueError:
                pass
        line = FieldLine(text, label, lineno)
        line.only([key for key, _ in keys])
        return [line.get(key, parse) for key, parse in keys]
