"""Independent brute-force oracles used to check the production code.

Everything here recomputes results from first principles (naive recursive
splits over raw payloads, direct hashlib calls) and never reuses the
production tree machinery, so a bug cannot cancel itself out. The one
exception, ``EagerSthLog``, merges entries as ``CtLog`` does but computes and
signs each tree head's brute-force root at publication. ``TruncatedHashScheme``
is a short-digest hash for oracles that want collisions. ``artifact_samples``
supplies real encodings of every artifact kind, and ``declared`` a hypothesis
strategy of any declared type, built from its wire declaration.
``ByteWriter`` and ``ByteReader`` write and read the wire format one
primitive at a time: the reference the declared codecs are tested against.
"""

from __future__ import annotations

import functools
import hashlib
import struct

from hypothesis import assume
from hypothesis import strategies as st

from postcert.certs import REASON_CODES, Extension, RevocationExtension
from postcert.crypto import DIGEST_LEN, HashScheme, SHA256, Signature
from postcert.encoding import DECLARED, DecodeError, Kind, encode_artifact
from postcert.log import STH, CtLog, sth_signing_payload


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def split_point(n: int) -> int:
    """Largest power of two strictly below n."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")


class ByteWriter:
    """Writes one primitive at a time, as parts joined once by ``getvalue``."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError("u8 out of range")
        self._parts.append(bytes([value]))

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
    """Reads one primitive at a time; DecodeError on a short or bad input."""

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
        if flag > 1:
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


class TruncatedHashScheme(HashScheme):
    """SHA-256 truncated to a few bytes and zero-padded back to 32.

    For brute-force oracles that want frequent collisions or cheap hashing;
    the digest length is preserved so all interfaces stay unchanged.
    """

    def __init__(self, width: int = 4) -> None:
        if not 1 <= width <= DIGEST_LEN:
            raise ValueError("width out of range")
        self._width = width
        self.name = f"sha256/{width * 8}"

    def _digest(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()[: self._width].ljust(DIGEST_LEN, b"\x00")


class BruteForceTree:
    """Naive recursive-split Merkle tree over raw payloads."""

    def __init__(self, payloads: list[bytes], scheme: HashScheme = SHA256) -> None:
        self.payloads = list(payloads)
        self.scheme = scheme
        self._memo: dict[tuple[int, int], bytes] = {}

    def _mth(self, lo: int, hi: int) -> bytes:
        if hi - lo == 1:
            return self.scheme.hash_leaf(self.payloads[lo])
        key = (lo, hi)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        k = split_point(hi - lo)
        value = self.scheme.hash_node(self._mth(lo, lo + k), self._mth(lo + k, hi))
        self._memo[key] = value
        return value

    def root(self, n: int | None = None) -> bytes:
        n = len(self.payloads) if n is None else n
        if n == 0:
            return self.scheme.empty_root()
        return self._mth(0, n)

    def audit_path(self, index: int, treesize: int) -> tuple[bytes, ...]:
        def walk(m: int, lo: int, hi: int) -> list[bytes]:
            if hi - lo == 1:
                return []
            k = split_point(hi - lo)
            if m < lo + k:
                return walk(m, lo, lo + k) + [self._mth(lo + k, hi)]
            return walk(m, lo + k, hi) + [self._mth(lo, lo + k)]

        return tuple(walk(index, 0, treesize))

    def consistency_path(self, first: int, second: int) -> tuple[bytes, ...]:
        if first == 0 or first == second:
            return ()

        def sub(m: int, lo: int, hi: int, whole: bool) -> list[bytes]:
            if m == hi - lo:
                return [] if whole else [self._mth(lo, hi)]
            k = split_point(hi - lo)
            if m <= k:
                return sub(m, lo, lo + k, whole) + [self._mth(lo + k, hi)]
            return sub(m - k, lo + k, hi, False) + [self._mth(lo, lo + k)]

        return tuple(sub(first, 0, second, True))


def lagging_fraction(sths, size_probes) -> float:
    """Quadratic rescan: for each consecutive pair of tree-head responses,
    the largest size probed in (prev.t_response, cur.t_response]."""
    ordered = sorted(sths, key=lambda o: o.t_response)
    if len(ordered) < 2:
        return 0.0
    probes = sorted(size_probes, key=lambda p: p.t)
    lagging = 0
    for prev, cur in zip(ordered, ordered[1:]):
        window_max = None
        for probe in probes:
            if prev.t_response < probe.t <= cur.t_response:
                window_max = probe.size if window_max is None else max(window_max, probe.size)
            elif probe.t > cur.t_response:
                break
        if window_max is not None and window_max - 1 >= cur.sth.treesize:
            lagging += 1
    return lagging / (len(ordered) - 1)


def lagging_sth_draw(history, size: int, rng, p: float):
    """The LAGGING tree-head draw as a full scan: with probability ``p`` a
    uniformly chosen head older than ``size``, else the latest."""
    latest = history[-1]
    if len(history) < 2 or rng.random() >= p:
        return latest
    stale = [sth for sth in history if sth.treesize < size]
    if not stale:
        return latest
    return rng.choice(stale)


class EagerSthLog(CtLog):
    """A ``CtLog`` that also signs every tree head the moment it publishes
    it, as logs did before heads were signed on first read.

    ``eager_history[i]`` is head ``i`` with its ``BruteForceTree`` root over
    the entries merged at publication, signed at once.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.eager_history: list[STH] = []
        super().__init__(*args, **kwargs)

    def _publish_sth(self, t_ref: int) -> None:
        super()._publish_sth(t_ref)
        t, size = self._log_clock(t_ref), len(self.entries)
        root = BruteForceTree([entry.payload for entry in self.entries], self.scheme).root()
        sig = self.registry.sign(self.log_id, sth_signing_payload(self.log_id, t, size, root))
        self.eager_history.append(STH(self.log_id, t, size, root, sig))


@functools.cache
def artifact_samples() -> list[bytes]:
    """Encoded artifacts of every registered kind, taken from two small runs."""
    from postcert import encoding
    from postcert.presets import log_forget, single_fault
    from postcert.probe import binary_search_size
    from postcert.sim import Simulation
    from postcert.trace import EventKind, ViolationRecord

    payloads = {encoding.encode_artifact(ViolationRecord("serial=1", "update", 10, 20))}
    for scenario in (single_fault(3, "M2"), log_forget(0)):
        sim = Simulation(scenario)
        events = sim.run()
        payloads.update(event.payload for event in events)
        payloads.update(event.artifact().bundle for event in events if event.kind is EventKind.PROOF)
        for log in sim.logs.values():
            payloads.update(entry.payload for entry in log.entries)
            if log.entries:
                payloads.update(map(encoding.encode_artifact, (
                    log.entries[0], log.latest_sth(), log.audit_proof(0, 1),
                    binary_search_size(log, scenario.horizon_ms),
                )))
    by_tag = {}
    for payload in sorted(payloads):
        by_tag.setdefault(payload[0], []).append(payload)
    assert set(by_tag) == set(encoding._DECODERS)
    # A few of each kind keeps the pool small while covering every tag.
    return [payload for group in by_tag.values() for payload in group[:8]]


_INTEGERS = {"u32": (0, 2**32 - 1), "u64": (0, 2**64 - 1), "i64": (-(2**63), 2**63 - 1)}

# Fields whose values the constructor restricts, drawn from values it takes.
# The orderings (``not_before < not_after``, ``t_request <= t_response``) are
# left to ``assume``, which keeps about half of the draws.
_OVERRIDES = {
    (RevocationExtension, "reason_code"): st.sampled_from(REASON_CODES),
    (Signature, "signer_id"): st.text(min_size=1, max_size=8),
    (Extension, "oid"): st.text(min_size=1, max_size=8),
}


def _kind_values(kind: Kind):
    if kind.name in _INTEGERS:
        return st.integers(*_INTEGERS[kind.name])
    simple = {"bool": st.booleans(), "blob": st.binary(max_size=40), "text": st.text(max_size=8)}
    if kind.name in simple:
        return simple[kind.name]
    if kind.name == "enum":
        return st.sampled_from(kind.arg)
    if kind.name == "optional":
        return st.none() | _kind_values(kind.arg)
    if kind.name == "seq":
        return st.lists(_kind_values(kind.arg), max_size=3).map(tuple)
    return declared(kind.arg)  # inline, nested, encoded


def _construct(cls, fields: dict):
    try:
        return cls(**fields)
    except ValueError:
        assume(False)


@functools.cache
def declared(cls):
    """Values of ``cls`` drawn field by field from its wire declaration."""
    fields = {
        name: _OVERRIDES[cls, name] if (cls, name) in _OVERRIDES else _kind_values(kind)
        for name, kind in DECLARED[cls]
    }
    return st.fixed_dictionaries(fields).map(lambda drawn: _construct(cls, drawn))
