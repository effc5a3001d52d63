"""Canonical encoding round trips, including the 10^4 randomized sweep."""

from __future__ import annotations

import dataclasses
import functools
import io
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postcert.certs import (
    CertRef,
    Certificate,
    Extension,
    Postcertificate,
    PostcertScheme,
    RevocationExtension,
    TbsCertificate,
    encode_tbs,
    postcert_signing_payload,
)
from postcert.crypto import Signature
from postcert.encoding import (
    DECLARED,
    U32,
    DecodeError,
    FieldLine,
    _DECODERS,
    canonical_int,
    decode_artifact,
    encode_artifact,
    fields_line,
    inline,
    wire,
)
from postcert.log import (
    SCT,
    STH,
    LogEntry,
    LogView,
    MerkleAuditProof,
    log_snapshot_text,
    sct_signing_payload,
    sth_signing_payload,
)
from postcert.presets import build_preset, normal_revocation
from postcert.sim import ScenarioError, Simulation, scenario_from_text, scenario_to_text, validate_scenario
from postcert.status import RevocationStatus, StatusKind, StatusValue, status_signing_payload
from postcert.trace import read_trace, trace_to_text

from oracles import ByteReader, ByteWriter, artifact_samples, declared


def test_primitive_round_trip():
    w = ByteWriter()
    w.u8(7)
    w.u64(2**63)
    w.i64(-12345)
    w.boolean(True)
    w.blob(b"\x00\x01")
    w.text("héllo")
    w.optional_u64(None)
    w.optional_i64(-1)
    r = ByteReader(w.getvalue())
    assert r.u8() == 7
    assert r.u64() == 2**63
    assert r.i64() == -12345
    assert r.boolean() is True
    assert r.blob() == b"\x00\x01"
    assert r.text() == "héllo"
    assert r.optional_u64() is None
    assert r.optional_i64() == -1
    r.expect_eof()


def test_truncated_input_raises():
    w = ByteWriter()
    w.blob(b"abcdef")
    data = w.getvalue()
    with pytest.raises(DecodeError):
        ByteReader(data[:-1]).blob()


def test_trailing_bytes_raise():
    with pytest.raises(DecodeError):
        decode_artifact(encode_artifact(_sample_sct()) + b"\x00")


def _sample_sct() -> SCT:
    return SCT("log1", 123456, b"\x01" * 32, Signature("log1", b"\x02" * 32))


_rng = random.Random(2024)

_REASONS = ("unspecified", "keyCompromise", "superseded")


def _random_tbs() -> TbsCertificate:
    extensions = []
    for _ in range(_rng.randrange(0, 3)):
        extensions.append(
            Extension(
                oid=f"1.2.{_rng.randrange(1, 100)}",
                critical=_rng.random() < 0.5,
                value=_rng.randbytes(_rng.randrange(0, 12)),
            )
        )
    not_before = _rng.randrange(0, 10**10)
    return TbsCertificate(
        serial=_rng.randrange(0, 2**40),
        subject=f"host-{_rng.randrange(10**6)}.example",
        issuer=f"ca-{_rng.randrange(100)}",
        not_before=not_before,
        not_after=not_before + _rng.randrange(1, 10**10),
        public_key_id=f"key-{_rng.randrange(10**6)}",
        extensions=tuple(extensions),
    )


def _random_signature() -> Signature:
    return Signature(f"signer-{_rng.randrange(1000)}", _rng.randbytes(32))


def _random_artifact():
    choice = _rng.randrange(6)
    if choice == 0:
        return Certificate(_random_tbs(), _random_signature())
    if choice == 1:
        return Postcertificate(
            tbs=_random_tbs(),
            revocation_ext=RevocationExtension(
                reason_code=_rng.choice(_REASONS),
                invalidation_date=_rng.randrange(0, 10**10) if _rng.random() < 0.5 else None,
            ),
            scheme=_rng.choice(list(PostcertScheme)),
            signature=_random_signature(),
        )
    if choice == 2:
        return _sample_sct()
    if choice == 3:
        return STH(
            f"log-{_rng.randrange(10)}",
            _rng.randrange(-10**6, 10**12),
            _rng.randrange(0, 10**6),
            _rng.randbytes(32),
            _random_signature(),
        )
    if choice == 4:
        return LogEntry(
            payload=_rng.randbytes(_rng.randrange(1, 50)),
            t_submission=_rng.randrange(-10**6, 10**12),
            log_id=f"log-{_rng.randrange(10)}",
            number=_rng.randrange(0, 10**6),
        )
    return RevocationStatus(
        cert_ref=CertRef(f"ca-{_rng.randrange(10)}", _rng.randrange(2**30)),
        value=StatusValue(
            _rng.choice(list(StatusKind)),
            reason=_rng.choice(_REASONS) if _rng.random() < 0.5 else None,
            invalidation_date=_rng.randrange(0, 10**10) if _rng.random() < 0.3 else None,
        ),
        t=_rng.randrange(-10**6, 10**12),
        validity_ms=_rng.randrange(8 * 3600 * 1000, 10 * 86400 * 1000),
        signature=_random_signature(),
    )


def test_randomized_round_trip_10k():
    for _ in range(10_000):
        artifact = _random_artifact()
        assert decode_artifact(encode_artifact(artifact)) == artifact


def test_audit_proof_round_trip():
    proof = MerkleAuditProof(3, 10, (b"\x01" * 32, b"\x02" * 32))
    assert decode_artifact(encode_artifact(proof)) == proof


@settings(max_examples=200)
@given(
    serial=st.integers(min_value=0, max_value=2**60),
    subject=st.text(min_size=0, max_size=30),
    gap=st.integers(min_value=1, max_value=10**12),
    start=st.integers(min_value=0, max_value=10**12),
    value=st.binary(max_size=40),
    critical=st.booleans(),
)
def test_certificate_round_trip_hypothesis(serial, subject, gap, start, value, critical):
    tbs = TbsCertificate(
        serial=serial,
        subject=subject,
        issuer="ca",
        not_before=start,
        not_after=start + gap,
        public_key_id="key",
        extensions=(Extension("1.2.3", critical, value),),
    )
    cert = Certificate(tbs, Signature("ca", b"\x00" * 32))
    assert decode_artifact(encode_artifact(cert)) == cert


# Every primitive at its bounds ------------------------------------------------

U32_MAX, U64_MAX, I64_MIN, I64_MAX = 2**32 - 1, 2**64 - 1, -(2**63), 2**63 - 1

_PRIMITIVES = {
    "u8": st.integers(0, 0xFF),
    "u32": st.integers(0, U32_MAX),
    "u64": st.integers(0, U64_MAX),
    "i64": st.integers(I64_MIN, I64_MAX),
    "boolean": st.booleans(),
    "blob": st.binary(max_size=300),
    "text": st.text(max_size=40),
    "optional_u64": st.none() | st.integers(0, U64_MAX),
    "optional_i64": st.none() | st.integers(I64_MIN, I64_MAX),
}
_BOUNDS = [
    ("u8", 0), ("u8", 0xFF), ("u32", 0), ("u32", U32_MAX), ("u64", U64_MAX),
    ("i64", I64_MIN), ("i64", I64_MAX), ("blob", b""), ("text", ""),
    ("text", "héllo ✓ 日本 \U0001f512"), ("optional_u64", None), ("optional_u64", U64_MAX),
    ("optional_i64", None), ("optional_i64", I64_MIN),
]
_fields = st.lists(
    st.sampled_from(sorted(_PRIMITIVES)).flatmap(
        lambda kind: st.tuples(st.just(kind), _PRIMITIVES[kind])
    ),
    max_size=12,
)


def _write(fields) -> bytes:
    w = ByteWriter()
    for kind, value in fields:
        getattr(w, kind)(value)
    return w.getvalue()


def _read(data: bytes, kinds) -> list:
    r = ByteReader(data)
    values = [getattr(r, kind)() for kind in kinds]
    r.expect_eof()
    return values


@settings(max_examples=300)
@given(fields=_fields)
@example(fields=_BOUNDS)
def test_every_primitive_round_trips_at_its_bounds(fields):
    data = _write(fields)
    assert _read(data, [kind for kind, _ in fields]) == [value for _, value in fields]


@settings(max_examples=200)
@given(fields=_fields.filter(bool))
@example(fields=_BOUNDS)
def test_every_truncation_of_a_primitive_encoding_raises(fields):
    data = _write(fields)
    kinds = [kind for kind, _ in fields]
    for cut in range(len(data)):
        with pytest.raises(DecodeError):
            _read(data[:cut], kinds)


def test_primitive_encodings_are_fixed():
    assert _write([("u8", 7), ("u32", 1), ("u64", 2), ("i64", -1)]) == (
        b"\x07" + b"\x00\x00\x00\x01" + b"\x00" * 7 + b"\x02" + b"\xff" * 8
    )
    assert _write([("blob", b"ab"), ("text", "é"), ("boolean", True), ("boolean", False)]) == (
        b"\x00\x00\x00\x02ab" + b"\x00\x00\x00\x02\xc3\xa9" + b"\x01\x00"
    )
    assert _write([("optional_u64", None), ("optional_i64", -2)]) == b"\x00\x01" + b"\xff" * 7 + b"\xfe"


@pytest.mark.parametrize("kind, value", [
    ("u8", -1), ("u8", 256), ("u32", -1), ("u32", U32_MAX + 1), ("u64", -1),
    ("u64", U64_MAX + 1), ("i64", I64_MIN - 1), ("i64", I64_MAX + 1),
])
def test_writer_rejects_out_of_range_integers(kind, value):
    with pytest.raises((ValueError, struct.error)):
        _write([(kind, value)])


# Artifacts of every registered kind -------------------------------------------

@pytest.mark.parametrize("payload", artifact_samples(), ids=lambda p: f"tag{p[0]}-{len(p)}")
def test_every_truncation_of_an_artifact_raises_decode_error(payload):
    assert encode_artifact(decode_artifact(payload)) == payload
    for cut in range(len(payload)):
        with pytest.raises(DecodeError):
            decode_artifact(payload[:cut])


_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(("set", "insert", "delete")), st.integers(0, 2**16), st.integers(0, 255)),
    min_size=1, max_size=4,
)


@settings(max_examples=1500)
@given(payload=st.deferred(lambda: st.sampled_from(artifact_samples())), mutations=_MUTATIONS)
def test_mutated_artifacts_raise_only_decode_error(payload, mutations):
    data = bytearray(payload)
    for op, position, byte in mutations:
        at = position % (len(data) + 1)
        if op == "insert":
            data.insert(at, byte)
        elif data:
            at %= len(data)
            if op == "set":
                data[at] = byte
            else:
                del data[at]
    try:
        decode_artifact(bytes(data))
    except DecodeError:
        pass


@settings(max_examples=500)
@given(payload=st.deferred(lambda: st.sampled_from(artifact_samples())), mutations=_MUTATIONS)
def test_mutated_artifacts_that_decode_encode_back_to_the_same_bytes(payload, mutations):
    data = bytearray(payload)
    for op, position, byte in mutations:
        at = position % (len(data) + 1)
        if op == "insert":
            data.insert(at, byte)
        elif data:
            at %= len(data)
            if op == "set":
                data[at] = byte
            else:
                del data[at]
    try:
        artifact = decode_artifact(bytes(data))
    except DecodeError:
        return
    assert encode_artifact(artifact) == data


_TBS = TbsCertificate(serial=1, subject="s", issuer="ca", not_before=5, not_after=9, public_key_id="key")
_TBS_FIELDS = [("u64", 1), ("text", "s"), ("text", "ca"), ("i64", 5), ("i64", 9), ("text", "key")]
_SIGNATURE_FIELDS = [("text", "ca"), ("blob", bytes(4))]
# A TBS whose one extension has ``critical`` byte 2.
_TBS_CRITICAL_2 = _write(_TBS_FIELDS + [("u32", 1), ("text", "1.2"), ("u8", 2), ("blob", b"")])


@pytest.mark.parametrize("payload, message", [
    (b"", "truncated input"),
    (b"\xee", "unknown artifact tag 238"),
    (b"\x01" + _write([("blob", encode_tbs(_TBS) + b"\x00")] + _SIGNATURE_FIELDS), "trailing bytes"),
    (b"\x01" + _write([("blob", _TBS_CRITICAL_2), *_SIGNATURE_FIELDS]), "invalid boolean"),
    # A revocation extension whose invalidation-date presence byte is 2.
    (b"\x02" + _write([("blob", encode_tbs(_TBS)), ("text", "unspecified"), ("u8", 2), ("i64", 0)]),
     "invalid boolean"),
    (b"\x03" + _write([("blob", b"\xff"), ("i64", 0), ("blob", b""), *_SIGNATURE_FIELDS]), "invalid utf-8"),
], ids=["empty", "unknown-tag", "tbs-trailing", "boolean", "presence-flag", "utf-8"])
def test_malformed_layouts_raise_decode_error(payload, message):
    with pytest.raises(DecodeError, match=message):
        decode_artifact(payload)


def _certificate_with_swapped_dates() -> bytes:
    """A certificate whose not_before is not before its not_after; its
    constructor refuses that, so the field is set past it."""
    tbs = TbsCertificate(serial=1, subject="s", issuer="ca", not_before=5, not_after=9,
                         public_key_id="key")
    object.__setattr__(tbs, "not_after", 5)
    return encode_artifact(Certificate(tbs, Signature("ca", bytes(32))))


_STH = STH("log", 1, 0, bytes(32), Signature("log", bytes(32)))


@pytest.mark.parametrize("payload, message", [
    # An STH (tag 4) whose signature names no signer.
    (b"\x04" + _write([("text", "log"), ("i64", 1), ("u64", 0), ("blob", bytes(32)),
                        ("text", ""), ("blob", b"")]), "invalid STH: signer_id must be non-empty"),
    # An SthObservation (tag 11) answered before it was requested.
    (b"\x0b" + _write([("i64", 2), ("i64", 1), ("blob", encode_artifact(_STH))]),
     "invalid SthObservation: t_request must not exceed t_response"),
    # An SthObservation carrying an SCT where its tree head goes.
    (b"\x0b" + _write([("i64", 1), ("i64", 2), ("blob", encode_artifact(_sample_sct()))]),
     "expected a nested STH, got SCT"),
    (encode_artifact(RevocationStatus(
        CertRef("ca", 1), StatusValue(StatusKind.GOOD), 0, 1, Signature("ca", bytes(32))
    )).replace(b"GOOD", b"GOOF"), "invalid RevocationStatus: 'GOOF' is not a valid StatusKind"),
    (_certificate_with_swapped_dates(), "invalid Certificate: not_before must precede not_after"),
], ids=["signature", "observation-times", "nested-kind", "status-kind", "certificate-dates"])
def test_invariant_failures_become_decode_errors_naming_the_artifact(payload, message):
    with pytest.raises(DecodeError, match=message):
        decode_artifact(payload)


# Codecs derived from the declarations -----------------------------------------

_TAGS = {name: tag for tag, (name, _) in _DECODERS.items()}
_TAGGED = sorted((cls for cls in DECLARED if cls.__name__ in _TAGS), key=lambda cls: _TAGS[cls.__name__])
_SIGNING_PAYLOADS = {
    SCT: sct_signing_payload,
    STH: sth_signing_payload,
    RevocationStatus: status_signing_payload,
    Postcertificate: postcert_signing_payload,
}


def _name(cls) -> str:
    return cls.__name__


def _write_declared(w: ByteWriter, kind, value) -> None:
    """``value`` written as its declared ``kind`` says, one primitive at a time."""
    name = kind.name
    if name in ("u32", "u64", "i64", "blob", "text"):
        getattr(w, name)(value)
    elif name == "bool":
        w.boolean(value)
    elif name == "enum":
        w.text(value.value)
    elif name == "optional":
        w.boolean(value is not None)
        if value is not None:
            _write_declared(w, kind.arg, value)
    elif name == "seq":
        w.u32(len(value))
        for item in value:
            _write_declared(w, kind.arg, item)
    elif name == "inline":
        for field, field_kind in DECLARED[kind.arg]:
            _write_declared(w, field_kind, getattr(value, field))
    elif name == "nested":
        w.artifact(value)
    else:
        assert name == "encoded"
        inner = ByteWriter()
        _write_declared(inner, inline(kind.arg), value)
        w.blob(inner.getvalue())


@pytest.mark.parametrize("cls", DECLARED, ids=_name)
def test_each_declaration_names_exactly_its_dataclass_fields(cls):
    names = [name for name, _ in DECLARED[cls]]
    assert len(set(names)) == len(names)
    assert set(names) == {field.name for field in dataclasses.fields(cls)}


def test_a_declaration_that_misses_a_field_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Pair:
        a: int
        b: int

    with pytest.raises(TypeError, match="Pair declares"):
        wire(a=U32)(Pair)


@pytest.mark.parametrize("cls", _TAGGED, ids=_name)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_declared_types_round_trip(cls, data):
    artifact = data.draw(declared(cls))
    assert decode_artifact(encode_artifact(artifact)) == artifact


@pytest.mark.parametrize("cls", _TAGGED, ids=_name)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_truncation_of_a_declared_type_raises_decode_error(cls, data):
    payload = encode_artifact(data.draw(declared(cls)))
    for cut in range(len(payload)):
        with pytest.raises(DecodeError):
            decode_artifact(payload[:cut])


@pytest.mark.parametrize("cls", _TAGGED, ids=_name)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_derived_encoder_writes_the_declared_fields_in_order(cls, data):
    artifact = data.draw(declared(cls))
    w = ByteWriter()
    w.u8(_TAGS[cls.__name__])
    _write_declared(w, inline(cls), artifact)
    assert encode_artifact(artifact) == w.getvalue()


@pytest.mark.parametrize("cls", _SIGNING_PAYLOADS, ids=_name)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_signing_payload_is_the_declared_fields_before_the_signature(cls, data):
    artifact = data.draw(declared(cls))
    fields = DECLARED[cls]
    signed = fields[: [name for name, _ in fields].index("signature")]
    w = ByteWriter()
    for name, kind in signed:
        _write_declared(w, kind, getattr(artifact, name))
    payload = _SIGNING_PAYLOADS[cls](*(getattr(artifact, name) for name, _ in signed))
    assert payload == w.getvalue()
    assert encode_artifact(artifact)[1:].startswith(payload)


@pytest.mark.parametrize("cls", [Certificate, Postcertificate], ids=_name)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_decoded_tbs_caches_the_blob_it_was_read_from(cls, data):
    payload = encode_artifact(data.draw(declared(cls)))
    tbs = decode_artifact(payload).tbs
    assert "encoded" in vars(tbs)  # seeded by the decoder, not computed on read
    assert tbs.encoded == encode_tbs(tbs)
    assert encode_artifact(decode_artifact(payload)) == payload


# Field lines ------------------------------------------------------------------


def test_field_line_round_trips_and_reads_by_key():
    line = fields_line([("t", 5), ("who", "ca1"), ("hex", "00ff")])
    assert line == "t=5 who=ca1 hex=00ff"
    keys = (("t", int), ("who", str), ("hex", bytes.fromhex))
    assert FieldLine.read(line, keys, "line", 3) == [5, "ca1", b"\x00\xff"]
    fields = FieldLine(line, "line", 3)
    assert fields.get("who") == "ca1"
    assert fields.get("t", int) == 5
    assert fields.get("absent", int, 7) == 7
    fields.only([key for key, _ in keys])
    FieldLine("t=5 hex=00ff", "line", 3).only(["t", "who", "hex"])  # an absent key breaks no order


def _read_keys(*keys):
    return lambda text, label, lineno: FieldLine.read(text, keys, label, lineno)


@pytest.mark.parametrize(
    "text, read, message",
    [
        ("t=5 oops", FieldLine, "snapshot line 4: malformed field 'oops'"),
        ("t=5 oops", _read_keys(("t", int)), "snapshot line 4: malformed field 'oops'"),
        ("t=5", lambda *line: FieldLine(*line).get("seq", int), "snapshot line 4: missing field 'seq'"),
        ("t=5", _read_keys(("t", int), ("seq", int)), "snapshot line 4: missing field 'seq'"),
        ("t=soon", _read_keys(("t", int)), "snapshot line 4: invalid literal for int()"),
        ("t=soon", lambda *line: FieldLine(*line).get("t", int), "(bad t value)"),
        ("h=zz", _read_keys(("h", bytes.fromhex)), "(bad h value)"),
        ("t=5 seq=1 t=5", FieldLine, "snapshot line 4: repeated field 't'"),
        ("t=5 seq=1 t=6", _read_keys(("t", int), ("seq", int)), "snapshot line 4: repeated field 't'"),
        ("t=5 t=5", _read_keys(("t", int), ("seq", int)), "snapshot line 4: repeated field 't'"),
        ("t=5 seq=1", _read_keys(("t", int)), "snapshot line 4: unknown field 'seq'"),
        ("seq=1 who=x", _read_keys(("t", int), ("seq", int)), "snapshot line 4: unknown field 'who'"),
        ("seq=1 t=5", _read_keys(("t", int), ("seq", int)), "snapshot line 4: fields out of order, expected t seq"),
        ("seq=1 t=5", lambda *line: FieldLine(*line).only(("t", "seq")), "snapshot line 4: fields out of order"),
    ],
    ids=["malformed", "malformed-read", "missing", "missing-read", "bad-int", "bad-int-names-field", "bad-hex",
         "repeated", "repeated-read", "repeated-read-same-count", "unknown-read", "unknown-read-same-count",
         "out-of-order-read", "out-of-order-only"],
)
def test_field_line_failures_name_the_line_and_field(text, read, message):
    with pytest.raises(DecodeError) as failure:
        read(text, "snapshot line", 4)
    assert message in str(failure.value)


# Malformed scenario, snapshot and trace text: mutations of real files may raise
# only DecodeError from the parsers (and ScenarioError from scenario checks).

_NASTY = ("", "-", "0", "-1", "-5", "nan", "inf", "-inf", "1e999", "0.5", "abc", "=", "a=b", "zz", ",", "x,,y",
          "é", "\x00", "9" * 30, "NONE", "BUSY", "issue", "log-a", "client1", "fixed:-1", "exp:nan")
_TEXT_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("value", "key", "drop", "dup", "char", "cut", "line")),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        st.one_of(st.sampled_from(_NASTY), st.text(max_size=6)),
    ),
    min_size=1, max_size=4,
)


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for op, at, where, value in mutations:
        row = at % len(lines) if lines else 0
        words = lines[row].split(" ") if lines else [""]
        word = where % len(words)
        key, _, _ = words[word].partition("=")
        if op == "value":
            words[word] = f"{key}={value}"
        elif op == "key":
            words[word] = f"{value}={words[word].partition('=')[2]}"
        elif op == "drop":
            del words[word]
        elif op == "dup":
            words.insert(word, words[word])
        elif op == "char":
            words[word] = words[word][: where % 7] + value + words[word][where % 7 :]
        elif op == "cut":
            words[word] = words[word][: where % 5]
        elif lines:  # "line": drop the line, or repeat it when value is empty
            lines[row: row + 1] = [lines[row]] * (2 if not value else 0)
            continue
        if lines:
            lines[row] = " ".join(words)
    return "\n".join(lines) + "\n"


@functools.cache
def _real_files() -> dict[str, str]:
    scenario = normal_revocation(seed=21)
    sim = Simulation(scenario)
    events = sim.run()
    return {
        "scenario": scenario_to_text(scenario),
        "snapshot": log_snapshot_text(sim.logs["log-a"]),
        "trace": trace_to_text(events[:40]),
    }


def _parse(kind: str, text: str) -> None:
    if kind == "scenario":
        validate_scenario(scenario_from_text(text))
    elif kind == "snapshot":
        LogView.from_text(text)
    else:
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("kind", ["scenario", "snapshot", "trace"])
@settings(max_examples=600, deadline=None)
@given(mutations=_TEXT_MUTATIONS)
def test_mutated_text_files_raise_only_decode_or_scenario_errors(kind, mutations):
    try:
        _parse(kind, _mutate(_real_files()[kind], mutations))
    except (DecodeError, ScenarioError):
        pass


@pytest.mark.parametrize("kind", ["scenario", "snapshot", "trace"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_line_with_two_fields_swapped_is_refused(kind, data):
    """Two fields of one line trade places: the line would load and write
    back as other text, so the file is refused, naming that line."""
    lines = _real_files()[kind].splitlines(keepends=True)
    lineno = data.draw(st.integers(1, len(lines)), label="line")
    words = lines[lineno - 1].split()
    first = 0 if "=" in words[0] else 1  # a kind word stays in front
    i, j = data.draw(st.lists(st.integers(first, len(words) - 1), min_size=2, max_size=2, unique=True))
    words[i], words[j] = words[j], words[i]
    lines[lineno - 1] = " ".join(words) + "\n"
    with pytest.raises(DecodeError, match=rf"line {lineno}: fields out of order"):
        _parse(kind, "".join(lines))


@pytest.mark.parametrize("text, value", [("0", 0), ("42", 42), ("-7", -7), ("9" * 30, int("9" * 30))])
def test_canonical_int_reads_optional_minus_and_ascii_digits(text, value):
    assert canonical_int(text) == value


@pytest.mark.parametrize("text", ["", "-", "+1", "1_0", " 1", "1 ", "--1", "0x1", "1e3", "1.0",
                                  "\u0663", "\u00b2", "-\u0663", "\uff11", "-0", "007", "-01"])
def test_canonical_int_refuses_what_int_alone_would_read(text):
    with pytest.raises(ValueError, match="invalid literal for int"):
        canonical_int(text)


@pytest.mark.parametrize("kind, pattern", [
    ("scenario", r"seed=(\d+)"),
    ("snapshot", r"t_submission=(\d+)"),
    ("trace", r"seq=(\d+)"),
])
@pytest.mark.parametrize("spelling", ["+{}", "1_{}", "\u0663", "{}\u00b2"],
                         ids=["plus", "underscore", "arabic-indic", "superscript"])
def test_integer_fields_accept_only_canonical_digits(kind, pattern, spelling):
    text = _real_files()[kind]
    _parse(kind, text)
    broken = re.sub(pattern, lambda m: m.group(0).replace(m.group(1), spelling.format(m.group(1))), text, count=1)
    assert broken != text
    with pytest.raises(DecodeError, match=r"line \d+: invalid literal for int\(\)"):
        _parse(kind, broken)


# Every ``key=value`` field of a scenario file whose value is an integer.
_INTEGER_FIELD = re.compile(r"(?<=[ \n])\w+=(-?[0-9]+)(?=[ \n])")


@settings(max_examples=300, deadline=None)
@given(field=st.integers(0, 2**16), spelling=st.one_of(
    st.from_regex(r"\A-?[0-9]{1,12}\Z"), st.sampled_from(["0", "1", "-0", "00", "007", "-01", "2"])))
def test_scenario_with_an_integer_edit_reads_back_byte_for_byte(field, spelling):
    """One integer field of the ``m1`` scenario file respelled: a spelling
    that ``str`` would not write is refused, and a scenario that loads and
    validates writes back the edited text byte for byte."""
    text = scenario_to_text(build_preset("m1", 4))
    matches = list(_INTEGER_FIELD.finditer(text))
    at = matches[field % len(matches)]
    edited = text[: at.start(1)] + spelling + text[at.end(1):]
    try:
        scenario = scenario_from_text(edited)
        validate_scenario(scenario)
    except (DecodeError, ScenarioError):
        return
    assert spelling == str(int(spelling))
    assert scenario_to_text(scenario) == edited


# Every float field of a scenario file: a log's ``cache_p`` and ``background``.
_FLOAT_FIELD = re.compile(r"(?<= )(?:cache_p|background)=([^ \n]+)")


@settings(max_examples=300, deadline=None)
@given(field=st.integers(0, 2**16), spelling=st.one_of(
    st.floats().map(repr),
    st.from_regex(r"\A[-+]?[0-9]{0,3}(\.[0-9]{0,3})?(e[-+]?[0-9]{1,3})?\Z"),
    st.sampled_from(["6", "\uff16.0", "6.00", "1e1", "-0.0", "0.0", "0.5", "1.0", "nan", "inf", "1e400", "1_0.0"])))
@example(field=0, spelling="0")
@example(field=1, spelling="6")
@example(field=1, spelling="1e1")
def test_scenario_with_a_float_edit_reads_back_byte_for_byte(field, spelling):
    """One float field of the ``m1`` scenario file respelled: a spelling that
    ``repr`` would not write is refused, and a scenario that loads and
    validates writes back the edited text byte for byte."""
    text = scenario_to_text(build_preset("m1", 4))
    matches = list(_FLOAT_FIELD.finditer(text))
    at = matches[field % len(matches)]
    edited = text[: at.start(1)] + spelling + text[at.end(1):]
    try:
        scenario = scenario_from_text(edited)
        validate_scenario(scenario)
    except (DecodeError, ScenarioError):
        return
    assert spelling == repr(float(spelling))
    assert scenario_to_text(scenario) == edited
