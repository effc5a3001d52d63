"""Certificate and postcertificate model with log-side chain validation.

A postcertificate is a copy of a target certificate carrying a critical
revocation extension, and its submission to a log constitutes a revocation
request. Two signing schemes exist: CA-issued (signed by the issuer, accepted
by unmodified logs) and self-signed (signed with the target certificate's own
key, accepted only by logs that validate the extended chain leading with the
target certificate). ``validate_chain`` checks a submission as a log of either
kind does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .crypto import KeyRegistry, Signature
from .encoding import (
    BOOL,
    BLOB,
    I64,
    TEXT,
    U64,
    decode_artifact,
    encoded,
    encoder,
    inline,
    optional,
    seq,
    signing_payload,
    wire,
)

# Poison and embedded-SCT tags reuse the well-known CT arc; the revocation
# extension gets its own tag so an entry's kind is recoverable from bytes.
POISON_OID = "1.3.6.1.4.1.11129.2.4.3"
SCT_LIST_OID = "1.3.6.1.4.1.11129.2.4.2"
REVOCATION_OID = "1.3.6.1.4.1.53087.1.1"

_STRIPPED_OIDS = frozenset({POISON_OID, SCT_LIST_OID, REVOCATION_OID})

REASON_CODES = (
    "unspecified",
    "keyCompromise",
    "caCompromise",
    "affiliationChanged",
    "superseded",
    "cessationOfOperation",
)

REQUESTED_STATUS_REVOKED = "REVOKED"


class CertError(ValueError):
    """A certificate invariant or chain rule does not hold."""


class PostcertScheme(enum.Enum):
    CA_ISSUED = "CA_ISSUED"
    SELF_SIGNED = "SELF_SIGNED"


class ValidationContext(enum.Enum):
    LOG_CA_ISSUED = "LOG_CA_ISSUED"
    LOG_SELF_SIGNED = "LOG_SELF_SIGNED"


# validate_chain runs on every log write; a module global is cheaper to read
# than an enum member.
_LOG_CA_ISSUED, _LOG_SELF_SIGNED = ValidationContext.LOG_CA_ISSUED, ValidationContext.LOG_SELF_SIGNED


# Reject reasons reported by validate_chain.
REJECT_BAD_SIGNATURE = "bad-signature"
REJECT_UNTRUSTED_ROOT = "untrusted-root"
REJECT_MISSING_TARGET = "missing-target-in-chain"
REJECT_EMPTY_CHAIN = "empty-chain"


@wire(oid=TEXT, critical=BOOL, value=BLOB)
@dataclass(frozen=True)
class Extension:
    oid: str
    critical: bool
    value: bytes

    def __post_init__(self) -> None:
        if not self.oid:
            raise CertError("extension oid must be non-empty")


class _EncodedOnFirstRead:
    """``TbsCertificate.encoded``: canonical bytes, encoded on the first read
    and kept in the instance dict, where every later read finds them before
    this descriptor (the instance is frozen). A decoder stores the blob it
    read there first, so that blob is never encoded again. Unlike
    ``functools.cached_property`` on Python 3.11, no lock is taken.
    """

    def __get__(self, tbs: "TbsCertificate | None", owner: type | None = None):
        if tbs is None:
            return self
        blob = tbs.__dict__["encoded"] = encode_tbs(tbs)
        return blob


@wire(
    serial=U64,
    subject=TEXT,
    issuer=TEXT,
    not_before=I64,
    not_after=I64,
    public_key_id=TEXT,
    extensions=seq(inline(Extension)),
)
@dataclass(frozen=True)
class TbsCertificate:
    serial: int
    subject: str
    issuer: str
    not_before: int
    not_after: int
    public_key_id: str
    extensions: tuple[Extension, ...] = ()

    def __post_init__(self) -> None:
        if self.not_before >= self.not_after:
            raise CertError("not_before must precede not_after")
        if self.serial < 0:
            raise CertError("serial must be non-negative")

    encoded = _EncodedOnFirstRead()


@wire(issuer=TEXT, serial=U64)
@dataclass(frozen=True)
class CertRef:
    """(issuer, serial) pair identifying one certificate."""

    issuer: str
    serial: int


@wire(reason_code=TEXT, invalidation_date=optional(I64))
@dataclass(frozen=True)
class RevocationExtension:
    reason_code: str = "unspecified"
    invalidation_date: int | None = None

    def __post_init__(self) -> None:
        if self.reason_code not in REASON_CODES:
            raise CertError(f"unknown reason code: {self.reason_code}")


@wire(1, tbs=encoded(TbsCertificate), signature=inline(Signature))
@dataclass(frozen=True)
class Certificate:
    tbs: TbsCertificate
    signature: Signature


_POSTCERT_TAG = 2
_POSTCERT_TAG_BYTE = bytes((_POSTCERT_TAG,))


# The signature covers the fields before it, so ``status`` precedes it on the wire.
@wire(
    _POSTCERT_TAG,
    tbs=encoded(TbsCertificate),
    revocation_ext=inline(RevocationExtension),
    scheme=PostcertScheme,
    status=TEXT,
    signature=inline(Signature),
)
@dataclass(frozen=True)
class Postcertificate:
    tbs: TbsCertificate
    revocation_ext: RevocationExtension
    scheme: PostcertScheme
    signature: Signature
    status: str = REQUESTED_STATUS_REVOKED

    @property
    def target_ref(self) -> CertRef:
        return CertRef(self.tbs.issuer, self.tbs.serial)


# Canonical encodings ---------------------------------------------------------

encode_tbs = encoder(inline(TbsCertificate))
encode_revocation_ext = encoder(inline(RevocationExtension))
postcert_signing_payload = signing_payload(Postcertificate)


def is_postcert_payload(payload: bytes) -> bool:
    """Whether artifact bytes carry the Postcertificate tag, read without decoding."""
    return payload[:1] == _POSTCERT_TAG_BYTE


def decode_payload(data: bytes) -> Certificate | Postcertificate:
    obj = decode_artifact(data)
    if not isinstance(obj, (Certificate, Postcertificate)):
        raise CertError("payload is neither certificate nor postcertificate")
    return obj


# Construction ----------------------------------------------------------------

def sign_certificate(registry: KeyRegistry, issuer_key_id: str, tbs: TbsCertificate) -> Certificate:
    return Certificate(tbs, registry.sign(issuer_key_id, tbs.encoded))


def make_postcertificate(
    cert: Certificate,
    scheme: PostcertScheme,
    registry: KeyRegistry,
    *,
    reason: str = "unspecified",
    invalidation_date: int | None = None,
) -> Postcertificate:
    """Build a postcertificate for ``cert`` under the given scheme.

    The scheme names the key: CA_ISSUED is signed with the issuer's key,
    SELF_SIGNED with the key named by the target certificate itself. The
    issuer field stays unchanged in both schemes.
    """
    if invalidation_date is not None and invalidation_date < cert.tbs.not_before:
        raise CertError("invalidation_date precedes certificate not_before")
    revocation_ext = RevocationExtension(reason_code=reason, invalidation_date=invalidation_date)
    key_id = cert.signature.signer_id if scheme is PostcertScheme.CA_ISSUED else cert.tbs.public_key_id
    ext_bytes = encode_revocation_ext(revocation_ext)
    tbs = replace(
        cert.tbs,
        extensions=_strip_extensions(cert.tbs.extensions)
        + (Extension(oid=REVOCATION_OID, critical=True, value=ext_bytes),),
    )
    payload = postcert_signing_payload(tbs, revocation_ext, scheme, REQUESTED_STATUS_REVOKED)
    return Postcertificate(
        tbs=tbs,
        revocation_ext=revocation_ext,
        scheme=scheme,
        signature=registry.sign(key_id, payload),
    )


def _strip_extensions(extensions: tuple[Extension, ...]) -> tuple[Extension, ...]:
    return tuple(e for e in extensions if e.oid not in _STRIPPED_OIDS)


def corresponds(a: Certificate | Postcertificate, b: Certificate | Postcertificate) -> bool:
    """True when both describe the same certificate body.

    Poison, revocation and embedded-SCT extensions are ignored, so a
    postcertificate corresponds to its target.
    """
    ta = replace(a.tbs, extensions=_strip_extensions(a.tbs.extensions))
    tb = replace(b.tbs, extensions=_strip_extensions(b.tbs.extensions))
    return ta == tb


# Chain validation -------------------------------------------------------------

@dataclass(frozen=True)
class ChainVerdict:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


_ACCEPT = ChainVerdict(True)


def _reject(reason: str) -> ChainVerdict:
    return ChainVerdict(False, reason)


class TrustStore:
    """Set of trusted self-issued root certificates.

    A root in the store is a trust anchor, an input to path validation
    (RFC 5280 §6.1.1(d)), so a chain ending in one does not verify the
    root's self-signature again.
    """

    def __init__(self, roots: list[Certificate] | None = None) -> None:
        # Certificates are frozen dataclasses whose equality covers exactly the
        # fields of their canonical encoding, so a set of them matches a root
        # by value without encoding it. Hashing one walks its nested fields,
        # so the ids of the held roots are checked first: a chain usually ends
        # in the very object the store was given.
        self._roots: set[Certificate] = set()
        self._held: set[int] = set()  # id() of each root in _roots, which keeps it alive
        for root in roots or []:
            self.add(root)

    def add(self, root: Certificate) -> None:
        if root.tbs.issuer != root.tbs.subject or root.signature.signer_id != root.tbs.public_key_id:
            raise CertError(f"trust anchor {root.tbs.subject!r} is not self-issued")
        if root not in self._roots:
            self._roots.add(root)
            self._held.add(id(root))

    def contains(self, cert: Certificate) -> bool:
        return id(cert) in self._held or cert in self._roots


def _verify_cert_signature(cert: Certificate, issuer: Certificate, registry: KeyRegistry) -> bool:
    if cert.tbs.issuer != issuer.tbs.subject:
        return False
    if cert.signature.signer_id != issuer.tbs.public_key_id:
        return False
    return registry.verify(cert.signature, cert.tbs.encoded)


def _validate_issuer_chain(
    chain: list[Certificate], registry: KeyRegistry, trust: TrustStore
) -> ChainVerdict:
    if len(chain) > 1:
        for child, parent in zip(chain, chain[1:]):
            if not _verify_cert_signature(child, parent, registry):
                return _reject(REJECT_BAD_SIGNATURE)
    root = chain[-1]
    if trust.contains(root):
        return _ACCEPT
    if not _verify_cert_signature(root, root, registry):
        return _reject(REJECT_BAD_SIGNATURE)
    return _reject(REJECT_UNTRUSTED_ROOT)


def validate_chain(
    leaf: Certificate | Postcertificate,
    chain: list[Certificate],
    context: ValidationContext,
    registry: KeyRegistry,
    trust: TrustStore,
) -> ChainVerdict:
    """Validate a submission in one of the two log contexts.

    LOG_CA_ISSUED accepts exactly what a standard log accepts:
    the leaf signed by chain[0], chaining to a trusted root. LOG_SELF_SIGNED
    additionally requires chain[0] to be the target certificate and the leaf
    to be signed with that certificate's key.
    """
    if not chain:
        return _reject(REJECT_EMPTY_CHAIN)

    if context is _LOG_CA_ISSUED:
        if isinstance(leaf, Postcertificate):
            payload = postcert_signing_payload(
                leaf.tbs, leaf.revocation_ext, leaf.scheme, leaf.status
            )
            if leaf.signature.signer_id != chain[0].tbs.public_key_id:
                return _reject(REJECT_BAD_SIGNATURE)
            if leaf.tbs.issuer != chain[0].tbs.subject:
                return _reject(REJECT_BAD_SIGNATURE)
            if not registry.verify(leaf.signature, payload):
                return _reject(REJECT_BAD_SIGNATURE)
        else:
            if not _verify_cert_signature(leaf, chain[0], registry):
                return _reject(REJECT_BAD_SIGNATURE)
        return _validate_issuer_chain(chain, registry, trust)

    if context is _LOG_SELF_SIGNED:
        if not isinstance(leaf, Postcertificate):
            return _reject(REJECT_MISSING_TARGET)
        target = chain[0]
        if not corresponds(leaf, target):
            return _reject(REJECT_MISSING_TARGET)
        if leaf.signature.signer_id != target.tbs.public_key_id:
            return _reject(REJECT_BAD_SIGNATURE)
        payload = postcert_signing_payload(leaf.tbs, leaf.revocation_ext, leaf.scheme, leaf.status)
        if not registry.verify(leaf.signature, payload):
            return _reject(REJECT_BAD_SIGNATURE)
        if len(chain) < 2:
            return _reject(REJECT_UNTRUSTED_ROOT)
        if not _verify_cert_signature(target, chain[1], registry):
            return _reject(REJECT_BAD_SIGNATURE)
        return _validate_issuer_chain(chain[1:], registry, trust)

    raise ValueError(f"unknown context: {context}")
