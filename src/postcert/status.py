"""Signed revocation statuses with the CA/Browser-forum validity rules.

Statuses are short-lived signed assertions (GOOD / REVOKED / UNKNOWN) with a
validity window of 8 hours to 10 days. ``issue_status`` signs one, and an
honest CA only issues a non-good status after it holds evidence that the
corresponding postcertificate reached a log; ``verify_status`` checks its
signature; ``status_update_deadline`` gives how soon an updated status must
be republished, derived from the validity period.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .certs import CertRef, Postcertificate
from .crypto import KeyRegistry, Signature
from .encoding import I64, TEXT, U64, inline, optional, signing_payload, wire
from .log import SCT, LogEntry
from .timeutil import DAY_MS, HOUR_MS

VALIDITY_MIN_MS = 8 * HOUR_MS
VALIDITY_MAX_MS = 10 * DAY_MS
_SHORT_VALIDITY_MS = 16 * HOUR_MS
_UPDATE_CAP_MS = 4 * DAY_MS


class StatusError(Exception):
    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


class StatusKind(enum.Enum):
    GOOD = "GOOD"
    REVOKED = "REVOKED"
    UNKNOWN = "UNKNOWN"


@wire(kind=StatusKind, reason=optional(TEXT), invalidation_date=optional(I64))
@dataclass(frozen=True)
class StatusValue:
    kind: StatusKind
    reason: str | None = None
    invalidation_date: int | None = None

    @classmethod
    def good(cls) -> "StatusValue":
        return cls(StatusKind.GOOD)

    @classmethod
    def revoked(cls, reason: str = "unspecified", invalidation_date: int | None = None) -> "StatusValue":
        return cls(StatusKind.REVOKED, reason, invalidation_date)

    @classmethod
    def unknown(cls) -> "StatusValue":
        return cls(StatusKind.UNKNOWN)


@wire(
    7,
    cert_ref=inline(CertRef),
    value=inline(StatusValue),
    t=I64,
    validity_ms=U64,
    signature=inline(Signature),
)
@dataclass(frozen=True)
class RevocationStatus:
    cert_ref: CertRef
    value: StatusValue
    t: int
    validity_ms: int
    signature: Signature


status_signing_payload = signing_payload(RevocationStatus)


def _evidence_matches(evidence: SCT | LogEntry | None, cert_ref: CertRef) -> bool:
    if evidence is None:
        return False
    if isinstance(evidence, LogEntry):
        payload = evidence.decoded()
        return isinstance(payload, Postcertificate) and payload.target_ref == cert_ref
    return True  # an SCT is a log's inclusion promise; binding is checked downstream


def issue_status(
    registry: KeyRegistry,
    ca_key_id: str,
    cert_ref: CertRef,
    value: StatusValue,
    now: int,
    validity_ms: int,
    *,
    evidence: SCT | LogEntry | None = None,
    honest: bool = True,
) -> RevocationStatus:
    """Sign a status assertion timestamped at the CA's clock ``now``.

    With ``honest=True`` a non-good status requires evidence of a logged
    postcertificate (an SCT or a published entry for the same certificate).
    """
    if not VALIDITY_MIN_MS <= validity_ms <= VALIDITY_MAX_MS:
        raise StatusError("validity-out-of-range", f"{validity_ms}ms")
    if honest and value.kind is not StatusKind.GOOD and not _evidence_matches(evidence, cert_ref):
        raise StatusError("missing-postcertificate-evidence", f"{cert_ref}")
    sig = registry.sign(ca_key_id, status_signing_payload(cert_ref, value, now, validity_ms))
    return RevocationStatus(cert_ref, value, now, validity_ms, sig)


def verify_status(status: RevocationStatus, registry: KeyRegistry) -> bool:
    payload = status_signing_payload(status.cert_ref, status.value, status.t, status.validity_ms)
    return registry.verify(status.signature, payload)


def status_update_deadline(validity_ms: int) -> int:
    """Longest allowed delay before an updated status must be available.

    Half the validity period for windows shorter than 16 hours, otherwise
    min(validity - 8h, 4 days). Both branches meet at 8h for a 16h window.
    """
    if not VALIDITY_MIN_MS <= validity_ms <= VALIDITY_MAX_MS:
        raise StatusError("validity-out-of-range", f"{validity_ms}ms")
    if validity_ms < _SHORT_VALIDITY_MS:
        return validity_ms // 2
    return min(validity_ms - VALIDITY_MIN_MS, _UPDATE_CAP_MS)
