"""Revocation-delay accounting and bound checking.

Two pathways are modeled. The current practice decomposes end-to-end
revocation time into request delivery, request processing and status update,
with processing plus update capped at five days. The postcertificate pathway
decomposes it into publication, monitor discovery and status update; the
publication leg is bounded by the maximum merge delay and, depending on how
the revocation deadline is anchored, either the remaining legs are bounded by
the publication-anchored deadline or the whole sum by the submission-anchored
one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .misbehavior import MrdMode, MrdPolicy
from .timeutil import DAY_MS, format_duration_ms

DEFAULT_MMD_MS = DAY_MS
CURRENT_PROCESSING_LIMIT_MS = 5 * DAY_MS

VIOLATION_PROCESSING_UPDATE = "processing-update-exceeds-5d"
VIOLATION_PUBLICATION = "publication-exceeds-mmd"
VIOLATION_DISCOVERY_UPDATE = "discovery-update-exceeds-mrd-b"
VIOLATION_TOTAL = "exceeds-mrd-a"


class DelayError(Exception):
    pass


class Pathway(enum.Enum):
    CURRENT = "CURRENT"
    POSTCERT = "POSTCERT"


@dataclass(frozen=True)
class DelayBreakdown:
    pathway: Pathway
    request_delivery_ms: int | None = None
    request_processing_ms: int | None = None
    publication_ms: int | None = None
    mon_discovery_ms: int | None = None
    status_update_ms: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "request_delivery_ms",
            "request_processing_ms",
            "publication_ms",
            "mon_discovery_ms",
            "status_update_ms",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise DelayError(f"{name} must be non-negative")

    @classmethod
    def current(cls, delivery: int, processing: int, update: int) -> "DelayBreakdown":
        return cls(
            Pathway.CURRENT,
            request_delivery_ms=delivery,
            request_processing_ms=processing,
            status_update_ms=update,
        )

    @classmethod
    def postcert(cls, publication: int, discovery: int, update: int) -> "DelayBreakdown":
        return cls(
            Pathway.POSTCERT,
            publication_ms=publication,
            mon_discovery_ms=discovery,
            status_update_ms=update,
        )

    def _components(self) -> tuple[int, int, int]:
        if self.pathway is Pathway.CURRENT:
            parts = (self.request_delivery_ms, self.request_processing_ms, self.status_update_ms)
        else:
            parts = (self.publication_ms, self.mon_discovery_ms, self.status_update_ms)
        if any(p is None for p in parts):
            raise DelayError(f"missing component for {self.pathway.value} pathway")
        return parts  # type: ignore[return-value]


def total_delay(breakdown: DelayBreakdown) -> int:
    """Sum of the pathway's three component delays."""
    return sum(breakdown._components())


@dataclass(frozen=True)
class Violation:
    kind: str
    limit_ms: int
    actual_ms: int

    def render(self) -> str:
        return (
            f"violation {self.kind}: {format_duration_ms(self.actual_ms)} "
            f"> {format_duration_ms(self.limit_ms)}"
        )


def check_bounds(breakdown: DelayBreakdown, policy: MrdPolicy) -> list[Violation]:
    """Compare a measured breakdown against its pathway's bounds.

    All bounds are inclusive: a component sitting exactly on the limit is not
    a violation. Violations are returned as data, never raised.
    """
    violations: list[Violation] = []
    if breakdown.pathway is Pathway.CURRENT:
        _, processing, update = breakdown._components()
        if processing + update > CURRENT_PROCESSING_LIMIT_MS:
            violations.append(
                Violation(VIOLATION_PROCESSING_UPDATE, CURRENT_PROCESSING_LIMIT_MS, processing + update)
            )
        return violations

    publication, discovery, update = breakdown._components()
    if policy.mode is MrdMode.FROM_PUBLICATION:
        if publication > policy.mmd_ms:
            violations.append(Violation(VIOLATION_PUBLICATION, policy.mmd_ms, publication))
        if discovery + update > policy.mrd_ms:
            violations.append(Violation(VIOLATION_DISCOVERY_UPDATE, policy.mrd_ms, discovery + update))
    else:
        total = publication + discovery + update
        if total > policy.mrd_ms:
            violations.append(Violation(VIOLATION_TOTAL, policy.mrd_ms, total))
    return violations


def sct_fast_path(breakdown: DelayBreakdown, sct_delivery_ms: int) -> DelayBreakdown:
    """Model the out-of-band SCT handoff from submitter to CA.

    Publication and monitor discovery are replaced by the handoff delay (the
    handoff plays the publication role, discovery drops to zero); the status
    update leg is preserved.
    """
    if breakdown.pathway is not Pathway.POSTCERT:
        raise DelayError("fast path applies to the postcertificate pathway")
    if sct_delivery_ms < 0:
        raise DelayError("handoff delay must be non-negative")
    return replace(breakdown, publication_ms=sct_delivery_ms, mon_discovery_ms=0)
