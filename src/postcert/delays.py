"""Revocation-delay accounting and bound checking.

Two pathways are modeled. The current practice decomposes end-to-end
revocation time into request delivery, request processing and status update,
with processing plus update capped at five days. The postcertificate pathway
decomposes it into publication, monitor discovery and status update; the
publication leg is bounded by the maximum merge delay and, depending on how
the revocation deadline is anchored, either the remaining legs are bounded by
the publication-anchored deadline or the whole sum by the submission-anchored
one. An out-of-band SCT handoff from submitter to CA is the SCT fast path:
the simulator's breakdown (``sim.Simulation._breakdown_for``) then counts the
handoff as the publication leg and no monitor discovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .misbehavior import MrdMode, MrdPolicy
from .timeutil import DAY_MS

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
    """A pathway's three component delays in pathway order: request delivery,
    request processing and status update on the current pathway;
    publication, monitor discovery and status update on the postcertificate
    pathway."""

    pathway: Pathway
    components: tuple[int, int, int]

    def __post_init__(self) -> None:
        if min(self.components) < 0:
            raise DelayError(f"{self.pathway.value} delays must be non-negative: {self.components}")

    @classmethod
    def current(cls, delivery: int, processing: int, update: int) -> "DelayBreakdown":
        return cls(Pathway.CURRENT, (delivery, processing, update))

    @classmethod
    def postcert(cls, publication: int, discovery: int, update: int) -> "DelayBreakdown":
        return cls(Pathway.POSTCERT, (publication, discovery, update))


@dataclass(frozen=True)
class Violation:
    kind: str
    limit_ms: int
    actual_ms: int


def check_bounds(breakdown: DelayBreakdown, policy: MrdPolicy) -> list[Violation]:
    """Compare a measured breakdown against its pathway's bounds.

    All bounds are inclusive: a component sitting exactly on the limit is not
    a violation. Violations are returned as data, never raised.
    """
    violations: list[Violation] = []
    if breakdown.pathway is Pathway.CURRENT:
        _, processing, update = breakdown.components
        if processing + update > CURRENT_PROCESSING_LIMIT_MS:
            violations.append(
                Violation(VIOLATION_PROCESSING_UPDATE, CURRENT_PROCESSING_LIMIT_MS, processing + update)
            )
        return violations

    publication, discovery, update = breakdown.components
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
