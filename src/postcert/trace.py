"""Line-delimited trace records shared by the simulator, probes and analysis.

One event per line with a stable field order, so a rerun with the same seed
produces byte-identical files:

    t=<ms> seq=<n> actor=<id> kind=<KIND> payload=<hex>

The payload is a tagged canonical artifact (tree-head observations,
submission records, statuses, proofs, ...), which keeps the same file format
usable for both simulator traces and probe recordings.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable

from .encoding import (
    BLOB, BOOL, I64, TEXT, U64, FieldLine, canonical_int, decode_artifact, nested, optional, wire,
)
from .log import SCT, STH
from .status import RevocationStatus


class EventKind(enum.Enum):
    SUBMIT = "SUBMIT"
    SCT = "SCT"
    STH = "STH"
    STATUS = "STATUS"
    DISCOVERY = "DISCOVERY"
    PROOF = "PROOF"
    VIOLATION = "VIOLATION"
    SIZE = "SIZE"  # size-probe observations recorded alongside simulator events


@dataclass(frozen=True, slots=True)
class TraceEvent:
    t_ref: int
    seq: int
    actor: str
    kind: EventKind
    payload: bytes

    def artifact(self) -> object:
        return decode_artifact(self.payload)


# Observation record artifacts ---------------------------------------------------

@wire(11, t_request=I64, t_response=I64, sth=nested(STH))
@dataclass(frozen=True, slots=True)
class SthObservation:
    t_request: int
    t_response: int
    sth: STH

    def __post_init__(self) -> None:
        if self.t_request > self.t_response:
            raise ValueError("t_request must not exceed t_response")


@wire(
    12,
    log_id=TEXT,
    t_request=I64,
    t_response=I64,
    payload_hash=BLOB,
    sct=optional(nested(SCT)),
    final_entry_number=optional(U64),
    error=TEXT,
)
@dataclass(frozen=True, slots=True)
class SubmissionRecord:
    log_id: str
    t_request: int
    t_response: int
    payload_hash: bytes
    sct: SCT | None = None
    final_entry_number: int | None = None
    error: str = ""

    def __post_init__(self) -> None:
        if self.t_request > self.t_response:
            raise ValueError("t_request must not exceed t_response")

    @property
    def ok(self) -> bool:
        return self.sct is not None


@wire(13, log_id=TEXT, t=I64, size=U64)
@dataclass(frozen=True, slots=True)
class SizeProbe:
    log_id: str
    t: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")


@wire(14, ca_id=TEXT, log_id=TEXT, entry_number=U64, t=I64, via=TEXT)
@dataclass(frozen=True, slots=True)
class DiscoveryRecord:
    ca_id: str
    log_id: str
    entry_number: int
    t: int
    via: str = "poll"


@wire(15, context=TEXT, kind=TEXT, limit_ms=U64, actual_ms=U64)
@dataclass(frozen=True, slots=True)
class ViolationRecord:
    context: str
    kind: str
    limit_ms: int
    actual_ms: int


@wire(16, case=TEXT, proven=BOOL, reason=TEXT, t_proof=I64, bundle=BLOB)
@dataclass(frozen=True, slots=True)
class ProofRecord:
    case: str
    proven: bool
    reason: str
    t_proof: int
    bundle: bytes


# Trace file I/O -------------------------------------------------------------------

def format_event(event: TraceEvent) -> str:
    return (
        f"t={event.t_ref} seq={event.seq} actor={event.actor} "
        f"kind={event.kind.value} payload={event.payload.hex()}"
    )


# A trace names a few actors many times: equal actor texts share one string.
_EVENT_FIELDS = (("t", canonical_int), ("seq", canonical_int), ("actor", sys.intern), ("kind", EventKind),
                 ("payload", bytes.fromhex))


def parse_event(line: str, lineno: int = 1) -> TraceEvent:
    """Parse ``format_event`` output; ``lineno`` names the line in errors."""
    return TraceEvent(*FieldLine.read(line, _EVENT_FIELDS, "trace line", lineno))


def read_trace(stream: IO[str]) -> list[TraceEvent]:
    events = []
    for lineno, line in enumerate(stream, 1):
        if line.strip():
            events.append(parse_event(line, lineno))
    return events


def trace_to_text(events: Iterable[TraceEvent]) -> str:
    return "".join(format_event(e) + "\n" for e in events)


# Observation extraction -------------------------------------------------------------

@dataclass
class ObservationSet:
    """What a third-party monitor saw, regrouped per log: the view both the
    analysis pipeline and the misbehavior proof builders read."""

    sths: dict[str, list[SthObservation]] = field(default_factory=dict)
    submissions: dict[str, list[SubmissionRecord]] = field(default_factory=dict)
    sizes: dict[str, list[SizeProbe]] = field(default_factory=dict)
    statuses: list[RevocationStatus] = field(default_factory=list)
    scts: list[SCT] = field(default_factory=list)
    violations: list[ViolationRecord] = field(default_factory=list)
    proofs: list[ProofRecord] = field(default_factory=list)

    def log_ids(self) -> list[str]:
        ids = set(self.sths) | set(self.submissions) | set(self.sizes)
        return sorted(ids)


def observations(artifacts: Iterable[object]) -> ObservationSet:
    """Group decoded trace artifacts, kept in trace order, into a monitor's view.

    An accepted submission's SCT comes from its ``SubmissionRecord``; the
    ``SCT`` event that repeats it adds nothing.
    """
    obs = ObservationSet()
    for artifact in artifacts:
        if isinstance(artifact, SthObservation):
            obs.sths.setdefault(artifact.sth.log_id, []).append(artifact)
        elif isinstance(artifact, SubmissionRecord):
            obs.submissions.setdefault(artifact.log_id, []).append(artifact)
            if artifact.sct is not None:
                obs.scts.append(artifact.sct)
        elif isinstance(artifact, SizeProbe):
            obs.sizes.setdefault(artifact.log_id, []).append(artifact)
        elif isinstance(artifact, RevocationStatus):
            obs.statuses.append(artifact)
        elif isinstance(artifact, ViolationRecord):
            obs.violations.append(artifact)
        elif isinstance(artifact, ProofRecord):
            obs.proofs.append(artifact)
    return obs


def observations_from_events(events: Iterable[TraceEvent]) -> ObservationSet:
    return observations(event.artifact() for event in events)
