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
from dataclasses import dataclass, field
from typing import IO, Iterable

from .encoding import ByteReader, ByteWriter, DecodeError, decode_artifact, register_artifact
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


@dataclass(frozen=True)
class TraceEvent:
    t_ref: int
    seq: int
    actor: str
    kind: EventKind
    payload: bytes

    def artifact(self) -> object:
        return decode_artifact(self.payload)


# Observation record artifacts ---------------------------------------------------

@dataclass(frozen=True)
class SthObservation:
    t_request: int
    t_response: int
    sth: STH

    def __post_init__(self) -> None:
        if self.t_request > self.t_response:
            raise ValueError("t_request must not exceed t_response")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SizeProbe:
    log_id: str
    t: int
    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")


@dataclass(frozen=True)
class DiscoveryRecord:
    ca_id: str
    log_id: str
    entry_number: int
    t: int
    via: str = "poll"


@dataclass(frozen=True)
class ViolationRecord:
    context: str
    kind: str
    limit_ms: int
    actual_ms: int


@dataclass(frozen=True)
class ProofRecord:
    case: str
    proven: bool
    reason: str
    t_proof: int
    bundle: bytes


def _enc_sth_obs(w: ByteWriter, obs: SthObservation) -> None:
    w.i64(obs.t_request)
    w.i64(obs.t_response)
    w.artifact(obs.sth)


def _dec_sth_obs(r: ByteReader) -> SthObservation:
    return SthObservation(r.i64(), r.i64(), r.artifact(STH))


def _enc_submission(w: ByteWriter, rec: SubmissionRecord) -> None:
    w.text(rec.log_id)
    w.i64(rec.t_request)
    w.i64(rec.t_response)
    w.blob(rec.payload_hash)
    w.boolean(rec.sct is not None)
    if rec.sct is not None:
        w.artifact(rec.sct)
    w.optional_u64(rec.final_entry_number)
    w.text(rec.error)


def _dec_submission(r: ByteReader) -> SubmissionRecord:
    log_id = r.text()
    t_request = r.i64()
    t_response = r.i64()
    payload_hash = r.blob()
    sct = r.artifact(SCT) if r.boolean() else None
    final = r.optional_u64()
    error = r.text()
    return SubmissionRecord(log_id, t_request, t_response, payload_hash, sct, final, error)


def _enc_size(w: ByteWriter, probe: SizeProbe) -> None:
    w.text(probe.log_id)
    w.i64(probe.t)
    w.u64(probe.size)


def _dec_size(r: ByteReader) -> SizeProbe:
    return SizeProbe(r.text(), r.i64(), r.u64())


def _enc_discovery(w: ByteWriter, rec: DiscoveryRecord) -> None:
    w.text(rec.ca_id)
    w.text(rec.log_id)
    w.u64(rec.entry_number)
    w.i64(rec.t)
    w.text(rec.via)


def _dec_discovery(r: ByteReader) -> DiscoveryRecord:
    return DiscoveryRecord(r.text(), r.text(), r.u64(), r.i64(), r.text())


def _enc_violation(w: ByteWriter, rec: ViolationRecord) -> None:
    w.text(rec.context)
    w.text(rec.kind)
    w.u64(rec.limit_ms)
    w.u64(rec.actual_ms)


def _dec_violation(r: ByteReader) -> ViolationRecord:
    return ViolationRecord(r.text(), r.text(), r.u64(), r.u64())


def _enc_proof_record(w: ByteWriter, rec: ProofRecord) -> None:
    w.text(rec.case)
    w.boolean(rec.proven)
    w.text(rec.reason)
    w.i64(rec.t_proof)
    w.blob(rec.bundle)


def _dec_proof_record(r: ByteReader) -> ProofRecord:
    return ProofRecord(r.text(), r.boolean(), r.text(), r.i64(), r.blob())


register_artifact(11, SthObservation, _enc_sth_obs, _dec_sth_obs)
register_artifact(12, SubmissionRecord, _enc_submission, _dec_submission)
register_artifact(13, SizeProbe, _enc_size, _dec_size)
register_artifact(14, DiscoveryRecord, _enc_discovery, _dec_discovery)
register_artifact(15, ViolationRecord, _enc_violation, _dec_violation)
register_artifact(16, ProofRecord, _enc_proof_record, _dec_proof_record)


# Trace file I/O -------------------------------------------------------------------

def format_event(event: TraceEvent) -> str:
    return (
        f"t={event.t_ref} seq={event.seq} actor={event.actor} "
        f"kind={event.kind.value} payload={event.payload.hex()}"
    )


def parse_event(line: str) -> TraceEvent:
    fields: dict[str, str] = {}
    for item in line.strip().split(" "):
        key, _, value = item.partition("=")
        if not _:
            raise DecodeError(f"malformed trace line: {line!r}")
        fields[key] = value
    try:
        return TraceEvent(
            t_ref=int(fields["t"]),
            seq=int(fields["seq"]),
            actor=fields["actor"],
            kind=EventKind(fields["kind"]),
            payload=bytes.fromhex(fields["payload"]),
        )
    except (KeyError, ValueError) as exc:
        raise DecodeError(f"malformed trace line: {line!r}") from exc


def write_trace(events: Iterable[TraceEvent], stream: IO[str]) -> None:
    for event in events:
        stream.write(format_event(event) + "\n")


def read_trace(stream: IO[str]) -> list[TraceEvent]:
    events = []
    for line in stream:
        if line.strip():
            events.append(parse_event(line))
    return events


def trace_to_text(events: Iterable[TraceEvent]) -> str:
    return "".join(format_event(e) + "\n" for e in events)


# Observation extraction -------------------------------------------------------------

@dataclass
class ObservationSet:
    """Trace contents regrouped per log for the analysis pipeline."""

    sths: dict[str, list[SthObservation]] = field(default_factory=dict)
    submissions: dict[str, list[SubmissionRecord]] = field(default_factory=dict)
    sizes: dict[str, list[SizeProbe]] = field(default_factory=dict)
    statuses: list[RevocationStatus] = field(default_factory=list)
    scts: list[SCT] = field(default_factory=list)
    discoveries: list[DiscoveryRecord] = field(default_factory=list)
    violations: list[ViolationRecord] = field(default_factory=list)
    proofs: list[ProofRecord] = field(default_factory=list)

    def log_ids(self) -> list[str]:
        ids = set(self.sths) | set(self.submissions) | set(self.sizes)
        return sorted(ids)


def observations_from_events(events: Iterable[TraceEvent]) -> ObservationSet:
    obs = ObservationSet()
    for event in events:
        artifact = event.artifact()
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
        elif isinstance(artifact, DiscoveryRecord):
            obs.discoveries.append(artifact)
        elif isinstance(artifact, ViolationRecord):
            obs.violations.append(artifact)
        elif isinstance(artifact, ProofRecord):
            obs.proofs.append(artifact)
        elif isinstance(artifact, SCT):
            obs.scts.append(artifact)
    return obs
