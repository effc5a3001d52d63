"""Construction and verification of CA misbehavior proofs.

Three CA misbehavior cases are covered:

  M1  missing status update: the CA still vouches GOOD after the revocation
      deadline for a logged postcertificate has passed;
  M2  incorrect status update: the CA serves a status of neither class GOOD
      nor the requested REVOKED after the deadline;
  M3  early non-good status: the CA serves a non-good status although no
      trusted log holds a postcertificate submitted before it.

The revocation deadline can be anchored at submission time (in which case it
must exceed the log's maximum merge delay) or at publication time (any
positive value). M1/M2 proofs bundle the published entry, a covering tree
head, an inclusion proof and the offending status; M3 proofs bundle the early
status plus one sufficiently late tree head per trusted log, and verification
exhaustively scans those logs for a counterexample entry.

A separate disclosure proof covers misbehaving logs that return an SCT and
then never publish the entry within the maximum merge delay.

Proofs are built from a ``trace.ObservationSet``, the same monitor view the
analysis reads, plus read access to the logs; builders and verifiers read a
log's entries through one function, ``_served``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .certs import Postcertificate, REQUESTED_STATUS_REVOKED, is_postcert_payload
from .crypto import KeyRegistry, SHA256
from .encoding import DecodeError, decode_artifact, encode_artifact, nested, seq, text_block, wire
from .log import (
    LogEntry,
    LogReader,
    MerkleAuditProof,
    SCT,
    STH,
    entries_below,
    verify_audit_proof,
    verify_sct_signature,
    verify_sth,
)
from .status import RevocationStatus, StatusKind, verify_status
from .timeutil import DAY_MS, HOUR_MS

if TYPE_CHECKING:  # a verifier reads no trace, so verify-proof does not load one
    from .trace import ObservationSet


class MrdMode(enum.Enum):
    FROM_SUBMISSION = "FROM_SUBMISSION"
    FROM_PUBLICATION = "FROM_PUBLICATION"


@dataclass(frozen=True)
class MrdPolicy:
    """Revocation-deadline policy: anchor mode, deadline, and merge delay."""

    mode: MrdMode
    mrd_ms: int
    mmd_ms: int

    def __post_init__(self) -> None:
        if self.mmd_ms <= 0:
            raise ValueError("mmd must be positive")
        if self.mode is MrdMode.FROM_SUBMISSION and self.mrd_ms <= self.mmd_ms:
            raise ValueError("submission-anchored deadline must exceed the mmd")
        if self.mode is MrdMode.FROM_PUBLICATION and self.mrd_ms <= 0:
            raise ValueError("publication-anchored deadline must be positive")


def default_policy(mode: MrdMode = MrdMode.FROM_PUBLICATION) -> MrdPolicy:
    """The presets' policy, and the command line's without policy flags: a
    one-day merge delay, and a deadline of 8 h after publication or 32 h
    after submission."""
    if mode is MrdMode.FROM_PUBLICATION:
        return MrdPolicy(mode, mrd_ms=8 * HOUR_MS, mmd_ms=DAY_MS)
    return MrdPolicy(mode, mrd_ms=32 * HOUR_MS, mmd_ms=DAY_MS)


class Case(enum.Enum):
    M1_MISSING_UPDATE = "M1"
    M2_INCORRECT_STATUS = "M2"
    M3_EARLY_STATUS = "M3"
    LOG_FORGET = "LOG_FORGET"


@dataclass(frozen=True)
class TrustedLogSet:
    log_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.log_ids:
            raise ValueError("trusted log set must be non-empty")

    @classmethod
    def of(cls, *log_ids: str) -> "TrustedLogSet":
        return cls(frozenset(log_ids))

    def __contains__(self, log_id: str) -> bool:
        return log_id in self.log_ids

    def sorted(self) -> list[str]:
        return sorted(self.log_ids)


@wire(
    8,
    entry=nested(LogEntry),
    sth=nested(STH),
    status=nested(RevocationStatus),
    audit=nested(MerkleAuditProof),
)
@dataclass(frozen=True)
class MisbehaviorProofM12:
    entry: LogEntry
    sth: STH
    status: RevocationStatus
    audit: MerkleAuditProof


@wire(9, status=nested(RevocationStatus), sth_set=seq(nested(STH)))
@dataclass(frozen=True)
class MisbehaviorProofM3:
    status: RevocationStatus
    sth_set: tuple[STH, ...]

    def sth_for(self, log_id: str) -> STH | None:
        for sth in self.sth_set:
            if sth.log_id == log_id:
                return sth
        return None


@wire(10, sct=nested(SCT), sth=nested(STH))
@dataclass(frozen=True)
class SctDisclosureProof:
    sct: SCT
    sth: STH


@dataclass(frozen=True)
class Verdict:
    proven: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.proven


PROVEN = Verdict(True)


def _rejected(reason: str, detail: str = "") -> Verdict:
    return Verdict(False, reason, detail)


class InsufficientEvidenceError(Exception):
    pass


# Proof-time arithmetic ----------------------------------------------------------

def earliest_proof_time(
    case: Case,
    policy: MrdPolicy,
    *,
    entry: LogEntry | None = None,
    covering_sth: STH | None = None,
    status: RevocationStatus | None = None,
) -> int:
    """Earliest instant at which the given case becomes provable.

    M1/M2 anchored at submission: entry submission time plus the deadline.
    M1/M2 anchored at publication: the earliest detected covering tree head's
    timestamp plus the deadline. M3: status time plus the merge delay, in
    both modes.
    """
    if case in (Case.M1_MISSING_UPDATE, Case.M2_INCORRECT_STATUS):
        if entry is None:
            raise ValueError("entry evidence required")
        if policy.mode is MrdMode.FROM_SUBMISSION:
            return entry.t_submission + policy.mrd_ms
        if covering_sth is None:
            raise ValueError("covering tree head required in publication mode")
        if covering_sth.log_id != entry.log_id or covering_sth.treesize <= entry.number:
            raise ValueError("tree head does not cover the entry")
        return covering_sth.t + policy.mrd_ms
    if case is Case.M3_EARLY_STATUS:
        if status is None:
            raise ValueError("status evidence required")
        return status.t + policy.mmd_ms
    raise ValueError(f"no proof time defined for {case}")


# Verifiers ----------------------------------------------------------------------

def _served(readers: dict[str, LogReader], log_id: str, size: int | None = None) -> list[LogEntry] | None:
    """Entries ``0 .. size - 1`` of ``log_id`` as its reader serves them (fewer
    if it has fewer; all it has published when ``size`` is None), or None
    without a reader. Every builder and verifier reads entries through here."""
    reader = readers.get(log_id)
    if reader is None:
        return None
    return entries_below(reader, reader.published_size() if size is None else size)


def _status_is_incorrect(status: RevocationStatus, post: Postcertificate) -> bool:
    """Compare the served status against the postcertificate's request by
    status class only: the request asks for REVOKED, whatever the reason."""
    if post.status != REQUESTED_STATUS_REVOKED:
        raise ValueError(f"unexpected requested status {post.status!r}")
    return status.value.kind is not StatusKind.REVOKED


def verify_m12(
    proof: MisbehaviorProofM12,
    policy: MrdPolicy,
    trusted: TrustedLogSet,
    registry: KeyRegistry,
) -> Verdict:
    """Check an M1/M2 evidence bundle; the verdict carries the first failure."""
    sth = proof.sth
    entry = proof.entry
    if sth.log_id not in trusted:
        return _rejected("untrusted-log", sth.log_id)
    if not verify_sth(sth, registry):
        return _rejected("bad-sth-signature")
    if entry.log_id != sth.log_id:
        return _rejected("log-mismatch", f"{entry.log_id} != {sth.log_id}")
    if entry.number >= sth.treesize:
        return _rejected("entry-not-covered", f"{entry.number} >= {sth.treesize}")
    if proof.audit.entry_number != entry.number or not verify_audit_proof(entry.payload, proof.audit, sth):
        return _rejected("bad-audit-proof")
    try:
        payload = decode_artifact(entry.payload)
    except DecodeError as exc:
        return _rejected("undecodable-entry", f"{entry.log_id}#{entry.number}: {exc}")
    if not isinstance(payload, Postcertificate):
        return _rejected("not-a-postcertificate")
    if not verify_status(proof.status, registry):
        return _rejected("bad-status-signature")
    if proof.status.cert_ref != payload.target_ref:
        return _rejected("certificate-mismatch")
    if not _status_is_incorrect(proof.status, payload):
        return _rejected("status-not-incorrect")
    t_proof = earliest_proof_time(
        Case.M1_MISSING_UPDATE, policy, entry=entry, covering_sth=sth
    )
    if proof.status.t < t_proof:
        return _rejected("status-too-early", f"{proof.status.t} < {t_proof}")
    return PROVEN


def verify_m3(
    proof: MisbehaviorProofM3,
    policy: MrdPolicy,
    trusted: TrustedLogSet,
    registry: KeyRegistry,
    log_readers: dict[str, LogReader],
) -> Verdict:
    """Check an M3 bundle by exhaustively scanning every trusted log.

    The bundle must carry one verifying tree head per trusted log, each
    timestamped at or after status time plus the merge delay; the scan then
    looks for any postcertificate entry for the same certificate submitted
    before the status. Finding one refutes the claim.
    """
    status = proof.status
    if status.value.kind is StatusKind.GOOD:
        return _rejected("status-not-nongood")
    if not verify_status(status, registry):
        return _rejected("bad-status-signature")
    t_proof = status.t + policy.mmd_ms
    for log_id in trusted.sorted():
        sth = proof.sth_for(log_id)
        if sth is None:
            return _rejected("missing-log-coverage", log_id)
        if not verify_sth(sth, registry):
            return _rejected("bad-sth-signature", log_id)
        if sth.t < t_proof:
            return _rejected("sth-too-early", f"{log_id}: {sth.t} < {t_proof}")
    for log_id in trusted.sorted():
        sth = proof.sth_for(log_id)
        entries = _served(log_readers, log_id, sth.treesize)
        if entries is None:
            return _rejected("entries-unavailable", log_id)
        if len(entries) < sth.treesize:
            return _rejected("entries-unavailable", f"{log_id}: {len(entries)}/{sth.treesize}")
        for entry in entries:
            try:
                payload = decode_artifact(entry.payload)
            except DecodeError as exc:
                return _rejected("undecodable-entry", f"{log_id}#{entry.number}: {exc}")
            if not isinstance(payload, Postcertificate):
                continue
            if payload.target_ref == status.cert_ref and entry.t_submission < status.t:
                return _rejected("counterexample-entry", f"{log_id}#{entry.number}")
    return PROVEN


def verify_sct_disclosure(
    proof: SctDisclosureProof,
    mmd_ms: int,
    trusted: TrustedLogSet,
    registry: KeyRegistry,
    log_readers: dict[str, LogReader],
) -> Verdict:
    """Check that a log promised inclusion and broke the promise.

    Proven when the SCT verifies, the same log's tree head is dated past the
    SCT timestamp plus the merge delay, and no entry below that tree size
    hashes to the promised leaf.
    """
    sct, sth = proof.sct, proof.sth
    if sct.log_id not in trusted:
        return _rejected("untrusted-log", sct.log_id)
    if sth.log_id != sct.log_id:
        return _rejected("log-mismatch")
    if not verify_sct_signature(sct, registry):
        return _rejected("bad-sct-signature")
    if not verify_sth(sth, registry):
        return _rejected("bad-sth-signature")
    if sth.t < sct.timestamp + mmd_ms:
        return _rejected("sth-too-early", f"{sth.t} < {sct.timestamp + mmd_ms}")
    entries = _served(log_readers, sct.log_id, sth.treesize)
    if entries is None or len(entries) < sth.treesize:
        return _rejected("entries-unavailable", sct.log_id)
    for entry in entries:
        if SHA256.hash_leaf(entry.payload) == sct.entry_hash:
            return _rejected("entry-published", f"#{entry.number}")
    return PROVEN


def verify_proof(
    proof,
    policy: MrdPolicy,
    trusted: TrustedLogSet,
    registry: KeyRegistry,
    log_readers: dict[str, LogReader],
) -> Verdict:
    """Check any proof bundle with the verifier for its type."""
    if isinstance(proof, MisbehaviorProofM12):
        return verify_m12(proof, policy, trusted, registry)
    if isinstance(proof, MisbehaviorProofM3):
        return verify_m3(proof, policy, trusted, registry, log_readers)
    if isinstance(proof, SctDisclosureProof):
        return verify_sct_disclosure(proof, policy.mmd_ms, trusted, registry, log_readers)
    raise TypeError(f"not a proof: {type(proof).__name__}")


def proof_time(proof, policy: MrdPolicy) -> int:
    """Earliest instant at which a bundle's claim is provable; an SCT
    disclosure becomes provable one merge delay after the SCT."""
    if isinstance(proof, MisbehaviorProofM12):
        return earliest_proof_time(Case.M1_MISSING_UPDATE, policy, entry=proof.entry, covering_sth=proof.sth)
    if isinstance(proof, MisbehaviorProofM3):
        return earliest_proof_time(Case.M3_EARLY_STATUS, policy, status=proof.status)
    if isinstance(proof, SctDisclosureProof):
        return proof.sct.timestamp + policy.mmd_ms
    raise TypeError(f"not a proof: {type(proof).__name__}")


# Proof building from observations ------------------------------------------------

def _scan_postcerts(
    trusted: TrustedLogSet, readers: dict[str, LogReader]
) -> list[tuple[LogEntry, Postcertificate]]:
    found: list[tuple[LogEntry, Postcertificate]] = []
    for log_id in trusted.sorted():
        for entry in _served(readers, log_id) or ():
            if not is_postcert_payload(entry.payload):
                continue
            try:
                found.append((entry, decode_artifact(entry.payload)))
            except DecodeError:
                continue  # the verifiers reject it as an undecodable-entry
    return found


def _first_head(obs: ObservationSet, readers: dict[str, LogReader], log_id: str, accept) -> STH | None:
    """First observed tree head of ``log_id`` that ``accept`` takes, in
    observation order, else the log's latest head if ``accept`` takes it."""
    for observation in obs.sths.get(log_id, ()):
        if accept(observation.sth):
            return observation.sth
    reader = readers.get(log_id)
    latest = reader.latest_sth() if reader is not None else None
    return latest if latest is not None and accept(latest) else None


def _pick_m12_evidence(
    obs: ObservationSet, policy: MrdPolicy, trusted: TrustedLogSet, readers: dict[str, LogReader], want_good: bool
) -> MisbehaviorProofM12:
    candidates = _scan_postcerts(trusted, readers)
    if not candidates:
        raise InsufficientEvidenceError("insufficient-evidence: no logged postcertificate")
    best: tuple[int, MisbehaviorProofM12] | None = None
    for entry, post in candidates:
        sth = _first_head(obs, readers, entry.log_id, lambda head: head.treesize > entry.number)
        if sth is None:
            continue
        t_proof = earliest_proof_time(
            Case.M1_MISSING_UPDATE, policy, entry=entry, covering_sth=sth
        )
        for status in obs.statuses:
            if status.cert_ref != post.target_ref or status.t < t_proof:
                continue
            if want_good:
                if status.value.kind is not StatusKind.GOOD:
                    continue
            elif status.value.kind is StatusKind.GOOD or not _status_is_incorrect(status, post):
                continue
            reader = readers.get(entry.log_id)
            if reader is None:
                continue
            audit = reader.audit_proof(entry.number, sth.treesize)
            proof = MisbehaviorProofM12(entry=entry, sth=sth, status=status, audit=audit)
            key = status.t
            if best is None or key < best[0]:
                best = (key, proof)
    if best is None:
        raise InsufficientEvidenceError(
            "insufficient-evidence: no offending status at or after the proof time"
        )
    return best[1]


def _pick_m3_evidence(
    obs: ObservationSet, policy: MrdPolicy, trusted: TrustedLogSet, readers: dict[str, LogReader]
) -> MisbehaviorProofM3:
    nongood = sorted((s for s in obs.statuses if s.value.kind is not StatusKind.GOOD), key=lambda s: s.t)
    if not nongood:
        raise InsufficientEvidenceError("insufficient-evidence: no non-good status observed")
    for status in nongood:
        t_proof = status.t + policy.mmd_ms
        sths: list[STH] = []
        for log_id in trusted.sorted():
            chosen = _first_head(obs, readers, log_id, lambda head: head.t >= t_proof)
            if chosen is None:
                break
            sths.append(chosen)
        if len(sths) == len(trusted.log_ids):
            return MisbehaviorProofM3(status=status, sth_set=tuple(sths))
    raise InsufficientEvidenceError("insufficient-evidence: no tree heads past the proof time")


def _pick_sct_disclosure(
    obs: ObservationSet, policy: MrdPolicy, readers: dict[str, LogReader]
) -> SctDisclosureProof:
    for sct in sorted(obs.scts, key=lambda s: (s.timestamp, s.log_id)):
        entries = _served(readers, sct.log_id)
        if entries is None or any(SHA256.hash_leaf(entry.payload) == sct.entry_hash for entry in entries):
            continue
        deadline = sct.timestamp + policy.mmd_ms
        sth = _first_head(obs, readers, sct.log_id, lambda head: head.t >= deadline)
        if sth is not None:
            return SctDisclosureProof(sct=sct, sth=sth)
    raise InsufficientEvidenceError("insufficient-evidence: every promised entry was published")


def build_proof(
    case: Case, obs: ObservationSet, policy: MrdPolicy, trusted: TrustedLogSet, readers: dict[str, LogReader]
):
    """Assemble the minimal evidence bundle for ``case`` from a monitor's
    observations and read access to the logs.

    Raises InsufficientEvidenceError when the observations cannot support the
    claim, which is the expected outcome on honest traces.
    """
    if case is Case.M1_MISSING_UPDATE:
        return _pick_m12_evidence(obs, policy, trusted, readers, True)
    if case is Case.M2_INCORRECT_STATUS:
        return _pick_m12_evidence(obs, policy, trusted, readers, False)
    if case is Case.M3_EARLY_STATUS:
        return _pick_m3_evidence(obs, policy, trusted, readers)
    if case is Case.LOG_FORGET:
        return _pick_sct_disclosure(obs, policy, readers)
    raise ValueError(f"unknown case {case}")


def proof_to_text(proof) -> str:
    """Human-readable disclosure form with the exact bytes appended."""
    if isinstance(proof, MisbehaviorProofM12):
        fields = [
            ("log_id", proof.entry.log_id),
            ("entry_number", proof.entry.number),
            ("entry_t_submission", proof.entry.t_submission),
            ("sth_t", proof.sth.t),
            ("sth_treesize", proof.sth.treesize),
            ("status_kind", proof.status.value.kind.value),
            ("status_t", proof.status.t),
        ]
        return text_block("misbehavior-m12", fields, encode_artifact(proof))
    if isinstance(proof, MisbehaviorProofM3):
        fields = [
            ("status_kind", proof.status.value.kind.value),
            ("status_t", proof.status.t),
            ("logs", ",".join(s.log_id for s in proof.sth_set)),
        ]
        return text_block("misbehavior-m3", fields, encode_artifact(proof))
    if isinstance(proof, SctDisclosureProof):
        fields = [
            ("log_id", proof.sct.log_id),
            ("sct_timestamp", proof.sct.timestamp),
            ("sth_t", proof.sth.t),
            ("sth_treesize", proof.sth.treesize),
        ]
        return text_block("sct-disclosure", fields, encode_artifact(proof))
    raise TypeError(f"not a proof: {type(proof).__name__}")
