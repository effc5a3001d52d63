"""Misbehavior proof-time formulas, verifier predicates and builders."""

from __future__ import annotations

import dataclasses
import random

import pytest

from postcert import misbehavior
from postcert.certs import CertRef, PostcertScheme, make_postcertificate
from postcert.crypto import KeyRegistry, Signature
from postcert.log import (
    CtLog,
    LogConfig,
    LogEntry,
    LogView,
    MerkleAuditProof,
    SCT,
    STH,
    UpdateClass,
    sct_signing_payload,
    sth_signing_payload,
)
from postcert.merkle import MerkleTree
from postcert.misbehavior import (
    Case,
    InsufficientEvidenceError,
    MisbehaviorProofM12,
    MisbehaviorProofM3,
    MrdMode,
    MrdPolicy,
    SctDisclosureProof,
    TrustedLogSet,
    build_proof,
    earliest_proof_time,
    proof_time,
    proof_to_text,
    verify_m12,
    verify_m3,
    verify_proof,
    verify_sct_disclosure,
)
from postcert.status import StatusValue, issue_status
from postcert.timeutil import DAY_MS, HOUR_MS, MINUTE_MS
from postcert.trace import ObservationSet, SthObservation, observations

MMD = DAY_MS
SUB_POLICY = MrdPolicy(MrdMode.FROM_SUBMISSION, mrd_ms=48 * HOUR_MS, mmd_ms=MMD)
PUB_POLICY = MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=24 * HOUR_MS, mmd_ms=MMD)


@pytest.fixture(autouse=True)
def _verify_proof_agrees(monkeypatch):
    """Every bundle a test here hands to its kind's own verifier also goes
    through ``verify_proof``, which must give the same verdict."""
    def m12(proof, policy, trusted, registry, **options):
        verdict = misbehavior.verify_m12(proof, policy, trusted, registry, **options)
        if not options:  # verify_proof checks with the default options only
            assert verify_proof(proof, policy, trusted, registry, {}) == verdict
        return verdict

    def m3(proof, policy, trusted, registry, readers):
        verdict = misbehavior.verify_m3(proof, policy, trusted, registry, readers)
        assert verify_proof(proof, policy, trusted, registry, readers) == verdict
        return verdict

    def sct_disclosure(proof, mmd_ms, trusted, registry, readers):
        verdict = misbehavior.verify_sct_disclosure(proof, mmd_ms, trusted, registry, readers)
        policy = MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=1, mmd_ms=mmd_ms)
        assert verify_proof(proof, policy, trusted, registry, readers) == verdict
        return verdict

    monkeypatch.setitem(globals(), "verify_m12", m12)
    monkeypatch.setitem(globals(), "verify_m3", m3)
    monkeypatch.setitem(globals(), "verify_sct_disclosure", sct_disclosure)


# -- policy invariants

def test_policy_validation():
    with pytest.raises(ValueError):
        MrdPolicy(MrdMode.FROM_SUBMISSION, mrd_ms=MMD, mmd_ms=MMD)
    with pytest.raises(ValueError):
        MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=0, mmd_ms=MMD)
    MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=1, mmd_ms=MMD)


# -- proof-time formulas (hand-evaluated expectations)

def _entry(t_submission: int, number: int = 0, log_id: str = "log1") -> LogEntry:
    return LogEntry(b"\x02payload", t_submission, log_id, number)


def _sth(t: int, treesize: int, log_id: str = "log1") -> STH:
    return STH(log_id, t, treesize, b"\x00" * 32, Signature(log_id, b"\x00" * 32))


def test_proof_time_m12_from_submission():
    entry = _entry(100 * HOUR_MS)
    policy = MrdPolicy(MrdMode.FROM_SUBMISSION, mrd_ms=48 * HOUR_MS, mmd_ms=MMD)
    assert earliest_proof_time(Case.M1_MISSING_UPDATE, policy, entry=entry) == 148 * HOUR_MS


def test_proof_time_m12_from_publication():
    entry = _entry(100 * HOUR_MS, number=4)
    sth = _sth(101 * HOUR_MS, treesize=5)
    policy = MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=24 * HOUR_MS, mmd_ms=MMD)
    result = earliest_proof_time(
        Case.M2_INCORRECT_STATUS, policy, entry=entry, covering_sth=sth
    )
    assert result == 125 * HOUR_MS


def test_proof_time_m3_ignores_mode(registry):
    status = issue_status(
        registry, "ca1", CertRef("ca1", 7), StatusValue.revoked(), 50 * HOUR_MS,
        10 * HOUR_MS, honest=False,
    )
    for policy in (SUB_POLICY, PUB_POLICY):
        assert earliest_proof_time(Case.M3_EARLY_STATUS, policy, status=status) == 74 * HOUR_MS


def test_proof_time_rejects_non_covering_sth():
    entry = _entry(0, number=9)
    sth = _sth(HOUR_MS, treesize=9)  # 9 <= 9: not covering
    with pytest.raises(ValueError):
        earliest_proof_time(Case.M1_MISSING_UPDATE, PUB_POLICY, entry=entry, covering_sth=sth)


def test_bundle_proof_times_in_both_modes(registry):
    entry = _entry(100 * HOUR_MS, number=4)
    sth = _sth(101 * HOUR_MS, treesize=5)
    status = issue_status(
        registry, "ca1", CertRef("ca1", 7), StatusValue.revoked(), 50 * HOUR_MS,
        10 * HOUR_MS, honest=False,
    )
    m12 = MisbehaviorProofM12(entry=entry, sth=sth, status=status, audit=MerkleAuditProof(4, 5, ()))
    m3 = MisbehaviorProofM3(status=status, sth_set=(sth,))
    sct = World().sct
    disclosure = SctDisclosureProof(sct=sct, sth=sth)
    for policy in (SUB_POLICY, PUB_POLICY):
        anchor = entry.t_submission if policy.mode is MrdMode.FROM_SUBMISSION else sth.t
        assert proof_time(m12, policy) == anchor + policy.mrd_ms
        assert proof_time(m3, policy) == status.t + policy.mmd_ms
        assert proof_time(disclosure, policy) == sct.timestamp + policy.mmd_ms
    with pytest.raises(TypeError):
        proof_time(status, PUB_POLICY)
    with pytest.raises(TypeError):
        verify_proof(status, PUB_POLICY, TrustedLogSet.of("log1"), registry, {})


# -- end-to-end world helpers

class World:
    """One CA, two logs, one revoked-by-postcertificate certificate."""

    def __init__(self, *, submit_at: int = 10 * HOUR_MS) -> None:
        self.registry = KeyRegistry.with_signers(["ca1", "log1", "log2", "leaf"])
        from postcert.certs import TbsCertificate, TrustStore, sign_certificate

        root_tbs = TbsCertificate(
            serial=0, subject="ca1", issuer="ca1",
            not_before=0, not_after=10**13, public_key_id="ca1",
        )
        self.root = sign_certificate(self.registry, "ca1", root_tbs)
        self.trust = TrustStore([self.root])
        leaf_tbs = TbsCertificate(
            serial=7, subject="site.example", issuer="ca1",
            not_before=0, not_after=10**13, public_key_id="leaf",
        )
        self.cert = sign_certificate(self.registry, "ca1", leaf_tbs)
        self.post = make_postcertificate(self.cert, PostcertScheme.CA_ISSUED, self.registry)
        self.ref = CertRef("ca1", 7)
        config = LogConfig(publication_delay=f"fixed:{30 * MINUTE_MS}",
                           update_class=UpdateClass.BUSY)
        self.logs = {
            "log1": CtLog("log1", self.registry, self.trust, config, seed=1),
            "log2": CtLog("log2", self.registry, self.trust, config, seed=2),
        }
        self.trusted = TrustedLogSet.of("log1", "log2")
        self.sct = self.logs["log1"].submit(self.post, [self.root], now=submit_at)
        self.submit_at = submit_at
        self.publish_at = submit_at + 30 * MINUTE_MS

    def advance(self, now: int) -> None:
        for log in self.logs.values():
            log.advance(now)

    def entry(self) -> LogEntry:
        self.advance(self.publish_at)
        return self.logs["log1"].get_entries(0, 0)[0]

    def covering_sth(self, at: int | None = None) -> STH:
        self.advance(at or self.publish_at)
        return self.logs["log1"].latest_sth()

    def audit(self, sth: STH):
        return self.logs["log1"].audit_proof(0, sth.treesize)

    def status(self, value: StatusValue, t: int):
        return issue_status(
            self.registry, "ca1", self.ref, value, t, 10 * HOUR_MS, honest=False,
        )

    def build(self, case: Case, policy: MrdPolicy, statuses, sths=()):
        """``build_proof`` for a monitor that saw ``statuses`` and ``sths``."""
        seen = observations([*statuses, *(SthObservation(sth.t, sth.t, sth) for sth in sths)])
        return build_proof(case, seen, policy, self.trusted, self.logs)


def _m12_proof(world: World, policy: MrdPolicy, status) -> MisbehaviorProofM12:
    entry = world.entry()
    sth = world.covering_sth()
    return MisbehaviorProofM12(entry=entry, sth=sth, status=status, audit=world.audit(sth))


def test_m2_wrong_status_after_deadline_proven():
    world = World()
    entry = world.entry()
    sth = world.covering_sth()
    t_proof = earliest_proof_time(
        Case.M2_INCORRECT_STATUS, PUB_POLICY, entry=entry, covering_sth=sth
    )
    status = world.status(StatusValue.good(), t_proof + HOUR_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    verdict = verify_m12(proof, PUB_POLICY, world.trusted, world.registry)
    assert verdict.proven


def test_m12_flips_exactly_at_t_proof():
    for policy in (SUB_POLICY, PUB_POLICY):
        world = World()
        entry = world.entry()
        sth = world.covering_sth()
        t_proof = earliest_proof_time(
            Case.M1_MISSING_UPDATE, policy, entry=entry, covering_sth=sth
        )
        early = _m12_proof(world, policy, world.status(StatusValue.good(), t_proof - 1))
        at = _m12_proof(world, policy, world.status(StatusValue.good(), t_proof))
        late = _m12_proof(world, policy, world.status(StatusValue.good(), t_proof + 1))
        assert verify_m12(early, policy, world.trusted, world.registry).reason == "status-too-early"
        assert verify_m12(at, policy, world.trusted, world.registry).proven
        assert verify_m12(late, policy, world.trusted, world.registry).proven


def test_m12_rejects_untrusted_log():
    world = World()
    status = world.status(StatusValue.good(), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    narrow = TrustedLogSet.of("log2")
    assert verify_m12(proof, PUB_POLICY, narrow, world.registry).reason == "untrusted-log"


def test_m12_rejects_an_entry_of_another_log():
    """log1's entry relabelled as log2's, under log1's head: its bytes still
    have an audit path there, but the head is not its log's."""
    for policy in (SUB_POLICY, PUB_POLICY):
        world = World()
        proof = _m12_proof(world, policy, world.status(StatusValue.good(), 10 * DAY_MS))
        assert verify_m12(proof, policy, world.trusted, world.registry).proven
        moved = dataclasses.replace(proof, entry=dataclasses.replace(proof.entry, log_id="log2"))
        verdict = verify_m12(moved, policy, world.trusted, world.registry)
        assert (verdict.reason, verdict.detail) == ("log-mismatch", "log2 != log1")


def test_m12_rejects_bad_sth_signature():
    world = World()
    status = world.status(StatusValue.good(), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    bad_sth = dataclasses.replace(proof.sth, signature=Signature("log1", b"\x00" * 32))
    bad = dataclasses.replace(proof, sth=bad_sth)
    assert verify_m12(bad, PUB_POLICY, world.trusted, world.registry).reason == "bad-sth-signature"


def test_m12_rejects_mismatched_audit_treesize():
    world = World()
    entry = world.entry()
    first_sth = world.covering_sth()
    # grow the log so a bigger tree head exists
    extra = make_postcertificate(
        world.cert, PostcertScheme.CA_ISSUED, world.registry, reason="superseded"
    )
    world.logs["log1"].submit(extra, [world.root], now=world.publish_at + HOUR_MS)
    world.advance(world.publish_at + 2 * HOUR_MS)
    big_sth = world.logs["log1"].latest_sth()
    assert big_sth.treesize > first_sth.treesize
    status = world.status(StatusValue.good(), 10 * DAY_MS)
    mismatched = MisbehaviorProofM12(
        entry=entry, sth=big_sth, status=status, audit=world.audit(first_sth)
    )
    verdict = verify_m12(mismatched, PUB_POLICY, world.trusted, world.registry)
    assert verdict.reason == "bad-audit-proof"


def test_m12_rejects_certificate_mismatch():
    world = World()
    other_ref = CertRef("ca1", 999)
    status = issue_status(
        world.registry, "ca1", other_ref, StatusValue.good(), 10 * DAY_MS,
        10 * HOUR_MS, honest=False,
    )
    proof = _m12_proof(world, PUB_POLICY, status)
    verdict = verify_m12(proof, PUB_POLICY, world.trusted, world.registry)
    assert verdict.reason == "certificate-mismatch"


def test_m12_rejects_correct_revoked_status():
    world = World()
    status = world.status(StatusValue.revoked("unspecified"), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    verdict = verify_m12(proof, PUB_POLICY, world.trusted, world.registry)
    assert verdict.reason == "status-not-incorrect"


def test_m12_revoked_with_another_reason_is_not_incorrect():
    """M2 compares the status class only: REVOKED answers the request,
    whatever its reason code."""
    world = World()
    status = world.status(StatusValue.revoked("superseded"), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    verdict = verify_m12(proof, PUB_POLICY, world.trusted, world.registry)
    assert verdict.reason == "status-not-incorrect"


def test_m12_unknown_status_counts_as_incorrect():
    world = World()
    status = world.status(StatusValue.unknown(), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    assert verify_m12(proof, PUB_POLICY, world.trusted, world.registry).proven


def test_m12_verdict_totality_random_tampering():
    world = World()
    status = world.status(StatusValue.good(), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    rng = random.Random(7)
    for _ in range(50):
        field = rng.choice(["entry", "sth", "status", "audit"])
        tampered = proof
        if field == "entry":
            tampered = dataclasses.replace(
                proof, entry=dataclasses.replace(proof.entry, number=rng.randrange(10))
            )
        elif field == "sth":
            tampered = dataclasses.replace(
                proof, sth=dataclasses.replace(proof.sth, treesize=rng.randrange(5))
            )
        elif field == "status":
            tampered = dataclasses.replace(
                proof, status=world.status(StatusValue.good(), rng.randrange(10 * DAY_MS))
            )
        else:
            tampered = dataclasses.replace(
                proof, audit=dataclasses.replace(proof.audit, entry_number=rng.randrange(8))
            )
        verdict = verify_m12(tampered, PUB_POLICY, world.trusted, world.registry)
        assert verdict.proven or verdict.reason  # total: PROVEN or reasoned rejection


# -- M3

def _m3_world_without_postcert():
    registry = KeyRegistry.with_signers(["ca1", "log1", "log2", "leaf"])
    from postcert.certs import TbsCertificate, TrustStore, sign_certificate

    root = sign_certificate(registry, "ca1", TbsCertificate(
        serial=0, subject="ca1", issuer="ca1",
        not_before=0, not_after=10**13, public_key_id="ca1",
    ))
    trust = TrustStore([root])
    config = LogConfig(update_class=UpdateClass.PERIODIC, update_interval_ms=HOUR_MS,
                       publication_delay="fixed:60000")
    logs = {
        "log1": CtLog("log1", registry, trust, config, seed=1),
        "log2": CtLog("log2", registry, trust, config, seed=2),
    }
    return registry, trust, root, logs


def test_m3_revocation_without_postcertificate_proven(registry):
    reg, trust, root, logs = _m3_world_without_postcert()
    status = issue_status(
        reg, "ca1", CertRef("ca1", 7), StatusValue.revoked(), 5 * HOUR_MS,
        10 * HOUR_MS, honest=False,
    )
    t_proof = status.t + MMD
    for log in logs.values():
        log.advance(t_proof + HOUR_MS)
    sths = tuple(log.latest_sth() for log in logs.values())
    proof = MisbehaviorProofM3(status=status, sth_set=sths)
    verdict = verify_m3(proof, PUB_POLICY, TrustedLogSet.of("log1", "log2"), reg, logs)
    assert verdict.proven


def test_m3_counterexample_entry_rejects():
    world = World()
    # status issued after the postcertificate submission: honest, refutable
    status = world.status(StatusValue.revoked(), world.sct.timestamp + HOUR_MS)
    t_proof = status.t + MMD
    world.advance(t_proof + HOUR_MS)
    for log in world.logs.values():
        log.sign_tree_head(t_proof + HOUR_MS)
    sths = tuple(log.latest_sth() for log in world.logs.values())
    proof = MisbehaviorProofM3(status=status, sth_set=sths)
    verdict = verify_m3(proof, PUB_POLICY, world.trusted, world.registry, world.logs)
    assert verdict.reason == "counterexample-entry"


def _m3_proof(world: World, status) -> MisbehaviorProofM3:
    """``status`` with both logs' heads signed an hour past its proof time."""
    t = status.t + MMD + HOUR_MS
    return MisbehaviorProofM3(status=status, sth_set=tuple(log.sign_tree_head(t) for log in world.logs.values()))


def test_m3_boundary_is_strict_before():
    """An entry submitted exactly at the status time is not a counterexample;
    one submitted 1 ms before it is."""
    for after_submission, expected in ((0, None), (1, "counterexample-entry")):
        world = World()
        assert world.entry().t_submission == world.sct.timestamp
        proof = _m3_proof(world, world.status(StatusValue.revoked(), world.sct.timestamp + after_submission))
        verdict = verify_m3(proof, PUB_POLICY, world.trusted, world.registry, world.logs)
        assert verdict.reason == expected


def test_m3_rejects_a_reader_that_serves_fewer_entries_than_the_head():
    """A scan that stops short of the head's size cannot rule out a
    counterexample, so it proves nothing: log1's true head over a reader
    that serves none of its one entry."""
    world = World()
    proof = _m3_proof(world, world.status(StatusValue.revoked(), world.sct.timestamp + HOUR_MS))
    head = proof.sth_for("log1")
    assert head.treesize == 1
    for entries in ([], world.logs["log1"].entries):
        readers = {**world.logs, "log1": LogView("log1", list(entries), [head])}
        verdict = verify_m3(proof, PUB_POLICY, world.trusted, world.registry, readers)
        if entries:
            assert verdict.reason == "counterexample-entry"
        else:
            assert (verdict.reason, verdict.detail) == ("entries-unavailable", "log1: 0/1")
    verdict = verify_m3(proof, PUB_POLICY, world.trusted, world.registry, {"log2": world.logs["log2"]})
    assert (verdict.reason, verdict.detail) == ("entries-unavailable", "log1")


def _undecodable_entry(registry, t: int, payload: bytes = b"\x01garbage") -> tuple[LogEntry, STH]:
    """A one-entry log of ``log1`` whose only payload is no artifact, and its
    correctly signed head at time ``t``."""
    tree = MerkleTree()
    tree.append(payload)
    root = tree.root()
    signature = registry.sign("log1", sth_signing_payload("log1", t, 1, root))
    return LogEntry(payload, 0, "log1", 0), STH("log1", t, 1, root, signature)


def test_undecodable_entry_rejects_instead_of_raising(registry):
    status = issue_status(registry, "ca1", CertRef("ca1", 7), StatusValue.revoked(), 5 * HOUR_MS,
                          10 * HOUR_MS, honest=False)
    entry, sth = _undecodable_entry(registry, status.t + MMD)
    trusted = TrustedLogSet.of("log1")
    m12 = MisbehaviorProofM12(entry, sth, status, MerkleAuditProof(0, 1, ()))
    verdict = verify_m12(m12, PUB_POLICY, trusted, registry)
    assert (verdict.reason, verdict.detail) == ("undecodable-entry", "log1#0: truncated input")
    readers = {"log1": LogView("log1", [entry], [sth])}
    verdict = verify_m3(MisbehaviorProofM3(status, (sth,)), PUB_POLICY, trusted, registry, readers)
    assert (verdict.reason, verdict.detail) == ("undecodable-entry", "log1#0: truncated input")


def test_malformed_postcert_entry_is_skipped_when_building_a_proof(registry):
    entry, sth = _undecodable_entry(registry, 10 * HOUR_MS, b"\x02garbage")
    readers = {"log1": LogView("log1", [entry], [sth])}
    with pytest.raises(InsufficientEvidenceError):
        build_proof(Case.M1_MISSING_UPDATE, ObservationSet(), PUB_POLICY, TrustedLogSet.of("log1"), readers)


def test_m3_missing_log_coverage_rejects():
    reg, trust, root, logs = _m3_world_without_postcert()
    status = issue_status(
        reg, "ca1", CertRef("ca1", 7), StatusValue.revoked(), 5 * HOUR_MS,
        10 * HOUR_MS, honest=False,
    )
    t_proof = status.t + MMD
    logs["log1"].advance(t_proof + HOUR_MS)
    proof = MisbehaviorProofM3(status=status, sth_set=(logs["log1"].latest_sth(),))
    verdict = verify_m3(proof, PUB_POLICY, TrustedLogSet.of("log1", "log2"), reg, logs)
    assert verdict.reason == "missing-log-coverage"


def test_m3_flips_exactly_at_t_proof():
    reg, trust, root, logs = _m3_world_without_postcert()
    status = issue_status(
        reg, "ca1", CertRef("ca1", 7), StatusValue.revoked(), 5 * HOUR_MS,
        10 * HOUR_MS, honest=False,
    )
    t_proof = status.t + MMD
    for log in logs.values():
        log.advance(t_proof + HOUR_MS)
    trusted = TrustedLogSet.of("log1", "log2")

    def sths_at(t: int) -> tuple[STH, ...]:
        from postcert.log import sth_signing_payload

        out = []
        for log in logs.values():
            size = log.published_size()
            root_hash = log.tree.root(size)
            sig = reg.sign(log.log_id, sth_signing_payload(log.log_id, t, size, root_hash))
            out.append(STH(log.log_id, t, size, root_hash, sig))
        return tuple(out)

    early = MisbehaviorProofM3(status=status, sth_set=sths_at(t_proof - 1))
    at = MisbehaviorProofM3(status=status, sth_set=sths_at(t_proof))
    assert verify_m3(early, PUB_POLICY, trusted, reg, logs).reason == "sth-too-early"
    assert verify_m3(at, PUB_POLICY, trusted, reg, logs).proven


def test_m3_rejects_good_status():
    world = World()
    status = world.status(StatusValue.good(), HOUR_MS)
    proof = MisbehaviorProofM3(status=status, sth_set=())
    verdict = verify_m3(proof, PUB_POLICY, world.trusted, world.registry, world.logs)
    assert verdict.reason == "status-not-nongood"


# -- SCT disclosure (log misbehavior)

def _disclosure_log(*, forget: bool = True) -> tuple[KeyRegistry, CtLog, SCT]:
    """log1 after it returned an SCT for World's postcertificate at 10 h;
    with ``forget`` it never publishes the entry."""
    world = World()
    config = LogConfig(update_class=UpdateClass.PERIODIC, update_interval_ms=HOUR_MS,
                       publication_delay="fixed:1000", forget=forget)
    log = CtLog("log1", world.registry, world.trust, config, seed=3)
    return world.registry, log, log.submit(world.post, [world.root], now=world.submit_at)


def test_sct_disclosure_proven_when_entry_never_published():
    registry = KeyRegistry.with_signers(["ca1", "log1", "leaf"])
    from postcert.certs import TbsCertificate, TrustStore, sign_certificate

    root = sign_certificate(registry, "ca1", TbsCertificate(
        serial=0, subject="ca1", issuer="ca1",
        not_before=0, not_after=10**13, public_key_id="ca1",
    ))
    trust = TrustStore([root])
    cert = sign_certificate(registry, "ca1", TbsCertificate(
        serial=7, subject="x.example", issuer="ca1",
        not_before=0, not_after=10**13, public_key_id="leaf",
    ))
    post = make_postcertificate(cert, PostcertScheme.CA_ISSUED, registry)
    config = LogConfig(update_class=UpdateClass.PERIODIC, update_interval_ms=HOUR_MS,
                       publication_delay="fixed:1000", forget=True)
    log = CtLog("log1", registry, trust, config, seed=3)
    sct = log.submit(post, [root], now=HOUR_MS)
    log.advance(sct.timestamp + MMD + 2 * HOUR_MS)
    sth = log.latest_sth()
    assert sth.t >= sct.timestamp + MMD
    proof = SctDisclosureProof(sct=sct, sth=sth)
    verdict = verify_sct_disclosure(
        proof, MMD, TrustedLogSet.of("log1"), registry, {"log1": log}
    )
    assert verdict.proven
    # same evidence against an honest log that did publish: rejected
    honest_config = dataclasses.replace(config, forget=False)
    honest = CtLog("log1", registry, trust, honest_config, seed=3)
    honest_sct = honest.submit(post, [root], now=HOUR_MS)
    honest.advance(honest_sct.timestamp + MMD + 2 * HOUR_MS)
    honest_proof = SctDisclosureProof(sct=honest_sct, sth=honest.latest_sth())
    verdict = verify_sct_disclosure(
        honest_proof, MMD, TrustedLogSet.of("log1"), registry, {"log1": honest}
    )
    assert verdict.reason == "entry-published"
    # an SCT whose signature does not verify, or is another signer's: rejected
    by_ca = registry.sign("ca1", sct_signing_payload(sct.log_id, sct.timestamp, sct.entry_hash))
    for forged in (dataclasses.replace(sct, timestamp=sct.timestamp + 1),
                   dataclasses.replace(sct, signature=by_ca)):
        verdict = verify_sct_disclosure(
            SctDisclosureProof(forged, sth), MMD, TrustedLogSet.of("log1"), registry, {"log1": log}
        )
        assert verdict.reason == "bad-sct-signature"


def test_sct_disclosure_head_must_be_one_merge_delay_after_the_sct():
    registry, log, sct = _disclosure_log()
    trusted, readers = TrustedLogSet.of("log1"), {"log1": log}
    deadline = sct.timestamp + MMD
    early = SctDisclosureProof(sct, log.sign_tree_head(deadline - 1))
    at = SctDisclosureProof(sct, log.sign_tree_head(deadline))
    verdict = verify_sct_disclosure(early, MMD, trusted, registry, readers)
    assert (verdict.reason, verdict.detail) == ("sth-too-early", f"{deadline - 1} < {deadline}")
    assert verify_sct_disclosure(at, MMD, trusted, registry, readers).proven


def test_sct_disclosure_rejects_a_head_of_another_log():
    """log1's SCT beside log2's empty head, signed late enough: log2 never
    promised the entry, so its head shows nothing about log1."""
    registry, log, sct = _disclosure_log()
    other = CtLog("log2", registry, log.trust, log.config, seed=4)
    head = other.sign_tree_head(sct.timestamp + MMD)
    trusted, readers = TrustedLogSet.of("log1", "log2"), {"log1": log, "log2": other}
    verdict = verify_sct_disclosure(SctDisclosureProof(sct, head), MMD, trusted, registry, readers)
    assert verdict.reason == "log-mismatch"
    own = log.sign_tree_head(sct.timestamp + MMD)
    assert verify_sct_disclosure(SctDisclosureProof(sct, own), MMD, trusted, registry, readers).proven


def test_sct_disclosure_rejects_a_reader_that_serves_fewer_entries_than_the_head():
    """The honest log did publish the promised entry; a reader that serves
    fewer entries than the head's size, or none, proves no broken promise."""
    registry, log, sct = _disclosure_log(forget=False)
    head = log.sign_tree_head(sct.timestamp + MMD)
    assert head.treesize == 1
    proof, trusted = SctDisclosureProof(sct, head), TrustedLogSet.of("log1")
    assert verify_sct_disclosure(proof, MMD, trusted, registry, {"log1": log}).reason == "entry-published"
    for readers in ({"log1": LogView("log1", [], [head])}, {}):
        verdict = verify_sct_disclosure(proof, MMD, trusted, registry, readers)
        assert (verdict.reason, verdict.detail) == ("entries-unavailable", "log1")


# -- builders

def test_build_proof_fails_on_honest_observations():
    world = World()
    # honest: GOOD before revocation, REVOKED after the SCT
    good = world.status(StatusValue.good(), world.submit_at - HOUR_MS)
    revoked = world.status(StatusValue.revoked(), world.sct.timestamp + 2 * HOUR_MS)
    horizon = world.sct.timestamp + 3 * DAY_MS
    world.advance(horizon)
    for log in world.logs.values():
        log.sign_tree_head(horizon)
    sths = [log.latest_sth() for log in world.logs.values()]
    for case in (Case.M1_MISSING_UPDATE, Case.M2_INCORRECT_STATUS, Case.LOG_FORGET):
        with pytest.raises(InsufficientEvidenceError):
            world.build(case, PUB_POLICY, [good, revoked], sths)
    m3 = world.build(Case.M3_EARLY_STATUS, PUB_POLICY, [good, revoked], sths)
    verdict = verify_m3(m3, PUB_POLICY, world.trusted, world.registry, world.logs)
    assert not verdict.proven


def test_build_m1_bundle_accepted_by_verifier():
    world = World()
    entry = world.entry()
    sth = world.covering_sth()
    t_proof = earliest_proof_time(
        Case.M1_MISSING_UPDATE, PUB_POLICY, entry=entry, covering_sth=sth
    )
    stale_good = world.status(StatusValue.good(), t_proof + HOUR_MS)
    proof = world.build(Case.M1_MISSING_UPDATE, PUB_POLICY, [stale_good], [sth])
    assert verify_m12(proof, PUB_POLICY, world.trusted, world.registry).proven


def test_build_m1_insufficient_before_t_proof():
    world = World()
    entry = world.entry()
    sth = world.covering_sth()
    t_proof = earliest_proof_time(
        Case.M1_MISSING_UPDATE, PUB_POLICY, entry=entry, covering_sth=sth
    )
    early_good = world.status(StatusValue.good(), t_proof - 1)
    with pytest.raises(InsufficientEvidenceError):
        world.build(Case.M1_MISSING_UPDATE, PUB_POLICY, [early_good], [sth])


def test_proof_text_round_trip():
    world = World()
    status = world.status(StatusValue.good(), 10 * DAY_MS)
    proof = _m12_proof(world, PUB_POLICY, status)
    from postcert.encoding import text_block_bytes
    from postcert.encoding import decode_artifact

    text = proof_to_text(proof)
    assert decode_artifact(text_block_bytes(text)) == proof


def test_mode_ordering_of_proof_times():
    """Publication-anchored proofs come no later whenever the publication
    delay stays below the deadline difference."""
    rng = random.Random(21)
    for _ in range(100):
        submit_t = rng.randrange(0, 10**9)
        pub_delay = rng.randrange(0, MMD)
        mrd_b = rng.randrange(1, 24 * HOUR_MS)
        mrd_a = MMD + mrd_b
        entry = _entry(submit_t)
        sth = _sth(submit_t + pub_delay, treesize=1)
        t_sub = earliest_proof_time(
            Case.M1_MISSING_UPDATE,
            MrdPolicy(MrdMode.FROM_SUBMISSION, mrd_a, MMD),
            entry=entry,
        )
        t_pub = earliest_proof_time(
            Case.M1_MISSING_UPDATE,
            MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_b, MMD),
            entry=entry,
            covering_sth=sth,
        )
        if pub_delay <= mrd_a - mrd_b:
            assert t_pub <= t_sub
