"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing criterion fails its test.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from postcert.certs import (
    CertRef,
    PostcertScheme,
    TbsCertificate,
    make_postcertificate,
    sign_certificate,
)
from postcert.crypto import KeyRegistry, SHA256
from postcert.delays import DelayBreakdown, check_bounds
from postcert.encoding import encode_artifact
from postcert.log import (
    LogEntry,
    LogView,
    MerkleAuditProof,
    STH,
    sth_signing_payload,
)
from postcert.merkle import MerkleTree, root_from_audit_path, verify_consistency
from postcert.misbehavior import (
    Case,
    InsufficientEvidenceError,
    MisbehaviorProofM12,
    MisbehaviorProofM3,
    MrdMode,
    MrdPolicy,
    TrustedLogSet,
    build_proof,
    earliest_proof_time,
    verify_m12,
    verify_m3,
    verify_proof,
)
from postcert.presets import (
    REFERENCE_DELAY_MAX_MS,
    REFERENCE_DELAY_MEDIAN_MS,
    REFERENCE_DELAY_MIN_MS,
    classes,
    clock_skew,
    honest_random,
    delay_percentiles,
    pathologies,
    single_fault,
)
from postcert.probe import (
    classify,
    clock_offsets,
    growth_projection,
    lagging_fraction,
    out_of_order_fraction,
    submission_to_publication,
)
from postcert.sim import Simulation
from postcert.status import StatusError, StatusValue, issue_status, status_update_deadline
from postcert.timeutil import DAY_MS, HOUR_MS, SECOND_MS
from postcert.trace import EventKind, observations_from_events

from oracles import BruteForceTree


def _passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS — {detail}")


# -- 1. Merkle oracle equivalence ----------------------------------------------------

def test_acceptance_01_merkle_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(1001)
    payloads = [rng.randbytes(rng.randrange(1, 48)) for _ in range(256)]
    tree = MerkleTree()
    for payload in payloads:
        tree.append(payload)
    oracle = BruteForceTree(payloads)

    for n in range(257):
        assert tree.root(n) == oracle.root(n), f"root mismatch at {n}"

    checked_audit = 0
    checked_consistency = 0
    for n in range(1, 257):
        exhaustive = n <= 64
        for index in range(n):
            impl_path = tree.audit_path(index, n)
            assert impl_path == oracle.audit_path(index, n), (index, n)
            checked_audit += 1
            if exhaustive or index % 17 == 0:
                leaf = SHA256.hash_leaf(payloads[index])
                assert root_from_audit_path(leaf, index, n, impl_path) == oracle.root(n)
        for first in range(n + 1):
            impl_path = tree.consistency_path(first, n)
            assert impl_path == oracle.consistency_path(first, n), (first, n)
            checked_consistency += 1
            if exhaustive or first % 13 == 0:
                assert verify_consistency(
                    first, n, oracle.root(first), oracle.root(n), impl_path
                ), (first, n)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(1, f"{checked_audit} audit + {checked_consistency} consistency proofs "
               f"match the oracle for n<=256 in {elapsed:.1f}s")


# -- 2. Table-1 conformance -----------------------------------------------------------

class _Timeline:
    """A controlled single-postcertificate world built without the log class."""

    def __init__(self, rng: random.Random) -> None:
        self.registry = KeyRegistry.with_signers(["ca1", "log1", "log2", "leaf"])
        self.trusted = TrustedLogSet.of("log1", "log2")
        root_tbs = TbsCertificate(
            serial=0, subject="ca1", issuer="ca1",
            not_before=0, not_after=10**14, public_key_id="ca1",
        )
        self.root = sign_certificate(self.registry, "ca1", root_tbs)
        leaf_tbs = TbsCertificate(
            serial=rng.randrange(1, 10**6), subject="s.example", issuer="ca1",
            not_before=0, not_after=10**14, public_key_id="leaf",
        )
        self.cert = sign_certificate(self.registry, "ca1", leaf_tbs)
        self.post = make_postcertificate(self.cert, PostcertScheme.CA_ISSUED, self.registry)
        self.ref = CertRef("ca1", leaf_tbs.serial)
        self.t_submission = rng.randrange(0, 200 * HOUR_MS)
        self.pub_delay = rng.randrange(SECOND_MS, 20 * HOUR_MS)
        self.t_sth = self.t_submission + self.pub_delay
        filler_count = rng.randrange(0, 6)
        fillers = []
        for k in range(filler_count):
            tbs = TbsCertificate(
                serial=10**7 + k, subject=f"f{k}.example", issuer="ca1",
                not_before=0, not_after=10**14, public_key_id="leaf",
            )
            fillers.append(encode_artifact(sign_certificate(self.registry, "ca1", tbs)))
        self.number = rng.randrange(0, filler_count + 1)
        payloads = fillers[: self.number] + [encode_artifact(self.post)] + fillers[self.number:]
        self.tree = MerkleTree()
        for payload in payloads:
            self.tree.append(payload)
        self.treesize = len(payloads)
        self.entry = LogEntry(encode_artifact(self.post), self.t_submission, "log1", self.number)
        self.sth = self._sign_sth("log1", self.t_sth, self.treesize, self.tree.root())
        self.audit = MerkleAuditProof(
            self.number, self.treesize, self.tree.audit_path(self.number, self.treesize)
        )

    def _sign_sth(self, log_id: str, t: int, treesize: int, root_hash: bytes) -> STH:
        sig = self.registry.sign(log_id, sth_signing_payload(log_id, t, treesize, root_hash))
        return STH(log_id, t, treesize, root_hash, sig)

    def status(self, value: StatusValue, t: int):
        return issue_status(
            self.registry, "ca1", self.ref, value, t, 10 * HOUR_MS, honest=False,
        )

    def m12_proof(self, status) -> MisbehaviorProofM12:
        return MisbehaviorProofM12(self.entry, self.sth, status, self.audit)


def test_acceptance_02_table1_conformance():
    rng = random.Random(2002)
    flips = 0
    for mode in (MrdMode.FROM_SUBMISSION, MrdMode.FROM_PUBLICATION):
        for case in (Case.M1_MISSING_UPDATE, Case.M2_INCORRECT_STATUS, Case.M3_EARLY_STATUS):
            for _ in range(100):
                mmd = rng.choice([12, 24, 36]) * HOUR_MS
                if mode is MrdMode.FROM_SUBMISSION:
                    policy = MrdPolicy(mode, mmd + rng.randrange(1, 48 * HOUR_MS), mmd)
                else:
                    policy = MrdPolicy(mode, rng.randrange(1, 48 * HOUR_MS), mmd)
                timeline = _Timeline(rng)
                if case is Case.M3_EARLY_STATUS:
                    status = timeline.status(
                        StatusValue.revoked(), rng.randrange(0, 100 * HOUR_MS)
                    )
                    expected = status.t + policy.mmd_ms  # hand-evaluated formula
                    assert earliest_proof_time(case, policy, status=status) == expected
                    readers = {
                        "log1": LogView("log1", [], []),
                        "log2": LogView("log2", [], []),
                    }
                    def m3_at(t: int):
                        sths = tuple(
                            timeline._sign_sth(log_id, t, 0, SHA256.empty_root())
                            for log_id in ("log1", "log2")
                        )
                        return MisbehaviorProofM3(status, sths)
                    early = verify_m3(m3_at(expected - 1), policy, timeline.trusted,
                                      timeline.registry, readers)
                    at = verify_m3(m3_at(expected), policy, timeline.trusted,
                                   timeline.registry, readers)
                    assert not early.proven and early.reason == "sth-too-early"
                    assert at.proven
                else:
                    if mode is MrdMode.FROM_SUBMISSION:
                        expected = timeline.t_submission + policy.mrd_ms
                    else:
                        expected = timeline.t_sth + policy.mrd_ms
                    computed = earliest_proof_time(
                        case, policy, entry=timeline.entry, covering_sth=timeline.sth
                    )
                    assert computed == expected
                    wrong_value = (
                        StatusValue.good()
                        if case is Case.M1_MISSING_UPDATE
                        else StatusValue.unknown()
                    )
                    early = verify_m12(
                        timeline.m12_proof(timeline.status(wrong_value, expected - 1)),
                        policy, timeline.trusted, timeline.registry,
                    )
                    at = verify_m12(
                        timeline.m12_proof(timeline.status(wrong_value, expected)),
                        policy, timeline.trusted, timeline.registry,
                    )
                    assert not early.proven and early.reason == "status-too-early"
                    assert at.proven
                flips += 1
    _passed(2, f"{flips} case/mode timelines match hand formulas and flip at t_proof +-0")


# -- 3. Misbehavior soundness / completeness ------------------------------------------

def _truncated_readers(sim: Simulation, cutoff: int) -> dict[str, LogView]:
    readers = {}
    for log_id, log in sim.logs.items():
        entries = [
            entry for number, entry in enumerate(log.entries)
            if log.merge_time_ref(number) <= cutoff
        ]
        sths = [sth for sth in log.sth_history if sth.t <= cutoff]
        readers[log_id] = LogView(log_id, entries, sths)
    return readers


def test_acceptance_03_soundness_and_completeness():
    started = time.monotonic()
    honest_runs = 1000
    fault_runs = 1000

    false_positives = 0
    for seed in range(honest_runs):
        events = Simulation(honest_random(seed)).run()
        if any(e.kind is EventKind.PROOF and e.artifact().proven for e in events):
            false_positives += 1
    assert false_positives == 0

    cases = ["M1", "M2", "M3"]
    detected = 0
    early_checks = 0
    for index in range(fault_runs):
        case = cases[index % 3]
        seed = 10_000 + index
        sim = Simulation(single_fault(seed, case))
        events = sim.run()
        proofs = [e.artifact() for e in events if e.kind is EventKind.PROOF]
        proven = {p.case for p in proofs if p.proven}
        assert proven == {case}, f"{case} seed {seed}: proven={proven}"
        detected += 1
        if index % 40 == 0:
            # never provable before the earliest proof time
            t_proof = min(p.t_proof for p in proofs if p.proven)
            cutoff = t_proof - 10 * SECOND_MS
            seen = observations_from_events(e for e in events if e.t_ref <= cutoff)
            readers = _truncated_readers(sim, cutoff)
            policy = sim.scenario.policy
            for attempt in (Case.M1_MISSING_UPDATE, Case.M2_INCORRECT_STATUS,
                            Case.M3_EARLY_STATUS):
                try:
                    proof = build_proof(attempt, seen, policy, sim.trusted, readers)
                except InsufficientEvidenceError:
                    continue
                verdict = verify_proof(proof, policy, sim.trusted, sim.registry, readers)
                assert not verdict.proven, f"{case} seed {seed} provable before t_proof"
            early_checks += 1

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.0f}s"
    _passed(3, f"{honest_runs} honest traces: 0 proven; {detected} faults detected "
               f"exactly ({early_checks} pre-deadline checks); {elapsed:.0f}s")


# -- 4. Delay bounds ------------------------------------------------------------------

def test_acceptance_04_delay_bounds():
    runs = 0
    for seed in range(200):
        scenario = honest_random(50_000 + seed)
        sim = Simulation(scenario)
        events = sim.run()
        assert not [e for e in events if e.kind is EventKind.VIOLATION]
        policy = scenario.policy
        submits = [e for e in events if e.kind is EventKind.SUBMIT and e.artifact().ok]
        revoked = [
            e for e in events
            if e.kind is EventKind.STATUS
            and e.artifact().value.kind.value == "REVOKED"
        ]
        if not submits or not revoked:
            continue
        end_to_end = revoked[0].t_ref - submits[0].t_ref
        if policy.mode is MrdMode.FROM_PUBLICATION:
            assert end_to_end <= policy.mmd_ms + policy.mrd_ms
        else:
            assert end_to_end <= policy.mrd_ms
        runs += 1
    assert runs >= 50  # enough postcertificate-pathway revocations sampled

    # mutation sweep: inflating one bounded component yields exactly one violation
    pub_policy = MrdPolicy(MrdMode.FROM_PUBLICATION, 8 * HOUR_MS, DAY_MS)
    sub_policy = MrdPolicy(MrdMode.FROM_SUBMISSION, 32 * HOUR_MS, DAY_MS)
    honest = DelayBreakdown.postcert(2 * HOUR_MS, HOUR_MS, 2 * HOUR_MS)
    assert check_bounds(honest, pub_policy) == []
    assert check_bounds(honest, sub_policy) == []
    mutations_pub = [
        DelayBreakdown.postcert(pub_policy.mmd_ms + 1, HOUR_MS, 2 * HOUR_MS),
        DelayBreakdown.postcert(2 * HOUR_MS, pub_policy.mrd_ms, 2 * HOUR_MS),
        DelayBreakdown.postcert(2 * HOUR_MS, HOUR_MS, pub_policy.mrd_ms),
    ]
    for mutated in mutations_pub:
        assert len(check_bounds(mutated, pub_policy)) == 1
    for index in range(3):
        parts = [2 * HOUR_MS, HOUR_MS, 2 * HOUR_MS]
        parts[index] += sub_policy.mrd_ms
        assert len(check_bounds(DelayBreakdown.postcert(*parts), sub_policy)) == 1
    current = DelayBreakdown.current(DAY_MS, 2 * DAY_MS, 3 * DAY_MS)
    assert check_bounds(current, pub_policy) == []
    inflated = DelayBreakdown.current(DAY_MS, 2 * DAY_MS, 3 * DAY_MS + 1)
    assert len(check_bounds(inflated, pub_policy)) == 1
    _passed(4, f"{runs} honest end-to-end times within bounds; mutations flag exactly one")


# -- 5. Status deadline table ---------------------------------------------------------

def test_acceptance_05_status_deadline_table():
    assert status_update_deadline(8 * HOUR_MS) == 4 * HOUR_MS
    assert status_update_deadline(16 * HOUR_MS) == 8 * HOUR_MS
    assert status_update_deadline(10 * DAY_MS) == 4 * DAY_MS
    for validity in (8 * HOUR_MS - 1, 0, 10 * DAY_MS + 1):
        with pytest.raises(StatusError):
            status_update_deadline(validity)
    _passed(5, "deadline formula exact at 8h/16h/10d and rejects out-of-range windows")


# -- 6. Classifier reproduction -------------------------------------------------------

def test_acceptance_06_classifier_reproduction():
    events = Simulation(classes(seed=1)).run()
    obs = observations_from_events(events)
    expected = {
        "busy": ("BUSY", None),
        "unbusy": ("UNBUSY", None),
        "periodic-120": ("PERIODIC", 120 * SECOND_MS),
        "periodic-600": ("PERIODIC", 600 * SECOND_MS),
        "periodic-3600": ("PERIODIC", 3600 * SECOND_MS),
        "irregular": ("OTHER", None),
    }
    for log_id, (kind, interval) in expected.items():
        result = classify(obs.sths.get(log_id, []), obs.submissions.get(log_id, []))
        assert result.kind.value == kind, f"{log_id}: {result}"
        if interval is not None:
            assert abs(result.interval_ms - interval) <= 0.05 * interval, f"{log_id}: {result}"
    _passed(6, "BUSY/UNBUSY/PERIODIC(120s,600s,3600s)/OTHER all recovered exactly")


# -- 7. Delay-percentile preset -------------------------------------------------------

def test_acceptance_07_delay_percentile_preset():
    scenario = delay_percentiles(seed=5)
    probe_interval = scenario.probe.sth_interval_ms
    events = Simulation(scenario).run()
    obs = observations_from_events(events)
    sths = obs.sths["log-a"]
    delays = [
        submission_to_publication(record, sths)
        for record in obs.submissions["log-a"]
        if record.final_entry_number is not None
    ]
    assert len(delays) == 101
    measured_min = min(delays)
    measured_median = float(np.median(delays))
    measured_max = max(delays)
    assert abs(measured_min - REFERENCE_DELAY_MIN_MS) <= probe_interval
    assert abs(measured_median - REFERENCE_DELAY_MEDIAN_MS) <= probe_interval
    assert abs(measured_max - REFERENCE_DELAY_MAX_MS) <= probe_interval
    _passed(7, f"min/median/max recovered as {measured_min}/{measured_median:.0f}/"
               f"{measured_max} ms vs targets {REFERENCE_DELAY_MIN_MS}/"
               f"{REFERENCE_DELAY_MEDIAN_MS}/{REFERENCE_DELAY_MAX_MS} (+-{probe_interval})")


# -- 8. Clock-offset recovery ---------------------------------------------------------

def test_acceptance_08_clock_offset_recovery():
    scenario = clock_skew(seed=9)
    configured = {l.log_id: l.config.clock_offset_ms for l in scenario.logs}
    assert all(abs(v) <= 3 * SECOND_MS for v in configured.values())
    events = Simulation(scenario).run()
    obs = observations_from_events(events)
    per_log = {
        log_id: [(s.sct.timestamp, s.t_response) for s in submissions if s.ok]
        for log_id, submissions in obs.submissions.items()
    }
    ids, matrix = clock_offsets(per_log)
    quantum = 1  # millisecond clock
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            expected = abs(configured[a] - configured[b])
            assert abs(matrix[i][j] - expected) <= quantum, (a, b)
    assert not [e for e in events if e.kind is EventKind.VIOLATION]
    assert not [e for e in events if e.kind is EventKind.PROOF and e.artifact().proven]
    _passed(8, f"pairwise offsets recovered within +-{quantum} ms; honest under skew")


# -- 9. Appendix metrics --------------------------------------------------------------

def test_acceptance_09_appendix_metrics():
    probes = 10_000
    events = Simulation(pathologies(seed=5, probes=probes)).run()
    obs = observations_from_events(events)
    assert len(obs.sths["ooo"]) >= probes
    fraction_ooo = out_of_order_fraction(obs.sths["ooo"])
    fraction_lag = lagging_fraction(obs.sths["lagging"], obs.sizes["lagging"])
    assert abs(fraction_ooo - 0.05) <= 0.02
    assert abs(fraction_lag - 0.10) <= 0.02
    assert out_of_order_fraction(obs.sths["honest"]) == 0.0
    assert lagging_fraction(obs.sths["honest"], obs.sizes["honest"]) == 0.0
    _passed(9, f"out-of-order {fraction_ooo:.3f}~0.05, lagging {fraction_lag:.3f}~0.10 "
               f"over {probes} probes; honest exactly 0")


# -- 10. Growth projection ------------------------------------------------------------

def test_acceptance_10_growth_projection():
    rng = random.Random(10)
    history = [0]
    for _ in range(500):
        history.append(history[-1] + rng.randrange(0, 1000))
    doubled = growth_projection(history, 1.00)
    assert doubled[-1] == 2 * history[-1]
    assert doubled == [2.0 * size for size in history]
    for fraction in (0.05, 0.20):
        projected = growth_projection(history, fraction)
        assert projected == [size * (1.0 + fraction) for size in history]
        increments = [b - a for a, b in zip(projected, projected[1:])]
        raw = [b - a for a, b in zip(history, history[1:])]
        for got, base in zip(increments, raw):
            assert got == pytest.approx(base * (1.0 + fraction), abs=1e-6)
    _passed(10, "1.00 doubles the final size; 0.05/0.20 scale every increment exactly")


# -- 11. Determinism ------------------------------------------------------------------

def test_acceptance_11_determinism(tmp_path):
    from postcert.cli import main

    outputs = []
    for run_index in range(2):
        trace = tmp_path / f"trace-{run_index}.txt"
        report = tmp_path / f"report-{run_index}.txt"
        assert main(["simulate", "--preset", "normal", "--seed", "7",
                     "--out", str(trace)]) == 0
        assert main(["analyze", "--trace", str(trace), "--out", str(report)]) == 0
        outputs.append((trace.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    _passed(11, "repeated simulate+analyze with a fixed seed is byte-identical")
