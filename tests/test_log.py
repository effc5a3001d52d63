"""Log behavior: SCT issuance, publication, tree heads, pathologies, snapshots."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from postcert.certs import PostcertScheme, TbsCertificate, make_postcertificate, sign_certificate
from postcert.crypto import SHA256, HashScheme
from postcert.encoding import encode_artifact
from postcert.log import (
    CtLog,
    DuplicatePolicy,
    ERR_CHAIN_REJECTED,
    ERR_LOG_FROZEN,
    LogConfig,
    LogError,
    LogView,
    SthCacheMode,
    UpdateClass,
    log_snapshot_text,
    verify_audit_proof,
    verify_consistency_sths,
    verify_sct,
    verify_sth,
)
from postcert.timeutil import HOUR_MS, MINUTE_MS, SECOND_MS

from oracles import BruteForceTree, EagerSthLog, lagging_sth_draw


def _make_log(registry, trust, **config) -> CtLog:
    config.setdefault("publication_delay", "fixed:1000")
    return CtLog("log1", registry, trust, LogConfig(**config), seed=42)


def _cert_factory(registry):
    counter = iter(range(1000, 100000))

    def make(now: int = 0):
        serial = next(counter)
        tbs = TbsCertificate(
            serial=serial, subject=f"s{serial}.example", issuer="ca1",
            not_before=0, not_after=10**12, public_key_id="leaf-key-1",
        )
        return sign_certificate(registry, "ca1", tbs)

    return make


def test_submit_returns_verifiable_sct(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust)
    sct = log.submit(leaf_cert, [ca_root], now=1000)
    assert sct.log_id == "log1"
    assert sct.timestamp == 1000  # zero clock offset
    assert verify_sct(sct, encode_artifact(leaf_cert), registry)


def test_entry_published_within_mmd(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, mmd_ms=HOUR_MS, publication_delay=f"fixed:{10 * MINUTE_MS}")
    sct = log.submit(leaf_cert, [ca_root], now=0)
    assert log.published_size(5 * MINUTE_MS) == 0
    assert log.published_size(10 * MINUTE_MS) == 1
    covering = [s for s in log.sth_history if s.treesize >= 1]
    assert covering and covering[0].t <= sct.timestamp + HOUR_MS
    entry = log.get_entries(0, 0)[0]
    assert entry.t_submission == sct.timestamp


def test_chain_rejected(registry, trust, leaf_cert):
    log = _make_log(registry, trust)
    with pytest.raises(LogError) as err:
        log.submit(leaf_cert, [leaf_cert], now=0)
    assert err.value.code == ERR_CHAIN_REJECTED


def test_frozen_log_rejects(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust)
    log.freeze()
    with pytest.raises(LogError) as err:
        log.submit(leaf_cert, [ca_root], now=0)
    assert err.value.code == ERR_LOG_FROZEN


def test_forget_mode_returns_sct_but_never_publishes(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, forget=True, mmd_ms=HOUR_MS)
    sct = log.submit(leaf_cert, [ca_root], now=0)
    assert sct is not None
    assert log.published_size(10 * HOUR_MS) == 0


def test_duplicate_return_old_sct_is_byte_identical(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust)
    first = log.submit(leaf_cert, [ca_root], now=1000)
    second = log.submit(leaf_cert, [ca_root], now=99000)
    assert encode_artifact(first) == encode_artifact(second)
    assert log.published_size(10 * HOUR_MS) == 1


@pytest.mark.parametrize("first_fate", ["merged", "pending", "forget", "drop_serial"])
def test_duplicate_gets_the_first_sct_again(registry, trust, ca_root, leaf_cert, first_fate):
    log = _make_log(registry, trust, forget=first_fate == "forget")
    if first_fate == "drop_serial":
        log.drop_serial(leaf_cert.tbs.serial)
    first = log.submit(leaf_cert, [ca_root], now=1000)
    again_at = 1500 if first_fate == "pending" else 99000  # the entry merges at 2000
    if first_fate == "merged":
        assert log.published_size(again_at) == 1
    second = log.submit(leaf_cert, [ca_root], now=again_at)
    assert second == first and second.timestamp == 1000
    assert encode_artifact(second) == encode_artifact(first)
    assert verify_sct(second, encode_artifact(leaf_cert), registry)
    logged = first_fate in ("merged", "pending")
    assert log.published_size(10 * HOUR_MS) == int(logged)


def test_pending_queue_holds_only_unmerged_entries(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:1000")
    for now in range(30_000):
        log.submit(make(), [ca_root], now=now)
    assert len(log.entries) == 29_000
    assert len(log._pending) == 1_000
    log.advance(31_000)
    assert len(log.entries) == 30_000 and not log._pending


def _bytes_per_entry(registry, trust, ca_root, read_heads: bool) -> float:
    """Bytes a log holds per merged entry, measured with tracemalloc over
    5 000 entries of 128-byte certificates (161-byte ``bytes`` objects);
    with ``read_heads``, the newest head is read after each submission, as
    a probe reads it."""
    certs = [
        sign_certificate(registry, "ca1", TbsCertificate(
            serial=serial, subject=f"host-{serial}.bench-ca.example", issuer="ca1",
            not_before=0, not_after=10**12, public_key_id=f"host-{serial}"))
        for serial in range(10_000, 15_000)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = _make_log(registry, trust)
        for now, cert in enumerate(certs):
            log.submit(cert, [ca_root], now=now)
            if read_heads:
                log.get_sth(now)
        log.advance(HOUR_MS)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.entries) == len(certs)
    assert {len(entry.payload) for entry in log.entries} == {128}
    return used / len(certs)


def test_log_keeps_under_440_bytes_per_entry(registry, trust, ca_root):
    """A log that kept an SCT per payload, a head per entry as objects and
    its merged pending records kept ~815 bytes; one that kept its upper
    Merkle levels as objects, a leaf index nobody looked up in and a root
    per head size ~525; one that kept each leaf hash as its own object ~455."""
    assert _bytes_per_entry(registry, trust, ca_root, read_heads=False) <= 440


def test_log_keeps_under_440_bytes_per_entry_when_every_head_is_read(registry, trust, ca_root):
    """A log that kept every head it signed as an ``STH`` kept ~758 bytes."""
    assert _bytes_per_entry(registry, trust, ca_root, read_heads=True) <= 440


def test_duplicate_reinsert_creates_two_entries(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, duplicate_policy=DuplicatePolicy.REINSERT)
    first = log.submit(leaf_cert, [ca_root], now=1000)
    second = log.submit(leaf_cert, [ca_root], now=99000)
    assert first.timestamp != second.timestamp
    entries = log.get_entries(0, 10, now=10 * HOUR_MS)
    assert len(entries) == 2
    assert entries[0].payload == entries[1].payload
    assert entries[0].t_submission != entries[1].t_submission


def test_self_signed_acceptance_is_config_gated(registry, trust, ca_root, leaf_cert):
    post = make_postcertificate(leaf_cert, PostcertScheme.SELF_SIGNED, registry)
    plain = _make_log(registry, trust)
    with pytest.raises(LogError):
        plain.submit(post, [leaf_cert, ca_root], now=0)
    modified = _make_log(registry, trust, accept_self_signed=True)
    sct = modified.submit(post, [leaf_cert, ca_root], now=0)
    assert sct is not None


def test_sign_tree_head_matches_oracle(registry, trust, ca_root):
    rng = random.Random(5)
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:0")
    payloads = []
    now = 0
    for _ in range(100):
        now += rng.randrange(1, 5000)
        cert = make()
        payloads.append(encode_artifact(cert))
        log.submit(cert, [ca_root], now=now)
    sth = log.sign_tree_head(now + 1)
    assert sth.treesize == 100
    oracle = BruteForceTree(payloads)
    assert sth.root_hash == oracle.root(100)
    assert verify_sth(sth, registry)


def test_empty_log_sth(registry, trust):
    log = _make_log(registry, trust)
    sth = log.sign_tree_head(0)
    assert sth.treesize == 0
    assert sth.root_hash == SHA256.empty_root()


def test_single_entry_root_is_leaf_hash(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, publication_delay="fixed:0")
    log.submit(leaf_cert, [ca_root], now=5)
    sth = log.sign_tree_head(6)
    assert sth.root_hash == SHA256.hash_leaf(encode_artifact(leaf_cert))


def test_sth_monotone_treesize(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="uniform:0:60000")
    now = 0
    for _ in range(50):
        now += 10_000
        log.submit(make(), [ca_root], now=now)
    log.advance(now + HOUR_MS)
    sizes = [s.treesize for s in log.sth_history]
    assert sizes == sorted(sizes)
    times = [s.t for s in log.sth_history]
    assert times == sorted(times)


def test_entry_numbers_dense_and_t_submission_monotone(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="uniform:0:600000")
    now = 0
    for _ in range(80):
        now += 7_000
        log.submit(make(), [ca_root], now=now)
    entries = log.get_entries(0, 100, now=now + HOUR_MS)
    assert [e.number for e in entries] == list(range(len(entries)))
    stamps = [e.t_submission for e in entries]
    assert stamps == sorted(stamps)


def test_get_entries_range_semantics(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:0")
    for i in range(5):
        log.submit(make(), [ca_root], now=i + 1)
    log.advance(100)
    assert len(log.get_entries(0, 2)) == 3
    assert len(log.get_entries(0, 99)) == 5
    assert log.get_entries(5, 9) == []
    with pytest.raises(ValueError):
        log.get_entries(3, 2)


def test_audit_and_consistency_proofs_verify(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:0")
    payloads = []
    for i in range(20):
        cert = make()
        payloads.append(encode_artifact(cert))
        log.submit(cert, [ca_root], now=i + 1)
    log.advance(100)
    sth_small = log.sign_tree_head(101)
    # grow further
    for i in range(12):
        cert = make()
        payloads.append(encode_artifact(cert))
        log.submit(cert, [ca_root], now=200 + i)
    log.advance(400)
    sth_big = log.sign_tree_head(401)
    proof = log.audit_proof(7, sth_big.treesize)
    assert verify_audit_proof(payloads[7], proof, sth_big)
    assert not verify_audit_proof(payloads[8], proof, sth_big)
    mismatched = log.audit_proof(7, sth_small.treesize)
    assert not verify_audit_proof(payloads[7], mismatched, sth_big)
    path = log.consistency_proof(sth_small.treesize, sth_big.treesize)
    assert verify_consistency_sths(sth_small, sth_big, path)
    with pytest.raises(LogError):
        log.audit_proof(99, 200)


def test_get_proof_by_hash(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, publication_delay="fixed:0")
    log.submit(leaf_cert, [ca_root], now=1)
    log.advance(10)
    leaf_hash = SHA256.hash_leaf(encode_artifact(leaf_cert))
    proof = log.get_proof_by_hash(leaf_hash, 1)
    assert proof.entry_number == 0


def test_periodic_log_signs_on_interval_even_without_change(registry, trust):
    log = _make_log(
        registry, trust,
        update_class=UpdateClass.PERIODIC, update_interval_ms=120 * SECOND_MS,
    )
    log.advance(10 * MINUTE_MS)
    times = [s.t for s in log.sth_history]
    assert times == [0] + [120_000 * k for k in range(1, 6)]


def test_unbusy_log_signs_one_sth_per_entry(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(
        registry, trust, update_class=UpdateClass.UNBUSY, publication_delay="fixed:1000"
    )
    for i in range(4):
        log.submit(make(), [ca_root], now=1000 * i)
    log.advance(MINUTE_MS)
    increments = [
        b.treesize - a.treesize for a, b in zip(log.sth_history, log.sth_history[1:])
    ]
    assert increments == [1, 1, 1, 1]


def test_busy_log_batches_simultaneous_merges(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, update_class=UpdateClass.BUSY, publication_delay="fixed:1000")
    for _ in range(3):
        log.submit(make(), [ca_root], now=0)
    log.advance(MINUTE_MS)
    assert log.sth_history[-1].treesize == 3
    assert len(log.sth_history) == 2  # initial empty head + one batch head


def test_out_of_order_fraction_of_responses(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(
        registry, trust,
        sth_cache=SthCacheMode.OUT_OF_ORDER, sth_cache_p=0.10,
        publication_delay="fixed:100",
    )
    regressions = 0
    best = None
    calls = 10_000
    now = 0
    for _ in range(calls):
        now += 1000
        log.submit(make(), [ca_root], now=now)
        sth = log.get_sth(now + 500)
        key = (sth.t, sth.treesize)
        if best is not None and (key[0] < best[0] or key[1] < best[1]):
            regressions += 1
        else:
            best = key
    assert abs(regressions / calls - 0.10) < 0.02


def test_lagging_log_serves_entries_beyond_advertised_size(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(
        registry, trust,
        sth_cache=SthCacheMode.LAGGING, sth_cache_p=1.0,
        publication_delay="fixed:100",
    )
    now = 0
    for _ in range(50):
        now += 1000
        log.submit(make(), [ca_root], now=now)
    log.advance(now + 1000)
    sth = log.get_sth(now + 1000)
    size = log.published_size()
    assert sth.treesize < size
    highest = log.get_entries(size - 1, size - 1)[0]
    assert highest.number >= sth.treesize  # index M >= advertised N


def test_lagging_get_sth_draws_like_full_scan(registry, trust, ca_root):
    """Over a long seeded run the prefix search picks exactly the head the
    full scan of the history would, consuming the same random numbers."""
    make = _cert_factory(registry)
    p = 0.3
    log = _make_log(
        registry, trust,
        sth_cache=SthCacheMode.LAGGING, sth_cache_p=p,
        publication_delay="uniform:0:5000",
    )
    pace = random.Random(7)
    shadow = random.Random()
    now = 0
    stale_draws = 0
    for _ in range(1500):
        now += pace.choice((0, 300, 1000, 4000))
        for _ in range(pace.randrange(3)):
            log.submit(make(), [ca_root], now=now)
        log.advance(now)
        shadow.setstate(log.rng.getstate())
        expected = lagging_sth_draw(log.sth_history, len(log.entries), shadow, p)
        got = log.get_sth(now)
        assert got == expected
        assert log.rng.getstate() == shadow.getstate()
        stale_draws += got.treesize < len(log.entries)
    assert stale_draws > 100


def test_honest_get_sth_is_monotone(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:100")
    previous = None
    now = 0
    for _ in range(200):
        now += 1000
        log.submit(make(), [ca_root], now=now)
        sth = log.get_sth(now + 500)
        if previous is not None:
            assert (sth.t, sth.treesize) >= previous
        previous = (sth.t, sth.treesize)


def test_append_only_consistency_between_all_honest_sths(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:0")
    for i in range(30):
        log.submit(make(), [ca_root], now=i + 1)
        log.sign_tree_head(i + 1)
    heads = log.sth_history
    for a in range(0, len(heads), 7):
        for b in range(a, len(heads), 5):
            path = log.consistency_proof(heads[a].treesize, heads[b].treesize)
            assert verify_consistency_sths(heads[a], heads[b], path)


def test_clock_offset_shifts_sct_and_sth_timestamps(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, clock_offset_ms=2500)
    sct = log.submit(leaf_cert, [ca_root], now=1000)
    assert sct.timestamp == 3500
    sth = log.sign_tree_head(2000)
    assert sth.t == 4500


def test_snapshot_round_trip_serves_same_proofs(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(registry, trust, publication_delay="fixed:0")
    for i in range(9):
        log.submit(make(), [ca_root], now=i + 1)
    log.advance(100)
    final = log.sign_tree_head(101)
    reader = LogView.from_text(log_snapshot_text(log))
    assert reader.log_id == "log1"
    assert reader.published_size() == 9
    assert reader.latest_sth() == final
    for i in range(9):
        assert reader.audit_proof(i, 9) == log.audit_proof(i, 9)
    assert reader.consistency_proof(4, 9) == log.consistency_proof(4, 9)


def test_periodic_heads_carry_the_oracle_root_with_and_without_merges(registry, trust, ca_root):
    make = _cert_factory(registry)
    log = _make_log(
        registry, trust,
        update_class=UpdateClass.PERIODIC, update_interval_ms=60 * SECOND_MS,
        publication_delay="fixed:1000",
    )
    payloads = []
    # Bursts of submissions separated by quiet spans of several ticks.
    for burst, now in enumerate((5 * SECOND_MS, 7 * MINUTE_MS, 11 * MINUTE_MS, 15 * MINUTE_MS)):
        for _ in range(burst + 1):
            cert = make()
            payloads.append(encode_artifact(cert))
            log.submit(cert, [ca_root], now=now)
        log.get_sth(now + 90 * SECOND_MS)
    log.advance(25 * MINUTE_MS)
    history = log.sth_history
    assert len(log.entries) == len(payloads) == 10
    sizes = [sth.treesize for sth in history]
    assert any(a == b for a, b in zip(sizes, sizes[1:]))  # ticks without a merge
    assert any(a < b for a, b in zip(sizes, sizes[1:]))  # ticks after merges
    oracle = BruteForceTree(payloads)
    for sth in history:
        assert sth.root_hash == oracle.root(sth.treesize)
        assert verify_sth(sth, registry)


_UPDATE_CLASSES = {
    "BUSY": {"update_class": UpdateClass.BUSY},
    "UNBUSY": {"update_class": UpdateClass.UNBUSY},
    "PERIODIC": {"update_class": UpdateClass.PERIODIC, "update_interval_ms": 5 * SECOND_MS},
}


@pytest.mark.parametrize("cache", list(SthCacheMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("update", sorted(_UPDATE_CLASSES))
def test_heads_signed_on_first_read_equal_eagerly_signed_heads(
    registry, trust, ca_root, update, cache
):
    """Random schedules, heads read mid-run and afterwards in random order:
    every head is the one an eager log signed at publication, and a re-read
    equals the first read."""
    make = _cert_factory(registry)
    for seed in range(6):
        rng = random.Random(seed)
        config = LogConfig(
            publication_delay="uniform:0:4000",
            sth_cache=cache,
            sth_cache_p=0.0 if cache is SthCacheMode.NONE else 0.5,
            **_UPDATE_CLASSES[update],
        )
        log = EagerSthLog("log1", registry, trust, config, seed=seed)
        served = []
        now = 0
        for _ in range(60):
            now += rng.choice((0, 300, 1000, 4000))
            for _ in range(rng.randrange(3)):
                log.submit(make(), [ca_root], now=now)
            if rng.random() < 0.3:
                served.append(log.get_sth(now))
            if rng.random() < 0.05:
                served.append(log.sign_tree_head(now))
        log.advance(now + HOUR_MS)
        heads, eager = log.sth_history, log.eager_history
        assert len(heads) == len(eager) > len(served) > 0
        order = list(range(len(heads)))
        rng.shuffle(order)
        first = {}
        for i in order:
            head = heads[i] if rng.random() < 0.5 else heads[i - len(heads)]
            assert head == eager[i]
            assert verify_sth(head, registry)
            first[i] = head
        for i in order:
            assert heads[i] == first[i]
        assert all(head == first[i] for i, head in enumerate(heads))
        assert heads[1:-1:2] == eager[1:-1:2]
        assert set(served) <= set(eager)  # mid-run reads are eagerly signed heads too


def test_busy_log_signs_only_scts_until_a_head_is_read(registry, trust, ca_root):
    make = _cert_factory(registry)
    certs = [make() for _ in range(40)]
    signers = []
    sign = registry.sign
    registry.sign = lambda signer_id, payload: signers.append(signer_id) or sign(signer_id, payload)
    log = _make_log(registry, trust, publication_delay="fixed:100")
    for i, cert in enumerate(certs):
        log.submit(cert, [ca_root], now=i * 1000)
    log.advance(len(certs) * 1000)
    assert len(log.entries) == len(certs)
    assert len(log.sth_history) == len(certs) + 1  # the empty head plus one per merge
    assert signers == ["log1"] * len(certs)  # one per SCT
    latest = log.latest_sth()
    assert signers == ["log1"] * (len(certs) + 1)
    assert log.sth_history[-1] is latest and len(signers) == len(certs) + 1


def test_busy_log_signs_nothing_for_added_entries_until_a_head_is_read(registry, trust, ca_root):
    make = _cert_factory(registry)
    certs = [make() for _ in range(40)]
    signers = []
    sign = registry.sign
    registry.sign = lambda signer_id, payload: signers.append(signer_id) or sign(signer_id, payload)
    log = _make_log(registry, trust, publication_delay="fixed:100")
    for i, cert in enumerate(certs):
        log.add(cert, [ca_root], now=i * 1000)
    log.advance(len(certs) * 1000)
    assert len(log.entries) == len(certs)
    assert len(log.sth_history) == len(certs) + 1
    assert signers == []
    log.latest_sth()
    assert signers == ["log1"]


# Payload indexes into a small pool, so sequences repeat payloads, each with
# the time step before it.
_SUBMISSIONS = st.lists(st.tuples(st.integers(0, 4), st.sampled_from((0, 300, 1000, 4000))),
                        min_size=1, max_size=20)


@pytest.mark.parametrize("forget", [False, True], ids=["keep", "forget"])
@pytest.mark.parametrize("duplicates", list(DuplicatePolicy), ids=lambda policy: policy.value)
@pytest.mark.parametrize("update", sorted(_UPDATE_CLASSES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the fixtures are read only
@given(submissions=_SUBMISSIONS)
def test_add_and_submit_build_the_same_log(registry, trust, ca_root, update, duplicates, forget,
                                           submissions):
    """``submit`` is ``add`` plus the signed SCT, so the same payload
    sequence builds equal logs either way, and a repeat under
    ``RETURN_OLD_SCT`` gets the first SCT's bytes."""
    make = _cert_factory(registry)
    pool = [make() for _ in range(5)]
    config = dict(_UPDATE_CLASSES[update], duplicate_policy=duplicates, forget=forget,
                  publication_delay="uniform:0:4000")
    by_add, by_submit = _make_log(registry, trust, **config), _make_log(registry, trust, **config)
    first_sct = {}
    now = 0
    for index, step in submissions:
        now += step
        fields = by_add.add(pool[index], [ca_root], now)
        sct = by_submit.submit(pool[index], [ca_root], now)
        assert sct == by_submit._sign_sct(*fields)
        if duplicates is DuplicatePolicy.RETURN_OLD_SCT and index in first_sct:
            assert encode_artifact(sct) == encode_artifact(first_sct[index])
        first_sct.setdefault(index, sct)
    for log in (by_add, by_submit):
        log.advance(now + HOUR_MS)
    assert by_add.entries == by_submit.entries
    assert list(by_add.sth_history) == list(by_submit.sth_history)
    assert log_snapshot_text(by_add) == log_snapshot_text(by_submit)


def test_each_logged_entry_is_hashed_once(registry, trust, ca_root):
    class CountingScheme(HashScheme):
        leaves = 0

        def hash_leaf(self, payload: bytes) -> bytes:
            CountingScheme.leaves += 1
            return super().hash_leaf(payload)

    make = _cert_factory(registry)
    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:100"),
                scheme=CountingScheme())
    payloads = []
    for i in range(25):
        cert = make()
        payloads.append(encode_artifact(cert))
        log.submit(cert, [ca_root], now=i * 1000)
    log.advance(HOUR_MS)
    assert CountingScheme.leaves == 25
    assert log.latest_sth().root_hash == BruteForceTree(payloads).root()


def test_out_of_order_get_sth_draws_like_a_choice_over_older_heads(registry, trust, ca_root):
    make = _cert_factory(registry)
    p = 0.4
    log = _make_log(registry, trust, sth_cache=SthCacheMode.OUT_OF_ORDER, sth_cache_p=p,
                    publication_delay="uniform:0:5000")
    pace = random.Random(11)
    shadow = random.Random()
    now = 0
    older = 0
    for _ in range(400):
        now += pace.choice((0, 300, 1000, 4000))
        for _ in range(pace.randrange(3)):
            log.submit(make(), [ca_root], now=now)
        log.advance(now)
        shadow.setstate(log.rng.getstate())
        history = list(log.sth_history)
        expected = history[-1]
        if len(history) >= 2 and shadow.random() < p:
            expected = shadow.choice(history[:-1])
        got = log.get_sth(now)
        assert got == expected
        assert log.rng.getstate() == shadow.getstate()
        older += got != history[-1]
    assert older > 50


def _eager_index(log) -> dict[bytes, int]:
    """The first number of each leaf hash, from the entries alone."""
    index: dict[bytes, int] = {}
    for entry in log.entries:
        index.setdefault(log.scheme.hash_leaf(entry.payload), entry.number)
    return index


@pytest.mark.parametrize("duplicates", list(DuplicatePolicy), ids=lambda policy: policy.value)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the fixtures are read only
@given(steps=st.lists(st.tuples(st.integers(0, 4), st.sampled_from((0, 300, 1000, 4000)), st.booleans()),
                      min_size=1, max_size=25))
def test_leaf_index_built_on_lookup_equals_an_eager_index(registry, trust, ca_root, duplicates, steps):
    """Lookups between merges answer as an index filled at every merge
    would: a repeated payload under ``REINSERT`` gives its first number, an
    unmerged one none. A log nobody looked up in keeps no index."""
    make = _cert_factory(registry)
    pool = [make() for _ in range(5)]
    leaves = [SHA256.hash_leaf(encode_artifact(cert)) for cert in pool]
    log = _make_log(registry, trust, duplicate_policy=duplicates, publication_delay="uniform:0:4000")
    now = 0
    for index, step, look_up in steps:
        now += step
        log.submit(pool[index], [ca_root], now)
        log.advance(now)
        if look_up:
            eager = _eager_index(log)
            assert [log.leaf_number(leaf) for leaf in leaves] == [eager.get(leaf) for leaf in leaves]
    if not any(look_up for _, _, look_up in steps):
        assert not log._number_by_leaf_hash
    log.advance(now + HOUR_MS)
    eager = _eager_index(log)
    assert [log.leaf_number(leaf) for leaf in leaves] == [eager.get(leaf) for leaf in leaves]
    view = LogView.from_text(log_snapshot_text(log))
    assert [view.leaf_number(leaf) for leaf in leaves] == [eager.get(leaf) for leaf in leaves]
    assert log.leaf_number(b"\x00" * 32) is view.leaf_number(b"\x00" * 32) is None


def test_reinserted_payload_keeps_its_first_number_across_lookups(registry, trust, ca_root, leaf_cert):
    log = _make_log(registry, trust, duplicate_policy=DuplicatePolicy.REINSERT, publication_delay="fixed:0")
    other = _cert_factory(registry)()
    leaf = SHA256.hash_leaf(encode_artifact(leaf_cert))
    assert log.leaf_number(leaf) is None
    log.submit(other, [ca_root], now=1)
    log.submit(leaf_cert, [ca_root], now=2)
    log.advance(2)
    assert log.leaf_number(leaf) == 1
    for now in (3, 4):
        log.submit(leaf_cert, [ca_root], now=now)
        log.advance(now)
        assert log.leaf_number(leaf) == 1
    assert len(log.entries) == 4
    assert log.get_proof_by_hash(leaf, 4) == log.audit_proof(1, 4)
