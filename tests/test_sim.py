"""Simulator: determinism, protocol ordering, actor behavior, scenario files."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from postcert.certs import PostcertScheme, TbsCertificate, TrustStore, make_postcertificate, sign_certificate
from postcert.crypto import KeyRegistry
from postcert.log import CtLog, LogConfig
from postcert.encoding import decode_artifact
from postcert.misbehavior import (
    MisbehaviorProofM12,
    MisbehaviorProofM3,
    MrdMode,
    MrdPolicy,
    SctDisclosureProof,
    proof_time,
    verify_m12,
    verify_m3,
    verify_proof,
    verify_sct_disclosure,
)
from postcert.presets import (
    PRESETS,
    build_preset,
    clock_skew,
    collisions,
    honest_random,
    log_forget,
    m1,
    m2,
    m3,
    normal_revocation,
    pathologies,
    single_fault,
)
from postcert.sim import (
    EVENT_BUDGET,
    CaMisbehavior,
    ProbeConfig,
    ScenarioError,
    ScheduledEvent,
    SimCaConfig,
    SimClientConfig,
    Simulation,
    _event_bound,
    _submission_attempts,
    scenario_from_text,
    scenario_to_text,
    validate_scenario,
)
from postcert.status import StatusKind
from postcert.timeutil import HOUR_MS, MINUTE_MS
from postcert.trace import EventKind, read_trace, trace_to_text

import io

from test_golden import SWEEP_WORLDS


def test_fixed_seed_trace_is_byte_identical():
    first = trace_to_text(Simulation(normal_revocation(seed=11)).run())
    second = trace_to_text(Simulation(normal_revocation(seed=11)).run())
    assert first == second


@pytest.mark.parametrize("make", [lambda: normal_revocation(seed=11), lambda: m3(seed=4)],
                         ids=["normal", "m3"])
def test_a_finished_simulation_is_freed_with_its_last_reference(make):
    """No reference cycle keeps a run's logs alive until a full collection."""
    import gc
    import weakref

    sim = Simulation(make())
    events = sim.run()
    logs = [weakref.ref(log) for log in sim.logs.values()]
    gone = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert gone() is None and all(log() is None for log in logs)
    finally:
        gc.enable()
    assert events


def test_a_finished_simulation_holds_no_artifact_buffer():
    """Every record is encoded into the returned events; the run keeps none."""
    sim = Simulation(m3(seed=4))
    events = sim.run()
    assert any(e.kind is EventKind.PROOF for e in events)
    assert not sim._trace and not sim._submission_events


def test_read_trace_shares_equal_actor_strings():
    text = trace_to_text(Simulation(normal_revocation(seed=4)).run())
    parsed = read_trace(io.StringIO(text))
    actors = {e.actor for e in parsed}
    assert {"probe", "ca1", "client1"} <= actors
    assert len({id(e.actor) for e in parsed}) == len(actors)


def test_different_seeds_differ():
    first = trace_to_text(Simulation(honest_random(seed=1)).run())
    second = trace_to_text(Simulation(honest_random(seed=2)).run())
    assert first != second


def test_trace_round_trips_through_text():
    events = Simulation(normal_revocation(seed=4)).run()
    text = trace_to_text(events)
    parsed = read_trace(io.StringIO(text))
    assert parsed == events


def test_normal_revocation_event_ordering():
    events = Simulation(normal_revocation(seed=7)).run()
    submits = [e for e in events if e.kind is EventKind.SUBMIT]
    scts = [e for e in events if e.kind is EventKind.SCT]
    discoveries = [e for e in events if e.kind is EventKind.DISCOVERY]
    revoked = [
        e for e in events
        if e.kind is EventKind.STATUS and e.artifact().value.kind is StatusKind.REVOKED
    ]
    assert submits and scts and discoveries and revoked
    sct = scts[0].artifact()
    first_revoked = revoked[0].artifact()
    assert submits[0].seq < scts[0].seq
    covering = [
        e for e in events
        if e.kind is EventKind.STH
        and e.artifact().sth.log_id == sct.log_id
        and e.artifact().sth.treesize > 0
    ]
    assert covering and covering[0].seq < discoveries[0].seq < revoked[0].seq
    assert first_revoked.t > sct.timestamp  # status strictly after earliest SCT


def test_honest_trace_has_no_violations_or_proofs():
    events = Simulation(normal_revocation(seed=3)).run()
    assert not [e for e in events if e.kind is EventKind.VIOLATION]
    proven = [e for e in events if e.kind is EventKind.PROOF and e.artifact().proven]
    assert not proven


@pytest.mark.parametrize(
    "factory,expected",
    [(m1, "M1"), (m2, "M2"), (m3, "M3"), (log_forget, "LOG_FORGET")],
)
def test_seeded_fault_detected_exactly(factory, expected):
    events = Simulation(factory(seed=5)).run()
    proven = {e.artifact().case for e in events if e.kind is EventKind.PROOF and e.artifact().proven}
    assert proven == {expected}


@pytest.mark.parametrize("seed,case", sorted(SWEEP_WORLDS, key=lambda k: (k[1] or "", k[0])))
def test_verify_proof_agrees_with_each_kind_verifier_on_sweep_worlds(seed, case):
    sim = Simulation(honest_random(seed) if case is None else single_fault(seed, case))
    records = [e.artifact() for e in sim.run() if e.kind is EventKind.PROOF]
    assert records or case is None
    policy, trusted, registry, readers = sim.scenario.policy, sim.trusted, sim.registry, dict(sim.logs)
    own = {
        MisbehaviorProofM12: lambda p: verify_m12(p, policy, trusted, registry),
        MisbehaviorProofM3: lambda p: verify_m3(p, policy, trusted, registry, readers),
        SctDisclosureProof: lambda p: verify_sct_disclosure(p, policy.mmd_ms, trusted, registry, readers),
    }
    for record in records:
        bundle = decode_artifact(record.bundle)
        verdict = verify_proof(bundle, policy, trusted, registry, readers)
        assert verdict == own[type(bundle)](bundle)
        assert (verdict.proven, verdict.reason or "") == (record.proven, record.reason)
        assert proof_time(bundle, policy) == record.t_proof


def test_m1_scenario_never_updates_status():
    events = Simulation(m1(seed=2)).run()
    revoked = [
        e for e in events
        if e.kind is EventKind.STATUS and e.artifact().value.kind is not StatusKind.GOOD
    ]
    assert not revoked


def test_m3_scenario_revokes_without_submission():
    events = Simulation(m3(seed=2)).run()
    assert not [e for e in events if e.kind is EventKind.SUBMIT]
    revoked = [
        e for e in events
        if e.kind is EventKind.STATUS and e.artifact().value.kind is StatusKind.REVOKED
    ]
    assert revoked


def test_both_policy_modes_run_clean():
    for mode in MrdMode:
        scenario = normal_revocation(seed=6, policy=None if mode is MrdMode.FROM_PUBLICATION
                                     else MrdPolicy(mode, mrd_ms=32 * HOUR_MS, mmd_ms=24 * HOUR_MS))
        events = Simulation(scenario).run()
        assert not [e for e in events if e.kind is EventKind.VIOLATION]


# -- multi-log submission

def _world():
    registry = KeyRegistry.with_signers(["ca1", "log1", "log2", "log3", "leaf"])
    root = sign_certificate(registry, "ca1", TbsCertificate(
        serial=0, subject="ca1", issuer="ca1",
        not_before=0, not_after=10**13, public_key_id="ca1",
    ))
    trust = TrustStore([root])
    cert = sign_certificate(registry, "ca1", TbsCertificate(
        serial=9, subject="s.example", issuer="ca1",
        not_before=0, not_after=10**13, public_key_id="leaf",
    ))
    post = make_postcertificate(cert, PostcertScheme.CA_ISSUED, registry)
    logs = [
        CtLog(f"log{i}", registry, trust, LogConfig(publication_delay="fixed:1000"), seed=i)
        for i in (1, 2, 3)
    ]
    return registry, trust, root, post, logs


def _accepted(attempts) -> list:
    return [sct for _, sct, _ in attempts if sct is not None]


def test_submission_attempts_collect_k_scts():
    registry, trust, root, post, logs = _world()
    attempts = list(_submission_attempts(post, [root], logs, 3, 1000))
    assert len({s.log_id for s in _accepted(attempts)}) == 3
    assert [error for _, _, error in attempts] == ["", "", ""]


def test_submission_attempts_proceed_past_rejections():
    registry, trust, root, post, logs = _world()
    logs[0].freeze()
    attempts = list(_submission_attempts(post, [root], logs, 2, 1000))
    assert [(log_id, error) for log_id, sct, error in attempts if sct is None] == [("log1", "log-frozen")]
    assert {s.log_id for s in _accepted(attempts)} == {"log2", "log3"}


# -- CA monitoring

def test_monitor_discovery_within_poll_interval():
    scenario = normal_revocation(seed=8)
    sim = Simulation(scenario)
    events = sim.run()
    discoveries = [e.artifact() for e in events if e.kind is EventKind.DISCOVERY]
    assert discoveries
    first = discoveries[0]
    log = sim.logs[first.log_id]
    publish_t = None
    for number, entry in enumerate(log.entries):
        if entry.payload and number == first.entry_number:
            publish_t = log.merge_time_ref(number)
    assert publish_t is not None
    poll = scenario.cas[0].poll_interval_ms
    assert publish_t <= first.t <= publish_t + poll + 1


def test_foreign_postcertificates_ignored():
    base = normal_revocation(seed=9)
    extra_ca = SimCaConfig("ca2", poll_interval_ms=10 * MINUTE_MS)
    scenario = dataclasses.replace(base, cas=base.cas + (extra_ca,))
    events = Simulation(scenario).run()
    discoveries = [e.artifact() for e in events if e.kind is EventKind.DISCOVERY]
    assert discoveries
    assert all(d.ca_id == "ca1" for d in discoveries)


def test_sct_handoff_updates_before_publication():
    base = normal_revocation(seed=10)
    slow_logs = tuple(
        dataclasses.replace(
            l, config=dataclasses.replace(l.config, publication_delay=f"fixed:{4 * HOUR_MS}",
                                          update_class=l.config.update_class)
        )
        for l in base.logs
    )
    client = dataclasses.replace(base.clients[0], sct_handoff=True, handoff_delay_ms=MINUTE_MS)
    scenario = dataclasses.replace(base, logs=slow_logs, clients=(client,))
    sim = Simulation(scenario)
    events = sim.run()
    discoveries = [e.artifact() for e in events if e.kind is EventKind.DISCOVERY]
    assert [d for d in discoveries if d.via == "sct-handoff"]
    # the SCT fast path: the handoff is the publication leg, and no monitor discovery
    c = next(c for c in sim.certs.values() if c.t_handoff is not None)
    assert sim._breakdown_for(c).components == (c.t_handoff - c.t_first_submit, 0, c.t_update - c.t_handoff)
    revoked = [
        e for e in events
        if e.kind is EventKind.STATUS and e.artifact().value.kind is StatusKind.REVOKED
    ]
    submit = [e for e in events if e.kind is EventKind.SUBMIT][0]
    # status update happened before the 4-hour publication delay elapsed
    assert revoked[0].t_ref < submit.t_ref + 4 * HOUR_MS


def test_frozen_log_event_and_fallback():
    base = normal_revocation(seed=12)
    schedule = (ScheduledEvent(30 * MINUTE_MS, "freeze-log", {"log": "log-a"}),) + base.schedule
    scenario = dataclasses.replace(base, schedule=schedule)
    events = Simulation(scenario).run()
    submits = [e.artifact() for e in events if e.kind is EventKind.SUBMIT]
    rejected = [s for s in submits if not s.ok]
    accepted = [s for s in submits if s.ok]
    assert rejected and rejected[0].log_id == "log-a"
    assert rejected[0].error == "log-frozen"
    assert len(accepted) == 2  # revocation still proceeds via other logs
    revoked = [
        e for e in events
        if e.kind is EventKind.STATUS and e.artifact().value.kind is StatusKind.REVOKED
    ]
    assert revoked


@pytest.mark.parametrize("accept", [True, False], ids=["self-signed-logs", "standard-logs"])
def test_self_signed_postcertificate_is_logged_only_where_accepted(accept):
    """A holder's self-signed postcertificate (the second scheme) revokes
    through logs that accept it; standard logs reject its chain, so the CA
    sees no request and no proof holds."""
    base = normal_revocation(seed=5)
    logs = tuple(dataclasses.replace(log, config=dataclasses.replace(log.config, accept_self_signed=accept))
                 for log in base.logs)
    clients = (dataclasses.replace(base.clients[0], scheme=PostcertScheme.SELF_SIGNED),)
    scenario = dataclasses.replace(base, logs=logs, clients=clients)
    events = Simulation(scenario).run()
    submits = [e.artifact() for e in events if e.kind is EventKind.SUBMIT]
    statuses = [e.artifact().value.kind for e in events if e.kind is EventKind.STATUS]
    proofs = [e.artifact() for e in events if e.kind is EventKind.PROOF]
    if accept:
        assert [(s.log_id, s.ok) for s in submits] == [("log-a", True), ("log-b", True)]
        assert statuses[-1] is StatusKind.REVOKED
    else:
        assert [(s.log_id, s.error) for s in submits] == [
            ("log-a", "chain-rejected"), ("log-b", "chain-rejected"), ("log-c", "chain-rejected")]
        assert set(statuses) == {StatusKind.GOOD}
        assert not any(p.proven for p in proofs)
    parsed = scenario_from_text(scenario_to_text(scenario))
    assert trace_to_text(Simulation(parsed).run()) == trace_to_text(events)


def test_revocation_every_log_rejects_is_traced_not_raised():
    base = normal_revocation(seed=12)
    freezes = tuple(
        ScheduledEvent(30 * MINUTE_MS, "freeze-log", {"log": log.log_id}) for log in base.logs
    )
    events = Simulation(dataclasses.replace(base, schedule=freezes + base.schedule)).run()
    submits = [e.artifact() for e in events if e.kind is EventKind.SUBMIT]
    assert [(s.log_id, s.ok, s.error) for s in submits] == [
        ("log-a", False, "log-frozen"), ("log-b", False, "log-frozen"), ("log-c", False, "log-frozen"),
    ]
    assert not [e for e in events if e.kind is EventKind.SCT]


def test_honest_revoke_direct_every_log_rejects_is_traced_not_raised():
    """An honest CA whose every submission is rejected holds no evidence, so
    it makes no update and keeps serving GOOD."""
    base = normal_revocation(seed=12)
    freezes = tuple(
        ScheduledEvent(30 * MINUTE_MS, "freeze-log", {"log": log.log_id}) for log in base.logs
    )
    schedule = freezes + tuple(
        ScheduledEvent(5 * HOUR_MS, "revoke-direct", {"serial": "1"}) if e.kind == "revoke-request" else e
        for e in base.schedule
    )
    events = Simulation(dataclasses.replace(base, schedule=schedule)).run()
    submits = [e.artifact() for e in events if e.kind is EventKind.SUBMIT]
    assert submits and {(s.ok, s.error) for s in submits} == {(False, "log-frozen")}
    statuses = [e.artifact() for e in events if e.kind is EventKind.STATUS]
    assert statuses and all(
        s.value.kind is StatusKind.GOOD for s in statuses if s.cert_ref.serial == 1
    )


def test_drop_entry_produces_sct_without_publication():
    base = log_forget(seed=13)
    events = Simulation(base).run()
    proven = {e.artifact().case for e in events if e.kind is EventKind.PROOF and e.artifact().proven}
    assert proven == {"LOG_FORGET"}


# -- scenario validation and files

def test_validate_rejects_duplicate_ids():
    base = normal_revocation(seed=1)
    duped = dataclasses.replace(base, cas=base.cas + (SimCaConfig("ca1"),))
    with pytest.raises(ScenarioError):
        validate_scenario(duped)


def test_validate_rejects_unknown_event_kind():
    base = normal_revocation(seed=1)
    bad = dataclasses.replace(base, schedule=(ScheduledEvent(1, "explode", {}),))
    with pytest.raises(ScenarioError):
        validate_scenario(bad)


@pytest.mark.parametrize("event", [
    ScheduledEvent(HOUR_MS, "issue", {"ca": "ca1", "client": "nobody", "serial": "2"}),
    ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "nobody", "serial": "1"}),
    ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "client1", "serial": "2"}),
    ScheduledEvent(5 * HOUR_MS, "revoke-direct", {"serial": "2"}),
    ScheduledEvent(HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "abc"}),
    ScheduledEvent(HOUR_MS, "issue", {"ca": "ca1", "client": "client1"}),
    ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "client1", "serial": "1", "k": "two"}),
    ScheduledEvent(5 * HOUR_MS, "revoke-direct", {"serial": "1", "delivery": "1h"}),
    ScheduledEvent(5 * HOUR_MS, "revoke-direct", {"serial": "1", "delivery": str(-2 * HOUR_MS)}),
    ScheduledEvent(5 * HOUR_MS, "drop-entry", {"log": "log-a", "serial": "x"}),
])
def test_validate_rejects_malformed_events(event):
    base = normal_revocation(seed=1)
    with pytest.raises(ScenarioError):
        validate_scenario(dataclasses.replace(base, schedule=base.schedule + (event,)))


def test_validate_rejects_unknown_monitored_or_probed_log():
    base = normal_revocation(seed=1)
    with pytest.raises(ScenarioError):
        validate_scenario(dataclasses.replace(base, probe=ProbeConfig(logs=("nope",))))


def test_validate_rejects_revocation_before_issue():
    """A revocation scheduled before (or at the same time as, but listed
    before) the issue that gives out its serial is rejected."""
    base = normal_revocation(seed=1)
    issue = next(e for e in base.schedule if e.kind == "issue")
    revoke = ScheduledEvent(issue.t, "revoke-request", {"client": "client1", "serial": "1"})
    with pytest.raises(ScenarioError):
        validate_scenario(dataclasses.replace(base, schedule=(revoke, issue)))
    validate_scenario(dataclasses.replace(base, schedule=(issue, revoke)))


def _two_ca_scenario(second_serial: str):
    """``normal`` plus a CA ``ca2`` that issues ``second_serial`` to
    ``client2`` at 2 h, which client2 asks to revoke through the logs at 6 h."""
    base = normal_revocation(seed=1)
    issue = {"ca": "ca2", "client": "client2", "serial": second_serial}
    return dataclasses.replace(
        base,
        cas=base.cas + (SimCaConfig("ca2"),),
        clients=base.clients + (SimClientConfig("client2"),),
        schedule=base.schedule + (
            ScheduledEvent(2 * HOUR_MS, "issue", issue),
            ScheduledEvent(6 * HOUR_MS, "revoke-request", {"client": "client2", "serial": second_serial}),
        ),
    )


def test_validate_rejects_a_serial_issued_by_two_cas():
    """A serial names one certificate: a second issue of it, even by another
    CA to another client, is refused rather than run with one shared record."""
    with pytest.raises(ScenarioError, match="serial 1 already issued"):
        validate_scenario(_two_ca_scenario("1"))


def test_simulate_refuses_a_serial_issued_by_two_cas(tmp_path, capsys):
    from postcert import cli

    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(_two_ca_scenario("1")))
    assert cli.main(["simulate", "--scenario", str(scenario_file)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: invalid-scenario: ")


def test_each_ca_certificate_gets_its_own_delay_breakdown():
    sim = Simulation(_two_ca_scenario("2"))
    sim.run()
    assert [(c.serial, c.ca_id) for c in sim.certs.values()] == [(1, "ca1"), (2, "ca2")]
    assert [c.t_request for c in sim.certs.values()] == [5 * HOUR_MS, 6 * HOUR_MS]
    for cert in sim.certs.values():
        assert cert.t_first_submit == cert.t_request
        assert sim._breakdown_for(cert) is not None


def test_validate_rejects_nonpositive_horizon():
    base = normal_revocation(seed=1)
    with pytest.raises(ScenarioError):
        validate_scenario(dataclasses.replace(base, horizon_ms=0))


def test_scenario_text_round_trip():
    for factory in (normal_revocation, m1, m3, clock_skew, collisions):
        scenario = factory(seed=17)
        text = scenario_to_text(scenario)
        parsed = scenario_from_text(text)
        assert parsed == scenario


# sha256 over scenario_to_text of every preset at seeds 0-29 (presets in name
# order), then single_fault M1, M2 and M3 at seeds 0-49: the texts the
# hand-written codec wrote, less the fields operator, trusted, frozen,
# monitors, avoid_issuer and check_bounds, which no world set
SCENARIO_TEXT_DIGEST = "3fe5d34cb42b7856bf042e99a9abb72a062c6d82906ebe5d552e997d4d9bc386"


def test_scenario_text_is_pinned_and_round_trips():
    from postcert.presets import PRESETS

    scenarios = [build_preset(name, seed) for name in sorted(PRESETS) for seed in range(30)]
    scenarios += [single_fault(seed, case) for case in ("M1", "M2", "M3") for seed in range(50)]
    digest = hashlib.sha256()
    for scenario in scenarios:
        text = scenario_to_text(scenario)
        digest.update(text.encode())
        assert scenario_from_text(text) == scenario
    assert digest.hexdigest() == SCENARIO_TEXT_DIGEST


def test_scenario_file_runs_identically():
    scenario = normal_revocation(seed=19)
    parsed = scenario_from_text(scenario_to_text(scenario))
    assert trace_to_text(Simulation(scenario).run()) == trace_to_text(Simulation(parsed).run())


def test_build_preset_rejects_unknown_name():
    with pytest.raises(KeyError):
        build_preset("nonsense", seed=0)


def test_single_fault_preserves_honest_world_shape():
    honest = honest_random(seed=23)
    faulted = single_fault(seed=23, case="M1")
    assert faulted.logs == honest.logs
    assert faulted.policy == honest.policy
    assert faulted.cas[0].misbehavior is CaMisbehavior.M1_SKIP_UPDATE


def test_delay_breakdown_finds_the_first_logged_postcert_of_its_serial():
    from postcert.certs import Postcertificate

    checked = 0
    for seed in range(12):
        sim = Simulation(honest_random(seed))
        sim.run()
        for m in sim.certs.values():
            if m.pathway != "POSTCERT" or m.t_update is None or m.t_discovery is None:
                continue
            if m.t_handoff is not None and m.t_handoff <= m.t_discovery:
                continue
            log = sim.logs[m.discovery_log]
            first = next(
                number for number, entry in enumerate(log.entries)
                if isinstance(post := entry.decoded(), Postcertificate)
                and (post.tbs.serial, post.tbs.issuer) == (m.serial, m.ca_id)
            )
            breakdown = sim._breakdown_for(m)
            assert breakdown.components == (
                log.merge_time_ref(first) - m.t_first_submit,
                m.t_discovery - log.merge_time_ref(first),
                m.t_update - m.t_discovery,
            )
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_event_budget_admits_every_preset_and_bounds_its_events(name):
    """Each preset, ``pathologies`` at its default 10 000 probes included,
    fits the budget at seeds of every test range and of the benchmark; a
    short run schedules no more events than the bound, Poisson noise aside."""
    for seed in (0, 7, 999, 10_000, 50_199, 1_000_000, 1_009_999):
        assert _event_bound(build_preset(name, seed)) <= EVENT_BUDGET / 5
    scenario = pathologies(3, probes=300) if name == "pathologies" else build_preset(name, 3)
    sim = Simulation(scenario)
    sim.run()
    assert sim._heap_seq <= 1.05 * _event_bound(scenario)


@pytest.mark.parametrize("change", [
    dict(horizon_ms=10**12),
    dict(probe=ProbeConfig(sth_interval_ms=1)),
    dict(cas=(SimCaConfig("ca1", poll_interval_ms=100),)),
], ids=["horizon", "probe-sth", "ca-poll"])
def test_event_budget_refuses_unbounded_work(change):
    scenario = dataclasses.replace(m1(seed=0), **change)
    with pytest.raises(ScenarioError, match="over the budget"):
        validate_scenario(scenario)
