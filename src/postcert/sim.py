"""Deterministic discrete-event simulation of CAs, clients, logs and monitors.

One virtual reference clock drives a min-heap event loop; every actor sees
reference time plus its configured offset, and every random draw comes from a
per-actor generator seeded from the scenario seed, so a scenario replays
byte-for-byte. Honest actors follow the protocol (submit the postcertificate,
monitor logs, update the status before the deadline, timestamp the revoked
status after the earliest SCT); a misbehaving actor realizes exactly its
configured deviation and nothing else.

Every periodic actor (status refreshes, CA polls, background load and the
probe's tree-head, size and submission ticks) is one ``Simulation.loop``: a
tick runs, returns the delay to its next run or None to stop, and the run
ends at the first event past the horizon. Every traced submission, a
client's, a CA's or the probe's, walks the candidate logs through
``_submission_attempts``, so a rejection becomes an error code in one place.

Each issued certificate is one ``_Cert`` record in ``Simulation.certs``,
keyed by serial: its certificate, postcertificate and chain, the status
value, evidence and latest SCT time its CA keeps, and the times of its
revocation request, submission, discovery and update that the delay audit
reads. ``validate_scenario`` refuses a serial issued twice, by any CA, so a
serial names one certificate.

At the horizon the run audits itself: measured delay breakdowns go through
the bound checker and, unless the scenario turns proofs off, a third-party
monitor view of the trace is fed to the misbehavior proof builders.
Violations and proof attempts land in the trace alongside the protocol
events.

The scenario file format comes from one declaration: each field of a line
kind is one row, which ``scenario_to_text`` writes and ``scenario_from_text``
reads.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
import weakref
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from typing import Any

from .certs import (
    CertRef,
    Certificate,
    Postcertificate,
    PostcertScheme,
    TbsCertificate,
    TrustStore,
    encode_payload,
    is_postcert_payload,
    make_postcertificate,
    sign_certificate,
)
from .crypto import KeyRegistry, SHA256
from .encoding import FieldLine, ScenarioError, canonical_int, encode_artifact, fields_line
from .log import CtLog, DuplicatePolicy, LogConfig, LogError, SCT, SthCacheMode, UpdateClass
from .misbehavior import (
    Case,
    InsufficientEvidenceError,
    MrdMode,
    MrdPolicy,
    TrustedLogSet,
    build_proof,
    proof_time,
    verify_proof,
)
from .probe import binary_search_size
from .status import (
    VALIDITY_MAX_MS,
    VALIDITY_MIN_MS,
    StatusValue,
    issue_status,
    status_update_deadline,
)
from .delays import DelayBreakdown, check_bounds
from .timeutil import DAY_MS, HOUR_MS, MINUTE_MS, SECOND_MS
from .trace import (
    DiscoveryRecord,
    EventKind,
    ProofRecord,
    SthObservation,
    SubmissionRecord,
    TraceEvent,
    ViolationRecord,
    observations,
)

CERT_LIFETIME_MS = 400 * DAY_MS
_BACKGROUND_SERIAL_BASE = 1_000_000


def _root_cert(registry: KeyRegistry, name: str) -> Certificate:
    """Self-issued root certificate of the signer ``name``."""
    tbs = TbsCertificate(serial=0, subject=name, issuer=name, not_before=0,
                         not_after=CERT_LIFETIME_MS * 4, public_key_id=name)
    return sign_certificate(registry, name, tbs)


class CaMisbehavior(enum.Enum):
    NONE = "NONE"
    M1_SKIP_UPDATE = "M1_SKIP_UPDATE"
    M2_WRONG_STATUS = "M2_WRONG_STATUS"
    M3_EARLY_REVOKE = "M3_EARLY_REVOKE"


@dataclass(frozen=True)
class SimLogConfig:
    log_id: str
    config: LogConfig = field(default_factory=LogConfig)
    background_per_hour: float = 0.0


@dataclass(frozen=True)
class SimCaConfig:
    ca_id: str
    poll_interval_ms: int = 10 * MINUTE_MS
    status_validity_ms: int = 10 * HOUR_MS
    update_delay_ms: int = 30 * MINUTE_MS
    processing_delay_ms: int = 1 * HOUR_MS
    clock_offset_ms: int = 0
    misbehavior: CaMisbehavior = CaMisbehavior.NONE


@dataclass(frozen=True)
class SimClientConfig:
    client_id: str
    submit_copies: int = 2
    sct_handoff: bool = False
    handoff_delay_ms: int = MINUTE_MS
    scheme: PostcertScheme = PostcertScheme.CA_ISSUED


@dataclass(frozen=True)
class ProbeConfig:
    sth_interval_ms: int = 10 * SECOND_MS
    size_interval_ms: int = 0
    submit_interval_ms: int = 0
    submit_limit: int = 0  # per log; 0 means unlimited
    logs: tuple[str, ...] = ()  # empty means all scenario logs


@dataclass(frozen=True)
class ScheduledEvent:
    t: int
    kind: str
    params: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    horizon_ms: int
    policy: MrdPolicy
    logs: tuple[SimLogConfig, ...]
    cas: tuple[SimCaConfig, ...]
    clients: tuple[SimClientConfig, ...]
    probe: ProbeConfig | None = None
    schedule: tuple[ScheduledEvent, ...] = ()
    build_proofs: bool = True


# A clock reading of a run is a sum of a few scenario times (a tick time and
# an interval, a log time and an offset, a status time and its validity), far
# fewer than 2**7 of them, so with each time bounded by 2**56 every reading
# fits the signed 64-bit fields and the logs' packed time columns.
_TIME_LIMIT_MS = 2**56

# The most events a scenario may ask for, as ``_event_bound`` counts them.
# The largest preset, ``pathologies`` at its default 10 000 probes, asks for
# 120 012 (three logs of 1 200 background arrivals an hour over 27.8 hours,
# and 10 001 tree-head and 10 001 size ticks); the ceiling leaves a margin of
# about eight times that. At the 25-45 us an event of that preset takes on a
# 2-core x86 host, a run at the ceiling ends in under a minute.
EVENT_BUDGET = 1_000_000


def _event_bound(scenario: Scenario) -> float:
    """Events a run of a valid ``scenario`` schedules, in closed form: the
    horizon over the period of each periodic actor (CA polls, each issued
    certificate's status refresh, PERIODIC log ticks and probe ticks), plus
    each log's background rate times the horizon, plus the schedule."""
    horizon = scenario.horizon_ms
    periods = [ca.poll_interval_ms for ca in scenario.cas]
    periods += [log.config.update_interval_ms for log in scenario.logs
                if log.config.update_class is UpdateClass.PERIODIC]
    refresh = {ca.ca_id: status_update_deadline(ca.status_validity_ms) for ca in scenario.cas}
    periods += [refresh[event.params["ca"]] for event in scenario.schedule if event.kind == "issue"]
    probe = scenario.probe
    if probe:
        periods += [p for p in (probe.sth_interval_ms, probe.size_interval_ms, probe.submit_interval_ms) if p]
    background = sum(log.background_per_hour for log in scenario.logs) * horizon / HOUR_MS
    return sum(horizon / period for period in periods) + background + len(scenario.schedule)


def validate_scenario(scenario: Scenario) -> None:
    for where, value in _times(scenario):
        if not -_TIME_LIMIT_MS <= value <= _TIME_LIMIT_MS:
            raise ScenarioError(f"invalid-scenario: {where} {value} outside -2**56..2**56 ms")
    if scenario.horizon_ms <= 0:
        raise ScenarioError("invalid-scenario: horizon must be positive")
    ids: set[str] = set()
    actor_ids = [l.log_id for l in scenario.logs] + [c.ca_id for c in scenario.cas]
    for actor_id in actor_ids + [c.client_id for c in scenario.clients]:
        if not actor_id or actor_id in ids:
            raise ScenarioError(f"invalid-scenario: empty or duplicate actor id {actor_id!r}")
        ids.add(actor_id)
    if not scenario.logs:
        raise ScenarioError("invalid-scenario: at least one log required")
    for log in scenario.logs:
        if not (math.isfinite(log.background_per_hour) and log.background_per_hour >= 0):
            raise ScenarioError(f"invalid-scenario: log {log.log_id}: background must be finite and >= 0")
    for ca in scenario.cas:
        if ca.poll_interval_ms <= 0:
            raise ScenarioError(f"invalid-scenario: ca {ca.ca_id}: poll interval must be positive")
        if not VALIDITY_MIN_MS <= ca.status_validity_ms <= VALIDITY_MAX_MS:
            raise ScenarioError(f"invalid-scenario: ca {ca.ca_id}: status validity outside "
                                f"{VALIDITY_MIN_MS}..{VALIDITY_MAX_MS} ms")
        if min(ca.update_delay_ms, ca.processing_delay_ms) < 0:
            raise ScenarioError(f"invalid-scenario: ca {ca.ca_id}: negative update or processing delay")
    for client in scenario.clients:
        if client.handoff_delay_ms < 0:
            raise ScenarioError(f"invalid-scenario: client {client.client_id}: negative handoff delay")
    probe = scenario.probe
    if probe and (probe.sth_interval_ms <= 0 or min(probe.size_interval_ms, probe.submit_interval_ms) < 0):
        raise ScenarioError("invalid-scenario: probe sth interval must be positive, size and submit >= 0")
    log_ids = {l.log_id for l in scenario.logs}
    if probe and not log_ids.issuperset(probe.logs):
        raise ScenarioError(f"invalid-scenario: unknown log in {','.join(probe.logs)}")
    client_ids = {c.client_id for c in scenario.clients}
    ca_ids = {c.ca_id for c in scenario.cas}
    holders: dict[int, str] = {}  # serial -> client, for the serials issued so far
    revocations: dict[int, str] = {}  # serial -> kind of its revocation requests so far
    # in run order: by time, ties in schedule order
    for event in sorted(scenario.schedule, key=lambda e: e.t):
        params, where = event.params, f"invalid-scenario: {event.kind} at t={event.t}"
        if event.t < 0 or event.t > scenario.horizon_ms:
            raise ScenarioError(f"invalid-scenario: event at t={event.t} outside horizon")
        if event.kind not in ("issue", "revoke-request", "revoke-direct", "freeze-log", "drop-entry"):
            raise ScenarioError(f"invalid-scenario: unknown event kind {event.kind!r}")
        try:
            ints = {key: canonical_int(params[key]) for key in ("serial", "k", "delivery") if key in params}
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        if any(value < 0 for value in ints.values()):
            raise ScenarioError(f"{where}: negative value in {ints}")
        serial = ints.get("serial")
        if serial is None and event.kind != "freeze-log":
            raise ScenarioError(f"{where}: no serial")
        client = params.get("client")
        if event.kind in ("issue", "revoke-request") and client not in client_ids:
            raise ScenarioError(f"{where}: unknown client {client!r}")
        if event.kind in ("freeze-log", "drop-entry") and params.get("log") not in log_ids:
            raise ScenarioError(f"{where}: unknown log {params.get('log')!r}")
        if event.kind == "issue":
            if params.get("ca") not in ca_ids:
                raise ScenarioError(f"{where}: unknown ca {params.get('ca')!r}")
            # a serial names one certificate: the simulator keys its record by it
            if serial in holders:
                raise ScenarioError(f"{where}: serial {serial} already issued")
            holders[serial] = client
        elif event.kind == "revoke-request" and holders.get(serial) != client:
            raise ScenarioError(f"{where}: client {client} holds no certificate {serial}")
        elif event.kind == "revoke-direct" and serial not in holders:
            raise ScenarioError(f"{where}: no issuer for serial {serial}")
        if event.kind in ("revoke-request", "revoke-direct"):
            # a direct revocation and any other request would both set the
            # certificate's revocation times; requests through the logs may repeat
            if serial in revocations and "revoke-direct" in (revocations[serial], event.kind):
                raise ScenarioError(f"{where}: serial {serial} already has a revocation request")
            revocations[serial] = event.kind
    bound = _event_bound(scenario)
    if bound > EVENT_BUDGET:
        raise ScenarioError(f"invalid-scenario: about {bound:.3g} events, over the budget of {EVENT_BUDGET}")


def derive_seed(seed: int, label: str) -> str:
    return f"{seed}:{label}"


def _submission_attempts(
    payload: Certificate | Postcertificate,
    chain: list[Certificate],
    logs: list[CtLog],
    k: int,
    now: int,
) -> Iterator[tuple[str, SCT | None, str]]:
    """Submit ``payload`` to the logs in order until ``k`` accept or the
    logs run out. Yields each attempt as (log id, SCT, "") or (log id, None,
    error code).
    """
    accepted = 0
    for log in logs:
        if accepted >= k:
            break
        try:
            sct = log.submit(payload, chain, now)
        except LogError as exc:
            yield log.log_id, None, exc.code
            continue
        accepted += 1
        yield log.log_id, sct, ""


def _holder_key(client: str, serial: int) -> str:
    """Key id of the holder of certificate ``serial`` issued to ``client``."""
    return f"{client}/{serial}"


@dataclass
class _Cert:
    """One issued certificate: what its CA issued, the status the CA keeps
    for it and the times of its revocation that the delay audit reads."""

    serial: int
    ca_id: str
    cert: Certificate
    postcert: Postcertificate
    chain: list[Certificate]
    value: StatusValue = field(default_factory=StatusValue.good)
    evidence: object = None  # the first SCT or log entry the CA acted on
    latest_sct_ts: int = 0  # the latest SCT timestamp the CA has seen
    handled: bool = False  # the CA has acted on a revocation
    pathway: str = "POSTCERT"
    t_request: int | None = None
    t_receive: int | None = None
    t_processed: int | None = None
    t_first_submit: int | None = None
    t_handoff: int | None = None
    discovery_log: str | None = None
    t_discovery: int | None = None
    t_update: int | None = None


class _CaActor:
    def __init__(self, sim: "Simulation", config: SimCaConfig) -> None:
        self.sim = weakref.proxy(sim)  # no cycle: a dropped simulation is freed at once
        self.config = config
        self.ca_id = config.ca_id
        self.cursors: dict[str, int] = {}
        self.refresh_ms = status_update_deadline(config.status_validity_ms)
        self.root_cert = _root_cert(sim.registry, self.ca_id)

    def clock(self, t_ref: int) -> int:
        return t_ref + self.config.clock_offset_ms

    # -- certificate lifecycle

    def issue(self, client: SimClientConfig, serial: int, now: int) -> None:
        tbs = TbsCertificate(
            serial=serial,
            subject=f"{client.client_id}.example",
            issuer=self.ca_id,
            not_before=now,
            not_after=now + CERT_LIFETIME_MS,
            public_key_id=_holder_key(client.client_id, serial),
        )
        cert = sign_certificate(self.sim.registry, self.ca_id, tbs)
        postcert = make_postcertificate(cert, client.scheme, self.sim.registry)
        chain = [self.root_cert] if client.scheme is PostcertScheme.CA_ISSUED else [cert, self.root_cert]
        record = self.sim.certs[serial] = _Cert(serial, self.ca_id, cert, postcert, chain)
        self._emit_status(record, now)
        self.sim.loop(now + self.refresh_ms, lambda t: self._refresh(record, t))

    def _refresh(self, cert: _Cert, now: int) -> int:
        self._emit_status(cert, now)
        return self.refresh_ms

    def _emit_status(self, cert: _Cert, now: int, *, t_override: int | None = None) -> None:
        honest = self.config.misbehavior is not CaMisbehavior.M3_EARLY_REVOKE
        status = issue_status(
            self.sim.registry,
            self.ca_id,
            CertRef(self.ca_id, cert.serial),
            cert.value,
            t_override if t_override is not None else self.clock(now),
            self.config.status_validity_ms,
            evidence=cert.evidence,
            honest=honest,
        )
        self.sim.emit(now, self.ca_id, EventKind.STATUS, status)

    # -- monitoring

    def monitor_tick(self, now: int) -> int:
        """Fetch new entries from every log and react to postcertificates
        for certificates this CA issued; returns the delay to the next poll."""
        for log_id, log in self.sim.logs.items():
            cursor = self.cursors.get(log_id, 0)
            size = log.published_size(now)
            if size <= cursor:
                continue
            for entry in log.get_entries(cursor, size - 1):
                if not is_postcert_payload(entry.payload):
                    continue
                payload = entry.decoded()
                if payload.tbs.issuer != self.ca_id:
                    continue
                cert = self.sim.certs.get(payload.tbs.serial)
                if cert is None or cert.ca_id != self.ca_id:
                    continue
                record = DiscoveryRecord(self.ca_id, log_id, entry.number, now, via="poll")
                self.sim.emit(now, self.ca_id, EventKind.DISCOVERY, record)
                cert.latest_sct_ts = max(cert.latest_sct_ts, entry.t_submission)
                if cert.evidence is None:
                    cert.evidence = entry
                if cert.t_discovery is None:
                    cert.t_discovery = now
                    cert.discovery_log = log_id
                self._maybe_schedule_update(cert, now)
            self.cursors[log_id] = size
        return self.config.poll_interval_ms

    def on_sct_handoff(self, cert: _Cert, scts: list[SCT], now: int) -> None:
        record = DiscoveryRecord(self.ca_id, scts[0].log_id, 0, now, via="sct-handoff")
        self.sim.emit(now, self.ca_id, EventKind.DISCOVERY, record)
        if cert.t_handoff is None:
            cert.t_handoff = now
        self._on_scts(cert, scts, now)

    def _on_scts(self, cert: _Cert, scts: list[SCT], now: int) -> None:
        """Take SCTs for ``cert`` as revocation evidence; without any there
        is no evidence and no update."""
        if not scts:
            return
        cert.latest_sct_ts = max(cert.latest_sct_ts, *(sct.timestamp for sct in scts))
        if cert.evidence is None:
            cert.evidence = scts[0]
        self._maybe_schedule_update(cert, now)

    def _maybe_schedule_update(self, cert: _Cert, now: int) -> None:
        if cert.handled:
            return
        cert.handled = True
        if self.config.misbehavior is CaMisbehavior.M1_SKIP_UPDATE:
            return  # keeps re-issuing GOOD on the refresh cycle
        wrong = self.config.misbehavior is CaMisbehavior.M2_WRONG_STATUS
        self.sim.schedule(
            now + self.config.update_delay_ms,
            lambda t: self._apply_update(cert, t, wrong=wrong),
        )

    def _apply_update(self, cert: _Cert, now: int, *, wrong: bool) -> None:
        if wrong:
            cert.value = StatusValue.unknown()
        else:
            ext = cert.postcert.revocation_ext
            cert.value = StatusValue.revoked(ext.reason_code, ext.invalidation_date)
        # Revoked statuses must be timestamped after the earliest SCT issued
        # for the postcertificate, whatever the clock skew.
        t_status = max(self.clock(now), cert.latest_sct_ts + 1)
        self._emit_status(cert, now, t_override=t_status)
        if cert.t_update is None:
            cert.t_update = now

    # -- direct (current-pathway) revocation requests

    def on_direct_request(self, cert: _Cert, now: int) -> None:
        cert.pathway = "CURRENT"
        cert.t_receive = now
        self.sim.schedule(now + self.config.processing_delay_ms, lambda t: self._process_direct(cert, t))

    def _process_direct(self, cert: _Cert, now: int) -> None:
        cert.t_processed = now
        if self.config.misbehavior is CaMisbehavior.M3_EARLY_REVOKE:
            # Skips the mandatory postcertificate submission entirely.
            if not cert.handled:
                cert.handled = True
                cert.value = StatusValue.revoked(cert.postcert.revocation_ext.reason_code)
                self._emit_status(cert, now)
                if cert.t_update is None:
                    cert.t_update = now
            return
        # Honest flow: submit the postcertificate first, then update.
        self._on_scts(cert, self.sim.submit_postcert(self.ca_id, cert, 2, now), now)


class Simulation:
    def __init__(self, scenario: Scenario) -> None:
        validate_scenario(scenario)
        self.scenario = scenario
        signers = (
            [l.log_id for l in scenario.logs]
            + [c.ca_id for c in scenario.cas]
            + ["background-ca", "background-key", "probe-ca", "probe-key"]
        )
        for event in scenario.schedule:
            if event.kind == "issue":
                signers.append(_holder_key(event.params["client"], int(event.params["serial"])))
        self.registry = KeyRegistry.with_signers(signers)
        self.trust = TrustStore()
        self.certs: dict[int, _Cert] = {}  # by serial, which names one certificate
        self._events: list[tuple[int, int, object]] = []
        self._heap_seq = 0
        self._trace: list[tuple[int, str, EventKind, object]] = []
        self._bg_serial = _BACKGROUND_SERIAL_BASE
        self._probe_serial = 0
        self._submission_events: list[int] = []  # trace indexes needing entry resolution

        self.background_root = _root_cert(self.registry, "background-ca")
        self.trust.add(self.background_root)
        self.probe_root = _root_cert(self.registry, "probe-ca")
        self.trust.add(self.probe_root)

        self.cas: dict[str, _CaActor] = {}
        for ca_config in scenario.cas:
            actor = _CaActor(self, ca_config)
            self.cas[ca_config.ca_id] = actor
            self.trust.add(actor.root_cert)
        self.clients = {c.client_id: c for c in scenario.clients}
        self.logs: dict[str, CtLog] = {}
        for sim_log in scenario.logs:
            self.logs[sim_log.log_id] = CtLog(
                sim_log.log_id,
                self.registry,
                self.trust,
                sim_log.config,
                seed=scenario.seed,
            )
        self.trusted = TrustedLogSet.of(*self.logs)

    # -- plumbing

    def schedule(self, t: int, callback) -> None:
        heapq.heappush(self._events, (t, self._heap_seq, callback))
        self._heap_seq += 1

    def loop(self, first: int, tick) -> None:
        """Run ``tick(t)`` at ``first``, then again after each delay it
        returns, until it returns None."""
        self.schedule(first, partial(self._step, tick))

    def _step(self, tick, now: int) -> None:
        # A partial, not a closure that names itself: that would be a
        # reference cycle holding the simulation after its run.
        delay = tick(now)
        if delay is not None:
            self.schedule(now + delay, partial(self._step, tick))

    def emit(self, t: int, actor: str, kind: EventKind, artifact: object) -> int:
        self._trace.append((t, actor, kind, artifact))
        return len(self._trace) - 1

    # -- submissions

    def _submit(self, actor: str, payload: Certificate | Postcertificate, chain: list[Certificate],
                logs: list[CtLog], k: int, now: int) -> list[SCT]:
        """Submit ``payload`` through ``_submission_attempts`` and trace every
        attempt; an accepted one also gets its SCT event and is resolved to
        its entry number after the run. Returns the SCTs in log order."""
        payload_hash = SHA256.hash_leaf(encode_artifact(payload))
        scts: list[SCT] = []
        for log_id, sct, error in _submission_attempts(payload, chain, logs, k, now):
            record = SubmissionRecord(log_id, now, now, payload_hash, sct, error=error)
            index = self.emit(now, actor, EventKind.SUBMIT, record)
            if sct is not None:
                self._submission_events.append(index)
                self.emit(now, actor, EventKind.SCT, sct)
                scts.append(sct)
        return scts

    def submit_postcert(self, actor: str, cert: _Cert, k: int, now: int) -> list[SCT]:
        """Submit ``cert``'s postcertificate to ``k`` logs, or to every
        candidate log if there are fewer.

        Every attempt is traced; when every log rejects, no SCT is returned.
        """
        scts = self._submit(actor, cert.postcert, cert.chain, list(self.logs.values()), k, now)
        if scts and cert.t_first_submit is None:
            cert.t_first_submit = now
        return scts

    def revoke_via_logs(self, client: SimClientConfig, serial: int, now: int, k: int | None) -> None:
        """The holder ``client`` asks for ``serial``'s revocation by logging
        its postcertificate, and hands the SCTs to the CA if it is set to."""
        cert = self.certs[serial]
        cert.t_request = now
        copies = k if k is not None else client.submit_copies
        scts = self.submit_postcert(client.client_id, cert, copies, now)
        if client.sct_handoff and scts:
            ca = self.cas[cert.ca_id]
            self.schedule(now + client.handoff_delay_ms, lambda t: ca.on_sct_handoff(cert, scts, t))

    def _filler_cert(self, issuer: str, key_id: str, serial: int, now: int) -> Certificate:
        tbs = TbsCertificate(
            serial=serial,
            subject=f"filler-{serial}.example",
            issuer=issuer,
            not_before=now,
            not_after=now + CERT_LIFETIME_MS,
            public_key_id=key_id,
        )
        return sign_certificate(self.registry, issuer, tbs)

    # -- background load

    def _schedule_background(self, sim_log: SimLogConfig) -> None:
        rate = sim_log.background_per_hour
        if rate <= 0:
            return
        rng = random.Random(derive_seed(self.scenario.seed, f"bg:{sim_log.log_id}"))

        def arrival(now: int) -> int:
            # untraced filler: its SCT is never read, and a rejection is simply dropped
            self._bg_serial += 1
            cert = self._filler_cert("background-ca", "background-key", self._bg_serial, now)
            try:
                self.logs[sim_log.log_id].add(cert, [self.background_root], now)
            except LogError:
                pass
            return max(1, int(rng.expovariate(rate / HOUR_MS)))

        self.loop(max(1, int(rng.expovariate(rate / HOUR_MS))), arrival)

    # -- probe actor

    def _probe_logs(self) -> list[str]:
        probe = self.scenario.probe
        if probe and probe.logs:
            return list(probe.logs)
        return [l.log_id for l in self.scenario.logs]

    def _schedule_probe(self) -> None:
        probe = self.scenario.probe
        if probe is None:
            return

        def sth_tick(now: int) -> int:
            for log_id in self._probe_logs():
                obs = SthObservation(now, now, self.logs[log_id].get_sth(now))
                self.emit(now, "probe", EventKind.STH, obs)
            return probe.sth_interval_ms

        self.loop(probe.sth_interval_ms, sth_tick)

        if probe.size_interval_ms:
            # each search gallops up from the size the previous one measured
            last_size = {log_id: 0 for log_id in self._probe_logs()}

            def size_tick(now: int) -> int:
                for log_id in self._probe_logs():
                    record = binary_search_size(self.logs[log_id], now, last_size[log_id])
                    last_size[log_id] = record.size
                    self.emit(now, "probe", EventKind.SIZE, record)
                return probe.size_interval_ms

            # offset size probes so they interleave with tree-head probes
            self.loop(probe.size_interval_ms // 2 + 1, size_tick)

        if probe.submit_interval_ms:
            submitted = {log_id: 0 for log_id in self._probe_logs()}

            def submit_tick(now: int) -> int | None:
                due = [
                    log_id for log_id in self._probe_logs()
                    if not probe.submit_limit or submitted[log_id] < probe.submit_limit
                ]
                if not due:
                    return None
                for log_id in due:
                    submitted[log_id] += 1
                    self._probe_serial += 1
                    cert = self._filler_cert(
                        "probe-ca", "probe-key", _BACKGROUND_SERIAL_BASE * 2 + self._probe_serial, now
                    )
                    self._submit("probe", cert, [self.probe_root], [self.logs[log_id]], 1, now)
                return probe.submit_interval_ms

            self.loop(probe.submit_interval_ms, submit_tick)

    # -- scheduled scenario events

    def _dispatch(self, event: ScheduledEvent, now: int) -> None:
        params = event.params
        if event.kind == "issue":
            self.cas[params["ca"]].issue(self.clients[params["client"]], int(params["serial"]), now)
        elif event.kind == "revoke-request":
            k = int(params["k"]) if "k" in params else None
            self.revoke_via_logs(self.clients[params["client"]], int(params["serial"]), now, k)
        elif event.kind == "revoke-direct":
            cert = self.certs[int(params["serial"])]
            cert.t_request = now
            issuer = self.cas[cert.ca_id]
            self.schedule(now + int(params.get("delivery", "0")), lambda t: issuer.on_direct_request(cert, t))
        elif event.kind == "freeze-log":
            self.logs[params["log"]].freeze()
        elif event.kind == "drop-entry":
            self.logs[params["log"]].drop_serial(int(params["serial"]))

    # -- post-run auditing

    def _resolve_submissions(self) -> None:
        for index in self._submission_events:
            t, actor, kind, record = self._trace[index]
            number = self.logs[record.log_id].leaf_number(record.sct.entry_hash)
            if number is not None:
                self._trace[index] = (t, actor, kind, replace(record, final_entry_number=number))

    def _breakdown_for(self, c: _Cert) -> DelayBreakdown | None:
        if c.t_update is None:
            return None
        if c.pathway == "CURRENT":
            if c.t_request is None or c.t_receive is None or c.t_processed is None:
                return None
            return DelayBreakdown.current(
                delivery=c.t_receive - c.t_request,
                processing=c.t_processed - c.t_receive,
                update=c.t_update - c.t_processed,
            )
        if c.t_first_submit is None:
            return None
        if c.t_handoff is not None and (c.t_discovery is None or c.t_handoff <= c.t_discovery):
            # Out-of-band SCT handoff: the handoff plays the publication role.
            return DelayBreakdown.postcert(
                publication=c.t_handoff - c.t_first_submit,
                discovery=0,
                update=c.t_update - c.t_handoff,
            )
        if c.t_discovery is None or c.discovery_log is None:
            return None
        # The only postcertificate ever submitted for a serial is the one its
        # CA made at issuance, so that one's leaf hash finds the first entry
        # with the serial and issuer.
        log = self.logs[c.discovery_log]
        entry_number = log.leaf_number(log.scheme.hash_leaf(encode_payload(c.postcert)))
        if entry_number is None:
            return None
        t_publish = log.merge_time_ref(entry_number)
        return DelayBreakdown.postcert(
            publication=t_publish - c.t_first_submit,
            discovery=c.t_discovery - t_publish,
            update=c.t_update - c.t_discovery,
        )

    def _check_bounds(self, horizon: int) -> None:
        for serial, cert in sorted(self.certs.items()):
            if self.cas[cert.ca_id].config.misbehavior is not CaMisbehavior.NONE:
                continue
            breakdown = self._breakdown_for(cert)
            if breakdown is None:
                continue
            for violation in check_bounds(breakdown, self.scenario.policy):
                record = ViolationRecord(
                    context=f"serial={serial}",
                    kind=violation.kind,
                    limit_ms=violation.limit_ms,
                    actual_ms=violation.actual_ms,
                )
                self.emit(horizon, "auditor", EventKind.VIOLATION, record)

    def _build_proofs(self, horizon: int) -> None:
        """Build each case's proof from a third-party monitor's view of the
        trace, with read access to the final log states, and verify it."""
        obs = observations(artifact for _, _, _, artifact in self._trace)
        policy = self.scenario.policy
        for case in Case:
            try:
                proof = build_proof(case, obs, policy, self.trusted, self.logs)
            except InsufficientEvidenceError:
                continue
            verdict = verify_proof(proof, policy, self.trusted, self.registry, self.logs)
            record = ProofRecord(
                case=case.value,
                proven=verdict.proven,
                reason=verdict.reason or "",
                t_proof=proof_time(proof, policy),
                bundle=encode_artifact(proof),
            )
            self.emit(horizon, "auditor", EventKind.PROOF, record)

    # -- main loop

    def run(self) -> list[TraceEvent]:
        scenario = self.scenario
        for sim_log in scenario.logs:
            self._schedule_background(sim_log)
        self._schedule_probe()
        for ca in self.cas.values():
            self.loop(ca.config.poll_interval_ms, ca.monitor_tick)
        for event in scenario.schedule:
            self.schedule(event.t, lambda t, e=event: self._dispatch(e, t))

        while self._events:
            t, _, callback = heapq.heappop(self._events)
            if t > scenario.horizon_ms:
                break
            callback(t)
        self._events.clear()  # never run; their closures would hold the simulation

        for log in self.logs.values():
            log.advance(scenario.horizon_ms)
        self._resolve_submissions()
        self._check_bounds(scenario.horizon_ms)
        if scenario.build_proofs:
            self._build_proofs(scenario.horizon_ms)

        events = []
        for seq, (t, actor, kind, artifact) in enumerate(self._trace):
            events.append(TraceEvent(t, seq, actor, kind, encode_artifact(artifact)))
        # Every record is encoded in ``events``; nothing reads the buffer again.
        self._trace.clear()
        self._submission_events.clear()
        return events


def run(scenario: Scenario) -> list[TraceEvent]:
    """Run a scenario to its horizon and return the trace."""
    return Simulation(scenario).run()


# Scenario files ---------------------------------------------------------------------
#
# A header line, then one line per log, CA, client, probe and event after its
# kind word. Each field is a row (key, attribute path, converter), with a
# default where the key may be absent; a converter is a pair (value to text,
# text to value), and a dotted path fills the nested LogConfig or MrdPolicy.
# An event line is its t and kind, then its free-form params.


def _enum(cls: type[enum.Enum]) -> tuple:
    return (lambda value: value.value, cls)


def _float(text: str) -> float:
    value = float(text)
    if repr(value) != text:  # "6", "6.00", "1e1" or a full-width digit would write back as other text
        raise ValueError(f"non-canonical float {text!r}, not as repr writes it")
    return value


_INT = (str, canonical_int)
_FLOAT = (repr, _float)
_TEXT = (str, str)


def _flag(text: str) -> bool:
    if text not in ("0", "1"):  # any other integer would write back as 1
        raise ValueError(f"invalid flag {text!r}, not 0 or 1")
    return text == "1"


_FLAG = (lambda value: str(int(value)), _flag)
_IDS = (lambda value: ",".join(value) or "-", lambda text: () if text == "-" else tuple(text.split(",")))
# A time in ms: validate_scenario bounds every field read with one of these
# two, which it tells from _INT by identity.
_MS = (str, canonical_int)
_MS_ZERO_NONE = (lambda value: str(value or 0), lambda text: canonical_int(text) or None)

_HEADER_FIELDS = (
    ("scenario", "name", _TEXT),
    ("seed", "seed", _INT),
    ("horizon", "horizon_ms", _MS),
    ("mrd_mode", "policy.mode", _enum(MrdMode)),
    ("mrd", "policy.mrd_ms", _MS),
    ("mmd", "policy.mmd_ms", _MS),
    ("build_proofs", "build_proofs", _FLAG, True),
)
_LOG_FIELDS = (
    ("id", "log_id", _TEXT),
    ("mmd", "config.mmd_ms", _MS),
    ("offset", "config.clock_offset_ms", _MS),
    ("class", "config.update_class", _enum(UpdateClass)),
    ("interval", "config.update_interval_ms", _MS_ZERO_NONE),
    ("delay", "config.publication_delay", _TEXT),
    ("dup", "config.duplicate_policy", _enum(DuplicatePolicy)),
    ("cache", "config.sth_cache", _enum(SthCacheMode)),
    ("cache_p", "config.sth_cache_p", _FLOAT),
    ("self_signed", "config.accept_self_signed", _FLAG),
    ("forget", "config.forget", _FLAG),
    ("background", "background_per_hour", _FLOAT),
)
_CA_FIELDS = (
    ("id", "ca_id", _TEXT),
    ("poll", "poll_interval_ms", _MS),
    ("validity", "status_validity_ms", _MS),
    ("update", "update_delay_ms", _MS),
    ("processing", "processing_delay_ms", _MS),
    ("offset", "clock_offset_ms", _MS),
    ("misbehavior", "misbehavior", _enum(CaMisbehavior)),
)
_CLIENT_FIELDS = (
    ("id", "client_id", _TEXT),
    ("copies", "submit_copies", _INT),
    ("handoff", "sct_handoff", _FLAG),
    ("handoff_delay", "handoff_delay_ms", _MS),
    ("scheme", "scheme", _enum(PostcertScheme)),
)
_PROBE_FIELDS = (
    ("sth", "sth_interval_ms", _MS),
    ("size", "size_interval_ms", _MS),
    ("submit", "submit_interval_ms", _MS),
    ("submit_limit", "submit_limit", _INT, 0),
    ("logs", "logs", _IDS),
)
_EVENT_FIELDS = (
    ("t", "t", _INT),
    ("kind", "kind", _TEXT),
)

# kind word: (Scenario attribute, class, fields), in file order
_ACTOR_LINES = {
    "log": ("logs", SimLogConfig, _LOG_FIELDS),
    "ca": ("cas", SimCaConfig, _CA_FIELDS),
    "client": ("clients", SimClientConfig, _CLIENT_FIELDS),
    "probe": ("probe", ProbeConfig, _PROBE_FIELDS),
}
_NESTED = {"config": LogConfig, "policy": MrdPolicy}


def _write_fields(rows, obj: object) -> list[tuple[str, str]]:
    return [(key, write(attrgetter(path)(obj))) for key, path, (write, _), *_ in rows]


def _read_fields(cls: Callable[..., Any], rows, fields: FieldLine, **kwargs: Any) -> Any:
    """A ``cls`` built from ``rows`` and ``kwargs``, each dotted path's owner first."""
    nested: dict[str, dict[str, Any]] = {}
    for key, path, (_, parse), *default in rows:
        owner, _, name = path.rpartition(".")
        target = nested.setdefault(owner, {}) if owner else kwargs
        target[name] = fields.get(key, parse, *default)
    try:
        for owner, values in nested.items():
            kwargs[owner] = _NESTED[owner](**values)
        return cls(**kwargs)
    except ValueError as exc:  # a value the constructor rejects
        raise fields.error(str(exc)) from None


def _actor_lines(scenario: Scenario) -> Iterator[tuple[str, tuple, Any]]:
    """(kind word, rows, actor) of each actor line, in file order."""
    for kind, (attr, _, rows) in _ACTOR_LINES.items():
        actors = getattr(scenario, attr)
        if not isinstance(actors, tuple):
            actors = () if actors is None else (actors,)
        for actor in actors:
            yield kind, rows, actor


def _times(scenario: Scenario) -> Iterator[tuple[str, int]]:
    """(where, value) of every time field of the header and actor lines."""
    for kind, rows, obj in [("scenario", _HEADER_FIELDS, scenario), *_actor_lines(scenario)]:
        key, path, *_ = rows[0]
        where = f"{kind} {attrgetter(path)(obj)}" if key == "id" else kind
        for key, path, convert, *_ in rows:
            if convert is _MS or convert is _MS_ZERO_NONE:
                yield f"{where}: {key}", attrgetter(path)(obj) or 0


def scenario_to_text(scenario: Scenario) -> str:
    lines = [fields_line(_write_fields(_HEADER_FIELDS, scenario))]
    for kind, rows, actor in _actor_lines(scenario):
        lines.append(f"{kind} {fields_line(_write_fields(rows, actor))}")
    for event in scenario.schedule:
        pairs = _write_fields(_EVENT_FIELDS, event) + sorted(event.params.items())
        lines.append(f"event {fields_line(pairs)}")
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> Scenario:
    """Parse ``scenario_to_text`` output. A malformed, missing or repeated
    field, a key that is not the line's own (event params aside), keys in
    another order than ``scenario_to_text`` writes (an event's params
    sorted, after ``t`` and ``kind``), a bad value, or a second header or
    probe line raises DecodeError naming the line; an unknown line or a
    missing header raises ScenarioError."""
    header: dict[str, Any] | None = None
    actors: dict[str, list] = {attr: [] for attr, _, _ in _ACTOR_LINES.values()}
    schedule: list[ScheduledEvent] = []
    event_keys = [key for key, *_ in _EVENT_FIELDS]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if "=" in kind:  # the header: its first word is already a field
            kind, rest = "", line
        elif kind != "event" and kind not in _ACTOR_LINES:
            raise ScenarioError(f"invalid-scenario: unknown line {line!r}")
        fields = FieldLine(rest, "line", lineno)
        if kind == "event":
            params = {key: value for key, value in fields.fields.items() if key not in event_keys}
            fields.only(event_keys + sorted(params))
            schedule.append(_read_fields(ScheduledEvent, _EVENT_FIELDS, fields, params=params))
            continue
        if not kind:
            if header is not None:
                raise fields.error("second header line")
            fields.only([key for key, *_ in _HEADER_FIELDS])
            header = _read_fields(dict, _HEADER_FIELDS, fields)
            continue
        attr, cls, rows = _ACTOR_LINES[kind]
        if kind == "probe" and actors[attr]:
            raise fields.error("second probe line")
        fields.only([key for key, *_ in rows])
        actors[attr].append(_read_fields(cls, rows, fields))
    if header is None:
        raise ScenarioError("invalid-scenario: missing scenario header")
    probes = actors.pop("probe")
    return Scenario(
        **header,
        **{attr: tuple(values) for attr, values in actors.items()},
        probe=probes[0] if probes else None,
        schedule=tuple(schedule),
    )
