"""Named scenario presets runnable from the command line.

Each preset is a function of the seed and an optional deadline policy, so
the same name always describes the same world, while reruns with different
seeds redraw the random choices. Without a policy a preset keeps its own:
``default_policy()``, or for ``honest-random`` the one its seed draws.

Two templates build every fixed world. Most presets follow one
certificate: ``ca1`` issues it to ``client1`` at 1 h, and its holder then
revokes it, through the logs or (``m3``) straight at the CA.
``_one_certificate`` builds those worlds from what sets them apart: their
logs, revocation events, horizon and a few actor settings. ``classes``,
``delay-percentiles`` and ``pathologies`` only probe their logs, and
``_probe_only`` builds them with no CA, no client and no proofs. Every log
of a preset is one ``_log`` call: its publication delay, background rate
and the settings in which it differs from a default ``LogConfig``.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .log import DuplicatePolicy, LogConfig, SthCacheMode, UpdateClass
from .misbehavior import MrdMode, MrdPolicy, default_policy
from .sim import (
    CaMisbehavior,
    ProbeConfig,
    Scenario,
    ScheduledEvent,
    SimCaConfig,
    SimClientConfig,
    SimLogConfig,
)
from .status import status_update_deadline
from .timeutil import DAY_MS, HOUR_MS, MINUTE_MS, SECOND_MS

_CA = SimCaConfig("ca1")
_ISSUE = ScheduledEvent(1 * HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "1"})


def _revoke(t: int = 5 * HOUR_MS, direct: bool = False) -> ScheduledEvent:
    """``client1`` asks at ``t`` for its certificate's revocation, through
    the logs or, when ``direct``, straight at the CA."""
    if direct:
        return ScheduledEvent(t, "revoke-direct", {"serial": "1"})
    return ScheduledEvent(t, "revoke-request", {"client": "client1", "serial": "1"})


def _log(log_id: str, delay: str, background: float = 0.0, **config) -> SimLogConfig:
    """A log with publication ``delay``, ``background`` filler entries an
    hour and ``config``'s other settings; BUSY unless ``config`` says otherwise."""
    return SimLogConfig(log_id, LogConfig(publication_delay=delay, **config), background_per_hour=background)


def _fast_log(log_id: str, delay: str = f"uniform:{30 * SECOND_MS}:{2 * MINUTE_MS}", **config) -> SimLogConfig:
    return _log(log_id, delay, 6.0, update_class=UpdateClass.PERIODIC, update_interval_ms=10 * MINUTE_MS,
                **config)


def _probe_only(name: str, seed: int, policy: MrdPolicy | None, horizon_ms: int,
                logs: list[SimLogConfig], probe: ProbeConfig) -> Scenario:
    """A world of ``logs`` and the probe alone: no CA, no client, no proofs."""
    return Scenario(name=name, seed=seed, horizon_ms=horizon_ms, policy=policy or default_policy(),
                    logs=tuple(logs), cas=(), clients=(), probe=probe, build_proofs=False)


def _one_certificate(name: str, seed: int, policy: MrdPolicy | None, horizon_ms: int,
                     logs: list[SimLogConfig], revocations: list[ScheduledEvent], *,
                     copies: int = 2, ca: SimCaConfig = _CA,
                     probe: ProbeConfig = ProbeConfig(sth_interval_ms=MINUTE_MS),
                     build_proofs: bool = True) -> Scenario:
    """The world of ``_ISSUE`` followed by ``revocations``, with ``ca`` as
    the issuer and ``client1`` submitting ``copies`` postcertificates."""
    return Scenario(
        name=name,
        seed=seed,
        horizon_ms=horizon_ms,
        policy=policy or default_policy(),
        logs=tuple(logs),
        cas=(ca,),
        clients=(SimClientConfig("client1", submit_copies=copies),),
        probe=probe,
        schedule=(_ISSUE, *revocations),
        build_proofs=build_proofs,
    )


def normal_revocation(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Issue one certificate and revoke it through two logs; everyone honest."""
    policy = policy or default_policy()
    horizon = 40 * HOUR_MS if policy.mode is MrdMode.FROM_SUBMISSION else 18 * HOUR_MS
    logs = [_fast_log("log-a"), _fast_log("log-b"), _fast_log("log-c")]
    return _one_certificate("normal", seed, policy, horizon, logs, [_revoke()])


def _misbehavior_scenario(name: str, seed: int, flag: CaMisbehavior,
                          policy: MrdPolicy | None) -> Scenario:
    """Two honest logs and a CA that misbehaves as ``flag``; under M3 the
    revocation request goes straight to the CA, past the logs."""
    policy = policy or default_policy()
    return _one_certificate(
        name, seed, policy, 5 * HOUR_MS + policy.mmd_ms + policy.mrd_ms + 12 * HOUR_MS,
        [_fast_log("log-a"), _fast_log("log-b")], [_revoke(direct=flag is CaMisbehavior.M3_EARLY_REVOKE)],
        ca=replace(_CA, misbehavior=flag), probe=ProbeConfig(sth_interval_ms=5 * MINUTE_MS),
    )


def m1(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    return _misbehavior_scenario("m1", seed, CaMisbehavior.M1_SKIP_UPDATE, policy)


def m2(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    return _misbehavior_scenario("m2", seed, CaMisbehavior.M2_WRONG_STATUS, policy)


def m3(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    return _misbehavior_scenario("m3", seed, CaMisbehavior.M3_EARLY_REVOKE, policy)


def log_forget(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """One log returns SCTs but never publishes; revocation still succeeds
    through the remaining logs and the broken promise becomes provable."""
    policy = policy or default_policy()
    logs = [_fast_log("log-forget", f"fixed:{MINUTE_MS}", forget=True), _fast_log("log-b"), _fast_log("log-c")]
    return _one_certificate("log-forget", seed, policy, 5 * HOUR_MS + policy.mmd_ms + 8 * HOUR_MS,
                            logs, [_revoke()], copies=3, probe=ProbeConfig(sth_interval_ms=5 * MINUTE_MS))


def classes(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Six logs exercising every update-behavior class the classifier knows."""
    logs = [
        _log("busy", "fixed:1000", 144.0),
        _log("unbusy", f"uniform:{90 * SECOND_MS}:{3 * MINUTE_MS}", update_class=UpdateClass.UNBUSY),
        *(_log(f"periodic-{seconds}", "fixed:1000", 180.0, update_class=UpdateClass.PERIODIC,
               update_interval_ms=seconds * SECOND_MS) for seconds in (120, 600, 3600)),
        _log("irregular", f"uniform:{90 * SECOND_MS}:{10 * MINUTE_MS}", 120.0),
    ]
    return _probe_only("classes", seed, policy, 31 * HOUR_MS, logs,
                       ProbeConfig(sth_interval_ms=50 * SECOND_MS, submit_interval_ms=15 * MINUTE_MS))


# Publication-delay preset targets (the measured reference statistics).
REFERENCE_DELAY_MIN_MS = SECOND_MS
REFERENCE_DELAY_MEDIAN_MS = int(6.4 * MINUTE_MS)
REFERENCE_DELAY_MAX_MS = 13 * HOUR_MS
REFERENCE_DELAY_SUBMISSIONS = 101


def delay_percentiles(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Delay distribution tuned so realized min/median/max hit the reference
    values exactly (ascending quantile grid; FIFO merge order keeps each
    realized delay equal to its nominal sample)."""
    grid = (
        f"grid:{REFERENCE_DELAY_MIN_MS}:{REFERENCE_DELAY_MEDIAN_MS}:{REFERENCE_DELAY_MAX_MS}"
        f":{REFERENCE_DELAY_SUBMISSIONS}"
    )
    return _probe_only("delay-percentiles", seed, policy, 15 * HOUR_MS, [_log("log-a", grid)],
                       ProbeConfig(sth_interval_ms=10 * SECOND_MS, submit_interval_ms=30 * SECOND_MS,
                                   submit_limit=REFERENCE_DELAY_SUBMISSIONS))


def clock_skew(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Per-log clock offsets drawn in [-3 s, +3 s]; honest revocation flow."""
    rng = random.Random(f"{seed}:clock-skew")
    logs = [_fast_log(f"log-{index}", clock_offset_ms=rng.randint(-3 * SECOND_MS, 3 * SECOND_MS))
            for index in range(4)]
    return _one_certificate(
        "clock-skew", seed, policy, 18 * HOUR_MS, logs, [_revoke()], copies=4,
        ca=replace(_CA, clock_offset_ms=rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)),
        probe=ProbeConfig(sth_interval_ms=MINUTE_MS, submit_interval_ms=5 * MINUTE_MS),
    )


def pathologies(seed: int, policy: MrdPolicy | None = None, *, probes: int = 10_000) -> Scenario:
    """Out-of-order and lagging response injection next to an honest control."""
    interval = 10 * SECOND_MS
    logs = [
        _log("ooo", "fixed:500", 1200.0, sth_cache=SthCacheMode.OUT_OF_ORDER, sth_cache_p=0.05),
        _log("lagging", "fixed:500", 1200.0, sth_cache=SthCacheMode.LAGGING, sth_cache_p=0.10),
        _log("honest", "fixed:500", 1200.0),
    ]
    return _probe_only("pathologies", seed, policy, probes * interval + interval, logs,
                       ProbeConfig(sth_interval_ms=interval, size_interval_ms=interval))


def collisions(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Duplicate submissions against both duplicate policies."""
    logs = [_log("reinsert", "fixed:1000", duplicate_policy=DuplicatePolicy.REINSERT), _log("dedupe", "fixed:1000")]
    return _one_certificate("collisions", seed, policy, 10 * HOUR_MS, logs,
                            [_revoke(minute * MINUTE_MS) for minute in (120, 150, 180)], build_proofs=False)


def honest_random(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Randomized honest world for soundness sweeps: random log classes,
    delays, skews and schedule, with deadlines every honest actor can meet.
    A given ``policy`` replaces the drawn one; the draws stay the same."""
    rng = random.Random(f"{seed}:honest")
    mode = rng.choice([MrdMode.FROM_PUBLICATION, MrdMode.FROM_SUBMISSION])
    mmd = DAY_MS
    poll = rng.choice([10, 20, 30]) * MINUTE_MS
    update_delay = rng.choice([10, 30, 60]) * MINUTE_MS
    mrd_b = poll + update_delay + rng.choice([2, 4, 8]) * HOUR_MS
    policy = policy or (
        MrdPolicy(mode, mrd_ms=mrd_b, mmd_ms=mmd)
        if mode is MrdMode.FROM_PUBLICATION
        else MrdPolicy(mode, mrd_ms=mmd + mrd_b, mmd_ms=mmd)
    )
    logs = []
    # each log draws its class, offset, interval (periodic only) and background
    # in this order, so a seed keeps its world
    for index in range(rng.randint(2, 3)):
        periodic = rng.choice(["busy", "periodic"]) == "periodic"
        offset = rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)
        cadence = dict(update_class=UpdateClass.PERIODIC,
                       update_interval_ms=rng.choice([5, 10, 15]) * MINUTE_MS) if periodic else {}
        # busy logs only sign on change, so keep some traffic flowing
        background = rng.choice([0.0, 2.0] if periodic else [2.0, 4.0])
        logs.append(_log(f"log-{index}", f"uniform:{10 * SECOND_MS}:{5 * MINUTE_MS}", background,
                         clock_offset_ms=offset, **cadence))
    validity = rng.choice([8, 10, 16, 24]) * HOUR_MS
    issue_t = rng.randint(30, 90) * MINUTE_MS
    revoke_t = issue_t + rng.randint(60, 240) * MINUTE_MS
    direct = rng.random() < 0.25
    handoff = not direct and rng.random() < 0.3
    revoke = _revoke(revoke_t, direct)
    t_proof_bound = revoke_t + policy.mmd_ms + policy.mrd_ms
    return Scenario(
        name="honest-random",
        seed=seed,
        # two status refreshes and two hours past the latest proof time
        horizon_ms=t_proof_bound + 2 * status_update_deadline(validity) + 2 * HOUR_MS,
        policy=policy,
        logs=tuple(logs),
        cas=(SimCaConfig("ca1", poll_interval_ms=poll, status_validity_ms=validity,
                         update_delay_ms=update_delay, processing_delay_ms=rng.choice([1, 2]) * HOUR_MS,
                         clock_offset_ms=rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)),),
        clients=(SimClientConfig("client1", submit_copies=min(2, len(logs)),
                                 sct_handoff=handoff),),
        probe=ProbeConfig(sth_interval_ms=15 * MINUTE_MS),
        schedule=(replace(_ISSUE, t=issue_t), revoke),
    )


def single_fault(seed: int, case: str) -> Scenario:
    """An honest-random world with exactly one misbehaving CA."""
    base = honest_random(seed)
    flag = {
        "M1": CaMisbehavior.M1_SKIP_UPDATE,
        "M2": CaMisbehavior.M2_WRONG_STATUS,
        "M3": CaMisbehavior.M3_EARLY_REVOKE,
    }[case]
    schedule = base.schedule
    if flag is CaMisbehavior.M3_EARLY_REVOKE:
        # the early revocation must bypass the log submission entirely
        schedule = tuple(e if e.kind == "issue" else _revoke(e.t, direct=True) for e in schedule)
    return replace(
        base,
        name=f"fault-{case.lower()}",
        cas=(replace(base.cas[0], misbehavior=flag),),
        clients=tuple(replace(c, sct_handoff=False) for c in base.clients),
        schedule=schedule,
    )


PRESETS = {
    "normal": normal_revocation,
    "m1": m1,
    "m2": m2,
    "m3": m3,
    "log-forget": log_forget,
    "classes": classes,
    "delay-percentiles": delay_percentiles,
    "clock-skew": clock_skew,
    "pathologies": pathologies,
    "collisions": collisions,
    "honest-random": honest_random,
}


def build_preset(name: str, seed: int, policy: MrdPolicy | None = None) -> Scenario:
    return PRESETS[name](seed, policy)
