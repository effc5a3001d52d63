"""Named scenario presets runnable from the command line.

Each preset is a function of the seed (and optionally the deadline policy) so
the same name always describes the same world, while reruns with different
seeds redraw the random choices.
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
from .timeutil import DAY_MS, HOUR_MS, MINUTE_MS, SECOND_MS

def _fast_log(log_id: str, **kwargs) -> SimLogConfig:
    config = LogConfig(
        update_class=UpdateClass.PERIODIC,
        update_interval_ms=10 * MINUTE_MS,
        publication_delay=f"uniform:{30 * SECOND_MS}:{2 * MINUTE_MS}",
        **kwargs,
    )
    return SimLogConfig(log_id, config, background_per_hour=6.0)


def normal_revocation(seed: int, policy: MrdPolicy | None = None) -> Scenario:
    """Issue one certificate and revoke it through two logs; everyone honest."""
    policy = policy or default_policy()
    return Scenario(
        name="normal",
        seed=seed,
        horizon_ms=40 * HOUR_MS if policy.mode is MrdMode.FROM_SUBMISSION else 18 * HOUR_MS,
        policy=policy,
        logs=(_fast_log("log-a"), _fast_log("log-b"), _fast_log("log-c")),
        cas=(SimCaConfig("ca1", poll_interval_ms=10 * MINUTE_MS, update_delay_ms=30 * MINUTE_MS),),
        clients=(SimClientConfig("client1", submit_copies=2),),
        probe=ProbeConfig(sth_interval_ms=MINUTE_MS),
        schedule=(
            ScheduledEvent(1 * HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "1"}),
            ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "client1", "serial": "1"}),
        ),
    )


def _misbehavior_scenario(name: str, seed: int, flag: CaMisbehavior,
                          policy: MrdPolicy | None = None) -> Scenario:
    policy = policy or default_policy()
    horizon = 5 * HOUR_MS + policy.mmd_ms + policy.mrd_ms + 12 * HOUR_MS
    schedule: list[ScheduledEvent] = [
        ScheduledEvent(1 * HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "1"}),
    ]
    if flag is CaMisbehavior.M3_EARLY_REVOKE:
        schedule.append(ScheduledEvent(5 * HOUR_MS, "revoke-direct", {"serial": "1"}))
    else:
        schedule.append(ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "client1", "serial": "1"}))
    return Scenario(
        name=name,
        seed=seed,
        horizon_ms=horizon,
        policy=policy,
        logs=(_fast_log("log-a"), _fast_log("log-b")),
        cas=(SimCaConfig("ca1", poll_interval_ms=10 * MINUTE_MS, update_delay_ms=30 * MINUTE_MS,
                         misbehavior=flag),),
        clients=(SimClientConfig("client1", submit_copies=2),),
        probe=ProbeConfig(sth_interval_ms=5 * MINUTE_MS),
        schedule=tuple(schedule),
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
    forget_config = LogConfig(
        update_class=UpdateClass.PERIODIC,
        update_interval_ms=10 * MINUTE_MS,
        publication_delay=f"fixed:{MINUTE_MS}",
        forget=True,
    )
    return Scenario(
        name="log-forget",
        seed=seed,
        horizon_ms=5 * HOUR_MS + policy.mmd_ms + 8 * HOUR_MS,
        policy=policy,
        logs=(
            SimLogConfig("log-forget", forget_config, background_per_hour=6.0),
            _fast_log("log-b"),
            _fast_log("log-c"),
        ),
        cas=(SimCaConfig("ca1", poll_interval_ms=10 * MINUTE_MS, update_delay_ms=30 * MINUTE_MS),),
        clients=(SimClientConfig("client1", submit_copies=3),),
        probe=ProbeConfig(sth_interval_ms=5 * MINUTE_MS),
        schedule=(
            ScheduledEvent(1 * HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "1"}),
            ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "client1", "serial": "1", "k": "3"}),
        ),
    )


def classes(seed: int) -> Scenario:
    """Six logs exercising every update-behavior class the classifier knows."""
    probe_interval = 50 * SECOND_MS
    logs = (
        SimLogConfig(
            "busy",
            LogConfig(update_class=UpdateClass.BUSY, publication_delay="fixed:1000"),
            background_per_hour=144.0,
        ),
        SimLogConfig(
            "unbusy",
            LogConfig(
                update_class=UpdateClass.UNBUSY,
                publication_delay=f"uniform:{90 * SECOND_MS}:{3 * MINUTE_MS}",
            ),
        ),
        SimLogConfig(
            "periodic-120",
            LogConfig(update_class=UpdateClass.PERIODIC, update_interval_ms=120 * SECOND_MS,
                      publication_delay="fixed:1000"),
            background_per_hour=180.0,
        ),
        SimLogConfig(
            "periodic-600",
            LogConfig(update_class=UpdateClass.PERIODIC, update_interval_ms=600 * SECOND_MS,
                      publication_delay="fixed:1000"),
            background_per_hour=180.0,
        ),
        SimLogConfig(
            "periodic-3600",
            LogConfig(update_class=UpdateClass.PERIODIC, update_interval_ms=3600 * SECOND_MS,
                      publication_delay="fixed:1000"),
            background_per_hour=180.0,
        ),
        SimLogConfig(
            "irregular",
            LogConfig(
                update_class=UpdateClass.BUSY,
                publication_delay=f"uniform:{90 * SECOND_MS}:{10 * MINUTE_MS}",
            ),
            background_per_hour=120.0,
        ),
    )
    return Scenario(
        name="classes",
        seed=seed,
        horizon_ms=31 * HOUR_MS,
        policy=default_policy(),
        logs=logs,
        cas=(),
        clients=(),
        probe=ProbeConfig(sth_interval_ms=probe_interval, submit_interval_ms=15 * MINUTE_MS),
        schedule=(),
        build_proofs=False,
    )


# Publication-delay preset targets (the measured reference statistics).
REFERENCE_DELAY_MIN_MS = SECOND_MS
REFERENCE_DELAY_MEDIAN_MS = int(6.4 * MINUTE_MS)
REFERENCE_DELAY_MAX_MS = 13 * HOUR_MS
REFERENCE_DELAY_SUBMISSIONS = 101


def delay_percentiles(seed: int) -> Scenario:
    """Delay distribution tuned so realized min/median/max hit the reference
    values exactly (ascending quantile grid; FIFO merge order keeps each
    realized delay equal to its nominal sample)."""
    grid = (
        f"grid:{REFERENCE_DELAY_MIN_MS}:{REFERENCE_DELAY_MEDIAN_MS}:{REFERENCE_DELAY_MAX_MS}"
        f":{REFERENCE_DELAY_SUBMISSIONS}"
    )
    log = SimLogConfig(
        "log-a",
        LogConfig(update_class=UpdateClass.BUSY, publication_delay=grid),
    )
    return Scenario(
        name="delay-percentiles",
        seed=seed,
        horizon_ms=15 * HOUR_MS,
        policy=default_policy(),
        logs=(log,),
        cas=(),
        clients=(),
        probe=ProbeConfig(sth_interval_ms=10 * SECOND_MS, submit_interval_ms=30 * SECOND_MS,
                          submit_limit=REFERENCE_DELAY_SUBMISSIONS, logs=("log-a",)),
        schedule=(),
        build_proofs=False,
    )


def clock_skew(seed: int) -> Scenario:
    """Per-log clock offsets drawn in [-3 s, +3 s]; honest revocation flow."""
    rng = random.Random(f"{seed}:clock-skew")
    logs = []
    for index in range(4):
        offset = rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)
        config = LogConfig(
            update_class=UpdateClass.PERIODIC,
            update_interval_ms=10 * MINUTE_MS,
            publication_delay=f"uniform:{30 * SECOND_MS}:{2 * MINUTE_MS}",
            clock_offset_ms=offset,
        )
        logs.append(SimLogConfig(f"log-{index}", config, background_per_hour=6.0))
    return Scenario(
        name="clock-skew",
        seed=seed,
        horizon_ms=18 * HOUR_MS,
        policy=default_policy(),
        logs=tuple(logs),
        cas=(SimCaConfig("ca1", poll_interval_ms=10 * MINUTE_MS, update_delay_ms=30 * MINUTE_MS,
                         clock_offset_ms=rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)),),
        clients=(SimClientConfig("client1", submit_copies=4),),
        probe=ProbeConfig(sth_interval_ms=MINUTE_MS, submit_interval_ms=5 * MINUTE_MS),
        schedule=(
            ScheduledEvent(1 * HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "1"}),
            ScheduledEvent(5 * HOUR_MS, "revoke-request", {"client": "client1", "serial": "1", "k": "4"}),
        ),
    )


def pathologies(seed: int, *, probes: int = 10_000) -> Scenario:
    """Out-of-order and lagging response injection next to an honest control."""
    interval = 10 * SECOND_MS
    growing = dict(update_class=UpdateClass.BUSY, publication_delay="fixed:500")
    logs = (
        SimLogConfig(
            "ooo",
            LogConfig(sth_cache=SthCacheMode.OUT_OF_ORDER, sth_cache_p=0.05, **growing),
            background_per_hour=1200.0,
        ),
        SimLogConfig(
            "lagging",
            LogConfig(sth_cache=SthCacheMode.LAGGING, sth_cache_p=0.10, **growing),
            background_per_hour=1200.0,
        ),
        SimLogConfig("honest", LogConfig(**growing), background_per_hour=1200.0),
    )
    return Scenario(
        name="pathologies",
        seed=seed,
        horizon_ms=probes * interval + interval,
        policy=default_policy(),
        logs=logs,
        cas=(),
        clients=(),
        probe=ProbeConfig(sth_interval_ms=interval, size_interval_ms=interval),
        schedule=(),
        build_proofs=False,
    )


def collisions(seed: int) -> Scenario:
    """Duplicate submissions against both duplicate policies."""
    reinsert = LogConfig(
        update_class=UpdateClass.BUSY,
        publication_delay="fixed:1000",
        duplicate_policy=DuplicatePolicy.REINSERT,
    )
    dedupe = LogConfig(update_class=UpdateClass.BUSY, publication_delay="fixed:1000")
    schedule = [
        ScheduledEvent(1 * HOUR_MS, "issue", {"ca": "ca1", "client": "client1", "serial": "1"}),
    ]
    for minute in (120, 150, 180):
        schedule.append(
            ScheduledEvent(minute * MINUTE_MS, "revoke-request",
                           {"client": "client1", "serial": "1", "k": "2"})
        )
    return Scenario(
        name="collisions",
        seed=seed,
        horizon_ms=10 * HOUR_MS,
        policy=default_policy(),
        logs=(
            SimLogConfig("reinsert", reinsert),
            SimLogConfig("dedupe", dedupe),
        ),
        cas=(SimCaConfig("ca1", poll_interval_ms=10 * MINUTE_MS),),
        clients=(SimClientConfig("client1", submit_copies=2),),
        probe=ProbeConfig(sth_interval_ms=MINUTE_MS),
        schedule=tuple(schedule),
        build_proofs=False,
    )


def honest_random(seed: int) -> Scenario:
    """Randomized honest world for soundness sweeps: random log classes,
    delays, skews and schedule, with deadlines every honest actor can meet."""
    rng = random.Random(f"{seed}:honest")
    mode = rng.choice([MrdMode.FROM_PUBLICATION, MrdMode.FROM_SUBMISSION])
    mmd = DAY_MS
    poll = rng.choice([10, 20, 30]) * MINUTE_MS
    update_delay = rng.choice([10, 30, 60]) * MINUTE_MS
    mrd_b = poll + update_delay + rng.choice([2, 4, 8]) * HOUR_MS
    policy = (
        MrdPolicy(mode, mrd_ms=mrd_b, mmd_ms=mmd)
        if mode is MrdMode.FROM_PUBLICATION
        else MrdPolicy(mode, mrd_ms=mmd + mrd_b, mmd_ms=mmd)
    )
    logs = []
    for index in range(rng.randint(2, 3)):
        kind = rng.choice(["busy", "periodic"])
        offset = rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)
        if kind == "busy":
            # busy logs only sign on change, so keep some traffic flowing
            config = LogConfig(
                update_class=UpdateClass.BUSY,
                publication_delay=f"uniform:{10 * SECOND_MS}:{5 * MINUTE_MS}",
                clock_offset_ms=offset,
            )
            background = rng.choice([2.0, 4.0])
        else:
            config = LogConfig(
                update_class=UpdateClass.PERIODIC,
                update_interval_ms=rng.choice([5, 10, 15]) * MINUTE_MS,
                publication_delay=f"uniform:{10 * SECOND_MS}:{5 * MINUTE_MS}",
                clock_offset_ms=offset,
            )
            background = rng.choice([0.0, 2.0])
        logs.append(SimLogConfig(f"log-{index}", config, background_per_hour=background))
    validity = rng.choice([8, 10, 16, 24]) * HOUR_MS
    issue_t = rng.randint(30, 90) * MINUTE_MS
    revoke_t = issue_t + rng.randint(60, 240) * MINUTE_MS
    direct = rng.random() < 0.25
    handoff = not direct and rng.random() < 0.3
    revoke_kind = "revoke-direct" if direct else "revoke-request"
    revoke_params = {"serial": "1"} if direct else {"client": "client1", "serial": "1"}
    t_proof_bound = revoke_t + policy.mmd_ms + policy.mrd_ms
    return Scenario(
        name="honest-random",
        seed=seed,
        horizon_ms=t_proof_bound + status_refresh_margin(validity),
        policy=policy,
        logs=tuple(logs),
        cas=(SimCaConfig("ca1", poll_interval_ms=poll, status_validity_ms=validity,
                         update_delay_ms=update_delay, processing_delay_ms=rng.choice([1, 2]) * HOUR_MS,
                         clock_offset_ms=rng.randint(-3 * SECOND_MS, 3 * SECOND_MS)),),
        clients=(SimClientConfig("client1", submit_copies=min(2, len(logs)),
                                 sct_handoff=handoff),),
        probe=ProbeConfig(sth_interval_ms=15 * MINUTE_MS),
        schedule=(
            ScheduledEvent(issue_t, "issue", {"ca": "ca1", "client": "client1", "serial": "1"}),
            ScheduledEvent(revoke_t, revoke_kind, revoke_params),
        ),
    )


def status_refresh_margin(validity_ms: int) -> int:
    from .status import status_update_deadline

    return 2 * status_update_deadline(validity_ms) + 2 * HOUR_MS


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
        schedule = tuple(
            e if e.kind == "issue" else ScheduledEvent(e.t, "revoke-direct", {"serial": "1"})
            for e in schedule
        )
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
    factory = PRESETS[name]
    if name in ("normal", "m1", "m2", "m3", "log-forget"):
        return factory(seed, policy)
    return factory(seed)
