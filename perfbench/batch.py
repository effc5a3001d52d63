"""The two batch workloads: ``sweep`` and ``pathologies``.

Both make their inputs from the seed and work until the run's seconds are
spent. ``sweep`` draws a fresh world for each simulation, so that one run
averages over a few hundred worlds, and then runs its first worlds again.
``pathologies`` repeats one campaign. Either way, repeated inputs must give
identical trace and report digests.
"""

from __future__ import annotations

import hashlib
import io
import re
import time

from postcert import cli, encoding, misbehavior, trace
from postcert.presets import honest_random, pathologies, single_fault
from postcert.sim import Simulation
from postcert.trace import EventKind

from .common import SEED_BASE, Outcome, median, p90, self_peak_rss_mb, SetupSampler
from .layers import layer_metrics
from .tracer import Tracer

SWEEP_STRIDE = 10_000  # worlds reserved for each benchmark seed
SWEEP_PASS = 40  # worlds in one pass of a traced run
SWEEP_REPEATS = 12  # worlds re-run at the end of a run; their digests must match
SETUP_SAMPLES = 9  # set-up timings spread over an untraced run
PATHOLOGIES_PROBES = 3_200  # every log ends with more than 10 000 entries
PATHOLOGIES_TINY_PROBES = 60
PATHOLOGIES_MIN_ENTRIES = 10_000
FAULT_CASES = ("M1", "M2", "M3")


def sweep_world(seed: int, index: int) -> tuple[int, str | None]:
    """World ``index`` of a sweep: even indexes are honest worlds, odd ones
    single-fault worlds cycling through M1, M2 and M3."""
    world_seed = SEED_BASE + seed * SWEEP_STRIDE + index
    return world_seed, None if index % 2 == 0 else FAULT_CASES[(index // 2) % 3]


def _verify_bundle(sim: Simulation, record) -> bool:
    """Re-verify an emitted proof bundle and compare with the recorded verdict."""
    bundle = encoding.decode_artifact(record.bundle)
    policy = sim.scenario.policy
    readers = dict(sim.logs)
    if isinstance(bundle, misbehavior.MisbehaviorProofM12):
        verdict = misbehavior.verify_m12(bundle, policy, sim.trusted, sim.registry)
    elif isinstance(bundle, misbehavior.MisbehaviorProofM3):
        verdict = misbehavior.verify_m3(bundle, policy, sim.trusted, sim.registry, readers)
    elif isinstance(bundle, misbehavior.SctDisclosureProof):
        verdict = misbehavior.verify_sct_disclosure(bundle, policy.mmd_ms, sim.trusted,
                                                    sim.registry, readers)
    else:
        return False
    return verdict.proven == record.proven and (verdict.reason or "") == record.reason


def _check_world(sim: Simulation, events, case: str | None) -> bool:
    """An honest world proves nothing; a fault world proves exactly its case;
    every bundle re-verifies to the verdict the run recorded."""
    records = [e.artifact() for e in events if e.kind is EventKind.PROOF]
    proven = {r.case for r in records if r.proven}
    if proven != ({case} if case else set()):
        return False
    return all(_verify_bundle(sim, r) for r in records)


def _sweep_world(seed: int, index: int, tracer: Tracer | None):
    """Time one world, then check it untimed and untraced and let it go, so
    peak memory is that of one world. Returns (seconds, passed, digests)."""
    world_seed, case = sweep_world(seed, index)
    if tracer:
        tracer.install()
    try:
        started = time.perf_counter()
        sim = Simulation(honest_random(world_seed) if case is None else single_fault(world_seed, case))
        events = sim.run()
        elapsed = time.perf_counter() - started
    finally:
        if tracer:
            tracer.uninstall()
    passed = _check_world(sim, events, case)
    report = cli.render_report(trace.observations_from_events(events), {})
    return elapsed, passed, (_digest(trace.trace_to_text(events)), _digest(report))


def _pathologies_campaign(scenario_seed: int, probes: int, tracer: Tracer | None):
    if tracer:
        tracer.install()
    try:
        started = time.perf_counter()
        sim = Simulation(pathologies(scenario_seed, probes=probes))
        events = sim.run()
        simulated = time.perf_counter()
        text = trace.trace_to_text(events)
        parsed = trace.read_trace(io.StringIO(text))
        report = cli.render_report(trace.observations_from_events(parsed), {})
        analyzed = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    sizes = {log_id: len(log.entries) for log_id, log in sim.logs.items()}
    return simulated - started, analyzed - simulated, (_digest(text), _digest(report)), report, sizes


_FRACTIONS = re.compile(r"^(\S+)\s+out_of_order=([0-9.]+) lagging=([0-9.]+)$", re.M)


def _check_pathologies(report: str) -> bool:
    """Injected rates come back out of the analysis: out-of-order 0.05 and
    lagging 0.10, each within 0.02, and exactly zero on the honest log."""
    fractions = {m[1]: (float(m[2]), float(m[3])) for m in _FRACTIONS.finditer(report)}
    if set(fractions) != {"ooo", "lagging", "honest"}:
        return False
    return (
        abs(fractions["ooo"][0] - 0.05) <= 0.02
        and abs(fractions["lagging"][1] - 0.10) <= 0.02
        and fractions["honest"] == (0.0, 0.0)
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _combined(digests: list[tuple[str, str]]) -> tuple[str, str]:
    return _digest("".join(d[0] for d in digests)), _digest("".join(d[1] for d in digests))


def run_sweep(seed: int, seconds: float, traced: bool, tiny: bool) -> Outcome:
    """Untraced: distinct worlds until the seconds are spent, then the first
    few again to check their digests. Traced: one untraced pass over a fixed
    set of worlds, then traced passes over the same set."""
    repeats = 2 if tiny else SWEEP_REPEATS
    started = time.perf_counter()
    if traced:
        worlds = range(4 if tiny else SWEEP_PASS)
        tracer = Tracer()
        passes = []
        while len(passes) < 2 or time.perf_counter() - started < seconds:
            passes.append([_sweep_world(seed, i, tracer if passes else None) for i in worlds])
        runs = [r for p in passes for r in p]
        checked = [[r[2] for r in p] for p in passes]
    else:
        setup = SetupSampler(2 if tiny else SETUP_SAMPLES, seconds)
        runs = []
        while not runs or time.perf_counter() - started - setup.spent < seconds:
            setup.between(time.perf_counter() - started - setup.spent)
            runs.append(_sweep_world(seed, len(runs), None))
        again = [_sweep_world(seed, i, None) for i in range(min(repeats, len(runs)))]
        checked = [[r[2] for r in runs[:len(again)]], [r[2] for r in again]]
        runs += again
    out = Outcome()
    out.attempted = len(runs)
    out.failed = sum(1 for r in runs if not r[1])
    out.determinism_ok = all(c == checked[0] for c in checked)
    trace_digest, report_digest = _combined(checked[0][:repeats])
    out.details = {
        "seed_range": f"{sweep_world(seed, 0)[0]}..{sweep_world(seed, len(checked[0]) - 1)[0]}",
        "worlds": [list(sweep_world(seed, i)) for i in range(len(checked[0]))],
        "trace_sha256": trace_digest,
        "report_sha256": report_digest,
        "digest_worlds": min(repeats, len(checked[0])),
        "digests_identical_across_repeats": out.determinism_ok,
    }
    if traced:
        times = [sum(r[0] for r in p) for p in passes]
        out.details["layers"] = layer_metrics(tracer, len(passes) - 1, times[0], times[1:])
        out.details["tracer"] = tracer
        return out
    measured = runs[:-len(again)]
    sim_ms = [r[0] * 1000 for r in measured]
    rate = len(measured) / sum(r[0] for r in measured)
    setup = setup.finish()
    rss = self_peak_rss_mb()
    out.metrics = {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (median(sim_ms), "ms"),
        "op_ms_p90": (p90(sim_ms), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.report = {
        "setup_s": (median(setup), "s", len(setup)),
        "sims_per_s": (rate, "1/s", len(sim_ms)),
        "sim_ms_p50": (median(sim_ms), "ms", len(sim_ms)),
        "sim_ms_p90": (p90(sim_ms), "ms", len(sim_ms)),
        "peak_rss_mb": (rss, "MB", 1),
        "fail_ratio": (out.failed / out.attempted, "ratio", out.attempted),
    }
    return out


def run_pathologies(seed: int, seconds: float, traced: bool, tiny: bool) -> Outcome:
    scenario_seed = SEED_BASE + seed
    probes = PATHOLOGIES_TINY_PROBES if tiny else PATHOLOGIES_PROBES
    tracer = Tracer() if traced else None
    setup = SetupSampler(0 if traced else 2 if tiny else SETUP_SAMPLES, seconds)
    rounds = []
    started = time.perf_counter()
    # A traced run needs one untraced campaign, the overhead baseline, and one traced.
    while len(rounds) < (2 if traced else 1) or time.perf_counter() - started - setup.spent < seconds:
        setup.between(time.perf_counter() - started - setup.spent)
        rounds.append(_pathologies_campaign(scenario_seed, probes, tracer if rounds else None))
    sizes = rounds[0][4]
    if not tiny and min(sizes.values()) < PATHOLOGIES_MIN_ENTRIES:
        raise RuntimeError(f"pathologies logs too small for the workload: {sizes}")
    out = Outcome()
    out.attempted = len(rounds)
    out.failed = sum(0 if _check_pathologies(r[3]) else 1 for r in rounds)
    digests = [r[2] for r in rounds]
    out.determinism_ok = len(set(digests)) == 1
    out.details = {
        "seed_range": str(scenario_seed),
        "probes": probes,
        "log_entries": sizes,
        "rounds": len(rounds),
        "simulate_s": [r[0] for r in rounds],
        "analyze_s": [r[1] for r in rounds],
        "trace_sha256": digests[0][0],
        "report_sha256": digests[0][1],
        "digests_identical_across_rounds": out.determinism_ok,
    }
    measured = rounds[1:] if traced else rounds
    if traced:
        out.details["layers"] = layer_metrics(tracer, len(measured), rounds[0][0] + rounds[0][1],
                                              [r[0] + r[1] for r in measured])
        out.details["tracer"] = tracer
        return out
    setup = setup.finish()
    simulate = [r[0] for r in measured]
    analyze = [r[1] for r in measured]
    campaign_ms = [(r[0] + r[1]) * 1000 for r in measured]
    rss = self_peak_rss_mb()
    out.metrics = {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (len(measured) / sum(r[0] + r[1] for r in measured), "1/s"),
        "op_ms_p50": (median(campaign_ms), "ms"),
        "op_ms_p90": (p90(campaign_ms), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.report = {
        "setup_s": (median(setup), "s", len(setup)),
        "simulate_s": (median(simulate), "s", len(simulate)),
        "analyze_s": (median(analyze), "s", len(analyze)),
        "peak_rss_mb": (rss, "MB", 1),
        "fail_ratio": (out.failed / out.attempted, "ratio", out.attempted),
    }
    return out
