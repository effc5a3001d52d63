"""Analysis pipeline: size search, delays, classes, offsets, pathologies,
growth projection."""

from __future__ import annotations

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postcert.certs import TbsCertificate, sign_certificate
from postcert.crypto import Signature
from postcert.log import CtLog, LogConfig, STH, LogEntry
from postcert.probe import (
    AnalysisError,
    ClassKind,
    binary_search_size,
    classify,
    clock_offsets,
    collision_report,
    growth_projection,
    lagging_fraction,
    out_of_order_fraction,
    request_processing_stats,
    submission_to_publication,
)
from postcert.trace import SizeProbe, SthObservation, SubmissionRecord

import oracles


def _sth(t: int, size: int, log_id: str = "log1") -> STH:
    return STH(log_id, t, size, b"\x00" * 32, Signature(log_id, b"\x00" * 32))


def _obs(t: int, size: int, sth_t: int | None = None) -> SthObservation:
    return SthObservation(t, t, _sth(sth_t if sth_t is not None else t, size))


# -- binary search size

def _populated_log(registry, trust, ca_root, n: int) -> CtLog:
    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=0)
    for i in range(n):
        tbs = TbsCertificate(
            serial=10_000 + i, subject=f"s{i}.example", issuer="ca1",
            not_before=0, not_after=10**12, public_key_id="leaf-key-1",
        )
        log.submit(sign_certificate(registry, "ca1", tbs), [ca_root], now=i + 1)
    log.advance(n + 10)
    return log


def test_binary_search_empty_log(registry, trust):
    log = CtLog("log1", registry, trust, seed=0)
    assert binary_search_size(log, now=0).size == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100, 1000])
def test_binary_search_exact_size(registry, trust, ca_root, n):
    log = _populated_log(registry, trust, ca_root, n)
    probe = binary_search_size(log, now=n + 10)
    assert probe.size == n == log.published_size()


def test_binary_search_property_random_sizes(registry, trust, ca_root):
    rng = random.Random(6)
    for _ in range(5):
        n = rng.randrange(0, 400)
        log = _populated_log(registry, trust, ca_root, n)
        assert binary_search_size(log, now=n + 10).size == n


def test_binary_search_sees_past_lagging_sth(registry, trust, ca_root):
    from postcert.log import SthCacheMode

    log = CtLog(
        "log1", registry, trust,
        LogConfig(publication_delay="fixed:0", sth_cache=SthCacheMode.LAGGING, sth_cache_p=1.0),
        seed=0,
    )
    for i in range(25):
        tbs = TbsCertificate(
            serial=10_000 + i, subject=f"s{i}.example", issuer="ca1",
            not_before=0, not_after=10**12, public_key_id="leaf-key-1",
        )
        log.submit(sign_certificate(registry, "ca1", tbs), [ca_root], now=i + 1)
    log.advance(100)
    advertised = log.get_sth(100).treesize
    measured = binary_search_size(log, now=100).size
    assert advertised < measured == 25


class _RecordingReader:
    """A reader serving entries 0..size-1 that records every index it is asked for."""

    log_id = "fake"

    def __init__(self, size: int) -> None:
        self.size = size
        self.reads: list[int] = []

    def get_entries(self, start: int, end: int, now: int | None = None) -> list[int]:
        self.reads.append(start)
        return list(range(start, min(end + 1, self.size)))


@pytest.mark.parametrize("n, reads", [
    (0, [0]),
    (1, [0, 1]),
    (13, [0, 1, 2, 4, 8, 16, 12, 14, 13]),
    (20_000, [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
              24576, 20480, 18432, 19456, 19968, 20224, 20096, 20032, 20000, 19984, 19992,
              19996, 19998, 19999]),
])
def test_binary_search_without_a_hint_reads_the_plain_search_sequence(n, reads):
    reader = _RecordingReader(n)
    assert binary_search_size(reader).size == n
    assert reader.reads == reads


def test_a_hint_above_the_size_falls_back_to_the_search_from_zero():
    reader = _RecordingReader(13)
    assert binary_search_size(reader, at_least=16).size == 13
    assert reader.reads == [15, 0, 1, 2, 4, 8, 16, 12, 14, 13]
    empty = _RecordingReader(0)
    assert binary_search_size(empty, at_least=5).size == 0
    assert empty.reads == [4, 0]


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(0, 600))
def test_galloping_search_is_exact_for_any_hint(data, n):
    at_least = data.draw(st.integers(0, n + 5))
    assert binary_search_size(_RecordingReader(n), at_least=at_least).size == n


@settings(max_examples=300)
@given(n=st.integers(0, 100_000), short=st.integers(0, 100_000))
def test_galloping_search_costs_logarithmic_reads_in_the_growth(n, short):
    delta = min(short, n)
    reader = _RecordingReader(n)
    assert binary_search_size(reader, at_least=n - delta).size == n
    assert len(reader.reads) <= 2 * math.ceil(math.log2(delta + 1)) + 3


@functools.cache
def _hundreds_of_submissions():
    """A registry, trust store, root and 600 leaf certificates, built once."""
    from postcert.certs import TrustStore
    from postcert.crypto import KeyRegistry

    registry = KeyRegistry.with_signers(["ca1", "log1"])
    root = sign_certificate(registry, "ca1", TbsCertificate(
        serial=0, subject="ca1", issuer="ca1", not_before=0, not_after=10**12, public_key_id="ca1",
    ))
    leaves = tuple(
        sign_certificate(registry, "ca1", TbsCertificate(
            serial=10_000 + i, subject=f"s{i}.example", issuer="ca1",
            not_before=0, not_after=10**12, public_key_id="leaf-key-1",
        ))
        for i in range(600)
    )
    return registry, TrustStore([root]), root, leaves


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 600))
def test_galloping_search_is_exact_for_any_hint_on_a_ctlog(data, n):
    at_least = data.draw(st.integers(0, n + 5))
    registry, trust, root, leaves = _hundreds_of_submissions()
    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=0)
    for i, cert in enumerate(leaves[:n]):
        log.submit(cert, [root], now=i + 1)
    assert binary_search_size(log, now=n + 10, at_least=at_least).size == n


def test_simulated_size_probes_gallop_from_the_last_size(monkeypatch):
    from postcert import sim as sim_module
    from postcert.presets import pathologies
    from postcert.sim import Simulation

    hints: dict[str, list[tuple[int, int]]] = {}
    search = sim_module.binary_search_size

    def recording(reader, now=None, at_least=0):
        probe = search(reader, now, at_least)
        hints.setdefault(reader.log_id, []).append((at_least, probe.size))
        return probe

    monkeypatch.setattr(sim_module, "binary_search_size", recording)
    Simulation(pathologies(4, probes=30)).run()
    assert set(hints) == {"ooo", "lagging", "honest"}
    for calls in hints.values():
        assert calls[0][0] == 0
        assert [hint for hint, _ in calls[1:]] == [size for _, size in calls[:-1]]


# -- submission-to-publication

def test_submission_to_publication_direct_definition():
    record = SubmissionRecord("log1", 1000, 1000, b"h", _sct_stub(), final_entry_number=99)
    sths = [_obs(500, 90), _obs(31_000, 100), _obs(60_000, 120)]
    assert submission_to_publication(record, sths) == 30_000


def test_submission_to_publication_never_covered():
    record = SubmissionRecord("log1", 1000, 1000, b"h", _sct_stub(), final_entry_number=99)
    with pytest.raises(AnalysisError) as err:
        submission_to_publication(record, [_obs(2000, 50)])
    assert err.value.code == "never-covered"


def _sct_stub():
    from postcert.log import SCT

    return SCT("log1", 1000, b"\x00" * 32, Signature("log1", b"\x00" * 32))


# -- classification on synthetic series

def _submissions_every(period: int, count: int, start: int = 1000) -> list[SubmissionRecord]:
    return [
        SubmissionRecord("log1", start + i * period, start + i * period, b"h", _sct_stub())
        for i in range(count)
    ]


def _probe_series(updates: list[tuple[int, int]], *, cadence: int = 10_000,
                  horizon: int | None = None) -> list[SthObservation]:
    """Observations at probe cadence, each carrying the latest update state."""
    end = horizon if horizon is not None else updates[-1][0] + cadence * 2
    observations = []
    index = -1
    state = (0, 0)
    for t in range(cadence, end, cadence):
        while index + 1 < len(updates) and updates[index + 1][0] <= t:
            index += 1
            state = updates[index]
        observations.append(SthObservation(t, t, _sth(state[0], state[1])))
    return observations


def test_classify_busy_synthetic():
    # tree head changes between every pair of consecutive observations
    updates = [(t, t // 1000) for t in range(1000, 500_000, 1000)]
    sths = _probe_series(updates)
    subs = _submissions_every(12_500, 35)
    assert classify(sths, subs).kind is ClassKind.BUSY


def test_classify_unbusy_synthetic():
    # each submission merges ~50 s later as its own +1 update
    subs = _submissions_every(60_000, 40, start=5_000)
    updates = [(s.t_request + 50_000, k + 1) for k, s in enumerate(subs)]
    sths = _probe_series(updates)
    result = classify(sths, subs)
    assert result.kind is ClassKind.UNBUSY


def test_classify_periodic_synthetic_with_multiples():
    rng = random.Random(1)
    updates = []
    t = 0
    size = 0
    for _ in range(60):
        t += 120_000 * rng.choice([1, 1, 1, 2])  # occasional skipped tick
        size += rng.randrange(2, 9)
        updates.append((t, size))
    sths = _probe_series(updates)
    subs = _submissions_every(600_000, 10, start=15_000)
    result = classify(sths, subs)
    assert result.kind is ClassKind.PERIODIC
    assert result.interval_ms == 120_000


def test_classify_other_synthetic():
    rng = random.Random(2)
    updates = []
    t = 0
    size = 0
    for _ in range(80):
        t += rng.randrange(45_000, 600_000)
        size += rng.randrange(2, 7)
        updates.append((t, size))
    sths = _probe_series(updates)
    subs = _submissions_every(900_000, 8, start=25_000)
    assert classify(sths, subs).kind is ClassKind.OTHER


def test_classify_insufficient_data():
    sths = [_obs(1000 * k, k) for k in range(10)]
    with pytest.raises(AnalysisError) as err:
        classify(sths, [])
    assert err.value.code == "insufficient-data"


def test_classify_permutation_stable():
    rng = random.Random(3)
    sths = [_obs(t * 1000, t) for t in range(1, 100)]
    subs = _submissions_every(5000, 35)
    baseline = classify(sths, subs)
    for _ in range(5):
        shuffled_sths = sths[:]
        shuffled_subs = subs[:]
        rng.shuffle(shuffled_sths)
        rng.shuffle(shuffled_subs)
        assert classify(shuffled_sths, shuffled_subs) == baseline


def test_binary_search_ten_thousand_entries(registry, trust, ca_root):
    log = _populated_log(registry, trust, ca_root, 10_000)
    assert binary_search_size(log, now=10_100).size == 10_000


def test_submission_to_publication_antitone_in_probe_interval():
    """Halving the probe interval never increases a reported delay, and can
    lower it by at most the removed interval."""
    import dataclasses

    from postcert.presets import delay_percentiles
    from postcert.sim import Simulation
    from postcert.trace import observations_from_events

    coarse = delay_percentiles(seed=31)
    fine = dataclasses.replace(
        coarse, probe=dataclasses.replace(coarse.probe, sth_interval_ms=5000)
    )
    results = []
    for scenario in (coarse, fine):
        obs = observations_from_events(Simulation(scenario).run())
        sths = obs.sths["log-a"]
        results.append([
            submission_to_publication(record, sths)
            for record in obs.submissions["log-a"]
            if record.final_entry_number is not None
        ])
    coarse_delays, fine_delays = results
    assert len(coarse_delays) == len(fine_delays)
    removed = coarse.probe.sth_interval_ms - 5000
    for slow, fast in zip(coarse_delays, fine_delays):
        assert fast <= slow
        assert slow - fast <= removed


# -- clock offsets

def test_clock_offsets_pairwise():
    per_log = {
        "a": [(1000 + 2000, 1000), (5000 + 2000, 5000), (9000 + 2000, 9000)],
        "b": [(1000 - 1000, 1000), (5000 - 1000, 5000), (9000 - 1000, 9000)],
    }
    ids, matrix = clock_offsets(per_log)
    assert ids == ["a", "b"]
    assert matrix[0][0] == 0 and matrix[1][1] == 0
    assert matrix[0][1] == matrix[1][0] == 3000


def test_clock_offsets_insufficient_data():
    with pytest.raises(AnalysisError):
        clock_offsets({"a": [(0, 0)]})


# -- pathology metrics

def test_out_of_order_zero_for_monotone():
    sths = [_obs(t * 1000, t) for t in range(1, 50)]
    assert out_of_order_fraction(sths) == 0.0


def test_out_of_order_counts_regressions():
    sths = [_obs(1000, 10), _obs(2000, 20), _obs(3000, 15, sth_t=1500), _obs(4000, 25)]
    assert out_of_order_fraction(sths) == 0.25


def test_lagging_zero_for_honest():
    sths = [_obs(t * 1000, t) for t in range(1, 30)]
    probes = [SizeProbe("log1", t * 1000 + 500, t) for t in range(1, 30)]
    assert lagging_fraction(sths, probes) == 0.0


def test_lagging_detects_excluded_entries():
    sths = [_obs(10_000, 10), _obs(20_000, 5, sth_t=5000), _obs(30_000, 12)]
    probes = [SizeProbe("log1", 15_000, 11)]
    # the middle response advertises 5 while entry 10 was already retrievable
    assert lagging_fraction(sths, probes) == 0.5


# Small time and size ranges make equal response times, probes on window
# edges and empty windows common.
_times = st.integers(min_value=0, max_value=40)
_sizes = st.integers(min_value=0, max_value=12)


@settings(max_examples=300)
@given(
    sths=st.lists(st.tuples(_times, _sizes), max_size=25),
    probes=st.lists(st.tuples(_times, _sizes), max_size=25),
)
def test_lagging_fraction_matches_quadratic_oracle(sths, probes):
    observations = [_obs(t, size) for t, size in sths]
    size_probes = [SizeProbe("log1", t, size) for t, size in probes]
    assert lagging_fraction(observations, size_probes) == oracles.lagging_fraction(
        observations, size_probes
    )


def test_lagging_fraction_probe_on_window_edges():
    sths = [_obs(10, 3), _obs(20, 3), _obs(20, 3), _obs(30, 9)]
    # a probe at 10 is outside (10, 20]; one at 20 is inside it; nothing
    # falls into the empty (20, 20]; the probe at 30 closes (20, 30]
    probes = [SizeProbe("log1", 10, 8), SizeProbe("log1", 20, 4), SizeProbe("log1", 30, 10)]
    assert lagging_fraction(sths, probes) == oracles.lagging_fraction(sths, probes) == 2 / 3


def test_sth_update_rate_saturates_at_probe_cadence():
    from postcert.probe import sth_update_rate

    # a new tree head at every 10 s observation: rate is only a lower bound
    fast = [_obs(t * 10_000, t) for t in range(1, 100)]
    rate = sth_update_rate(fast)
    assert rate.saturated
    assert rate.render().startswith(">=")
    # one update per hour, observed every 10 s: exact and unsaturated
    slow = _probe_series([(k * 3_600_000, k) for k in range(1, 5)], cadence=10_000)
    rate = sth_update_rate(slow)
    assert not rate.saturated
    assert rate.updates_per_hour == pytest.approx(1.0, rel=0.05)


def test_request_processing_stats():
    records = [
        SubmissionRecord("log1", 0, delay, b"h", _sct_stub())
        for delay in (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
    ]
    summary = request_processing_stats(records)
    assert summary.count == 10
    assert summary.p50 == 550.0
    assert summary.mean == 550.0
    assert summary.p10 < summary.p25 < summary.p75 < summary.p90


_SAMPLES = st.one_of(
    # (values, whether their sum is exact): ints and quarter-steps sum exactly,
    # so the mean is comparable; numpy sums other floats pairwise.
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=400).map(lambda v: (v, True)),
    st.lists(st.integers(-10**12, 10**12).map(lambda k: k / 4), min_size=1, max_size=400)
    .map(lambda v: (v, True)),
    # No -0.0: numpy's partition orders 0.0 and -0.0 as it happens to, so which
    # zero it picks has no rule to copy. Ints never give -0.0.
    st.lists(st.floats(-1e12, 1e12).map(lambda x: x + 0.0), min_size=1, max_size=400)
    .map(lambda v: (v, False)),
)


@settings(max_examples=400, deadline=None)
@given(sample=_SAMPLES)
def test_median_and_percentiles_match_numpy_bit_for_bit(sample):
    from postcert.probe import _median, percentile_summary

    np = pytest.importorskip("numpy")
    values, exact_sum = sample
    summary = percentile_summary(values)
    got = [summary.p10, summary.p25, summary.p50, summary.p75, summary.p90, _median(values)]
    want = [float(np.percentile(np.asarray(values, dtype=float), q)) for q in (10, 25, 50, 75, 90)]
    want.append(float(np.median(values)))
    if exact_sum:
        got.append(summary.mean)
        want.append(float(np.asarray(values, dtype=float).mean()))
    assert [x.hex() for x in got] == [x.hex() for x in want]


# -- collisions

def test_collision_report_groups_duplicates():
    entries = [
        LogEntry(b"A", 1000, "log1", 0),
        LogEntry(b"B", 2000, "log1", 1),
        LogEntry(b"A", 3000, "log1", 2),
    ]
    groups = collision_report(entries)
    assert len(groups) == 1
    assert groups[0].entry_numbers == (0, 2)
    assert groups[0].timestamps == (1000, 3000)


def test_collision_report_empty_without_duplicates():
    entries = [LogEntry(bytes([i]), i, "log1", i) for i in range(5)]
    assert collision_report(entries) == []


# -- growth projection

def test_growth_projection_doubles_at_full_fraction():
    history = [0, 10, 25, 100]
    projected = growth_projection(history, 1.0)
    assert projected[-1] == 200.0
    assert projected == [0.0, 20.0, 50.0, 200.0]


def test_growth_projection_identity_at_zero():
    history = [0, 5, 9]
    assert growth_projection(history, 0.0) == [0.0, 5.0, 9.0]


def test_growth_projection_scales_linear_history():
    history = list(range(0, 1100, 100))
    projected = growth_projection(history, 0.20)
    assert projected == [size * 1.2 for size in history]


def test_growth_projection_rejects_non_monotone():
    with pytest.raises(AnalysisError):
        growth_projection([0, 5, 3], 0.05)
