"""Log performance measurement and analysis.

Implements the five measurement phases against live readers or recorded
traces: periodic tree-head sampling, binary-search size probing, timed
submissions, entry-number resolution, and collision detection; plus the
derived analyses (submission-to-publication delay, update-behavior
classification, pairwise clock offsets, out-of-order and lagging response
rates, request processing percentiles, and the growth projection).

All analyses are pure functions of recorded observations, so replaying the
same trace always reproduces the same report.
"""

from __future__ import annotations

import enum
import hashlib
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .log import AnalysisError, LogEntry
from .trace import SizeProbe, SthObservation, SubmissionRecord


MIN_UPDATES = 30  # distinct tree heads after the first that classify needs
MAJORITY = 0.9  # share that decides each class rule and the update-rate saturation
PERIODIC_TOLERANCE = 0.05  # a gap within 5 % of a multiple of the base counts as periodic


class ClassKind(enum.Enum):
    BUSY = "BUSY"
    UNBUSY = "UNBUSY"
    PERIODIC = "PERIODIC"
    OTHER = "OTHER"


@dataclass(frozen=True)
class LogClass:
    kind: ClassKind
    interval_ms: int | None = None

    def render(self) -> str:
        if self.kind is ClassKind.PERIODIC:
            return f"PERIODIC({self.interval_ms}ms)"
        return self.kind.value


# Phase 2: size probing ------------------------------------------------------------

def binary_search_size(reader, now: int | None = None, at_least: int = 0) -> SizeProbe:
    """Exact count of retrievable entries using O(log n) single-entry reads.

    Works even when the advertised tree head lags behind what the entry
    endpoint already serves. ``at_least`` is a size the caller has already
    seen served: when entry ``at_least - 1`` is still there, the search
    gallops up from it (``at_least``, ``+1``, ``+3``, ``+7``, ...), so a log
    grown by ``d`` entries costs O(log d) reads; otherwise it searches from 0.
    Served entries form a prefix, so the answer is exact for any hint, and
    without one the reads are 0, 1, 2, 4, ... as in a plain search. A
    reader's failure, such as ``LogError`` or ``OSError``, propagates.
    """

    def has_entry(index: int) -> bool:
        return bool(reader.get_entries(index, index, now))

    t = now if now is not None else 0
    base = max(at_least, 1)
    if not has_entry(base - 1):
        if base == 1 or not has_entry(0):
            return SizeProbe(reader.log_id, t, 0)
        base = 1  # the hint is above the size: search from 0
    lo, hi = base - 1, base  # entry lo is present
    while has_entry(hi):
        lo, hi = hi, 2 * hi - base + 1
    # lo is the highest known-present index; the first absent is in (lo, hi]
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if has_entry(mid):
            lo = mid
        else:
            hi = mid
    return SizeProbe(reader.log_id, t, lo + 1)


# Phase 3/4: submission-to-publication ----------------------------------------------

def submission_to_publication(record: SubmissionRecord, sths: list[SthObservation]) -> int:
    """Delay between a submission request and the earliest covering tree-head
    response, both on the reference clock."""
    if record.final_entry_number is None:
        raise AnalysisError("unresolved-entry-number", record.log_id)
    for obs in sorted(sths, key=lambda o: o.t_response):
        if obs.sth.treesize > record.final_entry_number and obs.t_response >= record.t_request:
            return obs.t_response - record.t_request
    raise AnalysisError("never-covered", record.log_id)


# Classification ---------------------------------------------------------------------

def _head(obs: SthObservation) -> tuple[int, int]:
    return obs.sth.t, obs.sth.treesize


def _distinct_sths(sths: list[SthObservation]) -> list[SthObservation]:
    distinct: list[SthObservation] = []
    for obs in sorted(sths, key=lambda o: (o.t_response, *_head(o))):
        # a head no greater than the last one kept repeats it or is a stale older one
        if not distinct or _head(obs) > _head(distinct[-1]):
            distinct.append(obs)
    return distinct


def _busy_fraction(sths: list[SthObservation], submissions: list[SubmissionRecord]) -> float:
    """Share of successful submissions, among those with a head observed
    before the request and one after the response, across which the head
    changed."""
    ordered = sorted(sths, key=lambda o: o.t_response)
    times = [o.t_response for o in ordered]
    covered = hits = 0
    for sub in submissions:
        before = bisect_right(times, sub.t_request) - 1
        after = bisect_right(times, sub.t_response)
        if sub.ok and before >= 0 and after < len(ordered):
            covered += 1
            hits += _head(ordered[after]) != _head(ordered[before])
    return hits / covered if covered else 0.0


def _detect_periodic(gaps: list[int]) -> int | None:
    if not gaps:
        return None
    rounded = Counter(max(1000, round(g / 1000) * 1000) for g in gaps)
    base, count = min(rounded.most_common(), key=lambda kv: (-kv[1], kv[0]))
    # The base must itself be a common gap, otherwise small bases with large
    # multiples would "explain" arbitrary irregular spacings.
    if count / len(gaps) < 0.25:
        return None
    explained = 0
    for gap in gaps:
        multiple = max(1, round(gap / base))
        if abs(gap - multiple * base) <= PERIODIC_TOLERANCE * multiple * base:
            explained += 1
    if explained / len(gaps) >= MAJORITY:
        return base
    return None


def classify(sths: list[SthObservation], submissions: list[SubmissionRecord]) -> LogClass:
    """Classify one log's update behavior from observed tree heads.

    Needs at least 30 updates. Rules apply in order: BUSY when more than 90%
    of successful submissions are followed by an updated tree head at the
    next observation; UNBUSY when at least 90% of updates grow the tree by
    exactly one; PERIODIC when one base interval's integer multiples explain
    at least 90% of the gaps within 5%; OTHER otherwise.
    """
    distinct = _distinct_sths(sths)
    if len(distinct) - 1 < MIN_UPDATES:
        raise AnalysisError("insufficient-data", f"{len(distinct) - 1} updates < {MIN_UPDATES}")
    if _busy_fraction(sths, submissions) > MAJORITY:
        return LogClass(ClassKind.BUSY)
    increments = [
        cur.sth.treesize - prev.sth.treesize for prev, cur in zip(distinct, distinct[1:])
    ]
    plus_one = sum(1 for inc in increments if inc == 1)
    if increments and plus_one / len(increments) >= MAJORITY:
        return LogClass(ClassKind.UNBUSY)
    gaps = [cur.sth.t - prev.sth.t for prev, cur in zip(distinct, distinct[1:]) if cur.sth.t > prev.sth.t]
    base = _detect_periodic(gaps)
    if base is not None:
        return LogClass(ClassKind.PERIODIC, base)
    return LogClass(ClassKind.OTHER)


# Clock offsets -----------------------------------------------------------------------

def clock_offsets(per_log_scts: dict[str, list[tuple[int, int]]]) -> tuple[list[str], list[list[float]]]:
    """Pairwise differences of per-log median clock offsets.

    Input maps each log to (sct_timestamp, reference_response_time) samples;
    the result is a symmetric matrix of absolute median-offset differences
    with a zero diagonal, in sorted log-id order.
    """
    log_ids = sorted(per_log_scts)
    medians: dict[str, float] = {}
    for log_id in log_ids:
        samples = per_log_scts[log_id]
        if len(samples) < 3:
            raise AnalysisError("insufficient-data", f"{log_id}: {len(samples)} SCTs < 3")
        medians[log_id] = _median([ts - ref for ts, ref in samples])
    matrix = [
        [abs(medians[a] - medians[b]) for b in log_ids]
        for a in log_ids
    ]
    return log_ids, matrix


# Response pathologies ------------------------------------------------------------------

def out_of_order_fraction(sths: list[SthObservation]) -> float:
    """Fraction of responses regressing below the running maximum in either
    timestamp or tree size."""
    if not sths:
        return 0.0
    ordered = sorted(sths, key=lambda o: o.t_response)
    # a head that does not regress is at or above both maxima, so it holds them
    max_t, max_size = _head(ordered[0])
    regressions = 0
    for obs in ordered[1:]:
        t, size = _head(obs)
        if t < max_t or size < max_size:
            regressions += 1
        else:
            max_t, max_size = t, size
    return regressions / len(ordered)


def lagging_fraction(sths: list[SthObservation], size_probes: list[SizeProbe]) -> float:
    """Fraction of tree-head responses whose advertised size excludes an entry
    already retrieved by a size probe between them and their predecessor."""
    ordered = sorted(sths, key=lambda o: o.t_response)
    if len(ordered) < 2:
        return 0.0
    probes = sorted(size_probes, key=lambda p: p.t)
    times = [p.t for p in probes]
    lagging = 0
    # The windows (prev.t_response, cur.t_response] are consecutive, so each
    # one starts where the previous one ended.
    lo = bisect_right(times, ordered[0].t_response)
    for cur in ordered[1:]:
        hi = bisect_right(times, cur.t_response, lo)
        if hi > lo:
            window_max = max(probe.size for probe in probes[lo:hi])
            if window_max - 1 >= cur.sth.treesize:
                lagging += 1
        lo = hi
    return lagging / (len(ordered) - 1)


@dataclass(frozen=True)
class UpdateRate:
    """Observed tree-head update rate, saturating at the probe cadence.

    When nearly every observation carries a fresh tree head the true rate is
    faster than the sampling can resolve; ``saturated`` flags that case so the
    rate reads as a lower bound rather than a point estimate.
    """

    updates_per_hour: float
    saturated: bool

    def render(self) -> str:
        prefix = ">=" if self.saturated else ""
        return f"{prefix}{self.updates_per_hour:.1f}/h"


def sth_update_rate(sths: list[SthObservation]) -> UpdateRate:
    """Tree-head updates per hour of observation, saturated when at least
    90% of successive observations saw a new head."""
    distinct = _distinct_sths(sths)
    ordered = sorted(sths, key=lambda o: o.t_response)
    if len(ordered) < 2 or len(distinct) < 2:
        return UpdateRate(0.0, False)
    span_ms = ordered[-1].t_response - ordered[0].t_response
    if span_ms <= 0:
        return UpdateRate(0.0, False)
    updates = len(distinct) - 1
    changed_pairs = sum(_head(cur) != _head(prev) for prev, cur in zip(ordered, ordered[1:]))
    saturated = changed_pairs / (len(ordered) - 1) >= MAJORITY
    return UpdateRate(updates * 3_600_000.0 / span_ms, saturated)


@dataclass(frozen=True)
class PercentileSummary:
    count: int
    p10: float
    p25: float
    p50: float
    p75: float
    p90: float
    mean: float

    def render(self) -> str:
        return (
            f"n={self.count} p10={self.p10:.1f} p25={self.p25:.1f} p50={self.p50:.1f} "
            f"p75={self.p75:.1f} p90={self.p90:.1f} mean={self.mean:.1f}"
        )


def _median(values: list[int | float]) -> float:
    """``numpy.median``: the middle value, or the mean of the two middle values."""
    ordered = sorted(map(float, values))
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _quantile(ordered: list[float], q: float) -> float:
    """``numpy.percentile(values, 100 * q)`` of sorted values: linear
    interpolation at index ``(n - 1) * q``. Like numpy's ``_lerp`` it
    interpolates from the upper neighbour when the fraction is 0.5 or more,
    so the results are the same to the bit."""
    index = (len(ordered) - 1) * q
    if index >= len(ordered) - 1:
        return ordered[-1]
    lower = int(index)
    below, above = ordered[lower], ordered[lower + 1]
    fraction = index - lower
    if fraction >= 0.5:
        return above - (above - below) * (1 - fraction)
    return below + (above - below) * fraction


def percentile_summary(values: list[int | float]) -> PercentileSummary:
    if not values:
        raise AnalysisError("insufficient-data", "no samples")
    ordered = sorted(map(float, values))
    p10, p25, p50, p75, p90 = (_quantile(ordered, q / 100) for q in (10, 25, 50, 75, 90))
    # Every caller passes ints (milliseconds), whose sum is exact, so this is
    # numpy's mean exactly; numpy sums floats pairwise, which can differ.
    return PercentileSummary(len(values), p10, p25, p50, p75, p90, sum(values) / len(values))


def request_processing_stats(records: list[SubmissionRecord]) -> PercentileSummary:
    """Percentiles of request round-trip times for successful submissions."""
    return percentile_summary([r.t_response - r.t_request for r in records if r.ok])


@dataclass(frozen=True)
class CollisionGroup:
    payload_hash: bytes
    entry_numbers: tuple[int, ...]
    timestamps: tuple[int, ...]


def collision_report(entries: list[LogEntry]) -> list[CollisionGroup]:
    """Group identical payloads that occupy several entry numbers."""
    groups: dict[bytes, list[LogEntry]] = {}
    for entry in entries:
        groups.setdefault(entry.payload, []).append(entry)
    collisions = []
    for payload, members in groups.items():
        if len(members) > 1:
            members = sorted(members, key=lambda e: e.number)
            collisions.append(
                CollisionGroup(
                    payload_hash=hashlib.sha256(payload).digest(),
                    entry_numbers=tuple(e.number for e in members),
                    timestamps=tuple(e.t_submission for e in members),
                )
            )
    collisions.sort(key=lambda g: g.entry_numbers[0])
    return collisions


# Growth projection -----------------------------------------------------------------

def growth_projection(history: list[int | float], fraction: float) -> list[float]:
    """Scale every size increment by (1 + fraction).

    With the history starting from the log's birth this is exactly a pointwise
    scaling, so fraction 1.0 doubles the final size.
    """
    if not math.isfinite(fraction) or fraction < 0:
        raise AnalysisError("invalid-fraction", str(fraction))
    previous = None
    for size in history:
        if not math.isfinite(size):
            raise AnalysisError("non-finite-history", str(size))
        if previous is not None and size < previous:
            raise AnalysisError("non-monotone-history")
        previous = size
    return [size * (1.0 + fraction) for size in history]
