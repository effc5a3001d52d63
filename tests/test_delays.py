"""Delay accounting: totals, pathway bounds, fast path, mutation behavior."""

from __future__ import annotations

import random

import pytest

from postcert.delays import (
    CURRENT_PROCESSING_LIMIT_MS,
    DelayBreakdown,
    DelayError,
    Pathway,
    VIOLATION_DISCOVERY_UPDATE,
    VIOLATION_PROCESSING_UPDATE,
    VIOLATION_PUBLICATION,
    VIOLATION_TOTAL,
    check_bounds,
    sct_fast_path,
    total_delay,
)
from postcert.misbehavior import MrdMode, MrdPolicy
from postcert.timeutil import DAY_MS, HOUR_MS, MINUTE_MS

PUB = MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=8 * HOUR_MS, mmd_ms=DAY_MS)
SUB = MrdPolicy(MrdMode.FROM_SUBMISSION, mrd_ms=48 * HOUR_MS, mmd_ms=DAY_MS)

PUBLICATION_6_4_MIN = int(6.4 * MINUTE_MS)


def test_current_total():
    b = DelayBreakdown.current(DAY_MS, 2 * DAY_MS, DAY_MS)
    assert total_delay(b) == 4 * DAY_MS


def test_postcert_total_with_measured_publication_delay():
    b = DelayBreakdown.postcert(PUBLICATION_6_4_MIN, 30 * MINUTE_MS, 4 * HOUR_MS)
    assert total_delay(b) == PUBLICATION_6_4_MIN + 30 * MINUTE_MS + 4 * HOUR_MS


def test_zero_total():
    assert total_delay(DelayBreakdown.postcert(0, 0, 0)) == 0


def test_missing_component_raises():
    b = DelayBreakdown(Pathway.POSTCERT, publication_ms=1, status_update_ms=1)
    with pytest.raises(DelayError):
        total_delay(b)


def test_negative_component_rejected():
    with pytest.raises(DelayError):
        DelayBreakdown.postcert(-1, 0, 0)


def test_total_monotone_in_each_component():
    rng = random.Random(3)
    for _ in range(200):
        parts = [rng.randrange(0, DAY_MS) for _ in range(3)]
        base = total_delay(DelayBreakdown.postcert(*parts))
        index = rng.randrange(3)
        bumped = list(parts)
        bumped[index] += rng.randrange(1, HOUR_MS)
        assert total_delay(DelayBreakdown.postcert(*bumped)) > base


def test_current_boundary_is_inclusive():
    b = DelayBreakdown.current(10 * DAY_MS, 3 * DAY_MS, 2 * DAY_MS)
    assert check_bounds(b, PUB) == []  # processing+update == 5d exactly
    over = DelayBreakdown.current(0, 3 * DAY_MS, 2 * DAY_MS + 1)
    violations = check_bounds(over, PUB)
    assert [v.kind for v in violations] == [VIOLATION_PROCESSING_UPDATE]
    assert violations[0].limit_ms == CURRENT_PROCESSING_LIMIT_MS


def test_publication_exceeding_mmd_flagged():
    b = DelayBreakdown.postcert(25 * HOUR_MS, MINUTE_MS, MINUTE_MS)
    violations = check_bounds(b, PUB)
    assert [v.kind for v in violations] == [VIOLATION_PUBLICATION]


def test_submission_mode_total_bound():
    b = DelayBreakdown.postcert(24 * HOUR_MS, 24 * HOUR_MS, HOUR_MS)
    violations = check_bounds(b, SUB)
    assert [v.kind for v in violations] == [VIOLATION_TOTAL]
    exact = DelayBreakdown.postcert(24 * HOUR_MS, 23 * HOUR_MS, HOUR_MS)
    assert check_bounds(exact, SUB) == []


def test_publication_mode_discovery_update_bound():
    b = DelayBreakdown.postcert(HOUR_MS, 7 * HOUR_MS, HOUR_MS + 1)
    violations = check_bounds(b, PUB)
    assert [v.kind for v in violations] == [VIOLATION_DISCOVERY_UPDATE]


def test_mutation_produces_exactly_one_violation_each():
    honest = DelayBreakdown.postcert(2 * HOUR_MS, HOUR_MS, 2 * HOUR_MS)
    assert check_bounds(honest, PUB) == []
    mutations = [
        DelayBreakdown.postcert(PUB.mmd_ms + 1, HOUR_MS, 2 * HOUR_MS),
        DelayBreakdown.postcert(2 * HOUR_MS, PUB.mrd_ms, 2 * HOUR_MS),
        DelayBreakdown.postcert(2 * HOUR_MS, HOUR_MS, PUB.mrd_ms),
    ]
    for mutated in mutations:
        assert len(check_bounds(mutated, PUB)) == 1
    assert check_bounds(honest, SUB) == []
    for index in range(3):
        parts = [2 * HOUR_MS, HOUR_MS, 2 * HOUR_MS]
        parts[index] += SUB.mrd_ms
        assert len(check_bounds(DelayBreakdown.postcert(*parts), SUB)) == 1


def test_fast_path_replaces_publication_and_discovery():
    slow = DelayBreakdown.postcert(PUBLICATION_6_4_MIN, 30 * MINUTE_MS, 4 * HOUR_MS)
    fast = sct_fast_path(slow, MINUTE_MS)
    assert fast.publication_ms == MINUTE_MS
    assert fast.mon_discovery_ms == 0
    assert fast.status_update_ms == 4 * HOUR_MS
    assert total_delay(fast) == MINUTE_MS + 4 * HOUR_MS


def test_fast_path_zero_handoff_reduces_to_update_alone():
    slow = DelayBreakdown.postcert(HOUR_MS, HOUR_MS, 3 * HOUR_MS)
    fast = sct_fast_path(slow, 0)
    assert total_delay(fast) == 3 * HOUR_MS


def test_fast_path_never_slower_when_handoff_is_quicker():
    rng = random.Random(9)
    for _ in range(300):
        publication = rng.randrange(0, DAY_MS)
        discovery = rng.randrange(0, 4 * HOUR_MS)
        update = rng.randrange(0, 4 * DAY_MS)
        slow = DelayBreakdown.postcert(publication, discovery, update)
        handoff = rng.randrange(0, publication + discovery + 1)
        fast = sct_fast_path(slow, handoff)
        assert total_delay(fast) <= total_delay(slow)


def test_fast_path_requires_postcert_pathway():
    with pytest.raises(DelayError):
        sct_fast_path(DelayBreakdown.current(0, 0, 0), 10)
