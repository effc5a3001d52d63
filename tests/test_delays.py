"""Delay accounting: pathway bounds and mutation behavior."""

from __future__ import annotations

import pytest

from postcert.delays import (
    CURRENT_PROCESSING_LIMIT_MS,
    DelayBreakdown,
    DelayError,
    VIOLATION_DISCOVERY_UPDATE,
    VIOLATION_PROCESSING_UPDATE,
    VIOLATION_PUBLICATION,
    VIOLATION_TOTAL,
    check_bounds,
)
from postcert.misbehavior import MrdMode, MrdPolicy
from postcert.timeutil import DAY_MS, HOUR_MS, MINUTE_MS

PUB = MrdPolicy(MrdMode.FROM_PUBLICATION, mrd_ms=8 * HOUR_MS, mmd_ms=DAY_MS)
SUB = MrdPolicy(MrdMode.FROM_SUBMISSION, mrd_ms=48 * HOUR_MS, mmd_ms=DAY_MS)


def test_negative_component_rejected():
    for make in (DelayBreakdown.current, DelayBreakdown.postcert):
        assert make(0, 0, 0).components == (0, 0, 0)
        for index in range(3):
            parts = [MINUTE_MS] * 3
            parts[index] = -1
            with pytest.raises(DelayError):
                make(*parts)


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
