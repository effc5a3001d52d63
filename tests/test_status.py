"""Status issuance rules and the update deadline formula."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from postcert.certs import CertRef, PostcertScheme, make_postcertificate
from postcert.encoding import encode_artifact
from postcert.log import SCT, LogEntry
from postcert.status import (
    StatusError,
    StatusKind,
    StatusValue,
    VALIDITY_MAX_MS,
    VALIDITY_MIN_MS,
    issue_status,
    status_update_deadline,
    verify_status,
)
from postcert.timeutil import DAY_MS, HOUR_MS


REF = CertRef("ca1", 7)


def _sct_evidence() -> SCT:
    from postcert.crypto import Signature

    return SCT("log1", 500, b"\x00" * 32, Signature("log1", b"\x01" * 32))


def test_issue_good_status_signs_and_verifies(registry):
    status = issue_status(registry, "ca1", REF, StatusValue.good(), 1000, 10 * HOUR_MS)
    assert verify_status(status, registry)
    assert status.t == 1000
    assert status.value.kind is StatusKind.GOOD


def test_issue_revoked_requires_evidence_in_honest_mode(registry):
    with pytest.raises(StatusError) as err:
        issue_status(registry, "ca1", REF, StatusValue.revoked(), 1000, 10 * HOUR_MS)
    assert err.value.code == "missing-postcertificate-evidence"


def test_issue_revoked_with_sct_evidence(registry):
    status = issue_status(
        registry, "ca1", REF, StatusValue.revoked("keyCompromise"), 1000, 10 * HOUR_MS,
        evidence=_sct_evidence(),
    )
    assert status.value.kind is StatusKind.REVOKED
    assert status.t > _sct_evidence().timestamp


def test_issue_revoked_with_entry_evidence_checks_target(registry, leaf_cert):
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    entry = LogEntry(encode_artifact(post), 500, "log1", 0)
    status = issue_status(
        registry, "ca1", REF, StatusValue.revoked(), 1000, 10 * HOUR_MS, evidence=entry,
    )
    assert status.value.kind is StatusKind.REVOKED
    wrong_ref = CertRef("ca1", 999)
    with pytest.raises(StatusError):
        issue_status(
            registry, "ca1", wrong_ref, StatusValue.revoked(), 1000, 10 * HOUR_MS,
            evidence=entry,
        )


def test_dishonest_mode_skips_evidence_check(registry):
    status = issue_status(
        registry, "ca1", REF, StatusValue.revoked(), 1000, 10 * HOUR_MS, honest=False,
    )
    assert status.value.kind is StatusKind.REVOKED


def test_validity_out_of_range(registry):
    for validity in (4 * HOUR_MS, VALIDITY_MIN_MS - 1, VALIDITY_MAX_MS + 1):
        with pytest.raises(StatusError) as err:
            issue_status(registry, "ca1", REF, StatusValue.good(), 0, validity)
        assert err.value.code == "validity-out-of-range"
    # bounds themselves are legal
    issue_status(registry, "ca1", REF, StatusValue.good(), 0, VALIDITY_MIN_MS)
    issue_status(registry, "ca1", REF, StatusValue.good(), 0, VALIDITY_MAX_MS)


def test_deadline_table():
    assert status_update_deadline(8 * HOUR_MS) == 4 * HOUR_MS
    assert status_update_deadline(16 * HOUR_MS) == 8 * HOUR_MS
    assert status_update_deadline(10 * DAY_MS) == 4 * DAY_MS


def test_deadline_branch_continuity_at_16h():
    just_below = status_update_deadline(16 * HOUR_MS - 2)
    at = status_update_deadline(16 * HOUR_MS)
    assert at == 8 * HOUR_MS
    assert abs(just_below - at) <= 1


def test_deadline_rejects_out_of_range():
    with pytest.raises(StatusError):
        status_update_deadline(HOUR_MS)
    with pytest.raises(StatusError):
        status_update_deadline(11 * DAY_MS)


@given(st.integers(min_value=VALIDITY_MIN_MS, max_value=VALIDITY_MAX_MS))
def test_deadline_bounded_by_window(validity):
    deadline = status_update_deadline(validity)
    assert 0 < deadline < validity
    assert deadline <= 4 * DAY_MS


@given(
    st.integers(min_value=VALIDITY_MIN_MS, max_value=VALIDITY_MAX_MS - 1),
    st.integers(min_value=1, max_value=12 * HOUR_MS),
)
def test_deadline_monotone_non_decreasing(validity, bump):
    higher = min(validity + bump, VALIDITY_MAX_MS)
    assert status_update_deadline(validity) <= status_update_deadline(higher)
