from __future__ import annotations

import pytest

from postcert.timeutil import (
    DAY_MS,
    DurationError,
    HOUR_MS,
    MINUTE_MS,
    SECOND_MS,
    parse_duration_ms,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("24h", 24 * HOUR_MS),
        ("5d", 5 * DAY_MS),
        ("10m", 10 * MINUTE_MS),
        ("6.4min", int(6.4 * MINUTE_MS)),
        ("30s", 30 * SECOND_MS),
        ("500ms", 500),
        ("1234", 1234),
        (" 2 h ", 2 * HOUR_MS),
    ],
)
def test_parse_duration(text, expected):
    assert parse_duration_ms(text) == expected


def test_parse_duration_rejects_garbage():
    for bad in ("", "h", "10 parsecs", "-5s"):
        with pytest.raises(DurationError):
            parse_duration_ms(bad)
