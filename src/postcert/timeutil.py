"""Millisecond-based time constants and duration parsing.

All timestamps in the toolkit are integer UTC milliseconds; durations are
integer milliseconds as well, so trace files and signatures stay bit-exact.
"""

from __future__ import annotations

import re

MILLISECOND = 1
SECOND_MS = 1000
MINUTE_MS = 60 * SECOND_MS
HOUR_MS = 60 * MINUTE_MS
DAY_MS = 24 * HOUR_MS

_UNITS = {
    "ms": MILLISECOND,
    "s": SECOND_MS,
    "sec": SECOND_MS,
    "m": MINUTE_MS,
    "min": MINUTE_MS,
    "h": HOUR_MS,
    "d": DAY_MS,
}

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|sec|min|[smhd])\s*$")


class DurationError(ValueError):
    pass


def parse_duration_ms(text: str) -> int:
    """Parse a duration like ``24h``, ``6.4min``, ``30s`` or ``500ms``.

    A bare integer is taken as milliseconds.
    """
    stripped = text.strip()
    if stripped.isdigit():
        return int(stripped)
    match = _DURATION_RE.match(stripped)
    if not match:
        raise DurationError(f"unparseable duration: {text!r}")
    value, unit = match.groups()
    return int(round(float(value) * _UNITS[unit]))
