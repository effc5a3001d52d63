"""Independent brute-force oracles used to check the production code.

Everything here recomputes results from first principles (naive recursive
splits over raw payloads, direct hashlib calls) and never reuses the
production tree machinery, so a bug cannot cancel itself out.
"""

from __future__ import annotations

import hashlib

from postcert.crypto import HashScheme, SHA256


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def split_point(n: int) -> int:
    """Largest power of two strictly below n."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


class BruteForceTree:
    """Naive recursive-split Merkle tree over raw payloads."""

    def __init__(self, payloads: list[bytes], scheme: HashScheme = SHA256) -> None:
        self.payloads = list(payloads)
        self.scheme = scheme
        self._memo: dict[tuple[int, int], bytes] = {}

    def _mth(self, lo: int, hi: int) -> bytes:
        if hi - lo == 1:
            return self.scheme.hash_leaf(self.payloads[lo])
        key = (lo, hi)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        k = split_point(hi - lo)
        value = self.scheme.hash_node(self._mth(lo, lo + k), self._mth(lo + k, hi))
        self._memo[key] = value
        return value

    def root(self, n: int | None = None) -> bytes:
        n = len(self.payloads) if n is None else n
        if n == 0:
            return self.scheme.empty_root()
        return self._mth(0, n)

    def audit_path(self, index: int, treesize: int) -> tuple[bytes, ...]:
        def walk(m: int, lo: int, hi: int) -> list[bytes]:
            if hi - lo == 1:
                return []
            k = split_point(hi - lo)
            if m < lo + k:
                return walk(m, lo, lo + k) + [self._mth(lo + k, hi)]
            return walk(m, lo + k, hi) + [self._mth(lo, lo + k)]

        return tuple(walk(index, 0, treesize))

    def consistency_path(self, first: int, second: int) -> tuple[bytes, ...]:
        if first == 0 or first == second:
            return ()

        def sub(m: int, lo: int, hi: int, whole: bool) -> list[bytes]:
            if m == hi - lo:
                return [] if whole else [self._mth(lo, hi)]
            k = split_point(hi - lo)
            if m <= k:
                return sub(m, lo, lo + k, whole) + [self._mth(lo + k, hi)]
            return sub(m - k, lo + k, hi, False) + [self._mth(lo, lo + k)]

        return tuple(sub(first, 0, second, True))


def lagging_fraction(sths, size_probes) -> float:
    """Quadratic rescan: for each consecutive pair of tree-head responses,
    the largest size probed in (prev.t_response, cur.t_response]."""
    ordered = sorted(sths, key=lambda o: o.t_response)
    if len(ordered) < 2:
        return 0.0
    probes = sorted(size_probes, key=lambda p: p.t)
    lagging = 0
    for prev, cur in zip(ordered, ordered[1:]):
        window_max = None
        for probe in probes:
            if prev.t_response < probe.t <= cur.t_response:
                window_max = probe.size if window_max is None else max(window_max, probe.size)
            elif probe.t > cur.t_response:
                break
        if window_max is not None and window_max - 1 >= cur.sth.treesize:
            lagging += 1
    return lagging / (len(ordered) - 1)


def lagging_sth_draw(history, size: int, rng, p: float):
    """The LAGGING tree-head draw as a full scan: with probability ``p`` a
    uniformly chosen head older than ``size``, else the latest."""
    latest = history[-1]
    if len(history) < 2 or rng.random() >= p:
        return latest
    stale = [sth for sth in history if sth.treesize < size]
    if not stale:
        return latest
    return rng.choice(stale)
