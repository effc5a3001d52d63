"""Append-only Merkle tree with audit and consistency proofs.

Tree shape follows the transparency-log convention: a tree over n leaves
splits at the largest power of two strictly less than n, leaves are hashed
with the 0x00 prefix and nodes with 0x01. The store keeps every complete,
aligned subtree hash, level by level (the compact-range layout of RFC 9162
section 2.1), so a root or proof node is a short fold over stored nodes
rather than a recursion over leaves. Every level, the leaves included, is one
packed ``bytearray`` of 32-byte digests, so a stored node costs its 32 bytes
and no object. Proof verification uses the iterative index-walk algorithms,
so generation and verification are independent code paths.
"""

from __future__ import annotations

from .crypto import DIGEST_LEN, HashScheme, SHA256


def largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 1 << (n.bit_length() - 1) if n & (n - 1) else n >> 1


class MerkleTree:
    """Grow-only leaf store keeping every complete subtree hash per level.

    Bytes ``[32 * i, 32 * (i + 1))`` of ``_levels[h]`` are the hash of leaves
    ``[i << h, (i + 1) << h)``; level 0 holds the leaf hashes. ``append``
    hashes each complete node as soon as its right half arrives; the levels
    above the leaves hold under one node per leaf and no subtree is ever
    hashed twice.
    """

    def __init__(self, scheme: HashScheme = SHA256) -> None:
        self.scheme = scheme
        self._levels: list[bytearray] = [bytearray()]

    @property
    def size(self) -> int:
        return len(self._levels[0]) // DIGEST_LEN

    def append(self, payload: bytes, leaf_hash: bytes | None = None) -> bytes:
        """Add one leaf and return its hash. A caller that already holds
        ``hash_leaf(payload)`` passes it as ``leaf_hash`` to skip rehashing."""
        leaf = self.scheme.hash_leaf(payload) if leaf_hash is None else leaf_hash
        hash_node = self.scheme.hash_node
        node = leaf
        # Each level the new node leaves with an even count completes one
        # more node above it.
        for level in self._levels:
            level += node
            if len(level) // DIGEST_LEN & 1:
                return leaf
            node = hash_node(level[-2 * DIGEST_LEN : -DIGEST_LEN], node)
        self._levels.append(bytearray(node))
        return leaf

    def _node(self, height: int, index: int) -> bytearray:
        at = index * DIGEST_LEN
        return self._levels[height][at : at + DIGEST_LEN]

    def leaf_hash(self, index: int) -> bytes:
        if not 0 <= index < self.size:
            raise IndexError("leaf index out of range")
        return bytes(self._node(0, index))

    def _range_hash(self, lo: int, hi: int) -> bytes:
        """Hash of leaves ``[lo, hi)``.

        ``lo`` must be a multiple of the smallest power of two that is at
        least ``hi - lo``, which holds for every range the split recursion
        visits. The range is then one stored node per set bit of ``hi - lo``,
        largest first, and its hash is the right-to-left fold over them.
        """
        nodes: list[bytes | bytearray] = []
        start, rest = lo, hi - lo
        while rest:
            height = rest.bit_length() - 1
            nodes.append(self._node(height, start >> height))
            start += 1 << height
            rest -= 1 << height
        value = nodes.pop()
        while nodes:
            value = self.scheme.hash_node(nodes.pop(), value)
        return bytes(value)

    def root(self, treesize: int | None = None) -> bytes:
        n = self.size if treesize is None else treesize
        if not 0 <= n <= self.size:
            raise ValueError("treesize out of range")
        if n == 0:
            return self.scheme.empty_root()
        return self._range_hash(0, n)

    def audit_path(self, index: int, treesize: int) -> tuple[bytes, ...]:
        """Sibling hashes from the leaf up to the root of the first
        ``treesize`` leaves."""
        if not 0 <= index < treesize <= self.size:
            raise ValueError("audit path arguments out of range")
        path: list[bytes] = []
        lo, hi = 0, treesize
        while hi - lo > 1:
            k = largest_power_of_two_below(hi - lo)
            mid = lo + k
            if index < mid:
                path.append(self._range_hash(mid, hi))
                hi = mid
            else:
                path.append(self._range_hash(lo, mid))
                lo = mid
        path.reverse()
        return tuple(path)

    def consistency_path(self, first: int, second: int) -> tuple[bytes, ...]:
        """Proof that the first ``first`` leaves are a prefix of the first
        ``second`` leaves."""
        if not 0 <= first <= second <= self.size:
            raise ValueError("consistency path arguments out of range")
        if first == 0 or first == second:
            return ()
        return tuple(self._subproof(first, 0, second, True))

    def _subproof(self, m: int, lo: int, hi: int, complete_prefix: bool) -> list[bytes]:
        n = hi - lo
        if m == n:
            return [] if complete_prefix else [self._range_hash(lo, hi)]
        k = largest_power_of_two_below(n)
        if m <= k:
            return self._subproof(m, lo, lo + k, complete_prefix) + [self._range_hash(lo + k, hi)]
        return self._subproof(m - k, lo + k, hi, False) + [self._range_hash(lo, lo + k)]


def _digests(*hashes: bytes) -> bool:
    return all(len(value) == DIGEST_LEN for value in hashes)


def root_from_audit_path(leaf_hash: bytes, index: int, treesize: int, path: tuple[bytes, ...]) -> bytes | None:
    """Reconstruct the SHA-256 root implied by an audit path, or None if
    malformed: out-of-range index, wrong path length or a hash that is not a
    32-byte digest."""
    if index >= treesize or treesize < 1 or not _digests(leaf_hash, *path):
        return None
    fn, sn = index, treesize - 1
    value = leaf_hash
    for node in path:
        if sn == 0:
            return None
        if fn & 1 or fn == sn:
            value = SHA256.hash_node(node, value)
            if not fn & 1:
                while True:
                    fn >>= 1
                    sn >>= 1
                    if fn & 1 or fn == 0:
                        break
        else:
            value = SHA256.hash_node(value, node)
        fn >>= 1
        sn >>= 1
    if sn != 0:
        return None
    return value


def verify_consistency(
    first: int, second: int, first_root: bytes, second_root: bytes, path: tuple[bytes, ...]
) -> bool:
    """Check that the SHA-256 tree of size ``second`` extends the tree of
    size ``first`` whose root was ``first_root``; False for a root or path
    node that is not a 32-byte digest."""
    if first > second or not _digests(first_root, second_root, *path):
        return False
    if first == second:
        return not path and first_root == second_root
    if first == 0:
        return not path and first_root == SHA256.empty_root()
    hashes = list(path)
    if first & (first - 1) == 0:
        hashes.insert(0, first_root)
    if not hashes:
        return False
    fn, sn = first - 1, second - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    fr = sr = hashes[0]
    for node in hashes[1:]:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            fr = SHA256.hash_node(node, fr)
            sr = SHA256.hash_node(node, sr)
            if not fn & 1:
                while True:
                    fn >>= 1
                    sn >>= 1
                    if fn & 1 or fn == 0:
                        break
        else:
            sr = SHA256.hash_node(sr, node)
        fn >>= 1
        sn >>= 1
    return fr == first_root and sr == second_root and sn == 0
