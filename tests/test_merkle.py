"""Tree, audit-proof and consistency-proof equivalence with the naive oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postcert.crypto import DIGEST_LEN, SHA256
from postcert.merkle import MerkleTree, root_from_audit_path, verify_consistency

from oracles import BruteForceTree, TruncatedHashScheme


def _payloads(n: int, seed: int = 100) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(rng.randrange(1, 40)) for _ in range(n)]


def _tree(payloads: list[bytes], scheme=SHA256) -> MerkleTree:
    tree = MerkleTree(scheme)
    for payload in payloads:
        tree.append(payload)
    return tree


def test_empty_root():
    assert MerkleTree().root() == SHA256.empty_root()


def test_single_leaf_root_is_leaf_hash():
    tree = _tree([b"entry-0"])
    assert tree.root() == SHA256.hash_leaf(b"entry-0")


def test_two_leaf_root_matches_node_of_leaves():
    payloads = [b"e0", b"e1"]
    tree = _tree(payloads)
    expected = SHA256.hash_node(SHA256.hash_leaf(b"e0"), SHA256.hash_leaf(b"e1"))
    assert tree.root() == expected
    assert BruteForceTree(payloads).root() == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100, 256])
def test_roots_match_oracle(n):
    payloads = _payloads(n)
    tree = _tree(payloads)
    oracle = BruteForceTree(payloads)
    for size in range(n + 1):
        assert tree.root(size) == oracle.root(size)


def test_audit_paths_match_oracle_exhaustively_small():
    payloads = _payloads(64, seed=101)
    tree = _tree(payloads)
    oracle = BruteForceTree(payloads)
    for size in range(1, 65):
        for index in range(size):
            assert tree.audit_path(index, size) == oracle.audit_path(index, size)


def test_audit_paths_verify_against_oracle_roots():
    payloads = _payloads(70, seed=102)
    tree = _tree(payloads)
    oracle = BruteForceTree(payloads)
    for size in (1, 2, 3, 9, 33, 70):
        for index in range(size):
            path = tree.audit_path(index, size)
            leaf = SHA256.hash_leaf(payloads[index])
            assert root_from_audit_path(leaf, index, size, path) == oracle.root(size)


def test_audit_path_length_bound():
    payloads = _payloads(64, seed=103)
    tree = _tree(payloads)
    for size in range(1, 65):
        for index in range(size):
            assert len(tree.audit_path(index, size)) <= max(1, (size - 1)).bit_length()


def test_consistency_paths_match_oracle_exhaustively_small():
    payloads = _payloads(64, seed=104)
    tree = _tree(payloads)
    oracle = BruteForceTree(payloads)
    for second in range(65):
        for first in range(second + 1):
            assert tree.consistency_path(first, second) == oracle.consistency_path(first, second)


def test_consistency_verifies_against_oracle_roots_exhaustively():
    payloads = _payloads(64, seed=105)
    tree = _tree(payloads)
    oracle = BruteForceTree(payloads)
    for second in range(65):
        for first in range(second + 1):
            path = tree.consistency_path(first, second)
            assert verify_consistency(
                first, second, oracle.root(first), oracle.root(second), path
            ), (first, second)


def test_consistency_reflexive_is_empty_and_true():
    payloads = _payloads(12, seed=106)
    tree = _tree(payloads)
    path = tree.consistency_path(12, 12)
    assert path == ()
    assert verify_consistency(12, 12, tree.root(12), tree.root(12), path)


def test_consistency_fails_for_forked_tree():
    payloads = _payloads(20, seed=107)
    tree = _tree(payloads)
    # fork: drop entry 10, shift the rest
    forked = BruteForceTree(payloads[:10] + payloads[11:])
    path = tree.consistency_path(8, 19)
    assert not verify_consistency(8, 19, tree.root(8), forked.root(19), path)


def test_audit_proof_rejects_bit_flips():
    payloads = _payloads(33, seed=108)
    tree = _tree(payloads)
    index, size = 17, 33
    path = tree.audit_path(index, size)
    leaf = SHA256.hash_leaf(payloads[index])
    good = root_from_audit_path(leaf, index, size, path)
    assert good == tree.root(size)
    for position in range(len(path)):
        for bit in (0, 7):
            broken = list(path)
            flipped = bytearray(broken[position])
            flipped[0] ^= 1 << bit
            broken[position] = bytes(flipped)
            assert root_from_audit_path(leaf, index, size, tuple(broken)) != good


def test_audit_proof_soundness_exhaustive():
    """Every proof verifies for its own payload at its own index, and for no
    other payload at that index nor its payload at another index (trees <= 64)."""
    payloads = _payloads(64, seed=109)
    assert len(set(payloads)) == len(payloads)
    leaves = [SHA256.hash_leaf(payload) for payload in payloads]
    tree = _tree(payloads)
    oracle = BruteForceTree(payloads)
    for size in range(1, 65):
        root = oracle.root(size)
        for index in range(size):
            path = tree.audit_path(index, size)
            assert root_from_audit_path(leaves[index], index, size, path) == root
            for other in range(size):
                if other == index:
                    continue
                assert root_from_audit_path(leaves[other], index, size, path) != root
                assert root_from_audit_path(leaves[index], other, size, path) != root


def test_wrong_treesize_does_not_verify():
    payloads = _payloads(40, seed=110)
    tree = _tree(payloads)
    path = tree.audit_path(5, 30)
    leaf = SHA256.hash_leaf(payloads[5])
    assert root_from_audit_path(leaf, 5, 31, path) != tree.root(31)


def test_consistency_empty_prefix():
    payloads = _payloads(9, seed=111)
    tree = _tree(payloads)
    assert tree.consistency_path(0, 9) == ()
    assert verify_consistency(0, 9, SHA256.empty_root(), tree.root(9), ())
    assert not verify_consistency(0, 9, tree.root(1), tree.root(9), ())


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 40), data=st.data())
def test_a_hash_of_another_length_is_a_verdict_not_an_error(size, data):
    """A leaf hash, root or path node that is not a 32-byte digest makes
    ``root_from_audit_path`` return None and ``verify_consistency`` False;
    neither raises."""
    payloads = _payloads(size, seed=114)
    tree = _tree(payloads)
    bad = data.draw(st.binary(max_size=2 * DIGEST_LEN).filter(lambda value: len(value) != DIGEST_LEN))

    index = data.draw(st.integers(0, size - 1))
    hashes = [SHA256.hash_leaf(payloads[index]), *tree.audit_path(index, size)]
    hashes[data.draw(st.integers(0, len(hashes) - 1))] = bad
    assert root_from_audit_path(hashes[0], index, size, tuple(hashes[1:])) is None

    first = data.draw(st.integers(0, size))
    hashes = [tree.root(first), tree.root(size), *tree.consistency_path(first, size)]
    hashes[data.draw(st.integers(0, len(hashes) - 1))] = bad
    assert verify_consistency(first, size, hashes[0], hashes[1], tuple(hashes[2:])) is False


# Sizes around each power of two up to 4 097, where a new upper level starts
# or a level's packed node count turns odd.
_EDGE_SIZES = sorted({size for k in range(1, 13) for size in ((1 << k) - 1, 1 << k, (1 << k) + 1)})


def _check_growing_tree(scheme, every_size_up_to: int) -> None:
    """Appends between queries under ``scheme``: at every size the newest
    leaf hash matches; every root, leaf hash, audit path and consistency path
    matches the oracle at each size up to ``every_size_up_to``; at each size
    of ``_EDGE_SIZES`` above it, the root, every earlier root of an edge size,
    and the leaf hashes and paths of the edge and sampled indexes do."""
    payloads = _payloads(_EDGE_SIZES[-1], seed=112)
    leaves = [scheme.hash_leaf(payload) for payload in payloads]
    oracle = BruteForceTree(payloads, scheme)
    tree = MerkleTree(scheme)
    rng = random.Random(113)
    for n in range(1, len(payloads) + 1):
        assert tree.append(payloads[n - 1]) == leaves[n - 1]
        assert tree.size == n
        assert tree.leaf_hash(n - 1) == leaves[n - 1]
        if n <= every_size_up_to:
            indexes, firsts = range(n), range(n + 1)
        elif n in _EDGE_SIZES:
            edges = [size for size in _EDGE_SIZES if size <= n]
            indexes = {0, n - 1, *(size - 1 for size in edges), *rng.sample(range(n), 20)}
            firsts = {0, n, *edges, *rng.sample(range(n), 20)}
            for size in edges:
                assert tree.root(size) == oracle.root(size)
        else:
            continue
        assert tree.root() == oracle.root(n)
        assert isinstance(tree.root(), bytes)
        for index in indexes:
            assert tree.leaf_hash(index) == leaves[index]
            assert isinstance(tree.leaf_hash(index), bytes)
            assert tree.audit_path(index, n) == oracle.audit_path(index, n)
        with pytest.raises(IndexError):
            tree.leaf_hash(n)
        for first in firsts:
            assert tree.consistency_path(first, n) == oracle.consistency_path(first, n)
        earlier = n // 3
        assert tree.root(earlier) == oracle.root(earlier)


def test_interleaved_appends_match_oracle_at_every_size():
    _check_growing_tree(SHA256, every_size_up_to=130)


def test_interleaved_appends_match_oracle_under_a_truncated_hash():
    """Two-byte digests collide often, which a store that looked nodes up by
    value, not by position, would get wrong."""
    _check_growing_tree(TruncatedHashScheme(2), every_size_up_to=130)
