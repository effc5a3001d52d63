"""Hashing and signature primitives, checked against hashlib directly."""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postcert.crypto import (
    DIGEST_LEN,
    KeyRegistry,
    SHA256,
    Signature,
    UnknownSignerError,
)

from oracles import TruncatedHashScheme


def test_leaf_hash_of_empty_is_sha256_of_single_zero_byte():
    assert SHA256.hash_leaf(b"") == hashlib.sha256(b"\x00").digest()
    # well-known constant for the empty leaf
    assert SHA256.hash_leaf(b"").hex() == (
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
    )


def test_empty_root_is_sha256_of_empty_string():
    assert SHA256.empty_root() == hashlib.sha256(b"").digest()
    assert SHA256.empty_root().hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_leaf_hash_matches_reference_prefixing():
    rng = random.Random(11)
    for _ in range(200):
        payload = rng.randbytes(rng.randrange(0, 64))
        assert SHA256.hash_leaf(payload) == hashlib.sha256(b"\x00" + payload).digest()


def test_node_hash_matches_reference_prefixing():
    rng = random.Random(12)
    for _ in range(200):
        left = rng.randbytes(DIGEST_LEN)
        right = rng.randbytes(DIGEST_LEN)
        expected = hashlib.sha256(b"\x01" + left + right).digest()
        assert SHA256.hash_node(left, right) == expected


def test_node_hash_is_order_sensitive():
    a = SHA256.hash_leaf(b"a")
    b = SHA256.hash_leaf(b"b")
    assert SHA256.hash_node(a, b) != SHA256.hash_node(b, a)


def test_hash_determinism_and_practical_injectivity():
    rng = random.Random(13)
    seen: dict[bytes, bytes] = {}
    for _ in range(10_000):
        payload = rng.randbytes(rng.randrange(0, 32))
        digest = SHA256.hash_leaf(payload)
        assert SHA256.hash_leaf(payload) == digest  # deterministic
        if payload in seen:
            assert seen[payload] == digest
        else:
            for other, other_digest in list(seen.items())[:50]:
                if other != payload:
                    assert other_digest != digest
            seen[payload] = digest


def test_leaf_and_node_domains_never_collide():
    rng = random.Random(14)
    node_digests = set()
    leaf_digests = set()
    for _ in range(2000):
        payload = rng.randbytes(64)
        leaf_digests.add(SHA256.hash_leaf(payload))
        node_digests.add(SHA256.hash_node(payload[:32], payload[32:]))
    assert not node_digests & leaf_digests


def test_leaf_differs_from_node_on_same_64_byte_payload():
    payload = bytes(range(64))
    assert SHA256.hash_leaf(payload) != SHA256.hash_node(payload[:32], payload[32:])


def test_truncated_scheme_keeps_digest_length():
    scheme = TruncatedHashScheme(4)
    digest = scheme.hash_leaf(b"abc")
    assert len(digest) == DIGEST_LEN
    assert digest[:4] == hashlib.sha256(b"\x00abc").digest()[:4]
    assert digest[4:] == bytes(28)


def test_sign_verify_round_trip(registry):
    payload = b"tree head bytes"
    sig = registry.sign("log1", payload)
    assert registry.verify(sig, payload)


def test_verify_rejects_tampered_payload(registry):
    payload = b"tree head bytes"
    sig = registry.sign("log1", payload)
    assert not registry.verify(sig, payload + b"\x00")


def test_verify_rejects_wrong_signer(registry):
    payload = b"tree head bytes"
    sig = registry.sign("log1", payload)
    forged = Signature(signer_id="log2", value=sig.value)
    assert not registry.verify(forged, payload)


def test_verify_unknown_signer_is_false(registry):
    sig = Signature(signer_id="nobody", value=b"x" * 32)
    assert not registry.verify(sig, b"payload")


def test_sign_unknown_signer_raises(registry):
    with pytest.raises(UnknownSignerError):
        registry.sign("nobody", b"payload")


def test_signatures_are_deterministic(registry):
    a = registry.sign("ca1", b"status")
    b = registry.sign("ca1", b"status")
    assert a == b


def test_registry_with_explicit_secret_isolates_keys():
    registry = KeyRegistry({"a": b"secret-a", "b": b"secret-b"})
    sig = registry.sign("a", b"m")
    assert registry.verify(sig, b"m")
    assert not registry.verify(Signature("b", sig.value), b"m")


def test_sign_matches_rfc4231_hmac_sha256_vector():
    # RFC 4231, test case 2.
    registry = KeyRegistry({"jefe": b"Jefe"})
    sig = registry.sign("jefe", b"what do ya want for nothing?")
    assert sig.value.hex() == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    assert registry.verify(sig, b"what do ya want for nothing?")


def test_sign_matches_hmac_new_for_derived_secrets():
    from postcert.crypto import _derive_secret

    registry = KeyRegistry.with_signers(["log1", "ca1"])
    rng = random.Random(5)
    for signer_id in ("log1", "ca1"):
        for _ in range(50):
            payload = rng.randbytes(rng.randrange(0, 200))
            expected = hmac.new(_derive_secret(signer_id), payload, hashlib.sha256).digest()
            sig = registry.sign(signer_id, payload)
            assert sig.value == expected
            assert registry.verify(sig, payload)
            assert not registry.verify(Signature(signer_id, bytes([expected[0] ^ 1]) + expected[1:]),
                                       payload)


@pytest.mark.parametrize("secret, payload", [
    # RFC 4231, test case 6: a 131-byte key, longer than the SHA-256 block.
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First"),
    (b"k", b"short secret"),
    (b"", b"empty secret"),
    (b"secret", b""),
    # around the 64-byte block: padded, exact, and hashed first
    pytest.param(bytes(range(63)), b"one byte short of a block", id="key-63"),
    pytest.param(bytes(range(64)), b"exactly one block", id="key-64"),
    pytest.param(bytes(range(65)), b"one byte past a block", id="key-65"),
])
def test_keyed_state_agrees_with_one_shot_hmac(secret, payload):
    registry = KeyRegistry({"s": secret})
    expected = hmac.digest(secret, payload, "sha256")
    sig = registry.sign("s", payload)
    assert sig.value == expected
    assert registry.verify(sig, payload)
    assert registry.sign("s", payload) == sig  # the keyed state is copied, never consumed
    assert not registry.verify(sig, payload + b"x")


@settings(max_examples=300)
@given(secret=st.binary(max_size=200), payload=st.binary(max_size=300))
def test_pad_state_tags_equal_hmac_for_any_key_and_payload(secret, payload):
    registry = KeyRegistry({"s": secret})
    sig = registry.sign("s", payload)
    assert sig.value == hmac.new(secret, payload, hashlib.sha256).digest()
    assert registry.verify(sig, payload)


def _flip(data: bytes, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@pytest.mark.parametrize("bit", [0, 7, 100, 255])
def test_verify_rejects_a_one_bit_flip_of_tag_payload_or_signer(bit):
    # "s" and "r" differ in one bit, and both are known signers
    registry = KeyRegistry.with_signers(["s", "r"])
    payload = b"a payload of thirty-two bytes.."
    sig = registry.sign("s", payload)
    assert registry.verify(sig, payload)
    assert not registry.verify(Signature("s", _flip(sig.value, bit)), payload)
    assert not registry.verify(sig, _flip(payload, bit % (8 * len(payload))))
    assert not registry.verify(Signature(_flip(b"s", 0).decode(), sig.value), payload)


def test_sign_matches_rfc4231_case_6_long_key_vector():
    registry = KeyRegistry({"long": b"\xaa" * 131})
    sig = registry.sign("long", b"Test Using Larger Than Block-Size Key - Hash Key First")
    assert sig.value.hex() == "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
