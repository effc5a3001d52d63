"""Hashing and signature primitives shared by every other module.

The Merkle hashing follows the usual transparency-log convention: leaves are
hashed with a 0x00 domain-separation prefix, interior nodes with 0x01, and the
empty tree hashes to the digest of the empty string. ``HashScheme`` is a
class so that tests can subclass it, for instance to count or truncate
digests.

Signatures are deterministic HMAC-SHA256 tags (RFC 2104) over an in-memory
key registry: each signer id maps to one secret, secrets are fixed at
construction time, and signing the same payload twice yields identical bytes.
This gives verifiable, reproducible signatures without real key management.
The registry keeps each signer's two HMAC pad states (the SHA-256 state after
the key XOR ipad block, and after the key XOR opad block) and computes every
tag from copies of them; the tags are the bytes ``hmac`` would give.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterable, Mapping

from .encoding import BLOB, TEXT, wire

DIGEST_LEN = 32

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


class CryptoError(Exception):
    pass


class UnknownSignerError(CryptoError):
    pass


class HashScheme:
    """Domain-separated tree hash. Digests are always 32 bytes."""

    name = "sha256"

    def _digest(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def hash_leaf(self, payload: bytes) -> bytes:
        return self._digest(LEAF_PREFIX + payload)

    def hash_node(self, left: bytes, right: bytes) -> bytes:
        if len(left) != DIGEST_LEN or len(right) != DIGEST_LEN:
            raise CryptoError("node children must be 32-byte digests")
        return self._digest(NODE_PREFIX + left + right)

    def empty_root(self) -> bytes:
        return self._digest(b"")


SHA256 = HashScheme()


@wire(signer_id=TEXT, value=BLOB)
@dataclass(frozen=True, slots=True)
class Signature:
    signer_id: str
    value: bytes

    def __post_init__(self) -> None:
        if not self.signer_id:
            raise ValueError("signer_id must be non-empty")


def _derive_secret(signer_id: str) -> bytes:
    return hashlib.sha256(b"postcert-signing-key:" + signer_id.encode("utf-8")).digest()


_BLOCK = 64  # the SHA-256 block size in bytes
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _pad_states(secret: bytes) -> tuple:
    """The SHA-256 states after absorbing the key XOR ipad and XOR opad blocks."""
    if len(secret) > _BLOCK:
        secret = hashlib.sha256(secret).digest()
    block = secret.ljust(_BLOCK, b"\x00")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def _tag(pads: tuple, payload: bytes) -> bytes:
    """HMAC-SHA256: the outer state over the inner state's digest of ``payload``."""
    inner_state, outer_state = pads
    inner = inner_state.copy()
    inner.update(payload)
    outer = outer_state.copy()
    outer.update(inner.digest())
    return outer.digest()


class KeyRegistry:
    """Immutable mapping from signer ids to HMAC secrets.

    Secrets default to a deterministic derivation from the signer id so that
    simulator runs reproduce byte-for-byte; explicit secrets may be supplied
    for isolation tests.
    """

    def __init__(self, secrets: Mapping[str, bytes] | None = None) -> None:
        # The two pad states per signer are computed here once; each sign or
        # verify continues copies of them.
        self._pads = {signer_id: _pad_states(secret) for signer_id, secret in (secrets or {}).items()}

    @classmethod
    def with_signers(cls, signer_ids: Iterable[str]) -> "KeyRegistry":
        return cls({signer_id: _derive_secret(signer_id) for signer_id in signer_ids})

    def sign(self, signer_id: str, payload: bytes) -> Signature:
        pads = self._pads.get(signer_id)
        if pads is None:
            raise UnknownSignerError(f"unknown signer: {signer_id}")
        return Signature(signer_id, _tag(pads, payload))

    def verify(self, signature: Signature, payload: bytes) -> bool:
        pads = self._pads.get(signature.signer_id)
        if pads is None:
            return False
        return hmac.compare_digest(_tag(pads, payload), signature.value)
