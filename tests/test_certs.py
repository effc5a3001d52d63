"""Certificate model: postcertificate construction and chain validation."""

from __future__ import annotations

import dataclasses
import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from postcert.certs import (
    CertError,
    CertRef,
    Extension,
    POISON_OID,
    Postcertificate,
    PostcertScheme,
    REJECT_BAD_SIGNATURE,
    REJECT_MISSING_TARGET,
    REJECT_UNTRUSTED_ROOT,
    REVOCATION_OID,
    SCT_LIST_OID,
    TbsCertificate,
    TrustStore,
    ValidationContext,
    corresponds,
    is_postcert_payload,
    make_postcertificate,
    sign_certificate,
    validate_chain,
)
from postcert.crypto import Signature
from postcert.encoding import decode_artifact, encode_artifact

from oracles import artifact_samples


def test_precertificate_corresponds_to_original(registry, leaf_cert):
    """A copy carrying the critical poison extension, re-signed by the
    issuer, describes the same certificate body."""
    poison = Extension(oid=POISON_OID, critical=True, value=b"")
    tbs = dataclasses.replace(leaf_cert.tbs, extensions=leaf_cert.tbs.extensions + (poison,))
    pre = sign_certificate(registry, "ca1", tbs)
    assert corresponds(pre, leaf_cert)
    assert corresponds(make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry), pre)


def test_ca_issued_postcertificate_construction(registry, leaf_cert):
    post = make_postcertificate(
        leaf_cert, PostcertScheme.CA_ISSUED, registry, reason="keyCompromise"
    )
    assert post.signature.signer_id == "ca1"
    assert post.revocation_ext.reason_code == "keyCompromise"
    assert post.status == "REVOKED"
    assert post.target_ref == CertRef("ca1", 7)
    revocation = [e for e in post.tbs.extensions if e.oid == REVOCATION_OID]
    assert len(revocation) == 1 and revocation[0].critical


def test_self_signed_postcertificate_signed_by_leaf_key(registry, leaf_cert):
    post = make_postcertificate(leaf_cert, PostcertScheme.SELF_SIGNED, registry)
    assert post.signature.signer_id == "leaf-key-1"
    assert post.tbs.issuer == leaf_cert.tbs.issuer  # issuer field unchanged


def test_invalidation_date_before_not_before_rejected(registry, leaf_cert):
    with pytest.raises(CertError):
        make_postcertificate(
            leaf_cert,
            PostcertScheme.CA_ISSUED,
            registry,
            invalidation_date=leaf_cert.tbs.not_before - 1,
        )


def test_corresponds_round_trip(registry, leaf_cert):
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    assert corresponds(post, leaf_cert)
    assert corresponds(leaf_cert, post)


def test_corresponds_distinct_serials_false(registry, leaf_cert):
    other_tbs = dataclasses.replace(leaf_cert.tbs, serial=8)
    other = sign_certificate(registry, "ca1", other_tbs)
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    assert not corresponds(post, other)


def test_corresponds_ignores_embedded_scts(registry, leaf_cert):
    sct_ext = Extension(oid=SCT_LIST_OID, critical=False, value=b"sct-list-bytes")
    with_scts = sign_certificate(
        registry, "ca1", dataclasses.replace(
            leaf_cert.tbs, extensions=leaf_cert.tbs.extensions + (sct_ext,)
        )
    )
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    # field-by-field comparison after stripping: equal
    assert corresponds(post, with_scts)
    assert corresponds(with_scts, leaf_cert)


def test_log_accepts_ca_issued_post_with_normal_chain(registry, leaf_cert, ca_root, trust):
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    verdict = validate_chain(post, [ca_root], ValidationContext.LOG_CA_ISSUED, registry, trust)
    assert verdict


def test_self_signed_requires_target_in_chain(registry, leaf_cert, ca_root, trust):
    post = make_postcertificate(leaf_cert, PostcertScheme.SELF_SIGNED, registry)
    verdict = validate_chain(
        post, [ca_root], ValidationContext.LOG_SELF_SIGNED, registry, trust
    )
    assert verdict.reason == REJECT_MISSING_TARGET
    verdict = validate_chain(
        post, [leaf_cert, ca_root], ValidationContext.LOG_SELF_SIGNED, registry, trust
    )
    assert verdict


def test_self_signed_post_fails_ca_context(registry, leaf_cert, ca_root, trust):
    post = make_postcertificate(leaf_cert, PostcertScheme.SELF_SIGNED, registry)
    verdict = validate_chain(post, [ca_root], ValidationContext.LOG_CA_ISSUED, registry, trust)
    assert verdict.reason == REJECT_BAD_SIGNATURE


def test_flipping_scheme_without_resigning_fails(registry, leaf_cert, ca_root, trust):
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    flipped = dataclasses.replace(post, scheme=PostcertScheme.SELF_SIGNED)
    ca_verdict = validate_chain(
        flipped, [ca_root], ValidationContext.LOG_CA_ISSUED, registry, trust
    )
    self_verdict = validate_chain(
        flipped, [leaf_cert, ca_root], ValidationContext.LOG_SELF_SIGNED, registry, trust
    )
    assert not ca_verdict and not self_verdict


def test_untrusted_root_rejected(registry, leaf_cert, ca_root):
    empty_trust = TrustStore()
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    verdict = validate_chain(
        post, [ca_root], ValidationContext.LOG_CA_ISSUED, registry, empty_trust
    )
    assert verdict.reason == REJECT_UNTRUSTED_ROOT


def test_multi_level_chain_validates(registry, trust, ca_root):
    intermediate_tbs = TbsCertificate(
        serial=100, subject="intermediate", issuer="ca1",
        not_before=0, not_after=10**12, public_key_id="ca2",
    )
    intermediate = sign_certificate(registry, "ca1", intermediate_tbs)
    leaf_tbs = TbsCertificate(
        serial=5, subject="deep.example", issuer="intermediate",
        not_before=0, not_after=10**12, public_key_id="leaf-key-2",
    )
    leaf = sign_certificate(registry, "ca2", leaf_tbs)
    post = make_postcertificate(leaf, PostcertScheme.CA_ISSUED, registry)
    verdict = validate_chain(
        post, [intermediate, ca_root], ValidationContext.LOG_CA_ISSUED, registry, trust
    )
    assert verdict


def test_tbs_invariants():
    with pytest.raises(CertError):
        TbsCertificate(
            serial=1, subject="s", issuer="i",
            not_before=10, not_after=10, public_key_id="k",
        )
    with pytest.raises(CertError):
        Extension(oid="", critical=False, value=b"")


def _other_root(registry, serial: int = 0):
    return sign_certificate(registry, "ca2", TbsCertificate(
        serial=serial, subject="ca2", issuer="ca2", not_before=0, not_after=10**12, public_key_id="ca2",
    ))


def test_trust_store_matches_roots_by_value(registry, leaf_cert, ca_root):
    trust = TrustStore([ca_root])
    assert trust.contains(ca_root)
    fresh = decode_artifact(encode_artifact(ca_root))
    assert fresh == ca_root and fresh is not ca_root
    assert trust.contains(fresh)
    assert validate_chain(leaf_cert, [fresh], ValidationContext.LOG_CA_ISSUED, registry, trust)
    other_tbs = dataclasses.replace(ca_root.tbs, not_after=ca_root.tbs.not_after + 1)
    assert not trust.contains(dataclasses.replace(ca_root, tbs=other_tbs))
    resigned = sign_certificate(registry, "ca1", other_tbs)
    assert not trust.contains(dataclasses.replace(ca_root, signature=resigned.signature))
    # the root's own TBS under a signature value one bit off
    flipped = bytes([ca_root.signature.value[0] ^ 1]) + ca_root.signature.value[1:]
    assert not trust.contains(dataclasses.replace(ca_root, signature=Signature("ca1", flipped)))
    # another CA's well-signed root is not trusted, and neither is a chain ending in it
    other = _other_root(registry)
    assert not trust.contains(other)
    other_leaf = sign_certificate(registry, "ca2", dataclasses.replace(leaf_cert.tbs, issuer="ca2"))
    verdict = validate_chain(other_leaf, [other], ValidationContext.LOG_CA_ISSUED, registry, trust)
    assert verdict.reason == REJECT_UNTRUSTED_ROOT


def test_trust_store_trusts_no_object_by_the_id_of_a_root_it_did_not_keep(registry, ca_root):
    trust = TrustStore([ca_root])
    twin = decode_artifact(encode_artifact(ca_root))
    trust.add(twin)  # equal to a held root, so the store keeps only the first
    del twin
    gc.collect()
    strangers = [_other_root(registry, serial) for serial in range(200)]
    assert not any(trust.contains(cert) for cert in strangers)
    assert trust.contains(ca_root)


@given(payload=st.deferred(lambda: st.sampled_from(artifact_samples())))
def test_is_postcert_payload_agrees_with_a_full_decode(payload):
    assert is_postcert_payload(payload) == isinstance(decode_artifact(payload), Postcertificate)


@given(payload=st.binary(max_size=64).filter(lambda p: p[:1] != b"\x02"))
def test_is_postcert_payload_is_false_for_other_bytes(payload):
    assert not is_postcert_payload(payload)


def test_is_postcert_payload_is_false_for_empty_bytes():
    assert not is_postcert_payload(b"")


def _counting_verify(registry, monkeypatch) -> list:
    calls = []
    verify = registry.verify

    def counting(sig, payload):
        calls.append(sig)
        return verify(sig, payload)

    monkeypatch.setattr(registry, "verify", counting)
    return calls


def test_a_trusted_root_is_an_anchor_whose_self_signature_is_not_rechecked(
    registry, leaf_cert, ca_root, trust, monkeypatch
):
    calls = _counting_verify(registry, monkeypatch)
    verdict = validate_chain(leaf_cert, [ca_root], ValidationContext.LOG_CA_ISSUED, registry, trust)
    assert verdict
    assert calls == [leaf_cert.signature]
    # the anchor is an input to path validation, matched by value
    unsigned_root = dataclasses.replace(ca_root, signature=Signature("ca1", bytes(32)))
    verdict = validate_chain(
        leaf_cert, [unsigned_root], ValidationContext.LOG_CA_ISSUED, registry, TrustStore([unsigned_root])
    )
    assert verdict


def test_an_untrusted_root_is_still_checked_for_its_self_signature(registry, leaf_cert, ca_root):
    bad_root = dataclasses.replace(ca_root, signature=Signature("ca1", bytes(32)))
    other_trust = TrustStore([sign_certificate(registry, "ca2", TbsCertificate(
        serial=0, subject="ca2", issuer="ca2", not_before=0, not_after=10**12, public_key_id="ca2",
    ))])
    for trust in (TrustStore(), other_trust):
        bad = validate_chain(leaf_cert, [bad_root], ValidationContext.LOG_CA_ISSUED, registry, trust)
        assert bad.reason == REJECT_BAD_SIGNATURE
        good = validate_chain(leaf_cert, [ca_root], ValidationContext.LOG_CA_ISSUED, registry, trust)
        assert good.reason == REJECT_UNTRUSTED_ROOT


@pytest.mark.parametrize("change", [
    {"issuer": "someone-else"},
    {"subject": "someone-else"},
    {"public_key_id": "another-key"},
])
def test_trust_store_refuses_a_root_that_is_not_self_issued(registry, ca_root, change):
    tbs = dataclasses.replace(ca_root.tbs, **change)
    root = sign_certificate(registry, "ca1", tbs)
    with pytest.raises(CertError, match="not self-issued"):
        TrustStore([root])
    trust = TrustStore()
    with pytest.raises(CertError, match="not self-issued"):
        trust.add(root)
    assert not trust.contains(root)


def test_tbs_is_encoded_once_and_a_decoded_tbs_keeps_its_blob(registry, leaf_cert, monkeypatch):
    from postcert import certs
    from postcert.encoding import encode_artifact

    calls = []
    encode_tbs = certs.encode_tbs
    monkeypatch.setattr(certs, "encode_tbs", lambda tbs: calls.append(tbs) or encode_tbs(tbs))
    fresh = dataclasses.replace(leaf_cert.tbs, serial=99)
    first = fresh.encoded
    assert fresh.encoded is first and calls == [fresh]
    assert first == encode_tbs(fresh)

    payload = encode_artifact(leaf_cert)
    decoded = decode_artifact(payload).tbs
    calls.clear()
    assert decoded.encoded == leaf_cert.tbs.encoded and decoded.encoded in payload
    assert decoded.encoded is decoded.encoded and calls == []
