"""Keys and certificates shared by the ``http-monitor`` server and callers.

Signing secrets derive from signer ids, so both processes build the same
registry, CA root and leaf certificates without exchanging anything.
"""

from __future__ import annotations

from postcert.certs import Certificate, TbsCertificate, sign_certificate
from postcert.crypto import KeyRegistry

LOG_ID = "bench-log"
CA_ID = "bench-ca"
_NOT_AFTER = 10**13


def registry() -> KeyRegistry:
    return KeyRegistry.with_signers([LOG_ID, CA_ID])


def ca_root(keys: KeyRegistry) -> Certificate:
    tbs = TbsCertificate(serial=0, subject=CA_ID, issuer=CA_ID, not_before=0,
                         not_after=_NOT_AFTER, public_key_id=CA_ID)
    return sign_certificate(keys, CA_ID, tbs)


def leaf_certificate(keys: KeyRegistry, serial: int) -> Certificate:
    tbs = TbsCertificate(serial=serial, subject=f"host-{serial}.example", issuer=CA_ID,
                         not_before=0, not_after=_NOT_AFTER, public_key_id=f"host-{serial}")
    return sign_certificate(keys, CA_ID, tbs)
