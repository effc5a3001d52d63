"""Revocation transparency toolkit.

Postcertificates turn certificate revocation into a transparency problem: a
copy of the certificate-to-be-revoked carrying a critical revocation
extension is submitted to ordinary append-only certificate logs, the issuing
CA monitors the logs and must update the revocation status within a deadline,
and third parties can build cryptographic proofs when a CA or log misbehaves.

The package bundles the data model, an embeddable log with inclusion and
consistency proofs, the status rules, misbehavior proof construction and
verification, a deterministic multi-actor simulator, and the measurement
pipeline used to characterize log behavior.

Each part is a submodule (``postcert.log``, ``postcert.sim``, ...), imported
by name: the package root exports nothing, so a command or an embedding loads
only the parts it uses.
"""

__version__ = "0.1.0"
