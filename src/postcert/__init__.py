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
"""

from .certs import (
    CertRef,
    Certificate,
    Extension,
    Postcertificate,
    PostcertScheme,
    RevocationExtension,
    TbsCertificate,
    TrustStore,
    ValidationContext,
    corresponds,
    make_postcertificate,
    validate_chain,
)
from .crypto import HashScheme, KeyRegistry, SHA256, Signature
from .delays import DelayBreakdown, Pathway, Violation, check_bounds
from .log import (
    CtLog,
    DuplicatePolicy,
    LogConfig,
    LogEntry,
    MerkleAuditProof,
    SCT,
    STH,
    SthCacheMode,
    UpdateClass,
    verify_audit_proof,
    verify_consistency_sths,
    verify_sct,
    verify_sth,
)
from .merkle import MerkleTree, root_from_audit_path, verify_consistency
from .misbehavior import (
    Case,
    MisbehaviorProofM12,
    MisbehaviorProofM3,
    MrdMode,
    MrdPolicy,
    SctDisclosureProof,
    TrustedLogSet,
    Verdict,
    build_proof,
    earliest_proof_time,
    proof_time,
    verify_m12,
    verify_m3,
    verify_proof,
    verify_sct_disclosure,
)
from .probe import (
    ClassKind,
    LogClass,
    binary_search_size,
    classify,
    clock_offsets,
    collision_report,
    growth_projection,
    lagging_fraction,
    out_of_order_fraction,
    request_processing_stats,
    submission_to_publication,
)
from .sim import Scenario, Simulation, run
from .status import (
    RevocationStatus,
    StatusKind,
    StatusValue,
    issue_status,
    status_update_deadline,
    verify_status,
)

__version__ = "0.1.0"
