"""Append-only transparency log with SCT/STH issuance and proof serving.

The log validates submission chains, answers an SCT immediately, and merges
the entry into its Merkle tree after a configurable publication delay that is
never allowed to exceed the maximum merge delay. Entries merge in submission
order, so entry numbers are dense and submission timestamps non-decreasing.
There is one submission path: ``CtLog.add`` does all of it and returns the
SCT's timestamp and entry hash unsigned, for a caller that reads no SCT (the
simulator's background traffic); ``CtLog.submit`` is ``add`` plus the signed
SCT.

Signing cadence is configurable: BUSY logs fix a tree head whenever the
published set changes, UNBUSY logs fix one tree head per merged entry, and
PERIODIC logs fix one on a fixed interval whether or not anything changed.
Fixing a head records its log time and tree size; its root and signature are
computed when the head is read. Signatures are deterministic and the tree
keeps every level, so a head read again has equal bytes, though it need not
be the same object.
``get_sth`` can also reproduce two real-world response pathologies, returning
out-of-order or lagging tree heads with a configured probability while
``get_entries`` keeps serving everything already merged.

Per merged entry a log keeps only what a reader can ask for: the
``LogEntry``, its leaf hash (32 packed bytes) and a share of the packed
upper Merkle levels (under 32 bytes), its merge time and the time and size
of each fixed head (packed 64-bit integers), and under ``RETURN_OLD_SCT``
the payload's first submission time. No SCT is kept: a duplicate is
answered by signing that time again. The leaf-hash index is built on the
first lookup and extended on later ones, so a log nobody looks up in keeps
none. Pending records leave the queue as they merge, and of the heads only
the newest one read is kept as an ``STH``.
"""

from __future__ import annotations

import enum
import math
import random
from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

from .certs import (
    Certificate,
    Postcertificate,
    PostcertScheme,
    TrustStore,
    ValidationContext,
    decode_payload,
    encode_payload,
    validate_chain,
)
from .crypto import HashScheme, KeyRegistry, SHA256, Signature
from .encoding import (
    BLOB, I64, TEXT, U64, DecodeError, FieldLine, canonical_int, inline, seq, signing_payload, wire,
)
from .merkle import MerkleTree, root_from_audit_path, verify_consistency
from .timeutil import DAY_MS, SECOND_MS


class LogError(Exception):
    """Submission or query failure; ``code`` is a stable machine label."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code
        self.detail = detail


class AnalysisError(Exception):
    """Observations that cannot decide a metric; ``code`` is a stable
    machine label. ``postcert.probe`` raises it."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


ERR_CHAIN_REJECTED = "chain-rejected"
ERR_LOG_FROZEN = "log-frozen"


class UpdateClass(enum.Enum):
    BUSY = "BUSY"
    UNBUSY = "UNBUSY"
    PERIODIC = "PERIODIC"


class DuplicatePolicy(enum.Enum):
    RETURN_OLD_SCT = "RETURN_OLD_SCT"
    REINSERT = "REINSERT"


class SthCacheMode(enum.Enum):
    NONE = "NONE"
    OUT_OF_ORDER = "OUT_OF_ORDER"
    LAGGING = "LAGGING"


@wire(3, log_id=TEXT, timestamp=I64, entry_hash=BLOB, signature=inline(Signature))
@dataclass(frozen=True, slots=True)
class SCT:
    log_id: str
    timestamp: int
    entry_hash: bytes
    signature: Signature


@wire(5, payload=BLOB, t_submission=I64, log_id=TEXT, number=U64)
@dataclass(frozen=True, slots=True)
class LogEntry:
    payload: bytes
    t_submission: int
    log_id: str
    number: int

    def decoded(self) -> Certificate | Postcertificate:
        return decode_payload(self.payload)


@wire(4, log_id=TEXT, t=I64, treesize=U64, root_hash=BLOB, signature=inline(Signature))
@dataclass(frozen=True, slots=True)
class STH:
    log_id: str
    t: int
    treesize: int
    root_hash: bytes
    signature: Signature


@wire(6, entry_number=U64, treesize=U64, path=seq(BLOB))
@dataclass(frozen=True, slots=True)
class MerkleAuditProof:
    entry_number: int
    treesize: int
    path: tuple[bytes, ...]


sct_signing_payload = signing_payload(SCT)
sth_signing_payload = signing_payload(STH)


def verify_sct_signature(sct: SCT, registry: KeyRegistry) -> bool:
    """The SCT is signed by its own log over its fields; says nothing of the payload."""
    if sct.signature.signer_id != sct.log_id:
        return False
    return registry.verify(sct.signature, sct_signing_payload(sct.log_id, sct.timestamp, sct.entry_hash))


def verify_sct(sct: SCT, payload: bytes, registry: KeyRegistry) -> bool:
    return sct.entry_hash == SHA256.hash_leaf(payload) and verify_sct_signature(sct, registry)


def verify_sth(sth: STH, registry: KeyRegistry) -> bool:
    if sth.signature.signer_id != sth.log_id:
        return False
    return registry.verify(
        sth.signature, sth_signing_payload(sth.log_id, sth.t, sth.treesize, sth.root_hash)
    )


def verify_audit_proof(payload: bytes, proof: MerkleAuditProof, sth: STH) -> bool:
    if proof.treesize != sth.treesize:
        return False
    root = root_from_audit_path(SHA256.hash_leaf(payload), proof.entry_number, proof.treesize, proof.path)
    return root is not None and root == sth.root_hash


def verify_consistency_sths(sth_a: STH, sth_b: STH, path: tuple[bytes, ...]) -> bool:
    if sth_a.log_id != sth_b.log_id:
        return False
    return verify_consistency(sth_a.treesize, sth_b.treesize, sth_a.root_hash, sth_b.root_hash, path)


# Publication delay models -----------------------------------------------------

class DelayModel:
    """Sampler for submission-to-merge delays, parsed from a config string.

    Supported forms (values are durations in milliseconds):
      fixed:X            constant delay
      uniform:LO:HI      uniform
      grid:A:B:C:N       deterministic ascending quantile grid over N
                         submissions; realizes min/median/max of A/B/C exactly
    """

    def __init__(self, spec: str) -> None:
        self.spec = spec
        parts = spec.split(":")
        self.kind = parts[0]
        args = [float(p) for p in parts[1:]]
        if not all(map(math.isfinite, args)):
            raise ValueError(f"bad delay spec: {spec!r}")
        if self.kind == "fixed" and len(args) == 1:
            pass
        elif self.kind == "uniform" and len(args) == 2 and args[0] <= args[1]:
            pass
        elif self.kind == "grid" and len(args) == 4 and args[0] <= args[1] <= args[2]:
            pass
        else:
            raise ValueError(f"bad delay spec: {spec!r}")
        self.args = args

    @staticmethod
    def _log_interp(lo: float, hi: float, frac: float) -> float:
        if lo <= 0:
            return lo + (hi - lo) * frac
        return lo * (hi / lo) ** frac

    def _quantile(self, lo: float, med: float, hi: float, u: float) -> float:
        if u < 0.5:
            return self._log_interp(lo, med, u * 2.0)
        return self._log_interp(med, hi, (u - 0.5) * 2.0)

    def sample(self, rng: random.Random, index: int) -> int:
        if self.kind == "fixed":
            return int(self.args[0])
        if self.kind == "uniform":
            return int(round(rng.uniform(self.args[0], self.args[1])))
        # grid: ascending quantiles indexed by the submission counter
        lo, med, hi, n = self.args
        count = max(int(n), 1)
        k = index % count
        if count == 1:
            return int(med)
        u = k / (count - 1)
        if k == 0:
            return int(lo)
        if k == count - 1:
            return int(hi)
        if abs(u - 0.5) < 1e-12:
            return int(med)
        return int(round(self._quantile(lo, med, hi, u)))


# Log configuration --------------------------------------------------------------

@dataclass(frozen=True)
class LogConfig:
    mmd_ms: int = DAY_MS
    clock_offset_ms: int = 0
    update_class: UpdateClass = UpdateClass.BUSY
    update_interval_ms: int | None = None
    publication_delay: str = f"fixed:{SECOND_MS}"
    duplicate_policy: DuplicatePolicy = DuplicatePolicy.RETURN_OLD_SCT
    sth_cache: SthCacheMode = SthCacheMode.NONE
    sth_cache_p: float = 0.0
    accept_self_signed: bool = False
    forget: bool = False

    def __post_init__(self) -> None:
        if self.mmd_ms <= 0:
            raise ValueError("mmd must be positive")
        if not 0.0 <= self.sth_cache_p <= 1.0:
            raise ValueError("sth_cache_p must be in [0, 1]")
        if self.update_class is UpdateClass.PERIODIC:
            if not self.update_interval_ms or self.update_interval_ms <= 0:
                raise ValueError("PERIODIC requires a positive update_interval_ms")
            if self.update_interval_ms >= self.mmd_ms:
                raise ValueError("PERIODIC interval must stay below the mmd")
        DelayModel(self.publication_delay)


class TreeHeads(Sequence[STH]):
    """A log's tree heads in publication order, each signed when read.

    ``publish`` fixes a head as its (log time, tree size). Reading it, by
    index, slice or iteration, computes its root and signature. Both are
    deterministic, so a head read again has the same bytes, though not always
    the same object: only the newest head signed so far is kept, and a read
    of any other head signs it again. ``len`` and ``sizes`` never sign
    anything. A head costs two packed 64-bit integers.
    """

    __slots__ = ("_log_id", "_registry", "_tree", "_times", "_sizes", "_newest")

    def __init__(self, log_id: str, registry: KeyRegistry, tree: MerkleTree) -> None:
        self._log_id = log_id
        self._registry = registry
        self._tree = tree
        self._times = array("q")
        self._sizes = array("q")
        # (index, head) of the newest head signed. Sizes never decrease, so
        # heads of one size in a row (PERIODIC ticks with no merge between
        # them) share its root.
        self._newest: tuple[int, STH | None] = (-1, None)

    def publish(self, t: int, treesize: int) -> None:
        self._times.append(t)
        self._sizes.append(treesize)

    @property
    def sizes(self) -> Sequence[int]:
        """Tree size of every head, non-decreasing; do not modify."""
        return self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._sizes)))]
        if index < 0:
            index += len(self._sizes)
        if not 0 <= index < len(self._sizes):
            raise IndexError("tree head index out of range")
        newest_index, newest = self._newest
        if index == newest_index:
            return newest
        t, size = self._times[index], self._sizes[index]
        root = newest.root_hash if newest is not None and newest.treesize == size else self._tree.root(size)
        payload = sth_signing_payload(self._log_id, t, size, root)
        sth = STH(self._log_id, t, size, root, self._registry.sign(self._log_id, payload))
        if index > newest_index:
            self._newest = (index, sth)
        return sth

    def __iter__(self):
        return map(self.__getitem__, range(len(self._sizes)))


class LogReader(Protocol):
    """The read side of one log (RFC 6962 §4), for annotations only: ``LogView``
    (so ``CtLog`` and a snapshot loaded by ``LogView.from_text``) and
    ``httpapi.HttpLogReader`` implement it. A live log advances to a given
    ``now`` first; a view ignores it.
    """

    log_id: str
    def latest_sth(self) -> STH: ...
    def published_size(self, now: int | None = None) -> int: ...
    def get_entries(self, start: int, end: int, now: int | None = None) -> list[LogEntry]: ...
    def audit_proof(self, entry_number: int, treesize: int) -> MerkleAuditProof: ...
    def get_proof_by_hash(self, leaf_hash: bytes, treesize: int) -> MerkleAuditProof: ...
    def consistency_proof(self, first: int, second: int) -> tuple[bytes, ...]: ...


def entries_below(reader: LogReader, size: int) -> list[LogEntry]:
    """Entries ``0 .. size - 1`` as the reader serves them (fewer if it has fewer)."""
    return reader.get_entries(0, size - 1) if size else []


class LogView:
    """The published state of one log, and every read it answers: the entries,
    their Merkle tree, the first entry number of each leaf hash, and the tree
    heads. ``from_text`` loads a fixed view; ``CtLog`` is the writer of one.
    The entries and the tree's leaves grow together; the leaf-hash index
    catches up with them on each ``leaf_number`` call.
    """

    def __init__(self, log_id: str, entries: list[LogEntry], sths: Sequence[STH],
                 scheme: HashScheme = SHA256) -> None:
        self.log_id = log_id
        self.scheme = scheme
        self.entries: list[LogEntry] = []
        self.tree = MerkleTree(scheme)
        self.sth_history = sths
        self._number_by_leaf_hash: dict[bytes, int] = {}  # over entries[:_indexed]
        self._indexed = 0
        for entry in entries:
            self.entries.append(entry)
            self.tree.append(entry.payload)

    @staticmethod
    def from_text(text: str) -> "LogView":
        """Parse ``log_snapshot_text`` output of a SHA-256 log.

        Raises DecodeError naming the line for a malformed, missing,
        repeated or unknown field, fields in another order than written, a
        non-integer value, bad hex, an empty signer, a declared hash other
        than ``sha256``, a line of unknown kind, an ``entry`` or ``sth``
        line before the one ``log`` line, a second ``log`` line, an entry
        number that is not the entry's position, or a ``size`` that is not
        the number of entries.
        """
        header: FieldLine | None = None
        entries: list[LogEntry] = []
        sths: list[STH] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            kind, _, rest = line.partition(" ")
            if kind == "log":
                if header is not None:
                    raise DecodeError(f"snapshot line {lineno}: second log line")
                header = FieldLine(rest, "snapshot line", lineno)
                header.only(("id", "scheme", "size"))
                log_id = header.get("id")
                if (scheme := header.get("scheme")) != SHA256.name:
                    raise header.error(f"unsupported scheme {scheme!r}")
                size = header.get("size", canonical_int)
            elif kind not in ("entry", "sth"):
                raise DecodeError(f"snapshot line {lineno}: unknown line kind {kind!r}")
            elif header is None:
                raise DecodeError(f"snapshot line {lineno}: {kind} line before the log line")
            elif kind == "entry":
                number, t_submission, payload = FieldLine.read(rest, _ENTRY_FIELDS, "snapshot line", lineno)
                if number != len(entries):
                    raise DecodeError(
                        f"snapshot line {lineno}: entry number {number} at position {len(entries)}")
                entries.append(LogEntry(payload, t_submission, log_id, number))
            else:
                t, treesize, root, signer, sig = FieldLine.read(rest, _STH_FIELDS, "snapshot line", lineno)
                if not signer:
                    raise FieldLine(rest, "snapshot line", lineno).error("empty signer")
                sths.append(STH(log_id, t, treesize, root, Signature(signer, sig)))
        if header is None:
            raise DecodeError("snapshot has no log line")
        if size != len(entries):
            raise header.error(f"size={size} but {len(entries)} entries")
        return LogView(log_id, entries, sths)

    def leaf_number(self, leaf_hash: bytes) -> int | None:
        """Number of the first entry whose leaf hash is ``leaf_hash``, if any."""
        index, entries = self._number_by_leaf_hash, self.entries
        if self._indexed < len(entries):
            leaf_hash_of = self.tree.leaf_hash
            for position in range(self._indexed, len(entries)):
                index.setdefault(leaf_hash_of(position), entries[position].number)
            self._indexed = len(entries)
        return index.get(leaf_hash)

    def latest_sth(self) -> STH:
        return self.sth_history[-1]

    def published_size(self, now: int | None = None) -> int:
        return len(self.entries)

    def get_entries(self, start: int, end: int, now: int | None = None) -> list[LogEntry]:
        if start < 0 or end < start:
            raise ValueError("invalid entry range")
        return self.entries[start : min(end + 1, len(self.entries))]

    def audit_proof(self, entry_number: int, treesize: int) -> MerkleAuditProof:
        if not 0 <= entry_number < treesize <= len(self.entries):
            raise LogError("entry-out-of-range", f"{entry_number}/{treesize}")
        return MerkleAuditProof(entry_number, treesize, self.tree.audit_path(entry_number, treesize))

    def get_proof_by_hash(self, leaf_hash: bytes, treesize: int) -> MerkleAuditProof:
        number = self.leaf_number(leaf_hash)
        if number is None:
            raise LogError("unknown-leaf-hash")
        return self.audit_proof(number, treesize)

    def consistency_proof(self, first: int, second: int) -> tuple[bytes, ...]:
        if not 0 <= first <= second <= len(self.entries):
            raise LogError("size-out-of-range", f"{first}/{second}")
        return self.tree.consistency_path(first, second)


@dataclass(slots=True)
class _Pending:
    """A submitted entry waiting to merge; dropped from the queue as it merges."""

    ready_at: int
    payload: bytes
    leaf_hash: bytes
    sct_timestamp: int


class CtLog(LogView):
    """In-memory transparency log bound to one signing key: the writer of a ``LogView``.

    ``add`` accepts a submission and returns its SCT's fields unsigned;
    ``submit`` is ``add`` plus the signed ``SCT``. Writes, and the reads that
    take it, take the current reference-clock time; the log's own clock is
    the reference plus its configured offset. State advances lazily: such a
    call first merges every pending entry whose merge time has arrived and
    fixes the tree heads its update class calls for, with exact timestamps.
    """

    def __init__(
        self,
        log_id: str,
        registry: KeyRegistry,
        trust: TrustStore,
        config: LogConfig | None = None,
        *,
        scheme: HashScheme = SHA256,
        seed: int = 0,
    ) -> None:
        super().__init__(log_id, [], (), scheme)
        self.sth_history = TreeHeads(log_id, registry, self.tree)  # heads over the view's tree
        self.registry = registry
        self.trust = trust
        self.config = config or LogConfig()
        self.rng = random.Random(f"{seed}:{log_id}")
        self._pending: deque[_Pending] = deque()
        self._merge_t_ref = array("q")
        self._first_timestamp: dict[bytes, int] = {}  # RETURN_OLD_SCT only
        self._last_merge_t = 0
        self._last_tick = 0
        self._now = 0
        self._delay_model = DelayModel(self.config.publication_delay)
        self._submission_index = 0
        self._drop_serials: set[int] = set()
        self.frozen = False
        self._publish_sth(0)

    # -- internal machinery

    def _log_clock(self, t_ref: int) -> int:
        return t_ref + self.config.clock_offset_ms

    def _publish_sth(self, t_ref: int) -> None:
        self.sth_history.publish(self._log_clock(t_ref), len(self.entries))

    def _sign_sct(self, timestamp: int, entry_hash: bytes) -> SCT:
        sig = self.registry.sign(self.log_id, sct_signing_payload(self.log_id, timestamp, entry_hash))
        return SCT(self.log_id, timestamp, entry_hash, sig)

    def _merge_one(self, pending: _Pending, t_ref: int) -> None:
        self.entries.append(LogEntry(
            payload=pending.payload,
            t_submission=pending.sct_timestamp,
            log_id=self.log_id,
            number=len(self.entries),
        ))
        self.tree.append(pending.payload, pending.leaf_hash)
        self._merge_t_ref.append(t_ref)

    def advance(self, now: int) -> None:
        """Merge due entries and sign tree heads up to reference time ``now``."""
        if now < self._now:
            return
        self._now = now
        periodic = self.config.update_class is UpdateClass.PERIODIC
        pending = self._pending
        # Without ticks, only a due queue head can change anything; merges
        # never run ahead of ``now``, so the head is due once it is ready.
        if not periodic and (not pending or pending[0].ready_at > now):
            return
        interval = self.config.update_interval_ms
        while True:
            merge_t: int | None = None
            if pending:
                merge_t = max(pending[0].ready_at, self._last_merge_t)
                if merge_t > now:
                    merge_t = None
            tick_t: int | None = None
            if periodic:
                tick_t = self._last_tick + interval
                if tick_t > now:
                    tick_t = None
            if merge_t is None and tick_t is None:
                break
            if tick_t is not None and (merge_t is None or tick_t <= merge_t):
                self._last_tick = tick_t
                self._publish_sth(tick_t)
                continue
            # Merge every queued entry due at this instant, then publish per class.
            batch_t = merge_t
            merged = 0
            while pending and max(pending[0].ready_at, self._last_merge_t) == batch_t:
                self._merge_one(pending.popleft(), batch_t)
                self._last_merge_t = batch_t
                merged += 1
                if self.config.update_class is UpdateClass.UNBUSY:
                    self._publish_sth(batch_t)
            if merged and self.config.update_class is UpdateClass.BUSY:
                self._publish_sth(batch_t)

    def _publication_delay(self) -> int:
        delay = self._delay_model.sample(self.rng, self._submission_index)
        cap = self.config.mmd_ms
        if self.config.update_class is UpdateClass.PERIODIC:
            cap -= self.config.update_interval_ms or 0
        return max(0, min(delay, cap))

    # -- log operations

    def drop_serial(self, serial: int) -> None:
        """Silently forget future submissions whose TBS serial matches."""
        self._drop_serials.add(serial)

    def freeze(self) -> None:
        self.frozen = True

    def add(
        self,
        payload: Certificate | Postcertificate,
        chain: list[Certificate],
        now: int,
    ) -> tuple[int, bytes]:
        """Accept a submission and queue its entry; return its SCT's
        ``(timestamp, entry_hash)`` without signing it. Under
        ``RETURN_OLD_SCT`` a repeated payload gets its first timestamp."""
        self.advance(now)
        if self.frozen:
            raise LogError(ERR_LOG_FROZEN, self.log_id)
        context = ValidationContext.LOG_CA_ISSUED
        if (
            isinstance(payload, Postcertificate)
            and payload.scheme is PostcertScheme.SELF_SIGNED
            and self.config.accept_self_signed
        ):
            context = ValidationContext.LOG_SELF_SIGNED
        verdict = validate_chain(payload, chain, context, self.registry, self.trust)
        if not verdict:
            raise LogError(ERR_CHAIN_REJECTED, verdict.reason or "")
        payload_bytes = encode_payload(payload)
        entry_hash = self.scheme.hash_leaf(payload_bytes)
        dedupe = self.config.duplicate_policy is DuplicatePolicy.RETURN_OLD_SCT
        if dedupe:
            # An SCT is a deterministic signature over (log id, timestamp,
            # entry hash): signing the first timestamp again gives the first SCT.
            first = self._first_timestamp.get(payload_bytes)
            if first is not None:
                return first, entry_hash
        timestamp = self._log_clock(now)
        forget = self.config.forget or payload.tbs.serial in self._drop_serials
        if not forget:
            self._pending.append(
                _Pending(ready_at=now + self._publication_delay(), payload=payload_bytes,
                         leaf_hash=entry_hash, sct_timestamp=timestamp)
            )
        if dedupe:
            self._first_timestamp[payload_bytes] = timestamp
        self._submission_index += 1
        return timestamp, entry_hash

    def submit(
        self,
        payload: Certificate | Postcertificate,
        chain: list[Certificate],
        now: int,
    ) -> SCT:
        """``add``, then the signed SCT for it."""
        return self._sign_sct(*self.add(payload, chain, now))

    def sign_tree_head(self, now: int) -> STH:
        self.advance(now)
        self._publish_sth(now)
        return self.sth_history[-1]

    def get_sth(self, now: int) -> STH:
        self.advance(now)
        heads = self.sth_history
        mode = self.config.sth_cache
        if mode is SthCacheMode.NONE or len(heads) < 2:
            return heads[-1]
        if self.rng.random() >= self.config.sth_cache_p:
            return heads[-1]
        # choice() only takes len() and indexes, so a choice over range(n)
        # uses the RNG as a choice over the first n heads would, and signs
        # only the head it picks.
        if mode is SthCacheMode.OUT_OF_ORDER:
            return heads[self.rng.choice(range(len(heads) - 1))]
        # LAGGING: a cached tree head that excludes already-retrievable entries.
        # Tree sizes never decrease along the history, so the stale heads are
        # a prefix of it.
        stale = bisect_left(heads.sizes, len(self.entries))
        if not stale:
            return heads[-1]
        return heads[self.rng.choice(range(stale))]

    def published_size(self, now: int | None = None) -> int:
        if now is not None:
            self.advance(now)
        return super().published_size()

    def get_entries(self, start: int, end: int, now: int | None = None) -> list[LogEntry]:
        if now is not None:
            self.advance(now)
        return super().get_entries(start, end)

    def merge_time_ref(self, number: int) -> int:
        """Reference-clock instant at which entry ``number`` was published."""
        return self._merge_t_ref[number]


# Snapshots ----------------------------------------------------------------------

_ENTRY_FIELDS = (("number", canonical_int), ("t_submission", canonical_int), ("payload", bytes.fromhex))
_STH_FIELDS = (("t", canonical_int), ("treesize", canonical_int), ("root", bytes.fromhex),
               ("signer", str), ("sig", bytes.fromhex))


def log_snapshot_text(log: LogView) -> str:
    """Serialize published entries and tree-head history to one text blob."""
    lines = [f"log id={log.log_id} scheme={log.scheme.name} size={len(log.entries)}"]
    for entry in log.entries:
        lines.append(
            f"entry number={entry.number} t_submission={entry.t_submission} "
            f"payload={entry.payload.hex()}"
        )
    for sth in log.sth_history:
        lines.append(
            f"sth t={sth.t} treesize={sth.treesize} root={sth.root_hash.hex()} "
            f"signer={sth.signature.signer_id} sig={sth.signature.value.hex()}"
        )
    return "\n".join(lines) + "\n"
