"""The ``http-monitor`` workload: a closed loop against one served log.

A server process (``log_server.py``) holds one preloaded log. One caller in
this process drives it through ``HttpLogReader`` in a closed loop, sending its
next request only after the previous one completed. Each step of the loop is
one monitor step followed by a fixed number of submissions:

* the monitor repeats the probe loop of ``postcert probe <url>`` with a size
  probe after every tree head, as the ``pathologies`` preset sets its probe
  (``size_interval_ms == sth_interval_ms``), but without the sleep: get-sth,
  then ``probe.binary_search_size`` (single-entry get-entries reads). After
  each probe step it sends one audit read, in turn a 64-entry get-entries, a
  get-proof-by-hash and a get-sth-consistency at its current tree size, and
  checks every answer;
* the submitter sends add-chain with certificates minted as it goes; a fixed
  share of its submissions resubmit an already-logged certificate, which must
  return the original SCT.

Only the probe loop has a source in the toolkit. The audit-read rotation, the
writes per step, the duplicate share and the preload size are assumptions;
``choices.json`` gives the reason for each.

Requests never overlap, so the server's request threads never touch the log
at the same time. ``serve_log`` does not lock the log, and overlapping
requests can corrupt it; this workload measures the HTTP surface, not that
defect.

After each round every SCT must be included under a final verified tree head.

A run is five rounds, each with a fresh server, so set-up is measured five
times; latency figures are the median over rounds of each round's figure, so
one round that the host slows does not move them.
"""

from __future__ import annotations

import contextlib
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field

from postcert import httpapi, probe
from postcert.crypto import SHA256
from postcert.encoding import encode_artifact
from postcert.log import verify_consistency_sths, verify_sct, verify_sth
from postcert.merkle import MerkleTree, root_from_audit_path

from .common import ROOT, Outcome, children_peak_rss_mb, median, p90
from .httpfixture import LOG_ID, ca_root, leaf_certificate, registry
from .layers import layer_metrics
from .tracer import Tracer

ROUNDS = 5
PRELOAD_ENTRIES = 20_000  # assumption, see choices.json
TINY_PRELOAD_ENTRIES = 300
ENTRIES_PER_READ = 64
DUPLICATE_SHARE = 0.2  # assumption, see choices.json
WRITES_PER_STEP = 28  # assumption, see choices.json
PUBLICATION_DELAY_S = 1.0  # LogConfig default: entries merge one second after submission
FETCH_CHUNK = 4096
AUDIT_READS = ("get-entries", "get-proof-by-hash", "get-sth-consistency")  # one per probe step, in turn
_FRESH_SERIAL_BASE = 1_000_000_000


class _TimedReader(httpapi.HttpLogReader):
    """An ``HttpLogReader`` that keeps the latency of every request it sends."""

    def __init__(self, base_url: str) -> None:
        self.latencies: list[float] = []
        super().__init__(base_url)
        self.latencies.clear()  # the log-id lookup is not part of the load

    def _get(self, path, params=None, bust=False):
        started = time.perf_counter()
        try:
            return super()._get(path, params, bust)
        finally:
            self.latencies.append(time.perf_counter() - started)

    def submit(self, payload, chain, now=None):
        started = time.perf_counter()
        try:
            return super().submit(payload, chain, now)
        finally:
            self.latencies.append(time.perf_counter() - started)


@dataclass
class _Caller:
    """Operations and failures of one caller in one round."""

    operations: int = 0
    failed: int = 0  # operations that raised or whose answer failed its check
    raised: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(self, operation) -> None:
        self.operations += 1
        try:
            ok = operation()
        except Exception as exc:  # a failed operation counts; the loop goes on
            ok = False
            self.raised += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        if not ok:
            self.failed += 1


class _Monitor:
    def __init__(self, reader: _TimedReader, keys, first_sth, rng: random.Random) -> None:
        self.reader = reader
        self.keys = keys
        self.rng = rng
        self.current = first_sth
        self.older = [first_sth]
        self.size = 0  # entries the last size probe found
        self.known: list[tuple[bytes, int]] = []
        self.steps = 0
        self.caller = _Caller()

    def get_sth(self) -> bool:
        sth = self.reader.get_sth()
        if not verify_sth(sth, self.keys) or sth.treesize < self.current.treesize:
            return False
        if sth.treesize > self.current.treesize:
            self.older = (self.older + [self.current])[-64:]
            self.current = sth
        return True

    def size_probe(self) -> bool:
        """The size probe of ``postcert probe``: served entries never fall
        behind the verified tree head, nor behind the previous probe."""
        size = probe.binary_search_size(self.reader, int(time.time() * 1000)).size
        ok = size >= max(self.current.treesize, self.size)
        self.size = max(size, self.size)
        return ok

    def get_entries(self) -> bool:
        start = self.rng.randrange(self.current.treesize - ENTRIES_PER_READ + 1)
        entries = self.reader.get_entries(start, start + ENTRIES_PER_READ - 1)
        if [e.number for e in entries] != list(range(start, start + ENTRIES_PER_READ)):
            return False
        picked = self.rng.choice(entries)
        self.known = (self.known + [(SHA256.hash_leaf(picked.payload), picked.number)])[-256:]
        return True

    def get_proof_by_hash(self) -> bool:
        leaf_hash, number = self.rng.choice(self.known)
        size = self.current.treesize
        proof = self.reader.get_proof_by_hash(leaf_hash, size)
        root = root_from_audit_path(leaf_hash, number, size, proof.path)
        return proof.entry_number == number and root == self.current.root_hash

    def get_sth_consistency(self) -> bool:
        older = self.rng.choice(self.older)
        path = self.reader.consistency_proof(older.treesize, self.current.treesize)
        return verify_consistency_sths(older, self.current, path)

    def step(self) -> None:
        audit = AUDIT_READS[self.steps % len(AUDIT_READS)]
        if audit == "get-proof-by-hash" and not self.known:
            audit = "get-entries"
        self.caller.attempt(self.get_sth)
        self.caller.attempt(self.size_probe)
        self.caller.attempt(getattr(self, audit.replace("-", "_")))
        self.steps += 1


class _Submitter:
    def __init__(self, reader: _TimedReader, keys, root, serial_base: int, rng: random.Random,
                 tracer: Tracer | None) -> None:
        self.reader = reader
        self.keys = keys
        self.root = root
        self.serial_base = serial_base
        self.rng = rng
        self.untraced = tracer.paused if tracer else contextlib.nullcontext
        self.logged: list[tuple[object, object]] = []  # (certificate, SCT)
        self.caller = _Caller()

    def submit_fresh(self, cert) -> bool:
        sct = self.reader.submit(cert, [self.root])
        self.logged.append((cert, sct))
        return sct.log_id == LOG_ID and verify_sct(sct, encode_artifact(cert), self.keys)

    def resubmit(self, cert, original) -> bool:
        return self.reader.submit(cert, [self.root]) == original

    def step(self) -> None:
        if self.logged and self.rng.random() < DUPLICATE_SHARE:
            cert, original = self.rng.choice(self.logged)
            self.caller.attempt(lambda: self.resubmit(cert, original))
        else:
            # Minted on demand; minting is benchmark work, not traced.
            with self.untraced():
                cert = leaf_certificate(self.keys, self.serial_base + len(self.logged))
            self.caller.attempt(lambda: self.submit_fresh(cert))


def _start_server(entries: int, seed: int) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "log_server.py"),
         "--entries", str(entries), "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 120)
    line = proc.stdout.readline() if ready else b""
    if not line.strip():
        _stop_server(proc)
        raise RuntimeError("log server did not start")
    return proc, int(line)


def _stop_server(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _final_check(reader, keys, logged) -> int:
    """Failures found by the end-of-round audit: the final tree head verifies,
    entry numbers are dense, the entries rebuild the signed root, and every
    SCT's entry is in that tree."""
    final = reader.get_sth()
    failed = 0 if verify_sth(final, keys) else 1
    tree = MerkleTree()
    leaves = set()
    for start in range(0, final.treesize, FETCH_CHUNK):
        end = min(start + FETCH_CHUNK, final.treesize) - 1
        entries = reader.get_entries(start, end)
        if [e.number for e in entries] != list(range(start, end + 1)):
            return failed + 1 + len(logged)
        for entry in entries:
            leaves.add(tree.append(entry.payload))
    if tree.root(final.treesize) != final.root_hash:
        return failed + 1 + len(logged)
    return failed + sum(1 for _, sct in logged if sct.entry_hash not in leaves)


@dataclass
class _Round:
    setup_s: float
    seconds: float
    reads: list[float]  # latency of each monitor request
    writes: list[float]  # latency of each add-chain request
    monitor_steps: int
    attempted: int
    failed: int
    raised: int
    audit_failed: int
    errors: list[str]


def _round(index: int, seed: int, seconds: float, entries: int, tracer: Tracer | None) -> _Round:
    keys = registry()
    root = ca_root(keys)
    rng = random.Random(f"{seed}:{index}")

    started = time.perf_counter()
    proc, port = _start_server(entries, seed)
    try:
        url = f"http://127.0.0.1:{port}"
        reader = httpapi.HttpLogReader(url)
        setup_s = time.perf_counter() - started
        first = reader.get_sth()
        monitor = _Monitor(_TimedReader(url), keys, first, random.Random(rng.random()))
        submitter = _Submitter(_TimedReader(url), keys, root,
                               _FRESH_SERIAL_BASE + index * 1_000_000, random.Random(rng.random()),
                               tracer)
        if tracer:
            tracer.install()
        try:
            loop_started = time.perf_counter()
            deadline = loop_started + seconds
            while time.perf_counter() < deadline:
                monitor.step()
                for _ in range(WRITES_PER_STEP):
                    submitter.step()
            loop_s = time.perf_counter() - loop_started
        finally:
            if tracer:
                tracer.uninstall()
        time.sleep(PUBLICATION_DELAY_S + 0.2)
        audit_failed = _final_check(reader, keys, submitter.logged)
    finally:
        _stop_server(proc)
    callers = (monitor.caller, submitter.caller)
    reads, writes = monitor.reader.latencies, submitter.reader.latencies
    return _Round(
        setup_s=setup_s,
        seconds=loop_s,
        reads=reads,
        writes=writes,
        monitor_steps=monitor.steps,
        attempted=len(reads) + len(writes) + 1,
        failed=sum(c.failed for c in callers) + audit_failed,
        raised=sum(c.raised for c in callers),
        audit_failed=audit_failed,
        errors=[e for c in callers for e in c.errors],
    )


def _over_rounds(statistic, latencies: list[list[float]]) -> float:
    """Median over rounds of ``statistic`` of each round's latencies, in ms."""
    return median([statistic(round_s) * 1000 for round_s in latencies])


def run_http_monitor(seed: int, seconds: float, traced: bool, tiny: bool) -> Outcome:
    entries = TINY_PRELOAD_ENTRIES if tiny else PRELOAD_ENTRIES
    tracer = Tracer() if traced else None
    rounds = [
        _round(i, seed, seconds / ROUNDS, entries, tracer if traced and i > 0 else None)
        for i in range(ROUNDS)
    ]
    out = Outcome()
    out.attempted = sum(r.attempted for r in rounds)
    out.failed = sum(r.failed for r in rounds)
    out.details = {
        "seed_range": f"request mix and duplicates: {seed}:0..{seed}:{ROUNDS - 1}",
        "preloaded_entries": entries,
        "rounds": ROUNDS,
        "callers": 1,
        "writes_per_step": WRITES_PER_STEP,
        "duplicate_share": DUPLICATE_SHARE,
        "monitor_steps_per_round": [r.monitor_steps for r in rounds],
        "requests_per_round": [len(r.reads) + len(r.writes) for r in rounds],
        "failed_per_round": [r.failed for r in rounds],
        "raised_per_round": [r.raised for r in rounds],
        "audit_failed_per_round": [r.audit_failed for r in rounds],
        "errors": [e for r in rounds for e in r.errors][:10],
    }
    measured = rounds[1:] if traced else rounds
    if traced:
        # Overhead: the wall time the traced rounds took beyond what their
        # requests took per request in the untraced round.
        baseline = rounds[0]
        per_request = baseline.seconds / len(baseline.reads + baseline.writes)
        requests = sum(len(r.reads + r.writes) for r in measured) / len(measured)
        out.details["layers"] = layer_metrics(tracer, len(measured), per_request * requests,
                                              [r.seconds for r in measured])
        out.details["tracer"] = tracer
        return out
    setup = [r.setup_s for r in rounds]
    rates = [len(r.reads + r.writes) / r.seconds for r in rounds]
    everything = [r.reads + r.writes for r in rounds]
    reads = [r.reads for r in rounds]
    writes = [r.writes for r in rounds]
    rss = children_peak_rss_mb()
    out.metrics = {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (median(rates), "1/s"),
        "op_ms_p50": (_over_rounds(median, everything), "ms"),
        "op_ms_p90": (_over_rounds(p90, everything), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.report = {
        "setup_s": (median(setup), "s", len(setup)),
        "req_per_s": (median(rates), "1/s", len(rates)),
        "read_ms_p50": (_over_rounds(median, reads), "ms", sum(map(len, reads))),
        "read_ms_p90": (_over_rounds(p90, reads), "ms", sum(map(len, reads))),
        "write_ms_p50": (_over_rounds(median, writes), "ms", sum(map(len, writes))),
        "write_ms_p90": (_over_rounds(p90, writes), "ms", sum(map(len, writes))),
        "peak_rss_mb": (rss, "MB", 1),
        "fail_ratio": (out.failed / out.attempted, "ratio", out.attempted),
    }
    return out
