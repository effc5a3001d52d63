"""Outside-in layer tracing for the benchmark.

The tracer wraps the public entry points of the postcert layer modules from
here, without touching the package source. Every wrapped call records a span
(name, start, end, parent span) in per-thread in-memory buffers; self time is
a span's duration minus the time its direct child spans cover. The hottest
leaf functions get count-only wrappers, which record no span.

Module-level functions are rebound in every loaded postcert module that
imported them by name (for example ``log.validate_chain`` and
``sim.encode_artifact``), so calls made across modules are seen too.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

from postcert import certs, cli, crypto, encoding, httpapi, log, merkle, misbehavior, probe, sim, status, trace


def _span_targets():
    """(span name, owner, attribute) for every wrapped entry point."""
    return [
        ("crypto.sign", crypto.KeyRegistry, "sign"),
        ("crypto.verify", crypto.KeyRegistry, "verify"),
        ("encoding.encode_artifact", encoding, "encode_artifact"),
        ("encoding.decode_artifact", encoding, "decode_artifact"),
        ("certs.validate_chain", certs, "validate_chain"),
        ("merkle.root", merkle.MerkleTree, "root"),
        ("merkle.audit_path", merkle.MerkleTree, "audit_path"),
        ("merkle.consistency_path", merkle.MerkleTree, "consistency_path"),
        ("log.submit", log.CtLog, "submit"),
        ("log.advance", log.CtLog, "advance"),
        ("log.get_sth", log.CtLog, "get_sth"),
        ("log.get_entries", log.CtLog, "get_entries"),
        ("status.issue_status", status, "issue_status"),
        ("status.verify_status", status, "verify_status"),
        ("misbehavior.build_proof", misbehavior, "build_proof"),
        ("misbehavior.verify", misbehavior, "verify_m12"),
        ("misbehavior.verify", misbehavior, "verify_m3"),
        ("misbehavior.verify", misbehavior, "verify_sct_disclosure"),
        ("sim.run", sim.Simulation, "run"),
        ("probe.binary_search_size", probe, "binary_search_size"),
        ("probe.lagging_fraction", probe, "lagging_fraction"),
        ("probe.out_of_order_fraction", probe, "out_of_order_fraction"),
        ("probe.classify", probe, "classify"),
        ("trace.trace_to_text", trace, "trace_to_text"),
        ("trace.read_trace", trace, "read_trace"),
        ("trace.observations_from_events", trace, "observations_from_events"),
        ("cli.render_report", cli, "render_report"),
        ("httpapi.get-sth", httpapi.HttpLogReader, "get_sth"),
        ("httpapi.get-entries", httpapi.HttpLogReader, "get_entries"),
        ("httpapi.get-proof-by-hash", httpapi.HttpLogReader, "get_proof_by_hash"),
        ("httpapi.get-sth-consistency", httpapi.HttpLogReader, "consistency_proof"),
        ("httpapi.add-chain", httpapi.HttpLogReader, "submit"),
    ]


def _count_targets():
    """(counter name, owner, attribute) for count-only wrappers."""
    return [
        ("crypto.hash_leaf", crypto.HashScheme, "hash_leaf"),
        ("crypto.hash_node", crypto.HashScheme, "hash_node"),
        ("certs.encode_tbs", certs, "encode_tbs"),
        ("merkle.append", merkle.MerkleTree, "append"),
        ("httpapi.connect", http.client.HTTPConnection, "connect"),
    ]


class _ThreadBuffer:
    """Spans and counters of one thread; only that thread writes to it."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[list] = []  # [span index, name id, child seconds]
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.under: Counter = Counter()  # (name id, enclosing span name id) -> calls
        self.durations: dict[int, list[float]] = {}
        self.paused = False  # set while the thread does benchmark work, not program work


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _ThreadBuffer()
            with self._buffers_lock:
                self._buffers.append(buf)
            return buf

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        keep = name.startswith("httpapi.")  # client-side request latencies
        buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer()
            if buf.paused:
                return fn(*args, **kwargs)
            stack = buf.stack
            if stack:
                parent = stack[-1]
                parent_index = parent[0]
                buf.under[(nid, parent[1])] += 1
            else:
                parent = None
                parent_index = -1
            index = len(buf.starts)
            frame = [index, nid, 0.0]
            stack.append(frame)
            buf.names.append(nid)
            buf.parents.append(parent_index)
            start = clock()
            buf.starts.append(start)
            buf.ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.ends[index] = end
                duration = end - start
                buf.calls[nid] += 1
                buf.total_s[nid] += duration
                buf.self_s[nid] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if keep:
                    buf.durations.setdefault(nid, []).append(duration)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        buffer = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer()
            if buf.paused:
                return fn(*args, **kwargs)
            buf.calls[nid] += 1
            if buf.stack:
                buf.under[(nid, buf.stack[-1][1])] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self._buffer().calls[self._name_id(name)] += n

    @contextlib.contextmanager
    def paused(self):
        """Calls this thread makes inside the block are not recorded."""
        buf = self._buffer()
        buf.paused = True
        try:
            yield
        finally:
            buf.paused = False

    # -- installation

    def _patch(self, owner, attr: str, wrapped) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # Rebind the same function wherever another postcert module imported it.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("postcert"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in _span_targets():
            wrapped = self._span_wrapper(name, owner.__dict__[attr])
            if (owner, attr) == (log.CtLog, "advance"):
                wrapped = self._advance_observer(wrapped)
            elif (owner, attr) == (misbehavior, "build_proof"):
                wrapped = self._build_proof_observer(wrapped)
            elif (owner, attr) == (sim.Simulation, "run"):
                wrapped = self._sim_run_observer(wrapped)
            self._patch(owner, attr, wrapped)
        for name, owner, attr in _count_targets():
            self._patch(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # Observers count outcomes that the span alone cannot show.

    def _advance_observer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def advance(log_self, now):
            before = (len(log_self.entries), len(log_self.sth_history))
            fn(log_self, now)
            if (len(log_self.entries), len(log_self.sth_history)) == before:
                tracer.count("log.advance.noop")

        return advance

    def _build_proof_observer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def build_proof(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except misbehavior.InsufficientEvidenceError:
                tracer.count("misbehavior.build_proof.insufficient")
                raise

        return build_proof

    def _sim_run_observer(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(sim_self):
            events = fn(sim_self)
            tracer.count("sim.trace_events", len(events))
            return events

        return run

    # -- results

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else sum(b.calls[nid] for b in self._buffers)

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else sum(b.self_s[nid] for b in self._buffers)

    def total_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else sum(b.total_s[nid] for b in self._buffers)

    def calls_under(self, name: str, enclosing: str) -> int:
        nid, pid = self._ids.get(name), self._ids.get(enclosing)
        if nid is None or pid is None:
            return 0
        return sum(b.under[(nid, pid)] for b in self._buffers)

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        out: list[float] = []
        for b in self._buffers:
            out.extend(b.durations.get(nid, ()))
        return out

    def span_count(self) -> int:
        return sum(len(b.starts) for b in self._buffers)

    def write_spans(self, path: Path) -> None:
        """Write every span as a numpy archive: per thread, arrays of name id,
        parent index (-1 for none), start and end in perf_counter seconds."""
        import numpy as np

        arrays = {"names": np.array(self.names)}
        for i, b in enumerate(self._buffers):
            arrays[f"t{i}_name"] = np.frombuffer(b.names, dtype=np.int32)
            arrays[f"t{i}_parent"] = np.frombuffer(b.parents, dtype=np.int32)
            arrays[f"t{i}_start"] = np.frombuffer(b.starts, dtype=np.float64)
            arrays[f"t{i}_end"] = np.frombuffer(b.ends, dtype=np.float64)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as stream:
            np.savez(stream, **arrays)
