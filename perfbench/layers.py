"""Per-layer metrics computed from a traced run.

Every workload reports every metric, so a layer that does not run on a
workload reads 0 there; that zero is the prediction for the workloads where
a change to that layer should move nothing. Counts and times are per round
of the workload's fixed work.
"""

from __future__ import annotations

from .common import median
from .tracer import Tracer

HTTP_ENDPOINTS = ("get-sth", "get-entries", "get-proof-by-hash", "get-sth-consistency", "add-chain")

# Spans whose call count and self time are both reported.
TIMED_SPANS = (
    "crypto.sign",
    "crypto.verify",
    "encoding.encode_artifact",
    "encoding.decode_artifact",
    "certs.validate_chain",
    "merkle.root",
    "merkle.audit_path",
    "merkle.consistency_path",
    "log.submit",
    "log.advance",
    "log.get_sth",
    "log.get_entries",
    "status.issue_status",
    "status.verify_status",
    "misbehavior.build_proof",
    "misbehavior.verify",
    "probe.binary_search_size",
)
# Spans whose self time alone is reported.
SELF_TIME_ONLY = (
    "sim.run",
    "probe.lagging_fraction",
    "probe.out_of_order_fraction",
    "probe.classify",
    "trace.trace_to_text",
    "trace.read_trace",
    "trace.observations_from_events",
    "cli.render_report",
)
COUNTED = ("crypto.hash_leaf", "crypto.hash_node", "certs.encode_tbs", "merkle.append")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in reporting order."""
    names: list[tuple[str, str]] = []
    for span in TIMED_SPANS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [(f"{span}.self_s", "s") for span in SELF_TIME_ONLY]
    names += [(f"{name}.calls", "count") for name in COUNTED]
    names += [
        ("certs.encode_tbs.per_submit", "ratio"),
        ("merkle.hash_node.per_root", "ratio"),
        ("log.advance.noop_ratio", "ratio"),
        ("misbehavior.build_proof.insufficient_ratio", "ratio"),
        ("sim.trace_events", "count"),
        ("sim.host_us_per_event", "us"),
        ("probe.binary_search_size.reads_per_call", "ratio"),
    ]
    for endpoint in HTTP_ENDPOINTS:
        names += [(f"httpapi.{endpoint}.calls", "count"), (f"httpapi.{endpoint}.ms_p50", "ms")]
    names += [
        ("httpapi.connections_per_request", "ratio"),
        ("tracing.overhead_s", "s"),
        ("tracing.overhead_share", "ratio"),
        ("tracing.spans", "count"),
    ]
    return names


def layer_metrics(tracer: Tracer, rounds: int, untraced_s: float, traced_s: list[float]) -> dict:
    """Per-layer metrics per round, from ``rounds`` traced rounds.

    ``untraced_s`` is the timed work of one untraced round and ``traced_s``
    that of each traced round; their difference is the tracing overhead.
    """
    values: dict[str, float] = {}
    for span in TIMED_SPANS:
        values[f"{span}.calls"] = tracer.calls(span) / rounds
        values[f"{span}.self_s"] = tracer.self_s(span) / rounds
    for span in SELF_TIME_ONLY:
        values[f"{span}.self_s"] = tracer.self_s(span) / rounds
    for name in COUNTED:
        values[f"{name}.calls"] = tracer.calls(name) / rounds
    events = tracer.calls("sim.trace_events")
    values.update({
        "certs.encode_tbs.per_submit": _ratio(tracer.calls("certs.encode_tbs"), tracer.calls("log.submit")),
        "merkle.hash_node.per_root": _ratio(tracer.calls_under("crypto.hash_node", "merkle.root"),
                                            tracer.calls("merkle.root")),
        "log.advance.noop_ratio": _ratio(tracer.calls("log.advance.noop"), tracer.calls("log.advance")),
        "misbehavior.build_proof.insufficient_ratio": _ratio(
            tracer.calls("misbehavior.build_proof.insufficient"), tracer.calls("misbehavior.build_proof")),
        "sim.trace_events": events / rounds,
        "sim.host_us_per_event": _ratio(tracer.total_s("sim.run") * 1e6, events),
        "probe.binary_search_size.reads_per_call": _ratio(
            tracer.calls_under("log.get_entries", "probe.binary_search_size")
            + tracer.calls_under("httpapi.get-entries", "probe.binary_search_size"),
            tracer.calls("probe.binary_search_size")),
    })
    requests = 0
    for endpoint in HTTP_ENDPOINTS:
        name = f"httpapi.{endpoint}"
        calls = tracer.calls(name)
        requests += calls
        durations = tracer.durations(name)
        values[f"{name}.calls"] = calls / rounds
        values[f"{name}.ms_p50"] = median(durations) * 1000 if durations else 0.0
    values["httpapi.connections_per_request"] = _ratio(tracer.calls("httpapi.connect"), requests)
    overhead = sum(traced_s) - untraced_s * len(traced_s)
    values["tracing.overhead_s"] = overhead / rounds
    values["tracing.overhead_share"] = _ratio(overhead, untraced_s * len(traced_s))
    values["tracing.spans"] = tracer.span_count() / rounds
    units = dict(metric_names())
    return {name: (values[name], units[name]) for name, _ in metric_names()}
