"""End-to-end command-line flows."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import postcert
from postcert.cli import EXIT_IO, EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
from postcert.certs import CertRef
from postcert.crypto import KeyRegistry, Signature
from postcert.encoding import decode_artifact, encode_artifact, text_block, text_block_bytes
from postcert.log import STH, LogEntry, MerkleAuditProof, sth_signing_payload
from postcert.merkle import MerkleTree
from postcert.misbehavior import MisbehaviorProofM12, proof_to_text
from postcert.presets import build_preset
from postcert.sim import scenario_to_text
from postcert.status import StatusValue, issue_status
from postcert.trace import SizeProbe

from oracles import ByteWriter


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_deterministic_trace(tmp_path, capsys):
    first = tmp_path / "a.trace"
    second = tmp_path / "b.trace"
    code, _, _ = _run(capsys, "simulate", "--preset", "normal", "--seed", "7",
                      "--out", str(first))
    assert code == EXIT_OK
    code, _, _ = _run(capsys, "simulate", "--preset", "normal", "--seed", "7",
                      "--out", str(second))
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_analyze_produces_report(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    dumps = tmp_path / "logs"
    code, _, _ = _run(capsys, "simulate", "--preset", "collisions", "--seed", "3",
                      "--out", str(trace), "--dump-logs", str(dumps))
    assert code == EXIT_OK
    report = tmp_path / "report.txt"
    code, _, _ = _run(capsys, "analyze", "--trace", str(trace), "--logs", str(dumps),
                      "--out", str(report))
    assert code == EXIT_OK
    text = report.read_text()
    assert "# submission-to-publication delay" in text
    assert "# entry collisions" in text
    assert "reinsert" in text


def test_analyze_report_is_deterministic(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    _run(capsys, "simulate", "--preset", "normal", "--seed", "5", "--out", str(trace))
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    _run(capsys, "analyze", "--trace", str(trace), "--out", str(r1))
    _run(capsys, "analyze", "--trace", str(trace), "--out", str(r2))
    assert r1.read_bytes() == r2.read_bytes()


def test_classify_command(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    _run(capsys, "simulate", "--preset", "classes", "--seed", "1", "--out", str(trace))
    code, out, _ = _run(capsys, "classify", "--trace", str(trace))
    assert code == EXIT_OK
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["busy"] == "BUSY"
    assert lines["unbusy"] == "UNBUSY"
    assert lines["periodic-120"] == "PERIODIC(120000ms)"
    assert lines["periodic-600"] == "PERIODIC(600000ms)"
    assert lines["periodic-3600"] == "PERIODIC(3600000ms)"
    assert lines["irregular"] == "OTHER"


def test_verify_proof_proven_and_rejected(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    dumps = tmp_path / "logs"
    proofs = tmp_path / "proofs"
    code, _, err = _run(
        capsys, "simulate", "--preset", "m1", "--seed", "4", "--out", str(trace),
        "--dump-logs", str(dumps), "--emit-proofs", str(proofs),
    )
    assert code == EXIT_OK
    assert "proof M1: PROVEN" in err
    bundle = proofs / "m1-proven.proof"
    assert bundle.exists()
    code, out, _ = _run(
        capsys, "verify-proof", "--proof", str(bundle), "--logs", str(dumps),
    )
    assert code == EXIT_OK
    assert out.strip() == "PROVEN"
    # the same bundle under a submission-anchored policy with a huge deadline
    # is no longer provable
    code, out, _ = _run(
        capsys, "verify-proof", "--proof", str(bundle), "--logs", str(dumps),
        "--mrd-mode", "submission", "--mrd", "2000h",
    )
    assert code == EXIT_REJECTED
    assert out.startswith("REJECTED")


@pytest.fixture(scope="module")
def m1_bundle(tmp_path_factory):
    """An M1 proof bundle and the log snapshots it verifies against."""
    root = tmp_path_factory.mktemp("m1")
    code = main([
        "simulate", "--preset", "m1", "--seed", "4", "--out", str(root / "t.trace"),
        "--dump-logs", str(root / "logs"), "--emit-proofs", str(root / "proofs"),
    ])
    assert code == EXIT_OK
    return root / "proofs" / "m1-proven.proof", root / "logs"


@pytest.mark.parametrize(
    "line_pattern, replacement, message",
    [
        (r"^(entry number=0 .*payload=)..", r"\1zz", "bad payload value"),
        (r"^(entry number=0 t_submission=)\d+", r"\1soon", "bad t_submission value"),
        (r"^(sth .*) root=\S+", r"\1", "missing field 'root'"),
    ],
    ids=["bad-hex", "non-integer", "missing-field"],
)
def test_verify_proof_malformed_snapshot_is_io_error(
    m1_bundle, tmp_path, capsys, line_pattern, replacement, message
):
    bundle, dumps = m1_bundle
    broken = tmp_path / "logs"
    broken.mkdir()
    for snapshot in dumps.glob("*.log"):
        text = snapshot.read_text()
        if snapshot.name == "log-a.log":
            text = re.sub(line_pattern, replacement, text, count=1, flags=re.M)
        (broken / snapshot.name).write_text(text)
    code, out, err = _run(capsys, "verify-proof", "--proof", str(bundle), "--logs", str(broken))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "log-a.log: snapshot line " in err
    assert message in err


@pytest.mark.parametrize("command", ["analyze", "verify-proof"])
@pytest.mark.parametrize(
    "replacement, message",
    [("", "missing field 'scheme'"), (" scheme=sha256/32", "unsupported scheme 'sha256/32'")],
    ids=["missing", "other-hash"],
)
def test_snapshot_declaring_no_or_another_hash_is_io_error(
    m1_bundle, tmp_path, capsys, command, replacement, message
):
    """Roots are SHA-256 roots, so a snapshot of any other declared hash is
    refused at load time instead of never matching."""
    bundle, dumps = m1_bundle
    broken = tmp_path / "logs"
    broken.mkdir()
    for snapshot in dumps.glob("*.log"):
        text = snapshot.read_text()
        if snapshot.name == "log-a.log":
            assert text.startswith("log id=log-a scheme=sha256 ")
            text = text.replace(" scheme=sha256", replacement, 1)
        (broken / snapshot.name).write_text(text)
    if command == "analyze":
        argv = ["analyze", "--trace", str(bundle.parent.parent / "t.trace"), "--logs", str(broken)]
    else:
        argv = ["verify-proof", "--proof", str(bundle), "--logs", str(broken)]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "log-a.log: snapshot line 1: " in err and message in err


@pytest.mark.parametrize("command", ["analyze", "verify-proof"])
@pytest.mark.parametrize(
    "line_pattern, replacement, message",
    [
        (r"^log .*\n", "", "snapshot line 1: entry line before the log line"),
        (r"^(log .*\n)", r"\1\1", "snapshot line 2: second log line"),
        (r"^(log .*\n)", r"\1note x=1\n", "snapshot line 2: unknown line kind 'note'"),
        (r"^entry number=1 ", "entry number=2 ", "snapshot line 3: entry number 2 at position 1"),
        (r"^(log .* size=)\d+", r"\g<1>1", "snapshot line 1: size=1 but "),
    ],
    ids=["no-log-line", "second-log-line", "unknown-kind", "misnumbered-entry", "wrong-size"],
)
def test_snapshot_that_would_load_wrong_is_io_error(
    m1_bundle, tmp_path, capsys, command, line_pattern, replacement, message
):
    """A snapshot whose every line parses, but which ``log_snapshot_text``
    would not write, is refused instead of loading as some other log."""
    bundle, dumps = m1_bundle
    broken = tmp_path / "logs"
    broken.mkdir()
    for snapshot in dumps.glob("*.log"):
        text = snapshot.read_text()
        if snapshot.name == "log-a.log":
            text, edits = re.subn(line_pattern, replacement, text, count=1, flags=re.M)
            assert edits == 1
        (broken / snapshot.name).write_text(text)
    if command == "analyze":
        argv = ["analyze", "--trace", str(bundle.parent.parent / "t.trace"), "--logs", str(broken)]
    else:
        argv = ["verify-proof", "--proof", str(bundle), "--logs", str(broken)]
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and f"log-a.log: {message}" in err


@pytest.mark.parametrize(
    "file, line_pattern, replacement, message",
    [
        ("trace", r"^(t=\d+ seq=0 .*)$", r"\1 extra=1", "trace line 1: unknown field 'extra'"),
        ("trace", r"^(t=\d+ seq=0 .*)$", r"\1 seq=5", "trace line 1: repeated field 'seq'"),
        ("snapshot", r"^log ", "log bogus=1 ", "snapshot line 1: unknown field 'bogus'"),
        ("snapshot", r"^(log .*)$", r"\1 size=311", "snapshot line 1: repeated field 'size'"),
        ("snapshot", r"^(entry number=0 .*)$", r"\1 note=x", "snapshot line 2: unknown field 'note'"),
        ("snapshot", r"^(sth t=0 .*)$", r"\1 t=0", "repeated field 't'"),
        ("scenario", r"^log ", "log bogus=1 ", "line 2: unknown field 'bogus'"),
        ("scenario", r"^(scenario=.*)$", r"\1 seed=5", "line 1: repeated field 'seed'"),
        ("scenario", r"^(probe .*)$", r"\1\n\1", "second probe line"),
        ("scenario", r"^(event .*kind=issue.*)$", r"\1 serial=2", "repeated field 'serial'"),
        ("trace", r"^(t=\d+) (seq=\d+)", r"\2 \1", "trace line 1: fields out of order, expected t seq actor"),
        ("snapshot", r"^log (id=\S+) (scheme=\S+)", r"log \2 \1", "snapshot line 1: fields out of order"),
        ("snapshot", r"^entry (number=0) (t_submission=\d+)", r"entry \2 \1", "snapshot line 2: fields out of order"),
        ("snapshot", r"^sth (t=\d+) (treesize=\d+)", r"sth \2 \1", "fields out of order, expected t treesize"),
        ("scenario", r"^(scenario=\S+) (seed=\d+)", r"\2 \1", "line 1: fields out of order"),
        ("scenario", r"^log (id=\S+) (mmd=\d+)", r"log \2 \1", "line 2: fields out of order"),
        ("scenario", r"^event (t=\d+) (kind=\S+)", r"event \2 \1", "fields out of order, expected t kind"),
        ("scenario", r"^(event .*kind=issue) (ca=\S+) (client=\S+)", r"\1 \3 \2",
         "fields out of order, expected t kind ca client serial"),
    ],
    ids=["trace-extra", "trace-repeated", "snapshot-log-extra", "snapshot-log-repeated", "snapshot-entry-extra",
         "snapshot-sth-repeated", "scenario-log-extra", "scenario-header-repeated", "scenario-second-probe",
         "scenario-event-repeated", "trace-order", "snapshot-log-order", "snapshot-entry-order", "snapshot-sth-order",
         "scenario-header-order", "scenario-log-order", "scenario-event-order", "scenario-event-params-unsorted"],
)
def test_a_repeated_key_or_one_the_line_does_not_read_is_io_error(
    m1_bundle, tmp_path, capsys, file, line_pattern, replacement, message
):
    """Each would load and write back as other text: a key appears once, a
    line of fixed layout has only the keys it reads, in the order it writes
    them, and a second probe line does not silently replace the first. Event
    params stay free-form, sorted after ``t`` and ``kind``."""
    bundle, dumps = m1_bundle
    trace = bundle.parent.parent / "t.trace"
    logs = tmp_path / "logs"
    logs.mkdir()
    for snapshot in dumps.glob("*.log"):
        (logs / snapshot.name).write_text(snapshot.read_text())
    target = {"trace": tmp_path / "t.trace", "snapshot": logs / "log-a.log", "scenario": tmp_path / "s.txt"}[file]
    text = {"trace": trace.read_text(), "snapshot": (dumps / "log-a.log").read_text(),
            "scenario": scenario_to_text(build_preset("m1", 4))}[file]
    text, edits = re.subn(line_pattern, replacement, text, count=1, flags=re.M)
    assert edits == 1
    target.write_text(text)
    argv = {
        "trace": ["analyze", "--trace", str(target), "--logs", str(dumps)],
        "snapshot": ["verify-proof", "--proof", str(bundle), "--logs", str(logs)],
        "scenario": ["simulate", "--scenario", str(target), "--out", str(tmp_path / "out.trace")],
    }[file]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (EXIT_IO, "")
    assert err.count("\n") == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("field, value", [
    ("background", "6"), ("background", "\uff16.0"), ("background", "6.00"), ("background", "1e1"),
    ("background", "+6.0"), ("cache_p", "0"), ("cache_p", "0.00"), ("cache_p", "5e-2"),
])
def test_non_canonical_float_in_scenario_is_io_error(tmp_path, capsys, field, value):
    """A float field is written as ``repr`` writes it; ``float`` alone would
    read each of these and write back ``6.0``, ``10.0``, ``0.0`` or ``0.05``."""
    text = scenario_to_text(build_preset("m1", 4))
    broken, edits = re.subn(rf"(log id=log-a .*){field}=[0-9.]+", rf"\g<1>{field}={value}", text, count=1)
    assert edits == 1
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(broken, encoding="utf-8")
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "t.trace"))
    assert (code, out) == (EXIT_IO, "")
    assert err.count("\n") == 1
    assert err.startswith("error: line 2: ") and f"{value!r}" in err and f"(bad {field} value)" in err


@pytest.mark.parametrize(
    "old, new",
    [
        (r"^entry_t_submission: \d+$", "entry_t_submission: 10800000"),
        (r"^status_kind: GOOD$", "status_kind: REVOKED"),
        (r"^kind: misbehavior-m12$", "kind: misbehavior-m3"),
        (r"^(sth_t: .*)$", r"\1\nnote: checked"),
        (r"^sth_treesize: .*\n", ""),
    ],
    ids=["edited-time", "edited-kind-of-status", "edited-kind", "added-line", "dropped-line"],
)
def test_proof_whose_header_disagrees_with_its_bytes_is_io_error(m1_bundle, tmp_path, capsys, old, new):
    """The header lines a reader sees must be those of the verified bytes:
    the file must be ``proof_to_text`` of the bundle its ``bytes:`` line
    holds. The bundle itself is unchanged, so it would verify."""
    bundle, dumps = m1_bundle
    text, edits = re.subn(old, new, bundle.read_text(), count=1, flags=re.M)
    assert edits == 1
    broken = tmp_path / "edited.proof"
    broken.write_text(text)
    assert text_block_bytes(text) == text_block_bytes(bundle.read_text())
    code, out, err = _run(capsys, "verify-proof", "--proof", str(broken), "--logs", str(dumps))
    assert (code, out) == (EXIT_IO, "")
    assert err == f"error: {broken}: header lines disagree with the bytes line\n"


def test_verify_proof_with_a_short_audit_path_node_is_rejected(m1_bundle, tmp_path, capsys):
    """A 5-byte node in the audit path is a verdict, not a traceback."""
    bundle, dumps = m1_bundle
    proof = decode_artifact(text_block_bytes(bundle.read_text()))
    assert proof.audit.path
    audit = dataclasses.replace(proof.audit, path=(bytes(5),) + proof.audit.path[1:])
    broken = tmp_path / "short.proof"
    broken.write_text(proof_to_text(dataclasses.replace(proof, audit=audit)))
    code, out, err = _run(capsys, "verify-proof", "--proof", str(broken), "--logs", str(dumps))
    assert (code, out, err) == (EXIT_REJECTED, "REJECTED(bad-audit-proof)\n", "")


def _artifact_bytes(tag: int, *fields) -> bytes:
    """A tagged artifact written field by field, bypassing its constructor."""
    w = ByteWriter()
    w.u8(tag)
    for write, value in fields:
        getattr(w, write)(value)
    return w.getvalue()


_STH = STH("log-a", 5, 0, bytes(32), Signature("log-a", bytes(32)))


@pytest.mark.parametrize(
    "proof_text, message",
    [
        (None, "invalid RevocationStatus: 'GOON' is not a valid StatusKind"),
        # An SCT-disclosure bundle (tag 10) carrying a tree head where its SCT goes.
        ("bytes: " + _artifact_bytes(10, ("artifact", _STH), ("artifact", _STH)).hex(),
         "expected a nested SCT, got STH"),
        ("kind: m1\nbytes: 0g12\n", "bytes line: non-hexadecimal number"),
    ],
    ids=["bad-enum", "wrong-nested-kind", "bad-hex"],
)
def test_verify_proof_invalid_artifact_is_io_error(m1_bundle, tmp_path, capsys, proof_text, message):
    bundle, dumps = m1_bundle
    if proof_text is None:  # the M1 bundle with its status kind GOOD renamed
        good = b"\x00\x00\x00\x04GOOD".hex()
        text = bundle.read_text()
        assert text.count(good) == 1
        proof_text = text.replace(good, b"\x00\x00\x00\x04GOON".hex())
    broken = tmp_path / "broken.proof"
    broken.write_text(proof_text)
    code, out, err = _run(capsys, "verify-proof", "--proof", str(broken), "--logs", str(dumps))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "payload, message",
    [
        # SthObservation (tag 11) with t_request > t_response.
        (_artifact_bytes(11, ("i64", 10), ("i64", 5), ("artifact", _STH)),
         "invalid SthObservation: t_request must not exceed t_response"),
        (_artifact_bytes(11, ("i64", 5), ("i64", 10), ("artifact", SizeProbe("log-a", 5, 0))),
         "expected a nested STH, got SizeProbe"),
        (_artifact_bytes(11, ("i64", 5), ("i64", 10), ("artifact", _STH))[:-3], "truncated input"),
    ],
    ids=["invariant", "wrong-nested-kind", "truncated"],
)
def test_analyze_invalid_artifact_is_io_error(tmp_path, capsys, payload, message):
    trace = tmp_path / "t.trace"
    trace.write_text(f"t=1 seq=0 actor=probe kind=STH payload={payload.hex()}\n")
    for command in ("analyze", "classify"):
        code, out, err = _run(capsys, command, "--trace", str(trace))
        assert code == EXIT_IO
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and message in err


def test_verify_proof_undecodable_entry_is_rejected(tmp_path, capsys):
    """An M1 bundle whose audited entry is no artifact, under a correctly
    signed one-entry head of log-a."""
    registry = KeyRegistry.with_signers(["log-a", "ca1"])
    payload = b"\x01garbage"
    tree = MerkleTree()
    tree.append(payload)
    t = 10**9
    head = sth_signing_payload("log-a", t, 1, tree.root())
    sth = STH("log-a", t, 1, tree.root(), registry.sign("log-a", head))
    status = issue_status(registry, "ca1", CertRef("ca1", 7), StatusValue.good(), t, 10 * 3600_000)
    bundle = MisbehaviorProofM12(LogEntry(payload, 0, "log-a", 0), sth, status,
                                 MerkleAuditProof(0, 1, ()))
    path = tmp_path / "garbage.proof"
    path.write_text(proof_to_text(bundle))
    code, out, err = _run(capsys, "verify-proof", "--proof", str(path), "--trusted", "log-a")
    assert code == EXIT_REJECTED
    assert (out, err) == ("REJECTED(undecodable-entry)\n", "")


def test_verify_proof_m3_roundtrip(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    dumps = tmp_path / "logs"
    proofs = tmp_path / "proofs"
    code, _, err = _run(
        capsys, "simulate", "--preset", "m3", "--seed", "4", "--out", str(trace),
        "--dump-logs", str(dumps), "--emit-proofs", str(proofs),
    )
    assert code == EXIT_OK
    assert "proof M3: PROVEN" in err
    code, out, _ = _run(
        capsys, "verify-proof", "--proof", str(proofs / "m3-proven.proof"),
        "--logs", str(dumps),
    )
    assert code == EXIT_OK


def test_verify_proof_sct_disclosure_and_non_proof(tmp_path, capsys):
    dumps = tmp_path / "logs"
    proofs = tmp_path / "proofs"
    code, _, err = _run(
        capsys, "simulate", "--preset", "log-forget", "--seed", "13", "--out", str(tmp_path / "t"),
        "--dump-logs", str(dumps), "--emit-proofs", str(proofs),
    )
    assert code == EXIT_OK and "proof LOG_FORGET: PROVEN" in err
    code, out, _ = _run(
        capsys, "verify-proof", "--proof", str(proofs / "log_forget-proven.proof"), "--logs", str(dumps),
    )
    assert (code, out) == (EXIT_OK, "PROVEN\n")
    registry = KeyRegistry.with_signers(["ca1"])
    status = issue_status(registry, "ca1", CertRef("ca1", 7), StatusValue.good(), 0, 10 * 3600_000)
    path = tmp_path / "status.proof"
    path.write_text(text_block("status", [], encode_artifact(status)))
    code, out, err = _run(capsys, "verify-proof", "--proof", str(path), "--logs", str(dumps))
    assert (code, out, err) == (EXIT_USAGE, "", "error: not a proof bundle\n")


@pytest.mark.parametrize("command", ["analyze", "verify-proof"])
def test_logs_that_is_not_a_directory_is_io_error(m1_bundle, tmp_path, capsys, command):
    """A mistyped ``--logs`` path is an I/O error, not an empty set of logs:
    ``analyze`` would drop its collision section and ``verify-proof`` would
    judge the bundle without the snapshots."""
    bundle, _ = m1_bundle
    trace = bundle.parent.parent / "t.trace"
    if command == "analyze":
        argv = ["analyze", "--trace", str(trace)]
    else:
        argv = ["verify-proof", "--proof", str(bundle), "--trusted", "log-a,log-b"]
    for logs in (tmp_path / "no-such-dir", trace):
        code, out, err = _run(capsys, *argv, "--logs", str(logs))
        assert (code, out, err) == (EXIT_IO, "", f"error: {logs}: not a directory\n")


def test_project_growth_command(tmp_path, capsys):
    history = tmp_path / "sizes.txt"
    history.write_text("0\n100\n250\n400\n")
    code, out, _ = _run(capsys, "project-growth", "--fraction", "0.2",
                        "--history", str(history))
    assert code == EXIT_OK
    lines = [line.split() for line in out.strip().splitlines()]
    assert lines[-1] == ["400", "480.00"]


@pytest.mark.parametrize(
    "sizes, fraction, message",
    [
        ("5\n3\n", "0.2", "non-monotone"),
        ("0\n100\n", "nan", "invalid-fraction: nan"),
        ("0\n100\n", "inf", "invalid-fraction: inf"),
        ("0\nnan\n100\n", "0.2", "non-finite-history: nan"),
        ("0\n100\ninf\n", "0.2", "non-finite-history: inf"),
    ],
    ids=["non-monotone", "fraction-nan", "fraction-inf", "history-nan", "history-inf"],
)
def test_project_growth_rejects_non_monotone(tmp_path, capsys, sizes, fraction, message):
    history = tmp_path / "sizes.txt"
    history.write_text(sizes)
    code, out, err = _run(capsys, "project-growth", "--fraction", fraction,
                          "--history", str(history))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and message in err


def test_project_growth_non_numeric_history_is_io_error(tmp_path, capsys):
    history = tmp_path / "sizes.txt"
    history.write_text("0\n100\n\nabc\n400\n")
    code, out, err = _run(capsys, "project-growth", "--fraction", "0.2",
                          "--history", str(history))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: {history} line 4: ") and "'abc'" in err


def test_usage_error_exit_code(capsys):
    assert main(["simulate", "--preset", "nope"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["simulate", "--preset", "nope"]], ids=["simulate"])
def test_an_unknown_preset_is_one_usage_error_line(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path / "t.trace"))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: unknown preset 'nope'; choose from ['classes', ")
    assert err.count("\n") == 1 and '"' not in err
    assert not (tmp_path / "t.trace").exists()


def test_a_key_error_inside_a_preset_is_not_an_unknown_preset(monkeypatch):
    from postcert.presets import PRESETS

    def broken(seed, policy=None):
        raise KeyError("lookup bug")

    monkeypatch.setitem(PRESETS, "normal", broken)
    with pytest.raises(KeyError, match="lookup bug"):
        main(["simulate", "--preset", "normal"])


def test_probe_takes_only_a_url(tmp_path, capsys):
    code, out, err = _run(capsys, "probe", "--target", "scenario:m1", "--out", str(tmp_path / "t.trace"))
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("error: scenario:m1: invalid-url") and err.count("\n") == 1
    assert not (tmp_path / "t.trace").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--preset", "m1", "--mrd", "8x"], "argument --mrd: unparseable duration: '8x'"),
        (["verify-proof", "--proof", "p", "--mmd", "1y"], "argument --mmd: unparseable duration: '1y'"),
        (["probe", "--target", "http://127.0.0.1:1", "--out", "t", "--duration", "soon"],
         "argument --duration: unparseable duration: 'soon'"),
        (["simulate", "--preset", "m1", "--mrd-mode", "submission", "--mrd", "1h"],
         "submission-anchored deadline must exceed the mmd"),
        (["simulate", "--preset", "m1", "--mrd", "0"], "publication-anchored deadline must be positive"),
        (["simulate", "--preset", "m1", "--mmd", "0"], "mmd must be positive"),
    ],
    ids=["bad-mrd", "bad-mmd", "bad-duration", "mrd-below-mmd", "mrd-zero", "mmd-zero"],
)
def test_bad_duration_or_policy_flag_is_usage_error(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    error_lines = [line for line in err.splitlines() if "error: " in line]
    assert len(error_lines) == 1 and message in error_lines[0]


def test_io_error_exit_code(capsys):
    assert main(["analyze", "--trace", "/nonexistent/path.trace"]) == 3


def test_scenario_file_flow(tmp_path, capsys):
    from postcert.presets import normal_revocation
    from postcert.sim import scenario_to_text

    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(normal_revocation(seed=21)))
    out_a = tmp_path / "a.trace"
    out_b = tmp_path / "b.trace"
    code, _, _ = _run(capsys, "simulate", "--scenario", str(scenario_file),
                      "--out", str(out_a))
    assert code == EXIT_OK
    code, _, _ = _run(capsys, "simulate", "--preset", "normal", "--seed", "21",
                      "--out", str(out_b))
    assert code == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "pattern, replacement, message",
    [
        (r" horizon=\d+", " horizon=soon", "line 1: invalid literal for int()"),
        (r" horizon=\d+", "", "line 1: missing field 'horizon'"),
    ],
    ids=["non-integer", "missing-field"],
)
def test_malformed_scenario_header_is_io_error(tmp_path, capsys, pattern, replacement, message):
    from postcert.presets import normal_revocation
    from postcert.sim import scenario_to_text

    text = scenario_to_text(normal_revocation(seed=21))
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(re.sub(pattern, replacement, text, count=1))
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "pattern, replacement, message",
    [
        (r"(kind=issue .*)client=client1", r"\1client=nobody", "unknown client 'nobody'"),
        (r"(kind=revoke-request .*)serial=1", r"\1serial=2", "client client1 holds no certificate 2"),
        (r"(kind=issue .*)serial=1", r"\1serial=abc", "invalid literal for int()"),
    ],
    ids=["unknown-client", "unissued-serial", "non-integer-serial"],
)
def test_malformed_scenario_event_is_io_error(tmp_path, capsys, pattern, replacement, message):
    from postcert.presets import normal_revocation
    from postcert.sim import scenario_to_text

    text = scenario_to_text(normal_revocation(seed=21))
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(re.sub(pattern, replacement, text, count=1))
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: invalid-scenario: ") and message in err


@pytest.mark.parametrize(
    "pattern, replacement",
    [
        (r"(ca .*)poll=\d+", r"\1poll=0"),
        (r"(ca .*)poll=\d+", r"\1poll=-5"),
        (r"probe sth=\d+", "probe sth=0"),
        (r"probe sth=\d+", "probe sth=-5"),
        (r"(probe .*)size=\d+", r"\1size=-1"),
        (r"(probe .*)submit=\d+", r"\1submit=-1"),
        (r"background=[\d.]+", "background=nan"),
        (r"delay=\S+", "delay=exp:nan"),
        (r"delay=\S+", "delay=exp:1000"),
        (r"validity=\d+", "validity=0"),
        (r"handoff=0 handoff_delay=\d+", "handoff=1 handoff_delay=-5"),
        (r"(ca .*)offset=0", r"\1offset=99999999999999999999"),
        (r"(ca .*)offset=0", r"\1offset=-99999999999999999999"),
        (r"offset=0", "offset=9223372036854775807"),
        (r"offset=0", "offset=-9223372036854775808"),
        (r"horizon=\d+", "horizon=99999999999999999999"),
        (r"mrd=\d+", "mrd=99999999999999999999"),
        (r"(log .*)mmd=\d+", r"\1mmd=99999999999999999999"),
        (r"update=\d+", "update=99999999999999999999"),
        (r"processing=\d+", "processing=99999999999999999999"),
        (r"handoff_delay=\d+", "handoff_delay=99999999999999999999"),
        (r"probe sth=\d+", "probe sth=99999999999999999999"),
        (r"(probe .*)size=\d+", r"\1size=99999999999999999999"),
    ],
    ids=["poll-zero", "poll-negative", "sth-zero", "sth-negative", "size-negative",
         "submit-negative", "background-nan", "delay-nan", "delay-exp", "validity-zero",
         "handoff-delay-negative",
         "ca-offset-huge", "ca-offset-huge-negative", "log-offset-i64-max", "log-offset-i64-min",
         "horizon-huge", "mrd-huge", "log-mmd-huge", "update-huge",
         "processing-huge", "handoff-delay-huge", "sth-huge", "size-huge"],
)
def test_out_of_range_scenario_value_is_io_error(tmp_path, capsys, pattern, replacement):
    """Values that would hang the run at one instant or fail inside it, and
    times beyond -2**56..2**56 ms (a clock reading past the signed 64-bit
    range failed at encode time), are rejected before the run starts."""
    from postcert.presets import normal_revocation
    from postcert.sim import scenario_to_text

    text = scenario_to_text(normal_revocation(seed=21))
    broken = re.sub(pattern, replacement, text, count=1)
    assert broken != text
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(broken)
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("value", ["+1", "1_0", "\u0663"], ids=["plus-sign", "underscore", "arabic-indic-digit"])
def test_non_canonical_integer_in_scenario_is_io_error(tmp_path, capsys, value):
    """``int`` would read these as 1, 10 and 3 ms, a log ticking so often
    that the run would not end; an integer field is ``-?[0-9]+`` only."""
    import time

    text = scenario_to_text(build_preset("m1", 0))
    broken = re.sub(r"(log id=log-a .*)interval=\d+", rf"\1interval={value}", text, count=1)
    assert broken != text
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(broken, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file))
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: line 2: ") and f"{value!r}" in err and "(bad interval value)" in err


_REQUEST_AT_5H = "event t=18000000 kind=revoke-request client=client1 serial=1\n"
_DIRECT_AT_5H = "event t=18000000 kind=revoke-direct serial=1\n"


@pytest.mark.parametrize(
    "old, new",
    [
        (_REQUEST_AT_5H, _REQUEST_AT_5H + "event t=21600000 kind=revoke-direct serial=1\n"),
        (_REQUEST_AT_5H, _DIRECT_AT_5H + "event t=21600000 kind=revoke-request client=client1 serial=1\n"),
        (_REQUEST_AT_5H, _DIRECT_AT_5H + "event t=21600000 kind=revoke-direct serial=1\n"),
    ],
    ids=["direct-after-logs", "logs-after-direct", "two-directs"],
)
def test_a_direct_revocation_beside_another_request_is_io_error(tmp_path, capsys, old, new):
    """A direct revocation and any other revocation request of one serial
    would both set its revocation times; the run is refused before it starts.
    Requests through the logs alone may repeat (``collisions`` sends three)."""
    text = scenario_to_text(build_preset("normal", 1))
    assert text.count(old) == 1
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(text.replace(old, new))
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file))
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: invalid-scenario: ")
    assert "at t=21600000: serial 1 already has a revocation request" in err


def test_scenario_over_the_event_budget_is_io_error(tmp_path, capsys):
    """A log ticking every millisecond over ``m1``'s 49 hours asks for 1.8e8
    events; the run is refused before it starts."""
    import time

    text = scenario_to_text(build_preset("m1", 0))
    broken = re.sub(r"(log id=log-a .*)interval=\d+", r"\1interval=1", text, count=1)
    assert broken != text
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(broken, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = _run(capsys, "simulate", "--scenario", str(scenario_file))
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: invalid-scenario: ") and "over the budget" in err


def test_probe_unreachable_target_is_io_error(tmp_path, capsys):
    import socket

    with socket.socket() as sock:  # a loopback port nobody listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    out = tmp_path / "live.trace"
    code, _, err = _run(capsys, "probe", "--target", f"http://127.0.0.1:{port}",
                        "--out", str(out), "--duration", "1s")
    assert code == EXIT_IO
    assert err.count("\n") == 1
    assert err.startswith(f"error: http://127.0.0.1:{port}: ")
    assert not out.exists()


# Words put in place of one key or value: malformed, non-finite or out of
# range. Small positive periods and huge rates are left out: a scenario with
# them is well formed and only slow to run.
_JUNK = ("", "x", "0", "-1", "1.5", "nan", "inf", "1e309", "-99999999999999999999", "zz", "=")


@st.composite
def _damaged(draw, files: dict[str, str]) -> dict[str, str]:
    """``files`` with one of them damaged once: a character replaced by a
    non-digit, a line dropped or doubled, the text cut short, or one word
    (a key, a value or a number) replaced from ``_JUNK``."""
    name = draw(st.sampled_from(sorted(files)))
    text = files[name]
    lines = text.splitlines(keepends=True)
    how = draw(st.sampled_from(["char", "cut", "drop-line", "double-line", "value"]))
    if how == "char":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from("afxz=-: \n")) + text[i + 1:]
    elif how == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif how in ("drop-line", "double-line"):
        i = draw(st.integers(0, len(lines) - 1))
        text = "".join(lines[:i] + lines[i:i + 1] * (how == "double-line") + lines[i + 1:])
    else:
        a, b = draw(st.sampled_from([m.span() for m in re.finditer(r"[^\s=:]+", text)]))
        text = text[:a] + draw(st.sampled_from(_JUNK)) + text[b:]
    return {**files, name: text}


@pytest.mark.parametrize("kind", ["proof", "trace", "snapshot", "history", "scenario"])
def test_damaged_input_gives_an_exit_code_and_at_most_one_error_line(m1_bundle, tmp_path_factory, kind):
    """Whatever a damaged proof, trace, snapshot, history or scenario file
    holds, ``main`` returns 0, 1, 2 or 3, and a 1 or 3 leaves exactly one
    ``error: `` line on stderr and nothing else."""
    bundle, dumps = m1_bundle
    trace = bundle.parent.parent / "t.trace"
    work = tmp_path_factory.mktemp(kind)
    files, commands = {
        "proof": ({"p.proof": bundle.read_text()},
                  [["verify-proof", "--proof", work / "p.proof", "--logs", dumps]]),
        "trace": ({"t.trace": trace.read_text()},
                  [["analyze", "--trace", work / "t.trace", "--logs", dumps],
                   ["classify", "--trace", work / "t.trace"],
                   ["project-growth", "--fraction", "0.2", "--trace", work / "t.trace"]]),
        "snapshot": ({f"logs/{f.name}": f.read_text() for f in dumps.glob("*.log")},
                     [["verify-proof", "--proof", bundle, "--logs", work / "logs"],
                      ["analyze", "--trace", trace, "--logs", work / "logs"]]),
        "history": ({"h.txt": "0\n100\n250\n400\n"},
                    [["project-growth", "--fraction", "0.2", "--history", work / "h.txt"]]),
        "scenario": ({"s.txt": scenario_to_text(build_preset("m1", 4))},
                     [["simulate", "--scenario", work / "s.txt", "--out", work / "out.trace"]]),
    }[kind]
    (work / "logs").mkdir()

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_damaged(files))
    def check(damaged: dict[str, str]) -> None:
        for name, text in damaged.items():
            (work / name).write_text(text)
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(arg) for arg in argv])
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_REJECTED, EXIT_IO)
            if code in (EXIT_USAGE, EXIT_IO):
                assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), argv

    check()


# What ``import postcert.cli`` loads, and what each command adds when it runs.
_CLI_MODULES = {"postcert", "postcert.cli", "postcert.encoding", "postcert.crypto", "postcert.certs",
                "postcert.merkle", "postcert.timeutil", "postcert.log"}
_TRACE_MODULES = {"postcert.trace", "postcert.status"}
_FRESH_COMMANDS = [
    (["simulate", "--preset", "m1", "--seed", "4", "--out", "t.trace", "--dump-logs", "logs",
      "--emit-proofs", "proofs"],
     _TRACE_MODULES | {"postcert.sim", "postcert.presets", "postcert.misbehavior", "postcert.probe",
                       "postcert.delays"}),
    (["analyze", "--trace", "t.trace", "--logs", "logs", "--out", "report.txt"],
     _TRACE_MODULES | {"postcert.probe"}),
    (["classify", "--trace", "t.trace"], _TRACE_MODULES | {"postcert.probe"}),
    (["verify-proof", "--proof", "proofs/m1-proven.proof", "--logs", "logs"],
     {"postcert.status", "postcert.misbehavior"}),
    (["project-growth", "--fraction", "0.2", "--trace", "t.trace"], _TRACE_MODULES | {"postcert.probe"}),
]


def test_each_command_in_a_fresh_interpreter_loads_only_its_own_modules(tmp_path, monkeypatch, capsys):
    """``python -m postcert <command>`` in a new process writes the bytes and
    exits with the code of ``main`` in this one, and loads the command line's
    modules plus its own subsystem's, nothing else: the artifacts a command
    reads are decoded by the modules it loads."""
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(postcert.__file__).parent.parent)}
    monkeypatch.chdir(here)
    for argv, own in _FRESH_COMMANDS:
        code, out, err = _run(capsys, *argv)
        result = subprocess.run([sys.executable, "-X", "importtime", "-m", "postcert", *argv],
                                cwd=fresh, env=env, capture_output=True, text=True)
        lines = result.stderr.splitlines(keepends=True)
        loaded = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
        stderr = "".join(line for line in lines if not line.startswith("import time:"))
        assert code == EXIT_OK, argv
        assert (result.returncode, result.stdout, stderr) == (code, out, err)
        assert {name for name in loaded if name.startswith("postcert")} == _CLI_MODULES | own, argv[0]
    written = sorted(path.relative_to(here) for path in here.rglob("*") if path.is_file())
    assert written == sorted(path.relative_to(fresh) for path in fresh.rglob("*") if path.is_file())
    assert len(written) > 4
    for path in written:
        assert (fresh / path).read_bytes() == (here / path).read_bytes(), path
