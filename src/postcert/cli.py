"""Command-line entry points: simulate, analyze, verify-proof, classify,
project-growth, probe.

Exit codes: 0 success, 1 usage error, 2 proof verification rejected,
3 I/O failure or malformed input. Commands raise; ``main`` alone maps a
failure to its exit code and one ``error:`` line.

At module level this file loads only the encoding, the log and the time
units, which also hold every exception ``main`` maps. Each function imports
the rest of what it runs when it runs, so a command loads only its own
subsystem: ``simulate`` the simulator and presets, ``analyze``,
``classify`` and ``project-growth`` the trace reader and the analyses,
``verify-proof`` the proof verifiers and status rules, and ``probe`` the
HTTP client.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .encoding import DecodeError, ScenarioError, decode_artifact, encode_artifact, text_block_bytes
from .log import AnalysisError, LogError, LogReader, LogView, entries_below, log_snapshot_text
from .timeutil import DurationError, parse_duration_ms

if TYPE_CHECKING:
    from .misbehavior import MrdPolicy
    from .trace import ObservationSet, TraceEvent

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_IO = 3


class _Exit(Exception):
    """``_Exit(code, message)``: a failure whose exit code or message only the
    command knows."""


def _policy_from_args(args: argparse.Namespace) -> MrdPolicy:
    from .misbehavior import MrdMode, MrdPolicy, default_policy

    mode = MrdMode.FROM_SUBMISSION if args.mrd_mode == "submission" else MrdMode.FROM_PUBLICATION
    base = default_policy(mode)
    mrd = base.mrd_ms if args.mrd is None else args.mrd
    mmd = base.mmd_ms if args.mmd is None else args.mmd
    try:
        return MrdPolicy(mode, mrd_ms=mrd, mmd_ms=mmd)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc)) from None


def _duration(text: str) -> int:
    """``parse_duration_ms`` as an argparse type, so a bad value reads as
    ``DurationError``'s own message."""
    try:
        return parse_duration_ms(text)
    except DurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .misbehavior import proof_to_text
    from .sim import Simulation, scenario_from_text
    from .trace import EventKind, trace_to_text

    if args.scenario:
        scenario = scenario_from_text(Path(args.scenario).read_text())
    else:
        from .presets import PRESETS, build_preset

        if args.preset not in PRESETS:  # a usage error; a KeyError from inside a preset is a bug
            raise _Exit(EXIT_USAGE, f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        scenario = build_preset(args.preset, args.seed, _policy_from_args(args))
    sim = Simulation(scenario)
    events = sim.run()
    _write(args.out, trace_to_text(events))
    if args.dump_logs:
        dump_dir = Path(args.dump_logs)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for log_id, log in sim.logs.items():
            (dump_dir / f"{log_id}.log").write_text(log_snapshot_text(log))
    records = [e.artifact() for e in events if e.kind is EventKind.PROOF]
    if args.emit_proofs:
        proof_dir = Path(args.emit_proofs)
        proof_dir.mkdir(parents=True, exist_ok=True)
        for record in records:
            name = f"{record.case.lower()}-{'proven' if record.proven else 'rejected'}.proof"
            (proof_dir / name).write_text(proof_to_text(decode_artifact(record.bundle)))
    for record in records:
        verdict = "PROVEN" if record.proven else f"REJECTED({record.reason})"
        print(f"proof {record.case}: {verdict} t_proof={record.t_proof}", file=sys.stderr)
    return EXIT_OK


def _observations(path: str) -> ObservationSet:
    from .trace import observations_from_events, read_trace

    with open(path) as stream:
        return observations_from_events(read_trace(stream))


def _class_of(obs: ObservationSet, log_id: str) -> str:
    """The update-behavior class of ``log_id`` as text, or
    ``insufficient-data (<code>)`` when the observations cannot decide it."""
    from .probe import classify

    try:
        return classify(obs.sths.get(log_id, []), obs.submissions.get(log_id, [])).render()
    except AnalysisError as exc:
        return f"insufficient-data ({exc.code})"


def render_report(obs: ObservationSet, readers: dict[str, LogReader]) -> str:
    """Aligned per-log metric tables plus machine-readable record lines."""
    from .probe import (
        clock_offsets,
        collision_report,
        lagging_fraction,
        out_of_order_fraction,
        percentile_summary,
        request_processing_stats,
        sth_update_rate,
        submission_to_publication,
    )

    lines: list[str] = []
    records: list[str] = []
    header = (
        f"{'log':<16}{'n':>6}{'p10':>12}{'p25':>12}{'p50':>12}{'p75':>12}"
        f"{'p90':>12}{'mean':>12}"
    )
    lines.append("# submission-to-publication delay (ms)")
    lines.append(header)
    for log_id in obs.log_ids():
        sths = obs.sths.get(log_id, [])
        delays = []
        for record in obs.submissions.get(log_id, []):
            if record.final_entry_number is None:
                continue
            try:
                delays.append(submission_to_publication(record, sths))
            except AnalysisError:
                continue
        if not delays:
            continue
        summary = percentile_summary(delays)
        lines.append(
            f"{log_id:<16}{summary.count:>6}{summary.p10:>12.0f}{summary.p25:>12.0f}"
            f"{summary.p50:>12.0f}{summary.p75:>12.0f}{summary.p90:>12.0f}{summary.mean:>12.1f}"
        )
        records.append(
            f"metric log={log_id} name=sub-to-pub-p50 value={summary.p50:.0f}"
        )
    lines.append("")
    lines.append("# update-behavior classes")
    for log_id in obs.log_ids():
        rendered = _class_of(obs, log_id)
        rate = sth_update_rate(obs.sths.get(log_id, []))
        lines.append(f"{log_id:<16}{rendered}  sth-updates={rate.render()}")
        records.append(f"metric log={log_id} name=class value={rendered}")
        records.append(f"metric log={log_id} name=sth-rate value={rate.render()}")
    lines.append("")
    lines.append("# response pathologies")
    for log_id in obs.log_ids():
        sths = obs.sths.get(log_id, [])
        fraction_ooo = out_of_order_fraction(sths)
        fraction_lag = lagging_fraction(sths, obs.sizes.get(log_id, []))
        lines.append(f"{log_id:<16}out_of_order={fraction_ooo:.4f} lagging={fraction_lag:.4f}")
        records.append(f"metric log={log_id} name=out-of-order value={fraction_ooo:.4f}")
        records.append(f"metric log={log_id} name=lagging value={fraction_lag:.4f}")
    lines.append("")
    lines.append("# request processing (ms)")
    for log_id in obs.log_ids():
        submissions = obs.submissions.get(log_id, [])
        if not any(s.ok for s in submissions):
            continue
        summary = request_processing_stats(submissions)
        lines.append(f"{log_id:<16}{summary.render()}")
    per_log_scts: dict[str, list[tuple[int, int]]] = {}
    for log_id, submissions in obs.submissions.items():
        samples = [(s.sct.timestamp, s.t_response) for s in submissions if s.ok]
        if len(samples) >= 3:
            per_log_scts[log_id] = samples
    if len(per_log_scts) >= 2:
        lines.append("")
        lines.append("# pairwise clock offsets (ms)")
        log_ids, matrix = clock_offsets(per_log_scts)
        lines.append(f"{'':<16}" + "".join(f"{l:>14}" for l in log_ids))
        for log_id, row in zip(log_ids, matrix):
            lines.append(f"{log_id:<16}" + "".join(f"{value:>14.0f}" for value in row))
            for other, value in zip(log_ids, row):
                records.append(
                    f"metric log={log_id} name=offset-vs-{other} value={value:.0f}"
                )
    if readers:
        lines.append("")
        lines.append("# entry collisions")
        for log_id in sorted(readers):
            reader = readers[log_id]
            groups = collision_report(entries_below(reader, reader.published_size()))
            for group in groups:
                lines.append(
                    f"{log_id:<16}payload={group.payload_hash.hex()[:16]} "
                    f"numbers={list(group.entry_numbers)} timestamps={list(group.timestamps)}"
                )
                records.append(
                    f"metric log={log_id} name=collision value={len(group.entry_numbers)}"
                )
            if not groups:
                lines.append(f"{log_id:<16}none")
    if obs.violations:
        lines.append("")
        lines.append("# delay-bound violations")
        for violation in obs.violations:
            lines.append(
                f"{violation.context:<16}{violation.kind} actual={violation.actual_ms} "
                f"limit={violation.limit_ms}"
            )
    if obs.proofs:
        lines.append("")
        lines.append("# misbehavior proofs")
        for record in obs.proofs:
            verdict = "PROVEN" if record.proven else f"REJECTED({record.reason})"
            lines.append(f"{record.case:<16}{verdict} t_proof={record.t_proof}")
    lines.append("")
    lines.append("# records")
    lines.extend(records)
    return "\n".join(lines) + "\n"


def _read_log_dumps(path: str | None) -> dict[str, LogReader]:
    readers: dict[str, LogReader] = {}
    if not path:
        return readers
    root = Path(path)
    if not root.is_dir():
        raise DecodeError(f"{path}: not a directory")
    for file in sorted(root.glob("*.log")):
        try:
            reader = LogView.from_text(file.read_text())
        except DecodeError as exc:
            raise DecodeError(f"{file}: {exc}") from None
        readers[reader.log_id] = reader
    return readers


def _cmd_analyze(args: argparse.Namespace) -> int:
    obs = _observations(args.trace)
    _write(args.out, render_report(obs, _read_log_dumps(args.logs)))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    obs = _observations(args.trace)
    for log_id in obs.log_ids():
        print(f"{log_id} {_class_of(obs, log_id)}")
    return EXIT_OK


def _cmd_verify_proof(args: argparse.Namespace) -> int:
    from .crypto import KeyRegistry
    from .misbehavior import TrustedLogSet, proof_to_text, verify_proof
    from .status import RevocationStatus

    text = Path(args.proof).read_text()
    bundle = decode_artifact(text_block_bytes(text))
    try:
        shown = proof_to_text(bundle)
    except TypeError:
        raise _Exit(EXIT_USAGE, "not a proof bundle") from None
    if text != shown:  # the header lines a reader sees must be those of the verified bytes
        raise DecodeError(f"{args.proof}: header lines disagree with the bytes line")
    readers = _read_log_dumps(args.logs)
    policy = _policy_from_args(args)
    if args.trusted:
        trusted = TrustedLogSet.of(*args.trusted.split(","))
    elif readers:
        trusted = TrustedLogSet.of(*readers.keys())
    else:
        raise _Exit(EXIT_USAGE, "--trusted or --logs required")
    # the trusted logs sign the heads and SCTs, the CA signs the status
    signer_ids = trusted.sorted()
    status = getattr(bundle, "status", None)
    if isinstance(status, RevocationStatus):
        signer_ids.append(status.signature.signer_id)
    verdict = verify_proof(bundle, policy, trusted, KeyRegistry.with_signers(signer_ids), readers)
    if verdict.proven:
        print("PROVEN")
        return EXIT_OK
    print(f"REJECTED({verdict.reason})")
    return EXIT_REJECTED


def _cmd_project_growth(args: argparse.Namespace) -> int:
    from .probe import growth_projection

    history: list[float] = []
    if args.history:
        lines = Path(args.history).read_text().splitlines()
        for lineno, line in enumerate(lines, 1):
            try:
                if line.strip():
                    history.append(float(line.split()[-1]))
            except ValueError as exc:
                raise DecodeError(f"{args.history} line {lineno}: {exc}") from None
    elif args.trace:
        obs = _observations(args.trace)
        sths = obs.sths.get(args.log or (obs.log_ids()[0] if obs.log_ids() else ""), [])
        sizes = [o.sth.treesize for o in sorted(sths, key=lambda o: o.t_response)]
        history = [float(max(sizes[: i + 1])) for i in range(len(sizes))]
    if not history:
        raise _Exit(EXIT_USAGE, "no history")
    for original, scaled in zip(history, growth_projection(history, args.fraction)):
        print(f"{original:.0f} {scaled:.2f}")
    return EXIT_OK


def _observe_live(reader, args: argparse.Namespace) -> list[TraceEvent]:
    """Trace events of ``postcert probe`` against a live log for ``--duration``."""
    from .probe import binary_search_size
    from .trace import EventKind, SthObservation, TraceEvent

    events: list[TraceEvent] = []
    seq = 0
    started = time.monotonic()
    next_size = started + (args.size_interval / 1000.0) / 2 if args.size_interval else None
    last_size = 0  # each size search gallops up from the previous one's result
    while (time.monotonic() - started) * 1000 < args.duration:
        t_request = int(time.time() * 1000)
        sth = reader.get_sth()
        t_response = int(time.time() * 1000)
        obs = SthObservation(t_request, t_response, sth)
        events.append(TraceEvent(t_request, seq, "probe", EventKind.STH, encode_artifact(obs)))
        seq += 1
        if next_size is not None and time.monotonic() >= next_size:
            probe = binary_search_size(reader, int(time.time() * 1000), last_size)
            last_size = probe.size
            events.append(TraceEvent(probe.t, seq, "probe", EventKind.SIZE, encode_artifact(probe)))
            seq += 1
            next_size += args.size_interval / 1000.0
        time.sleep(args.sth_interval / 1000.0)
    return events


def _cmd_probe(args: argparse.Namespace) -> int:
    from .httpapi import HttpLogReader
    from .trace import trace_to_text

    try:
        reader = HttpLogReader(args.target)
        try:
            events = _observe_live(reader, args)
        finally:
            reader.close()
    except (OSError, LogError) as exc:
        raise _Exit(EXIT_IO, f"{args.target}: {exc}") from None
    _write(args.out, trace_to_text(events))
    print(f"recorded {len(events)} observations", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postcert",
        description="Revocation transparency toolkit: simulate, analyze, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_policy_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mrd-mode", choices=["submission", "publication"],
                       default="publication")
        p.add_argument("--mrd", type=_duration, help="revocation deadline, e.g. 8h")
        p.add_argument("--mmd", type=_duration, help="maximum merge delay, e.g. 24h")

    p_sim = sub.add_parser("simulate", help="run a scenario and write its trace")
    p_sim.add_argument("--preset", default="normal", help="preset name (README lists them)")
    p_sim.add_argument("--scenario", help="scenario file (overrides --preset)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="trace output path (default stdout)")
    p_sim.add_argument("--dump-logs", help="directory for per-log snapshots")
    p_sim.add_argument("--emit-proofs", help="directory for proof bundles")
    add_policy_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="compute the metrics report for a trace")
    p_an.add_argument("--trace", required=True)
    p_an.add_argument("--logs", help="directory of log snapshots (collision report)")
    p_an.add_argument("--out", help="report output path (default stdout)")
    p_an.set_defaults(func=_cmd_analyze)

    p_cl = sub.add_parser("classify", help="print per-log update-behavior class")
    p_cl.add_argument("--trace", required=True)
    p_cl.set_defaults(func=_cmd_classify)

    p_vp = sub.add_parser("verify-proof", help="verify a misbehavior proof bundle")
    p_vp.add_argument("--proof", required=True)
    p_vp.add_argument("--logs", help="directory of log snapshots (M3 scans)")
    p_vp.add_argument("--trusted", help="comma-separated trusted log ids")
    add_policy_flags(p_vp)
    p_vp.set_defaults(func=_cmd_verify_proof)

    p_gr = sub.add_parser("project-growth", help="scale a size history by (1+fraction)")
    p_gr.add_argument("--fraction", type=float, required=True)
    p_gr.add_argument("--history", help="file with one size per line")
    p_gr.add_argument("--trace", help="derive the history from a trace")
    p_gr.add_argument("--log", help="log id when deriving from a trace")
    p_gr.set_defaults(func=_cmd_project_growth)

    p_pr = sub.add_parser("probe", help="record observations from a live endpoint")
    p_pr.add_argument("--target", required=True, help="base URL of a log")
    p_pr.add_argument("--out", required=True)
    p_pr.add_argument("--duration", type=_duration, default="10s")
    p_pr.add_argument("--sth-interval", type=_duration, default="1s")
    p_pr.add_argument("--size-interval", type=_duration, default=0,
                      help="time between size searches (default: none)")
    p_pr.set_defaults(func=_cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Exit as exc:
        code, message = exc.args
    except (OSError, DecodeError, ScenarioError, LogError) as exc:
        code, message = EXIT_IO, str(exc)
    except AnalysisError as exc:
        code, message = EXIT_USAGE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
