"""postcert benchmark: one command for every workload.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Workloads: ``sweep``, ``pathologies`` and ``http-monitor`` (see README.md).
With ``--trace 0`` the run measures end to end with no tracing; with
``--trace 1`` it runs one untraced round, then traced rounds, and reports the
per-layer metrics and the tracing overhead. Every run checks the program's
outputs. People read the lines before the last; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, with seeds and digests, go to
``perfbench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="postcert benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "pathologies", "http-monitor"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test; results are not comparable")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "postcert" / "__init__.py").is_file():
        print(f"error: postcert sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.batch import run_pathologies, run_sweep
    from perfbench.common import RESULTS, pin_to_one_cpu
    from perfbench.http_monitor import run_http_monitor

    runner = {"sweep": run_sweep, "pathologies": run_pathologies, "http-monitor": run_http_monitor}
    traced = args.trace == 1
    cpu = pin_to_one_cpu()
    outcome = runner[args.workload](args.seed, args.seconds, traced, args.tiny)

    tracer = outcome.details.pop("tracer", None)
    metrics = outcome.details.pop("layers") if traced else outcome.metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        spans_path = RESULTS / f"spans-{args.workload}{'-tiny' if args.tiny else ''}.npz"
        tracer.write_spans(spans_path)
        outcome.details["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {**_machine(), "pinned_cpu": cpu},
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in outcome.report.items()},
        "details": outcome.details,
    }
    (RESULTS / f"{name}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed}")
    for key, (value, unit, samples) in outcome.report.items():
        print(f"{args.workload:<14}{key:<16}{value:>14.6g} {unit:<6} n={samples}")
    for key, value in outcome.details.items():
        if key in ("seed_range", "trace_sha256", "report_sha256") or (key == "errors" and value):
            print(f"{args.workload:<14}{key:<16}{value}")
    if traced:
        for key, (value, unit) in metrics.items():
            print(f"{args.workload:<14}{key:<48}{value:>14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
