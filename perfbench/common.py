"""Shared pieces of the benchmark: the outcome record, statistics and the
set-up timer."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# Seeds of the acceptance tests are 0-999, 10 000-10 999 and 50 000-50 199.
# Workload seeds start above all of them, so a claim can be re-checked on
# worlds no test has seen.
SEED_BASE = 1_000_000


@dataclass
class Outcome:
    """What one workload run did and measured.

    ``metrics`` holds the end-to-end metrics of the JSON result line.
    ``report`` holds the workload's own named metrics as (value, unit,
    sample count); they are printed for people, not parsed.
    """

    attempted: int = 0
    failed: int = 0
    determinism_ok: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.determinism_ok


def median(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def pin_to_one_cpu() -> int:
    """Bind this process, and every process it starts later, to the lowest
    CPU it may run on, and return that CPU.

    The ``http-monitor`` caller and its server hand each request to and fro.
    Across two CPUs of a shared VM each hand-off is a cross-CPU wake-up whose
    cost follows the host's load, and requests per second moved by a factor
    of two between rounds; on one CPU it is a context switch. The batch
    workloads run one process at a time, so one CPU takes nothing from them.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class SetupSampler:
    """Wall time of a fresh interpreter importing the toolkit, which is what
    every command-line run pays before doing work.

    The ``count`` samples are spread over the run's measured work rather than
    taken in one burst, so their median covers the same stretch of host time
    as the work. Call ``between(work_s)`` between operations with the work
    time spent so far; ``spent`` is the time the samples took, for the caller
    to leave out of its work time; ``finish()`` takes any samples not yet due.
    """

    def __init__(self, count: int, seconds: float) -> None:
        self.count = count
        self.seconds = seconds
        self.times: list[float] = []
        self.spent = 0.0

    def between(self, work_s: float) -> None:
        while len(self.times) < self.count and work_s >= len(self.times) * self.seconds / self.count:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self._sample()
        return self.times

    def _sample(self) -> None:
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import postcert.cli, postcert.httpapi"
        started = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms, which
        # would round every time up to that grain.
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        elapsed = time.perf_counter() - started
        self.times.append(elapsed)
        self.spent += elapsed
