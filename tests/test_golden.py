"""Golden digests: a fixed campaign must keep producing the same bytes.

Reruns of one build agreeing with each other is not enough: a change to any
byte of the trace or the report of this campaign fails here.
"""

from __future__ import annotations

import hashlib

from postcert import cli, trace
from postcert.presets import pathologies
from postcert.sim import Simulation

PATHOLOGIES_400_TRACE = "602d12bd56263dc7856e9ea9774da3a14ae890d857cd1af66a7a706672e03524"
PATHOLOGIES_400_REPORT = "00bb0a25f6424a06663848a3ee0855cd4f84f3aa3377f526a2ef651788504767"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pathologies_trace_and_report_digests():
    events = Simulation(pathologies(0, probes=400)).run()
    report = cli.render_report(trace.observations_from_events(events), {})
    assert _sha256(trace.trace_to_text(events)) == PATHOLOGIES_400_TRACE
    assert _sha256(report) == PATHOLOGIES_400_REPORT
