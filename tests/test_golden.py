"""Golden digests: a fixed campaign and fixed sweep worlds must keep
producing the same bytes, in their traces, reports and log snapshots.

Reruns of one build agreeing with each other is not enough: a change to any
byte of the trace or the report of these runs fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from postcert import cli, trace
from postcert.log import log_snapshot_text
from postcert.presets import honest_random, pathologies, single_fault
from postcert.sim import Simulation

PATHOLOGIES_400_TRACE = "602d12bd56263dc7856e9ea9774da3a14ae890d857cd1af66a7a706672e03524"
PATHOLOGIES_400_REPORT = "00bb0a25f6424a06663848a3ee0855cd4f84f3aa3377f526a2ef651788504767"

# Sweep worlds, keyed by (seed, fault case or None for honest_random). Between
# them they cover a poll discovery on a BUSY log, an out-of-band SCT handoff,
# a revoke-direct request and emitted proof bundles, proven and rejected.
SWEEP_WORLDS = {
    (0, None): ("13dd67170ecf46db3214d6dcfa3ea4ec0ab4f600896a488a4bafeab69f7f0336",
                "e232033d20bc2a52e8f67a9c31d840322bfb0c5850734fca4255f840573080b2"),
    (5, None): ("bd12dbc965d80847d758ebd996ae9844611f68fc881bae62204966eeb701ae96",
                "5a2ded33e3597e76dd55b5ad7edac8a371b23096d8c61ef63e1c730a3e386bc4"),
    (11, None): ("2f429eb0f6da178b170b2af4953503d66beb83e4fa16a348222a53e64902fd63",
                 "e921d279add6acf98b8bcdc64746a0e347b479d9df823a5427f134e596d7567b"),
    (2, "M1"): ("b3b7b628d1e44bed0d73d7cb0ff9d07f96447769efc4716e1257ae4ff8941a11",
                "85bf076301fc4afbbae180aec09d33d505c8810894b9078f78c8d1e839b47405"),
    (3, "M2"): ("801639d1dc18d1a5e995276699259d626e7cbafb0cfff50072e303de8f402b09",
                "13378640c7b9e4f15604ea074eab093aed239cb97bfe15343e17f08c157085b9"),
    (4, "M3"): ("b148e8db603eeee97f2edfa853df9d1e3af7de752cca59e596d4b4d66f522605",
                "90d616176618db91ab0ebbcf65480fb6e5c2aa0ee4581985798c1b63b5f0b25a"),
}

# ``log_snapshot_text`` (the ``simulate --dump-logs`` files) of every log, for
# the campaign above and for sweep world (4, M3). The snapshot lists every
# tree head, so it is the first reader of most of them.
SNAPSHOTS = {
    "pathologies": {
        "honest": "1290f39f7a7d50b5346e578f5eb529bfff5629844ef36d618739ac79a77bd8a0",
        "lagging": "08def71093403f79f93731829f10fa832bd8f958e72b55e6fccd9263f2697fb2",
        "ooo": "f7561beb40c786acdaa5f7ba069d3b6164b199f43018de0c83726cb13fb5a1dc",
    },
    "M3": {
        "log-0": "f4b88e3a71c93eed48232e3cff9381aa1cb33b39aed8880ac440d9121ab73a07",
        "log-1": "427b6b483dbcdcbe9fc970a6370b504474f86acff3b42992fff5b1b712470c8e",
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pathologies_trace_and_report_digests():
    events = Simulation(pathologies(0, probes=400)).run()
    report = cli.render_report(trace.observations_from_events(events), {})
    assert _sha256(trace.trace_to_text(events)) == PATHOLOGIES_400_TRACE
    assert _sha256(report) == PATHOLOGIES_400_REPORT


@pytest.mark.parametrize("seed,case", sorted(SWEEP_WORLDS, key=lambda k: (k[1] or "", k[0])))
def test_sweep_world_trace_and_report_digests(seed, case):
    scenario = honest_random(seed) if case is None else single_fault(seed, case)
    events = Simulation(scenario).run()
    report = cli.render_report(trace.observations_from_events(events), {})
    assert (_sha256(trace.trace_to_text(events)), _sha256(report)) == SWEEP_WORLDS[seed, case]


@pytest.mark.parametrize("world", sorted(SNAPSHOTS))
def test_log_snapshot_digests(world):
    scenario = pathologies(0, probes=400) if world == "pathologies" else single_fault(4, "M3")
    sim = Simulation(scenario)
    sim.run()
    digests = {log_id: _sha256(log_snapshot_text(log)) for log_id, log in sim.logs.items()}
    assert digests == SNAPSHOTS[world]
