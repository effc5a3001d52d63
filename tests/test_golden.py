"""Golden digests: a fixed campaign and fixed sweep worlds must keep
producing the same bytes, in their traces, reports and log snapshots.

Reruns of one build agreeing with each other is not enough: a change to any
byte of the trace or the report of these runs fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io

import pytest

from postcert import cli, trace
from postcert.certs import (
    CertRef,
    Certificate,
    Extension,
    Postcertificate,
    PostcertScheme,
    RevocationExtension,
    TbsCertificate,
    postcert_signing_payload,
)
from postcert.crypto import Signature
from postcert.encoding import decode_artifact, encode_artifact
from postcert.log import (
    SCT,
    STH,
    LogView,
    MerkleAuditProof,
    log_snapshot_text,
    sct_signing_payload,
    sth_signing_payload,
)
from postcert.misbehavior import Case, InsufficientEvidenceError, MisbehaviorProofM3, build_proof
from postcert.presets import PRESETS, build_preset, honest_random, normal_revocation, pathologies, single_fault
from postcert.sim import ScheduledEvent, Simulation
from postcert.status import RevocationStatus, StatusValue, status_signing_payload
from postcert.timeutil import MINUTE_MS

from oracles import artifact_samples

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

# Every preset but ``pathologies`` at seed 3, plus the world of
# ``test_frozen_log_event_and_fallback`` (``normal`` at seed 12 with log-a
# frozen after 30 minutes), the only one here whose run has a log reject a
# submission. Values are the digests of the trace, of the report and of the
# concatenated snapshots of every log in log-id order. The ``collisions``
# report is rendered over the snapshots read back, as ``analyze --logs`` does.
PRESET_WORLDS = {
    "classes": ("75587eb70e96e596bc43f71010ea4e5559a05142a569a4653c14a145e46d674d",
                "70123937f4112677bbe7abdc25c9b9125c56cda6e28781e75f3fd948c52528bc",
                "a5ec282133661d4710ec45e7435372239ff4d4471085795b75fb0d6c52f54f0d"),
    "clock-skew": ("7e1e7f1528b5331032712e2b1bc02c252cc1902d3746adcdff540eeecd07df75",
                   "d7c5cfca30e3982d87a6f8401335217708d06c5b71f3d231330b907c9cd3b41b",
                   "f9e01e72667a99aa407a458066cfd4165a18b52fe0619356668936973b740d63"),
    "collisions": ("1f33bde7eedf6cd0ea69ae5d5a33e270f17d2f7a647b532b290ffecf32524092",
                   "0a29b760076cccddf1ff4b4974402b4dd2a0bdba8e0b656958eea1c2498a6a49",
                   "a7e23aae4f15aa4a7c6731b82e07fe9064053758e007cfa2bb3f400b1006a965"),
    "delay-percentiles": ("b572e72ee63e846abf8d7d9290660185eb3801f5fa0ae9da9d2f9e57b4108e3b",
                          "59cb9390a3b5c9cab1505dff8781e4bb86d753bd1170c9e0cf8328dceda07f6c",
                          "42b67a213f796cb9384d87f9aa75ae32e8e1d4001f114253beb1cd25ad6d0e86"),
    "honest-random": ("99ccf7aa923b8d10c757651a425a07ae5d2c6b19d7165bcdd4f6de4e644717ad",
                      "a3375100ebf9baca2b3088768314adbf922d6701063cd3f5d9e3970e21175f5f",
                      "fdc21c30b0324c3d4fb9aca725dead7c144f2d4be1987ba5ae54494a08b2c6dc"),
    "log-forget": ("3f39533c38d3aa8dc300aeb922c9d1d38b3602ee147e3862a918b1d6c51a064f",
                   "a21b297392d97cac3fe2a74743c755a9db6b2a60e5e191b23f78e44d49af33d5",
                   "37eae757116c0eb9e3bb0a7b806a8eb06654a207e27d19e6b19728cb15aaa192"),
    "m1": ("9a77f357e9fd50f2f21013fc686fa15e98fce471a8ea637027b5dac96c2bc017",
           "ea0aba767e8c75c51f858c961d7d9d7ef52fedf5433808150ba1494de74f43f8",
           "ee1aaa9da3a8ca88d0dce6266802a3c5c61cf13542515828beec3898e54f6129"),
    "m2": ("3a0c438fec9de46d8aabc0e4694dcef6d319b707e80a1dbab480e9f36472edf6",
           "387484eba4dade6053ff3475ef58b8f94205e6348a23d076421f428cd20689db",
           "ee1aaa9da3a8ca88d0dce6266802a3c5c61cf13542515828beec3898e54f6129"),
    "m3": ("300b265811f67a8e2dd3e11c1ac5dcd3ec345ceb72742a755e8c29b4df1af35e",
           "03529ee44295f0d04eb00c9e81d8a76b9597470eebb6a04fa8d885ecd5b644bc",
           "322ca3d8f358cc85190fe5ffa013db08d5df114b43166687cb90e78022a5d327"),
    "normal": ("d210576b63d4eda54c4422a07d3285cb5be96de5c5ef0fdbff49bec386abef62",
               "69e0f7914bff7b6e7e679d61bca98e159b030649dd5228607fc68322063f3c1d",
               "21baafa983f332cc3f549813524d96c08a633584bed4991f028c4546515cba6e"),
    "frozen-log": ("2170ee61fb6e6260907a22e5be95174d4232ce15b7b470ba535b91ddb56493dc",
                   "9557b739499152554ac4217196457b7de593f50b03a7e6810499723f273bea56",
                   "2d7d956eb30f2b91ec3b49060f3958822ffee553202bd31ee23f6901eaac99e5"),
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


def _preset_world(name: str):
    if name != "frozen-log":
        return build_preset(name, 3)
    base = normal_revocation(seed=12)
    freeze = ScheduledEvent(30 * MINUTE_MS, "freeze-log", {"log": "log-a"})
    return dataclasses.replace(base, schedule=(freeze,) + base.schedule)


def test_preset_worlds_cover_every_preset_but_pathologies():
    assert set(PRESET_WORLDS) == set(PRESETS) - {"pathologies"} | {"frozen-log"}


@pytest.mark.parametrize("name", sorted(PRESET_WORLDS))
def test_preset_trace_report_and_snapshot_digests(name):
    sim = Simulation(_preset_world(name))
    events = sim.run()
    snapshots = [log_snapshot_text(sim.logs[log_id]) for log_id in sorted(sim.logs)]
    readers = {}
    if name == "collisions":
        readers = {r.log_id: r for r in map(LogView.from_text, snapshots)}
    report = cli.render_report(trace.observations_from_events(events), readers)
    digests = (_sha256(trace.trace_to_text(events)), _sha256(report), _sha256("".join(snapshots)))
    assert digests == PRESET_WORLDS[name]


# Proofs from a run's files alone: a third party holding only the trace text
# and each log's snapshot builds, for every case, the bundle the simulator's
# auditor recorded, byte for byte, and no bundle for a case it did not record.
FILE_PROOF_WORLDS = [("preset", name, 3) for name in ("log-forget", "m1", "m2", "m3", "normal")] + [
    ("sweep", case, seed) for seed, case in sorted(SWEEP_WORLDS, key=lambda k: (k[1] or "", k[0]))
]


@pytest.mark.parametrize("kind,name,seed", FILE_PROOF_WORLDS)
def test_proofs_from_trace_and_snapshot_files_alone(kind, name, seed):
    if kind == "preset":
        scenario = build_preset(name, seed)
    else:
        scenario = honest_random(seed) if name is None else single_fault(seed, name)
    sim = Simulation(scenario)
    events = sim.run()
    obs = trace.observations_from_events(trace.read_trace(io.StringIO(trace.trace_to_text(events))))
    readers = {log_id: LogView.from_text(log_snapshot_text(log)) for log_id, log in sim.logs.items()}
    recorded = {record.case: record.bundle for record in obs.proofs}
    built = {}
    for case in Case:
        try:
            proof = build_proof(case, obs, scenario.policy, sim.trusted, readers)
        except InsufficientEvidenceError:
            continue
        built[case.value] = encode_artifact(proof)
    assert built == recorded


# Canonical bytes. ``ARTIFACT_SAMPLES`` is the digest of the concatenated
# ``oracles.artifact_samples()``; ``CODEC_LAYOUTS`` pins hand-built artifacts
# that reach layouts the presets may not (an optional unset and set, empty and
# longer sequences), and ``SIGNING_PAYLOADS`` the bytes each signature covers.
ARTIFACT_SAMPLES = "730e9fd920a1ae2ff817b84dfc38417ec3b8d6cbf16f16c7996c1f93750f35c9"

_SIG = Signature("ca", b"\x5a" * 4)
_TBS_BARE = TbsCertificate(7, "leaf.example", "ca", 10, 20, "key-leaf")
_TBS_TWO_EXTENSIONS = TbsCertificate(
    8, "é", "ca", -5, 5, "k", (Extension("1.2.3", True, b""), Extension("4.5", False, b"\x01\x02"))
)
_EXT_DATED = RevocationExtension("keyCompromise", 15)
_SCT = SCT("log-a", 1000, b"\x11" * 4, Signature("log-a", b"\x22" * 4))


def _status(value: StatusValue) -> RevocationStatus:
    return RevocationStatus(CertRef("ca", 7), value, 50, 8 * 3600_000, _SIG)


def _sth(i: int) -> STH:
    return STH(f"log-{i}", 100 + i, i, bytes([i]) * 4, Signature(f"log-{i}", b"\x33"))


CODEC_LAYOUTS = {
    "certificate-no-extensions": (
        Certificate(_TBS_BARE, _SIG),
        "010000003e00000000000000070000000c6c6561662e6578616d706c65000000026361000000000000000a"
        "0000000000000014000000086b65792d6c65616600000000000000026361000000045a5a5a5a",
    ),
    "certificate-two-extensions": (
        Certificate(_TBS_TWO_EXTENSIONS, _SIG),
        "0100000049000000000000000800000002c3a9000000026361fffffffffffffffb00000000000000050000"
        "00016b0000000200000005312e322e33010000000000000003342e3500000000020102000000026361000000"
        "045a5a5a5a",
    ),
    "postcert-invalidation-set": (
        Postcertificate(_TBS_BARE, _EXT_DATED, PostcertScheme.SELF_SIGNED, _SIG),
        "020000003e00000000000000070000000c6c6561662e6578616d706c65000000026361000000000000000a"
        "0000000000000014000000086b65792d6c656166000000000000000d6b6579436f6d70726f6d6973650100"
        "0000000000000f0000000b53454c465f5349474e4544000000075245564f4b4544000000026361000000045a"
        "5a5a5a",
    ),
    "postcert-invalidation-unset": (
        Postcertificate(_TBS_BARE, RevocationExtension(), PostcertScheme.CA_ISSUED, _SIG),
        "020000003e00000000000000070000000c6c6561662e6578616d706c65000000026361000000000000000a"
        "0000000000000014000000086b65792d6c656166000000000000000b756e73706563696669656400000000"
        "0943415f495353554544000000075245564f4b4544000000026361000000045a5a5a5a",
    ),
    "status-reason-none": (
        _status(StatusValue.good()),
        "07000000026361000000000000000700000004474f4f44000000000000000000320000000001b774000000"
        "00026361000000045a5a5a5a",
    ),
    "status-reason-set": (
        _status(StatusValue.revoked("superseded", 12)),
        "070000000263610000000000000007000000075245564f4b4544010000000a737570657273656465640100"
        "0000000000000c00000000000000320000000001b77400000000026361000000045a5a5a5a",
    ),
    "submission-with-sct": (
        trace.SubmissionRecord("log-a", 1, 2, b"\x44" * 4, _SCT, 9),
        "0c000000056c6f672d61000000000000000100000000000000020000000444444444010000002b03000000"
        "056c6f672d6100000000000003e80000000411111111000000056c6f672d610000000422222222010000"
        "00000000000900000000",
    ),
    "submission-without-sct": (
        trace.SubmissionRecord("log-b", 1, 3, b"\x44" * 4, error="log-frozen"),
        "0c000000056c6f672d6200000000000000010000000000000003000000044444444400000000000a6c6f67"
        "2d66726f7a656e",
    ),
    "audit-empty-path": (
        MerkleAuditProof(0, 1, ()),
        "060000000000000000000000000000000100000000",
    ),
    "m3-no-heads": (
        MisbehaviorProofM3(_status(StatusValue.unknown()), ()),
        "090000003a07000000026361000000000000000700000007554e4b4e4f574e00000000000000000032000000"
        "0001b77400000000026361000000045a5a5a5a00000000",
    ),
    "m3-three-heads": (
        MisbehaviorProofM3(_status(StatusValue.unknown()), (_sth(0), _sth(1), _sth(2))),
        "090000003a07000000026361000000000000000700000007554e4b4e4f574e00000000000000000032000000"
        "0001b77400000000026361000000045a5a5a5a000000030000003004000000056c6f672d3000000000000000"
        "6400000000000000000000000400000000000000056c6f672d3000000001330000003004000000056c6f672d"
        "31000000000000006500000000000000010000000401010101000000056c6f672d310000000133000000300400"
        "0000056c6f672d32000000000000006600000000000000020000000402020202000000056c6f672d32000000"
        "0133",
    ),
}

SIGNING_PAYLOADS = {
    "sct": (
        lambda: sct_signing_payload("log-a", 1000, b"\x11" * 4),
        "000000056c6f672d6100000000000003e80000000411111111",
    ),
    "sth": (
        lambda: sth_signing_payload("log-a", -3, 2**64 - 1, b"\x55" * 4),
        "000000056c6f672d61fffffffffffffffdffffffffffffffff0000000455555555",
    ),
    "status": (
        lambda: status_signing_payload(
            CertRef("ca", 7), StatusValue.revoked("superseded", 12), 50, 8 * 3600_000
        ),
        "0000000263610000000000000007000000075245564f4b4544010000000a7375706572736564656401000000"
        "000000000c00000000000000320000000001b77400",
    ),
    "postcert": (
        lambda: postcert_signing_payload(
            _TBS_TWO_EXTENSIONS, _EXT_DATED, PostcertScheme.SELF_SIGNED, "REVOKED"
        ),
        "00000049000000000000000800000002c3a9000000026361fffffffffffffffb000000000000000500000001"
        "6b0000000200000005312e322e33010000000000000003342e35000000000201020000000d6b6579436f6d70"
        "726f6d69736501000000000000000f0000000b53454c465f5349474e4544000000075245564f4b4544",
    ),
}


def test_artifact_samples_digest():
    assert hashlib.sha256(b"".join(artifact_samples())).hexdigest() == ARTIFACT_SAMPLES


@pytest.mark.parametrize("name", sorted(CODEC_LAYOUTS))
def test_codec_layouts(name):
    artifact, layout = CODEC_LAYOUTS[name]
    assert encode_artifact(artifact).hex() == layout
    assert decode_artifact(bytes.fromhex(layout)) == artifact


@pytest.mark.parametrize("name", sorted(SIGNING_PAYLOADS))
def test_signing_payloads(name):
    payload, layout = SIGNING_PAYLOADS[name]
    assert payload().hex() == layout
