"""HTTP endpoint surface: serving a log and reading it back."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postcert import httpapi
from postcert.certs import PostcertScheme, TbsCertificate, make_postcertificate, sign_certificate
from postcert.crypto import SHA256
from postcert.encoding import encode_artifact
from postcert.httpapi import HttpLogReader, serve_log
from postcert.log import (
    CtLog,
    DuplicatePolicy,
    LogConfig,
    LogError,
    LogView,
    log_snapshot_text,
    verify_audit_proof,
    verify_consistency_sths,
    verify_sct,
    verify_sth,
)
from postcert.probe import binary_search_size


@pytest.fixture
def served_log(registry, trust, ca_root):
    clock_value = {"now": 1_000_000}
    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=1)
    server = serve_log(log, clock=lambda: clock_value["now"])
    host, port = server.server_address
    reader = HttpLogReader(f"http://{host}:{port}")
    yield log, reader, clock_value
    reader.close()
    server.shutdown()
    server.server_close()


def _cert(registry, serial):
    tbs = TbsCertificate(
        serial=serial, subject=f"h{serial}.example", issuer="ca1",
        not_before=0, not_after=10**13, public_key_id="leaf-key-1",
    )
    return sign_certificate(registry, "ca1", tbs)


def test_add_chain_and_get_sth(served_log, registry, ca_root, leaf_cert):
    log, reader, clock = served_log
    sct = reader.submit(leaf_cert, [ca_root])
    assert sct.log_id == "log1"
    assert sct.timestamp == 1_000_000
    assert verify_sct(sct, encode_artifact(leaf_cert), registry)
    clock["now"] += 10_000
    sth = reader.get_sth()
    assert sth.treesize == 1
    assert verify_sth(sth, registry)


def test_add_chain_rejects_bad_chain(served_log, leaf_cert):
    log, reader, clock = served_log
    with pytest.raises(LogError) as err:
        reader.submit(leaf_cert, [leaf_cert])
    assert err.value.code == "chain-rejected"


def test_get_entries_and_proofs_over_http(served_log, registry, ca_root):
    log, reader, clock = served_log
    payloads = []
    for serial in range(100, 110):
        cert = _cert(registry, serial)
        payloads.append(encode_artifact(cert))
        reader.submit(cert, [ca_root])
        clock["now"] += 1000
    sth = reader.get_sth()
    assert sth.treesize == 10
    entries = reader.get_entries(0, 4)
    assert [e.number for e in entries] == [0, 1, 2, 3, 4]
    assert entries[0].payload == payloads[0]
    proof = reader.get_proof_by_hash(SHA256.hash_leaf(payloads[3]), sth.treesize)
    assert proof.entry_number == 3
    assert verify_audit_proof(payloads[3], proof, sth)
    # consistency between size 4 and 10 via the wire
    clock["now"] += 1000
    small = log.sth_history[[s.treesize for s in log.sth_history].index(4)]
    path = reader.consistency_proof(4, 10)
    assert verify_consistency_sths(small, sth, path)


def test_postcertificate_submission_over_http(served_log, registry, ca_root, leaf_cert):
    log, reader, clock = served_log
    post = make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)
    sct = reader.submit(post, [ca_root])
    assert verify_sct(sct, encode_artifact(post), registry)
    clock["now"] += 1000
    entry = reader.get_entries(0, 0)[0]
    assert entry.payload == encode_artifact(post)


def test_binary_search_size_over_http(served_log, registry, ca_root):
    log, reader, clock = served_log
    for serial in range(200, 213):
        reader.submit(_cert(registry, serial), [ca_root])
        clock["now"] += 500
    probe = binary_search_size(reader)
    assert probe.size == 13


def _read_everything(reader, sizes: list[int]) -> dict:
    """Every answer the read interface gives about a log whose heads have
    ``sizes``, failures as (error code, detail)."""

    def attempt(call, *args):
        try:
            return call(*args)
        except LogError as exc:
            return exc.code, exc.detail

    size = sizes[-1]
    entries = reader.get_entries(0, size - 1)
    return {
        "latest_sth": reader.latest_sth(),
        "published_size": reader.published_size(),
        "get_entries": [reader.get_entries(a, b) for a, b in
                        [(0, 0), (2, 5), (0, size - 1), (size - 2, size + 5), (size, size + 3)]],
        "audit_proof": [reader.audit_proof(n, t) for t in sizes for n in range(t)],
        "get_proof_by_hash": [reader.get_proof_by_hash(SHA256.hash_leaf(e.payload), size)
                              for e in entries],
        "consistency_proof": [reader.consistency_proof(a, b)
                              for a in sizes for b in sizes if a <= b],
        "errors": [
            attempt(reader.audit_proof, size, size),
            attempt(reader.audit_proof, 0, size + 1),
            attempt(reader.get_proof_by_hash, b"\x00" * 32, size),
            attempt(reader.consistency_proof, 1, size + 1),
        ],
    }


def test_log_snapshot_and_http_readers_answer_alike(registry, trust, ca_root):
    """One log read three ways, in memory, from its snapshot and over HTTP,
    gives equal answers, errors included; a payload logged twice under
    REINSERT proves by hash as its first entry."""
    config = LogConfig(publication_delay="fixed:0", duplicate_policy=DuplicatePolicy.REINSERT)
    log = CtLog("log1", registry, trust, config, seed=3)
    certs = [_cert(registry, serial) for serial in range(500, 507)]
    now = 1_000_000
    for cert in certs + [certs[2]]:
        log.submit(cert, [ca_root], now)
        now += 1000
        log.get_sth(now)  # BUSY: a head per merge
    sizes = sorted({sth.treesize for sth in log.sth_history})
    assert sizes == list(range(9)) and len(log.entries) == 8

    snapshot = LogView.from_text(log_snapshot_text(log))
    server = serve_log(log, clock=lambda: now)
    host, port = server.server_address
    reader = HttpLogReader(f"http://{host}:{port}")
    try:
        answers = [_read_everything(r, sizes) for r in (log, snapshot, reader)]
    finally:
        reader.close()
        server.shutdown()
        server.server_close()
    assert answers[0] == answers[1] == answers[2]
    duplicate = answers[0]["get_proof_by_hash"][7]
    assert duplicate.entry_number == 2 and answers[0]["audit_proof"][-1].entry_number == 7
    assert [code for code, _ in answers[0]["errors"]] == [
        "entry-out-of-range", "entry-out-of-range", "unknown-leaf-hash", "size-out-of-range"]


@pytest.mark.parametrize("duplicates", list(DuplicatePolicy), ids=lambda policy: policy.value)
def test_http_writes_equal_in_process_writes(registry, trust, ca_root, leaf_cert, duplicates):
    """One sequence of fresh certificates and repeats, submitted over HTTP
    to a served log and in process to its twin at the same clock, gives
    equal SCT bytes and then equal snapshots."""
    config = LogConfig(publication_delay="uniform:0:3000", duplicate_policy=duplicates)
    served, twin = (CtLog("log1", registry, trust, config, seed=5) for _ in range(2))
    now = 1_000_000
    server = serve_log(served, clock=lambda: now)
    host, port = server.server_address
    reader = HttpLogReader(f"http://{host}:{port}")
    pace = random.Random(7)
    fresh = [make_postcertificate(leaf_cert, PostcertScheme.CA_ISSUED, registry)]
    fresh += [_cert(registry, serial) for serial in range(600, 630)]
    sequence = fresh + [pace.choice(fresh) for _ in range(15)]
    pace.shuffle(sequence)
    try:
        for payload in sequence:
            over_http = reader.submit(payload, [ca_root])
            assert encode_artifact(over_http) == encode_artifact(twin.submit(payload, [ca_root], now))
            now += pace.choice((0, 500, 2000))
    finally:
        reader.close()
        server.shutdown()
        server.server_close()
    for log in (served, twin):
        log.advance(now + 10_000)
    assert len(served.entries) == len(sequence if duplicates is DuplicatePolicy.REINSERT else fresh)
    assert log_snapshot_text(served) == log_snapshot_text(twin)


def test_probe_command_records_live_trace(served_log, registry, ca_root, tmp_path, capsys):
    """The live collector against an HTTP log feeds the same analysis code."""
    import threading
    import time as time_module

    from postcert.cli import main
    from postcert.trace import observations_from_events, read_trace

    log, reader, clock = served_log
    stop = threading.Event()

    def feed():
        serial = 300
        while not stop.is_set():
            reader.submit(_cert(registry, serial), [ca_root])
            serial += 1
            clock["now"] += 200
            time_module.sleep(0.02)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    out = tmp_path / "live.trace"
    code = main([
        "probe", "--target", reader.base_url, "--out", str(out),
        "--duration", "1s", "--sth-interval", "100ms", "--size-interval", "300ms",
    ])
    stop.set()
    feeder.join(timeout=2)
    assert code == 0
    with open(out) as stream:
        events = read_trace(stream)
    obs = observations_from_events(events)
    assert obs.sths.get("log1")
    sizes = [p.size for p in obs.sizes.get("log1", [])]
    assert sizes == sorted(sizes)
    capsys.readouterr()


def test_concurrent_add_chain_and_get_sth_keep_log_consistent(registry, trust, ca_root):
    """Two submitters and two tree-head readers at once: entry numbers stay
    dense and every pair of observed tree heads is provably consistent."""
    import itertools
    import sys
    import threading

    ticks = itertools.count(1_000_000)
    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=3)
    server = serve_log(log, clock=lambda: next(ticks))
    host, port = server.server_address
    url = f"http://{host}:{port}"
    per_thread = 80
    certs = [[_cert(registry, 1000 + 100 * k + i) for i in range(per_thread)] for k in range(2)]
    scts: list = []
    heads: list[list] = [[], []]
    errors: list[Exception] = []
    start = threading.Barrier(4)

    def submit(batch):
        reader = HttpLogReader(url, log_id="log1")
        start.wait()
        try:
            for cert in batch:
                scts.append((cert, reader.submit(cert, [ca_root])))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
        finally:
            reader.close()

    def watch(seen):
        reader = HttpLogReader(url, log_id="log1")
        start.wait()
        try:
            for _ in range(per_thread):
                seen.append(reader.get_sth())
        except Exception as exc:
            errors.append(exc)
        finally:
            reader.close()

    threads = [threading.Thread(target=submit, args=(batch,)) for batch in certs]
    threads += [threading.Thread(target=watch, args=(seen,)) for seen in heads]
    # Switching threads far more often than the default 5 ms lets requests
    # interleave inside log calls; without the server's lock this run then
    # corrupts the log about every other time.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        reader = HttpLogReader(url, log_id="log1")
        final = reader.get_sth()
        assert final.treesize == 2 * per_thread
        assert [e.number for e in log.entries] == list(range(2 * per_thread))
        payloads = [encode_artifact(cert) for batch in certs for cert in batch]
        assert sorted(e.payload for e in log.entries) == sorted(payloads)
        for cert, sct in scts:
            assert verify_sct(sct, encode_artifact(cert), registry)
        for seen in heads:
            assert [s.treesize for s in seen] == sorted(s.treesize for s in seen)
        observed = sorted({(s.treesize, s.t): s for seen in heads for s in seen}.values(),
                          key=lambda s: (s.treesize, s.t))
        observed.append(final)
        for older, newer in zip(observed, observed[1:]):
            assert verify_sth(newer, registry)
            path = reader.consistency_proof(older.treesize, newer.treesize)
            assert verify_consistency_sths(older, newer, path)
        reader.close()
    finally:
        sys.setswitchinterval(switch_interval)
        server.shutdown()
        server.server_close()


@pytest.fixture
def connects(monkeypatch):
    """Counts the TCP connections every log server accepts from now on."""
    from postcert.httpapi import _LogServer

    accepted = []
    original = _LogServer.process_request

    def process_request(self, request, client_address):
        accepted.append(client_address)
        original(self, request, client_address)

    monkeypatch.setattr(_LogServer, "process_request", process_request)
    return accepted


def test_reader_sends_every_request_over_one_connection(served_log, registry, ca_root, connects):
    log, served, clock = served_log
    reader = HttpLogReader(served.base_url)
    certs = [_cert(registry, 400 + i) for i in range(10)]
    for cert in certs:
        reader.submit(cert, [ca_root])
    clock["now"] += 1000
    requests = 1 + len(certs)
    for cert in certs[:8]:
        sth = reader.get_sth()
        entry = reader.get_entries(sth.treesize - 1, sth.treesize - 1)[0]
        proof = reader.get_proof_by_hash(SHA256.hash_leaf(entry.payload), sth.treesize)
        assert verify_audit_proof(entry.payload, proof, sth)
        reader.consistency_proof(1, sth.treesize)
        assert reader.submit(cert, [ca_root]).log_id == "log1"  # a duplicate
        requests += 5
    reader.close()
    assert requests == 51
    assert len(connects) == 1


def test_reader_reconnects_to_a_restarted_server(registry, trust, ca_root, connects):
    first = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=1)
    server = serve_log(first, clock=lambda: 1_000_000)
    host, port = server.server_address
    reader = HttpLogReader(f"http://{host}:{port}")
    assert reader.get_sth().treesize == 0
    server.shutdown()
    server.server_close()
    second = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=1)
    second.submit(_cert(registry, 500), [ca_root], 1_000_000)
    server = serve_log(second, port=port, clock=lambda: 1_000_000)
    try:
        assert reader.get_sth().treesize == 1
        assert len(connects) == 2
    finally:
        reader.close()
        server.shutdown()
        server.server_close()


def test_unanswered_post_body_does_not_reach_the_next_request(served_log, connects):
    import http.client
    import json

    log, reader, clock = served_log
    host, port = reader.base_url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("POST", "/ct/v1/no-such-endpoint", json.dumps({"chain": ["AA=="]}).encode())
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        conn.request("GET", "/ct/v1/get-sth")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["log_id"] == "log1"
    finally:
        conn.close()
    assert len(connects) == 1


def test_read_error_is_a_log_error(served_log, registry, ca_root, leaf_cert):
    log, reader, clock = served_log
    reader.submit(leaf_cert, [ca_root])
    clock["now"] += 1000
    with pytest.raises(LogError) as err:
        reader.get_proof_by_hash(SHA256.hash_leaf(encode_artifact(leaf_cert)), 5)
    assert err.value.code == "entry-out-of-range"
    assert reader.get_sth().treesize == 1  # the connection still serves


def test_plain_urllib_request_is_answered(served_log):
    import json
    import urllib.request

    log, reader, clock = served_log
    with urllib.request.urlopen(f"{reader.base_url}/ct/v1/get-sth", timeout=10) as response:
        assert json.loads(response.read())["log_id"] == "log1"


@pytest.mark.parametrize("query", [
    "get-entries?start=%D9%A3&end=3",
    "get-entries?start=+0&end=1_0",
    "get-entries?start=00&end=0",
    "get-sth-consistency?first=1&second=01",
    "get-proof-by-hash?hash={leaf}&tree_size=%2B1",
    "get-entry-and-proof?leaf_index=-0&tree_size=1%20",
], ids=["arabic-digit", "sign-and-underscore", "leading-zero", "consistency", "proof-by-hash",
        "entry-and-proof"])
def test_non_canonical_query_integer_is_a_400(served_log, ca_root, leaf_cert, query):
    """Query integers are read as ``str`` writes them, like every file the
    package reads; ``int`` alone would take each of these."""
    import base64
    import json
    import urllib.error
    import urllib.parse
    import urllib.request

    log, reader, clock = served_log
    reader.submit(leaf_cert, [ca_root])
    clock["now"] += 1000
    with urllib.request.urlopen(f"{reader.base_url}/ct/v1/get-entries?start=0&end=0", timeout=10) as response:
        assert len(json.loads(response.read())["entries"]) == 1
    leaf_hash = base64.b64encode(SHA256.hash_leaf(encode_artifact(leaf_cert))).decode("ascii")
    leaf = urllib.parse.quote(leaf_hash, safe="")
    with pytest.raises(urllib.error.HTTPError) as answer:
        urllib.request.urlopen(f"{reader.base_url}/ct/v1/{query.format(leaf=leaf)}", timeout=10)
    assert answer.value.code == 400
    assert json.loads(answer.value.read())["error"]


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_malformed_content_length_is_answered_and_closes(served_log, length):
    import socket

    log, reader, clock = served_log
    host, port = reader.base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(f"POST /ct/v1/add-chain HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: {length}\r\n\r\n{{}}".encode())
        answer = b""
        while chunk := sock.recv(4096):  # the server closes after answering
            answer += chunk
    assert answer.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close\r\n" in answer and b"bad Content-Length" in answer


@settings(max_examples=2_000, deadline=None)
@given(second=st.one_of(st.integers(0, 253_402_300_799), st.sampled_from(
    [0, 59, 86_399, 951_782_400, 2_147_483_647, 4_107_542_400, 253_402_300_799])))
def test_date_header_is_the_imf_fixdate_email_utils_writes(second):
    from email.utils import formatdate

    assert httpapi._http_date(second) == formatdate(second, usegmt=True)


def test_date_header_of_an_answer_is_now(served_log):
    import time
    import urllib.request
    from email.utils import parsedate_to_datetime

    log, reader, clock = served_log
    with urllib.request.urlopen(f"{reader.base_url}/ct/v1/get-sth", timeout=10) as response:
        date = response.headers["Date"]
    assert abs(parsedate_to_datetime(date).timestamp() - time.time()) < 5


def _b64_artifact(obj) -> str:
    import base64

    return base64.b64encode(encode_artifact(obj)).decode("ascii")


@pytest.mark.parametrize("make_body", [
    pytest.param(lambda sth, root: {"chain": []}, id="empty-chain"),
    pytest.param(lambda sth, root: {"chain": [_b64_artifact(sth), _b64_artifact(root)]},
                 id="non-certificate-leaf"),
    pytest.param(lambda sth, root: [_b64_artifact(root)], id="list-body"),
    pytest.param(lambda sth, root: {"chain": 5}, id="chain-not-a-list"),
    pytest.param(lambda sth, root: {"chain": [_b64_artifact(root), 5]}, id="chain-item-not-a-string"),
    pytest.param(lambda sth, root: {"chain": [_b64_artifact(root), _b64_artifact(sth)]},
                 id="non-certificate-issuer"),
])
def test_malformed_add_chain_is_a_400_on_a_usable_connection(
    served_log, ca_root, leaf_cert, connects, make_body
):
    import http.client
    import json

    log, reader, clock = served_log
    host, port = reader.base_url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("POST", "/ct/v1/add-chain", json.dumps(make_body(log.latest_sth(), ca_root)))
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"]
        good = {"chain": [_b64_artifact(leaf_cert), _b64_artifact(ca_root)]}
        conn.request("POST", "/ct/v1/add-chain", json.dumps(good))
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["timestamp"] == clock["now"]
    finally:
        conn.close()
    assert len(connects) == 1


def test_reader_submit_of_a_non_certificate_is_a_log_error(served_log, ca_root, leaf_cert):
    log, reader, clock = served_log
    with pytest.raises(LogError):
        reader.submit(log.latest_sth(), [ca_root])
    assert reader.submit(leaf_cert, [ca_root]).log_id == "log1"


# Wire-level behaviour of the server, checked on raw sockets: status codes and
# whether the connection stays open, not the error bodies.

_GET_STH = b"GET /ct/v1/get-sth HTTP/1.1\r\nHost: x\r\n\r\n"


def _connect(reader):
    import socket

    host, port = reader.base_url.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=10)


def _read_answer(stream) -> tuple[int, bytes]:
    """Status and body of the next answer on ``stream``."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    length = 0
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return int(status_line.split()[1]), stream.read(length)


def _exchange(reader, request: bytes) -> tuple[int, bool]:
    """Status of the answer to ``request``, and whether the connection then
    still answers a get-sth."""
    with _connect(reader) as sock, sock.makefile("rb") as stream:
        sock.sendall(request)
        status, _ = _read_answer(stream)
        try:
            sock.sendall(_GET_STH)
            return status, stream.readline().startswith(b"HTTP/1.1 200 ")
        except (BrokenPipeError, ConnectionResetError):
            return status, False


def _add_chain_body(leaf, root) -> bytes:
    import json

    return json.dumps({"chain": [_b64_artifact(leaf), _b64_artifact(root)]}).encode()


def _get_sth_with(*headers: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    return b"GET /ct/v1/get-sth " + version + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n"


@pytest.mark.parametrize("request_head, answer", [
    pytest.param(b"GET /" + b"a" * 65_536 + b" HTTP/1.1\r\nHost: x\r\n\r\n", (414, False),
                 id="request-line-over-65536-bytes"),
    pytest.param(_get_sth_with(b"X-Long: " + b"a" * 65_536), (431, False), id="header-line-over-65536-bytes"),
    pytest.param(_get_sth_with(*(b"X-Header-%d: v" % i for i in range(99))), (200, True), id="99-headers"),
    pytest.param(_get_sth_with(*(b"X-Header-%d: v" % i for i in range(101))), (431, False), id="101-headers"),
    pytest.param(_get_sth_with(version=b"HTTP/1.0"), (200, False), id="http-1.0"),
    pytest.param(_get_sth_with(b"Connection: close"), (200, False), id="connection-close"),
    pytest.param(b"DELETE /ct/v1/get-sth HTTP/1.1\r\nHost: x\r\n\r\n", (501, False), id="delete"),
    pytest.param(b"POST /ct/v1/add-chain HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", (501, False),
                 id="chunked-body"),
    pytest.param(b"POST /ct/v1/add-chain HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n", (413, False),
                 id="body-over-1-MiB"),
])
def test_request_head_is_answered_then_kept_or_closed(served_log, request_head, answer):
    log, reader, clock = served_log
    assert _exchange(reader, request_head) == answer


def test_expect_100_continue_is_answered_before_the_body(served_log, ca_root, leaf_cert):
    import json

    log, reader, clock = served_log
    body = _add_chain_body(leaf_cert, ca_root)
    with _connect(reader) as sock, sock.makefile("rb") as stream:
        sock.sendall(b"POST /ct/v1/add-chain HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(body))
        assert stream.readline().startswith(b"HTTP/1.1 100 ")
        while stream.readline() != b"\r\n":
            pass
        sock.sendall(body)
        status, body = _read_answer(stream)
    assert status == 200 and json.loads(body)["timestamp"] == clock["now"]


def test_pipelined_requests_are_answered_in_order(served_log):
    import json

    log, reader, clock = served_log
    with _connect(reader) as sock, sock.makefile("rb") as stream:
        sock.sendall(_GET_STH + b"GET /ct/v1/no-such-endpoint HTTP/1.1\r\nHost: x\r\n\r\n" + _GET_STH)
        first, second, third = (_read_answer(stream) for _ in range(3))
    assert [first[0], second[0], third[0]] == [200, 404, 200]
    assert json.loads(first[1])["log_id"] == "log1"


def test_request_sent_one_byte_at_a_time_is_answered(served_log, ca_root, leaf_cert):
    import socket

    log, reader, clock = served_log
    body = _add_chain_body(leaf_cert, ca_root)
    request = b"POST /ct/v1/add-chain HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
    with _connect(reader) as sock, sock.makefile("rb") as stream:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index in range(len(request + body)):
            sock.sendall((request + body)[index:index + 1])
        assert _read_answer(stream)[0] == 200
        sock.sendall(_GET_STH)
        assert _read_answer(stream)[0] == 200
    assert len(log.entries) == 1


def test_absolute_form_target_is_answered(served_log):
    import json

    log, reader, clock = served_log
    with _connect(reader) as sock, sock.makefile("rb") as stream:
        sock.sendall(f"GET {reader.base_url}/ct/v1/get-sth?nocache=1 HTTP/1.1\r\n\r\n".encode())
        status, body = _read_answer(stream)
    assert status == 200 and json.loads(body)["log_id"] == "log1"


_GOOD_STH = {"tree_size": 1, "timestamp": 5, "sha256_root_hash": "A" * 43 + "=",
             "tree_head_signature": "c2ln", "log_id": "log1", "signer_id": "log1"}
_MALFORMED_STH = [
    pytest.param(b"<html>busy</html>", id="not-json"),
    pytest.param({**_GOOD_STH, "sha256_root_hash": "abc"}, id="bad-base64"),
    pytest.param({k: v for k, v in _GOOD_STH.items() if k != "timestamp"}, id="missing-field"),
    pytest.param({**_GOOD_STH, "tree_size": "1"}, id="wrong-type"),
]


@pytest.fixture
def stub_log():
    """A server that answers each path with 200 and the body the test sets."""
    import json
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    answers: dict[str, object] = {"/ct/v1/get-sth": _GOOD_STH}  # bytes as sent, anything else as JSON

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:
            pass

        def do_GET(self) -> None:
            body = answers[self.path.partition("?")[0]]
            if not isinstance(body, bytes):
                body = json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()  # a quick shutdown
    yield f"http://127.0.0.1:{server.server_address[1]}", answers
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("sth", _MALFORMED_STH)
def test_malformed_sth_answer_is_a_log_error(stub_log, sth):
    url, answers = stub_log
    reader = HttpLogReader(url, log_id="log1")
    assert reader.get_sth().treesize == 1
    answers["/ct/v1/get-sth"] = sth
    with pytest.raises(LogError) as err:
        reader.get_sth()
    assert err.value.code == "malformed-response"
    reader.close()


@pytest.mark.parametrize("path, answer, read", [
    pytest.param("/ct/v1/get-entries", {"entries": ["AA=="]},
                 lambda r: r.get_entries(0, 0), id="entry-not-an-object"),
    pytest.param("/ct/v1/get-entries",
                 {"entries": [{"leaf_input": "AA==", "extra_data": {"number": 0, "timestamp": True}}]},
                 lambda r: r.get_entries(0, 0), id="bool-timestamp"),
    pytest.param("/ct/v1/get-sth-consistency", {"consistency": "AA=="},
                 lambda r: r.consistency_proof(1, 2), id="path-not-a-list"),
    pytest.param("/ct/v1/get-proof-by-hash", {"leaf_index": 0, "audit_path": ["A!=="]},
                 lambda r: r.get_proof_by_hash(b"\0" * 32, 2), id="non-base64-node"),
    pytest.param("/ct/v1/get-entries", [], lambda r: r.get_entries(0, 0), id="json-list"),
])
def test_malformed_read_answer_is_a_log_error(stub_log, path, answer, read):
    url, answers = stub_log
    answers[path] = answer
    reader = HttpLogReader(url)
    with pytest.raises(LogError) as err:
        read(reader)
    assert err.value.code == "malformed-response"
    reader.close()


@pytest.mark.parametrize("sth", _MALFORMED_STH)
def test_probe_of_a_malformed_answer_exits_3_with_one_line(stub_log, sth, tmp_path, capsys):
    from postcert.cli import main

    url, answers = stub_log
    answers["/ct/v1/get-sth"] = sth
    code = main(["probe", "--target", url, "--out", str(tmp_path / "live.trace"),
                 "--duration", "1s", "--sth-interval", "100ms"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"error: {url}: malformed-response")


def test_probe_size_search_of_an_unreadable_entry_exits_3_with_one_line(stub_log, tmp_path, capsys):
    """RFC 6962 section 4.6 sends ``extra_data`` as base64, which this reader
    cannot read: the size search fails as the target's read, not as a usage
    error."""
    from postcert.cli import main

    url, answers = stub_log
    answers["/ct/v1/get-entries"] = {"entries": [{"leaf_input": "AA==", "extra_data": "AA=="}]}
    code = main(["probe", "--target", url, "--out", str(tmp_path / "live.trace"),
                 "--duration", "1s", "--sth-interval", "100ms", "--size-interval", "200ms"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"error: {url}: malformed-response: get-entries")
    assert not (tmp_path / "live.trace").exists()


def test_probe_reads_an_rfc_6962_tree_head_that_names_no_log(stub_log, tmp_path, capsys):
    """An RFC 6962 section 4.3 get-sth answer carries no log id; the log is
    then named by the URL's host, port and path."""
    from postcert.cli import main
    from postcert.trace import observations_from_events, read_trace

    url, answers = stub_log
    answers["/ct/ct/v1/get-sth"] = {key: _GOOD_STH[key] for key in
                                    ("tree_size", "timestamp", "sha256_root_hash", "tree_head_signature")}
    out = tmp_path / "live.trace"
    code = main(["probe", "--target", f"{url}/ct/", "--out", str(out),
                 "--duration", "300ms", "--sth-interval", "100ms"])
    assert code == 0
    capsys.readouterr()
    with open(out) as stream:
        sths = observations_from_events(read_trace(stream)).sths
    log_id = url.removeprefix("http://") + "/ct"
    assert list(sths) == [log_id] and sths[log_id]
    assert {o.sth.signature.signer_id for o in sths[log_id]} == {log_id}


def _no_newline(data: bytes) -> bytes:
    return data.replace(b"\r", b"").replace(b"\n", b"")


@st.composite
def _raw_requests(draw, valid_body: bytes) -> bytes:
    """A request line, header lines and a body, each drawn from well-formed,
    malformed and oversize pieces."""
    line = draw(st.one_of(
        st.sampled_from([b"GET /ct/v1/get-sth HTTP/1.1", b"GET /ct/v1/get-entries?start=0&end=2 HTTP/1.0",
                         b"POST /ct/v1/add-chain HTTP/1.1", b"POST /ct/v1/add-chain HTTP/1.0"]),
        st.tuples(
            st.sampled_from([b"GET", b"POST", b"DELETE", b"HEAD", b"get", b""]),
            st.sampled_from([b"/ct/v1/get-sth", b"/ct/v1/add-chain", b"/ct/v1/get-entries?start=x",
                             b"http://h/ct/v1/get-sth", b"//ct/v1/get-sth", b"http://[::1/ct/v1/get-sth",
                             b"*", b"/%zz?%00=\xff", b"/" + b"a" * 70_000]),
            st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1", b"HTTP/1.x",
                             b"HTTP/\xb2.1", b"HTTP/1.1 extra", b"", b"FTP/1.1"]),
        ).map(b" ".join),
        st.binary(max_size=40).map(_no_newline),
    ))
    body = draw(st.one_of(st.just(valid_body), st.binary(max_size=64)))
    length = st.integers(0, 10**30).map(lambda n: str(n).encode()) | st.sampled_from(
        [b"", b"-1", b"abc", b" 5 ", b"1e3", b"0x10", b"\xd9\xa3", b"5, 5"])
    value = st.sampled_from([b"close", b"keep-alive", b"Keep-Alive, close", b"100-continue", b"chunked", b""])
    header = st.one_of(
        st.tuples(st.sampled_from([b"Content-Length", b"content-length"]), length),
        st.tuples(st.sampled_from([b"Connection", b"Expect", b"Transfer-Encoding", b"Host"]),
                  value | st.binary(max_size=20).map(_no_newline)),
    ).map(b": ".join)
    headers = draw(st.lists(header | st.binary(max_size=30).map(_no_newline), max_size=4))
    if draw(st.booleans()):
        headers.insert(0, b"Content-Length: %d" % len(body))
    headers += [b"X-Filler-%d: v" % i for i in range(draw(st.sampled_from([0, 0, 0, 99, 100, 101])))]
    headers += draw(st.sampled_from([[], [], [], [b"X-Long: " + b"b" * 70_000]]))
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    return eol.join([line, *headers, b"", body])


def test_fuzzed_requests_get_an_answer_or_a_close(registry, trust, ca_root, leaf_cert, capsys):
    """Every raw request gets an ``HTTP/1.1 <code>`` answer or a close within
    the reader timeout; afterwards the server still answers, and the log grew
    only if an add-chain was answered with an SCT."""
    import contextlib
    import re
    import socket

    from hypothesis import HealthCheck, given, settings

    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=1)
    server = serve_log(log, clock=lambda: 1_000_000)
    address = server.server_address
    logged = []

    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(request=_raw_requests(_add_chain_body(leaf_cert, ca_root)))
    def attempt(request: bytes) -> None:
        with socket.create_connection(address, timeout=5) as sock:
            try:
                sock.sendall(request)
                sock.shutdown(socket.SHUT_WR)  # a server waiting for more sees the end
            except TimeoutError:
                raise
            except OSError:
                pass  # the server closed before the whole request was sent
            answer = b""
            with contextlib.suppress(ConnectionResetError):  # a close too
                while chunk := sock.recv(65_536):  # TimeoutError fails the example
                    answer += chunk
        assert answer == b"" or re.match(rb"HTTP/1\.1 \d{3} ", answer), answer[:80]
        if b'"sct_version"' in answer:
            logged.append(request)

    try:
        attempt()
        reader = HttpLogReader(f"http://{address[0]}:{address[1]}")
        assert reader.get_sth().treesize == (1 if logged else 0)
        reader.close()
    finally:
        server.shutdown()
        server.server_close()
    assert "Traceback" not in capsys.readouterr().err


# Wire-level behaviour of the reader, against stub servers on raw sockets.

def _answer_bytes(body: dict, *headers: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    """A 200 answer with ``body`` as JSON, after ``headers`` and a Content-Length."""
    import json

    data = json.dumps(body).encode()
    head = [version + b" 200 OK", *headers, b"Content-Length: %d" % len(data)]
    return b"\r\n".join(head) + b"\r\n\r\n" + data


def _chunked_bytes(body: dict) -> bytes:
    """A 200 answer with ``body`` as JSON in two chunks, a chunk extension and a trailer."""
    import json

    data = json.dumps(body).encode()
    first, second = data[:10], data[10:]
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x;name=value\r\n%s\r\n" % (len(first), first)
            + b"%X\r\n%s\r\n" % (len(second), second)
            + b"0\r\nX-Trailer: t\r\n\r\n")


class _RawStub:
    """An HTTP stub on a raw socket, one connection at a time.

    It answers the n-th request of the run with ``answers[n]``, and the last
    answer repeats. An answer ``(data, close)`` sends ``data`` as it is and
    then closes the connection if ``close`` is set; ``(b"", True)`` closes
    without answering.
    """

    def __init__(self, answers: list[tuple[bytes, bool]]) -> None:
        import socket
        import threading

        self.answers = answers
        self.requests: list[tuple[int, bytes]] = []  # (connection number, method)
        self.connections = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        import contextlib

        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # closed
            self.connections += 1
            with contextlib.suppress(OSError), conn, conn.makefile("rb") as rfile:
                conn.settimeout(10)
                while self._answer_one(conn, rfile):
                    pass

    def _answer_one(self, conn, rfile) -> bool:
        line = rfile.readline()
        if not line:
            return False
        length = 0
        while (header := rfile.readline()) not in (b"\r\n", b""):
            name, _, value = header.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        rfile.read(length)
        self.requests.append((self.connections, line.split(b" ")[0]))
        data, close = self.answers[min(len(self.requests), len(self.answers)) - 1]
        conn.sendall(data)
        return not close

    def close(self) -> None:
        import contextlib
        import socket

        with contextlib.suppress(OSError):
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self.listener.close()


@pytest.fixture
def raw_stub():
    """Starts ``_RawStub`` servers and closes them after the test."""
    stubs = []

    def start(answers: list[tuple[bytes, bool]]) -> _RawStub:
        stubs.append(_RawStub(answers))
        return stubs[-1]

    yield start
    for stub in stubs:
        stub.close()


@pytest.mark.parametrize("answer, connections", [
    pytest.param((_chunked_bytes(_GOOD_STH), False), 1, id="chunked"),
    pytest.param((b"HTTP/1.1 100 Continue\r\n\r\n" + _answer_bytes(_GOOD_STH), False), 1, id="100-continue"),
    pytest.param((_answer_bytes(_GOOD_STH, *[b"X-Filler: v"] * 99), False), 1, id="100-headers"),
    pytest.param((_answer_bytes(_GOOD_STH, b"Connection: close"), False), 2, id="connection-close"),
    pytest.param((_answer_bytes(_GOOD_STH, version=b"HTTP/1.0"), False), 2, id="http-1.0"),
    pytest.param((_answer_bytes(_GOOD_STH).replace(b"Content-Length", b"X-Length"), True), 2,
                 id="no-length-until-eof"),
])
def test_reader_reads_answer_and_keeps_or_reconnects(raw_stub, answer, connections):
    """The log-id lookup and a get-sth: over one connection, or over two when
    the first answer ends its connection."""
    stub = raw_stub([answer])
    reader = HttpLogReader(stub.url)
    assert reader.log_id == "log1"
    assert reader.get_sth().treesize == 1
    assert stub.connections == connections
    assert [number for number, _ in stub.requests] == [1, connections]
    reader.close()


def test_get_after_an_idle_close_is_retried_once(raw_stub):
    stub = raw_stub([(_answer_bytes(_GOOD_STH), True), (_answer_bytes(_GOOD_STH), False)])
    reader = HttpLogReader(stub.url)
    assert reader.get_sth().treesize == 1
    assert stub.requests == [(1, b"GET"), (2, b"GET")]
    reader.close()

    stub = raw_stub([(_answer_bytes(_GOOD_STH), True), (b"", True)])
    reader = HttpLogReader(stub.url)
    with pytest.raises(ConnectionResetError):
        reader.get_sth()  # the fresh connection closes too: no second retry
    assert stub.connections == 2
    reader.close()


def test_post_after_an_idle_close_is_not_retried(raw_stub, ca_root, leaf_cert):
    stub = raw_stub([(_answer_bytes(_GOOD_STH), True)])
    reader = HttpLogReader(stub.url)
    with pytest.raises(OSError):
        reader.submit(leaf_cert, [ca_root])
    assert stub.connections == 1 and stub.requests == [(1, b"GET")]
    reader.close()


_GARBLED_ANSWERS = [
    pytest.param(b"HTPT/1.1 200 OK\r\n\r\n", id="garbage-status-line"),
    pytest.param(b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65_536 + b"\r\n\r\n", id="header-line-too-long"),
    pytest.param(_answer_bytes(_GOOD_STH, *[b"X-Filler: v"] * 100), id="101-headers"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n" + _answer_bytes(_GOOD_STH)[-40:],
                 id="body-cut-short"),
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", id="bad-chunk-size"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", id="huge-length"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}" % 10**17, id="lying-length"),
]


@pytest.mark.parametrize("garbled", _GARBLED_ANSWERS)
def test_garbled_answer_is_a_log_error_and_probe_exits_3(raw_stub, garbled, tmp_path, capsys):
    from postcert.cli import main

    stub = raw_stub([(garbled, True)])
    with pytest.raises(LogError) as err:
        HttpLogReader(stub.url, timeout=5)
    assert err.value.code == "malformed-response"
    code = main(["probe", "--target", stub.url, "--out", str(tmp_path / "live.trace"),
                 "--duration", "1s", "--sth-interval", "100ms"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith(f"error: {stub.url}: malformed-response")


@pytest.mark.parametrize("url", ["http://127.0.0.1:99999", "ftp://127.0.0.1:80", "http://[::1", "http://a..b:80"])
def test_unusable_url_is_a_log_error(url):
    with pytest.raises(LogError) as err:
        HttpLogReader(url)
    assert err.value.code == "invalid-url"


def _self_signed(tmp_path):
    """A certificate for 127.0.0.1 signed by its own key: (certificate file, key file)."""
    import datetime
    import ipaddress

    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "postcert test log")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name).issuer_name(name).public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1)).not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
                       critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), critical=False)
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(key.public_key()), critical=False)
        .sign(key, hashes.SHA256())
    )
    cert_file, key_file = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_file.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_file.write_bytes(key.private_bytes(serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return cert_file, key_file


def test_get_sth_over_https(registry, trust, ca_root, leaf_cert, tmp_path, monkeypatch):
    """The log server behind TLS with a self-signed certificate: trusted
    through SSL_CERT_FILE the reader reads and writes; untrusted it fails
    with an OSError."""
    import ssl
    import threading

    from postcert.httpapi import _LogServer, make_handler

    cert_file, key_file = _self_signed(tmp_path)
    log = CtLog("log1", registry, trust, LogConfig(publication_delay="fixed:0"), seed=1)
    server = _LogServer(("127.0.0.1", 0), make_handler(log, lambda: 1_000_000))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file, key_file)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    url = f"https://127.0.0.1:{server.server_address[1]}"
    try:
        with pytest.raises(OSError):
            HttpLogReader(url)  # the system's trust store does not hold the certificate
        monkeypatch.setenv("SSL_CERT_FILE", str(cert_file))
        reader = HttpLogReader(url)
        assert reader.log_id == "log1"
        sct = reader.submit(leaf_cert, [ca_root])
        sth = reader.get_sth()
        assert sth.treesize == 1 and verify_sth(sth, registry)
        assert verify_sct(sct, encode_artifact(leaf_cert), registry)
        reader.close()
    finally:
        server.shutdown()
        server.server_close()
