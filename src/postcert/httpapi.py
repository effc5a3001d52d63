"""HTTP endpoint surface for logs, with the conventional field names.

The server exposes an in-process log at the usual paths (add-chain, get-sth,
get-sth-consistency, get-proof-by-hash, get-entries) with the conventional
JSON field names, so recordings of real logs can be replayed through the same
analysis code. The client side wraps such an endpoint in the same reader
interface the in-process log implements, and busts caches by appending a
unique throwaway query parameter to state requests.
"""

from __future__ import annotations

import base64
import itertools
import json
import threading
import time
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .certs import Certificate, Postcertificate, decode_payload
from .crypto import Signature
from .encoding import decode_artifact, encode_artifact
from .log import CtLog, LogEntry, LogError, MerkleAuditProof, SCT, STH


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(data: str) -> bytes:
    return base64.b64decode(data)


def default_clock() -> int:
    return int(time.time() * 1000)


def _read_endpoint(log: CtLog, path: str, query: dict, now: int) -> dict | None:
    """JSON body of one read endpoint at time ``now``; None for an unknown path."""
    if path == "/ct/v1/get-sth":
        sth = log.get_sth(now)
        return {
            "tree_size": sth.treesize,
            "timestamp": sth.t,
            "sha256_root_hash": _b64(sth.root_hash),
            "tree_head_signature": _b64(sth.signature.value),
            "log_id": sth.log_id,
            "signer_id": sth.signature.signer_id,
        }
    if path == "/ct/v1/get-entries":
        start = int(query["start"][0])
        end = int(query["end"][0])
        entries = log.get_entries(start, end, now)
        return {
            "entries": [
                {
                    "leaf_input": _b64(e.payload),
                    "extra_data": {"number": e.number, "timestamp": e.t_submission},
                }
                for e in entries
            ]
        }
    if path == "/ct/v1/get-sth-consistency":
        first = int(query["first"][0])
        second = int(query["second"][0])
        log.advance(now)
        return {"consistency": [_b64(node) for node in log.consistency_proof(first, second)]}
    if path == "/ct/v1/get-proof-by-hash":
        leaf_hash = _unb64(query["hash"][0])
        tree_size = int(query["tree_size"][0])
        log.advance(now)
        proof = log.get_proof_by_hash(leaf_hash, tree_size)
        return {
            "leaf_index": proof.entry_number,
            "audit_path": [_b64(node) for node in proof.path],
        }
    return None


def make_handler(log: CtLog, clock: Callable[[], int]):
    # ThreadingHTTPServer answers each request in its own thread, and CtLog is
    # not thread-safe: every log call, and the clock reading it uses, happens
    # under this lock, so requests reach the log one at a time and in clock
    # order.
    lock = threading.Lock()

    class LogRequestHandler(BaseHTTPRequestHandler):
        def log_message(self, *args) -> None:  # silence request logging
            pass

        def _send(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            parsed = urllib.parse.urlparse(self.path)
            query = urllib.parse.parse_qs(parsed.query)
            try:
                with lock:
                    payload = _read_endpoint(log, parsed.path, query, clock())
            except (LogError, ValueError, KeyError) as exc:
                self._send(400, {"error": str(exc)})
                return
            if payload is None:
                self._send(404, {"error": "unknown endpoint"})
            else:
                self._send(200, payload)

        def do_POST(self) -> None:
            parsed = urllib.parse.urlparse(self.path)
            if parsed.path not in ("/ct/v1/add-chain", "/ct/v1/add-pre-chain"):
                self._send(404, {"error": "unknown endpoint"})
                return
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length))
                chain_b64 = body["chain"]
                leaf = decode_payload(_unb64(chain_b64[0]))
                chain = [decode_artifact(_unb64(item)) for item in chain_b64[1:]]
                with lock:
                    sct = log.submit(leaf, chain, clock())
                self._send(200, {
                    "sct_version": 0,
                    "id": _b64(sct.log_id.encode("utf-8")),
                    "timestamp": sct.timestamp,
                    "extensions": "",
                    "signature": _b64(sct.signature.value),
                    "signer_id": sct.signature.signer_id,
                    "entry_hash": _b64(sct.entry_hash),
                })
            except LogError as exc:
                self._send(400, {"error": exc.code, "detail": exc.detail})
            except (ValueError, KeyError) as exc:
                self._send(400, {"error": str(exc)})

    return LogRequestHandler


def serve_log(log: CtLog, host: str = "127.0.0.1", port: int = 0,
              clock: Callable[[], int] = default_clock) -> ThreadingHTTPServer:
    """Start a background HTTP server for one log; caller shuts it down."""
    server = ThreadingHTTPServer((host, port), make_handler(log, clock))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class HttpLogReader:
    """Client for the endpoint surface above, usable as a log reader."""

    def __init__(self, base_url: str, log_id: str | None = None, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._bust = itertools.count()
        self.log_id = log_id or self._fetch_log_id()

    def _get(self, path: str, params: dict | None = None, bust: bool = False) -> dict:
        query = dict(params or {})
        if bust:
            query["nocache"] = str(next(self._bust))
        url = f"{self.base_url}{path}"
        if query:
            url += "?" + urllib.parse.urlencode(query)
        with urllib.request.urlopen(url, timeout=self.timeout) as response:
            return json.loads(response.read())

    def _fetch_log_id(self) -> str:
        return self._get("/ct/v1/get-sth", bust=True)["log_id"]

    def get_sth(self, now: int | None = None) -> STH:
        data = self._get("/ct/v1/get-sth", bust=True)
        return STH(
            log_id=data.get("log_id", self.log_id),
            t=data["timestamp"],
            treesize=data["tree_size"],
            root_hash=_unb64(data["sha256_root_hash"]),
            signature=Signature(data.get("signer_id", self.log_id),
                                _unb64(data["tree_head_signature"])),
        )

    def latest_sth(self) -> STH:
        return self.get_sth()

    def get_entries(self, start: int, end: int, now: int | None = None) -> list[LogEntry]:
        data = self._get("/ct/v1/get-entries", {"start": start, "end": end})
        entries = []
        for item in data["entries"]:
            extra = item["extra_data"]
            entries.append(
                LogEntry(
                    payload=_unb64(item["leaf_input"]),
                    t_submission=extra["timestamp"],
                    log_id=self.log_id,
                    number=extra["number"],
                )
            )
        return entries

    def published_size(self, now: int | None = None) -> int:
        from .probe import binary_search_size

        return binary_search_size(self).size

    def consistency_proof(self, first: int, second: int) -> tuple[bytes, ...]:
        data = self._get("/ct/v1/get-sth-consistency", {"first": first, "second": second})
        return tuple(_unb64(node) for node in data["consistency"])

    def get_proof_by_hash(self, leaf_hash: bytes, treesize: int) -> MerkleAuditProof:
        data = self._get("/ct/v1/get-proof-by-hash",
                         {"hash": _b64(leaf_hash), "tree_size": treesize})
        return MerkleAuditProof(
            entry_number=data["leaf_index"],
            treesize=treesize,
            path=tuple(_unb64(node) for node in data["audit_path"]),
        )

    def audit_proof(self, entry_number: int, treesize: int) -> MerkleAuditProof:
        entries = self.get_entries(entry_number, entry_number)
        if not entries:
            raise LogError("entry-out-of-range")
        from .crypto import SHA256

        return self.get_proof_by_hash(SHA256.hash_leaf(entries[0].payload), treesize)

    def submit(self, payload: Certificate | Postcertificate, chain: list[Certificate],
               now: int | None = None) -> SCT:
        body = json.dumps({
            "chain": [_b64(encode_artifact(payload))]
            + [_b64(encode_artifact(cert)) for cert in chain],
        }).encode("utf-8")
        request = urllib.request.Request(
            f"{self.base_url}/ct/v1/add-chain", data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                data = json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = json.loads(exc.read() or b"{}")
            raise LogError(detail.get("error", "http-error"), detail.get("detail", ""))
        return SCT(
            log_id=_unb64(data["id"]).decode("utf-8"),
            timestamp=data["timestamp"],
            entry_hash=_unb64(data["entry_hash"]),
            signature=Signature(data.get("signer_id", self.log_id), _unb64(data["signature"])),
        )
