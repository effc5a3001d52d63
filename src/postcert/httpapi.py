"""HTTP endpoint surface for logs, with the conventional field names.

The server exposes an in-process log at the usual paths (add-chain, get-sth,
get-sth-consistency, get-proof-by-hash, get-entries, get-entry-and-proof) with
the conventional JSON field names, so recordings of real logs can be replayed
through the same analysis code. The client side wraps such an endpoint in the
``LogReader`` interface the in-process log implements, and busts caches by
appending a unique throwaway query parameter to state requests.

Both sides speak HTTP/1.1 keep-alive: a reader sends all its requests over one
persistent connection, and the server answers each connection in one thread.
"""

from __future__ import annotations

import base64
import contextlib
import http.client
import itertools
import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .certs import CertError, Certificate, Postcertificate, decode_payload
from .crypto import Signature
from .encoding import decode_artifact, encode_artifact
from .log import CtLog, LogEntry, LogError, MerkleAuditProof, SCT, STH


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(data: str) -> bytes:
    return base64.b64decode(data)


def default_clock() -> int:
    return int(time.time() * 1000)


def _error_body(exc: Exception) -> dict:
    if isinstance(exc, LogError):
        return {"error": exc.code, "detail": exc.detail}
    return {"error": str(exc)}


def _entry_json(entry: LogEntry) -> dict:
    return {
        "leaf_input": _b64(entry.payload),
        "extra_data": {"number": entry.number, "timestamp": entry.t_submission},
    }


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
        return {"entries": [_entry_json(e) for e in log.get_entries(start, end, now)]}
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
    if path == "/ct/v1/get-entry-and-proof":
        index = int(query["leaf_index"][0])
        tree_size = int(query["tree_size"][0])
        log.advance(now)
        proof = log.audit_proof(index, tree_size)
        return {
            **_entry_json(log.entries[index]),
            "audit_path": [_b64(node) for node in proof.path],
        }
    return None


def _parse_add_chain(body: bytes) -> tuple[Certificate | Postcertificate, list[Certificate]]:
    """The leaf and the issuer chain of an add-chain body.

    Raises ValueError, KeyError or CertError unless the body is a JSON object
    whose ``chain`` is a non-empty list of base64 strings: a certificate or
    postcertificate, then certificates.
    """
    request = json.loads(body)
    if not isinstance(request, dict):
        raise ValueError("add-chain body must be a JSON object")
    chain_b64 = request["chain"]
    if not isinstance(chain_b64, list) or not chain_b64:
        raise ValueError("chain must be a non-empty list")
    if not all(isinstance(item, str) for item in chain_b64):
        raise ValueError("chain items must be base64 strings")
    leaf = decode_payload(_unb64(chain_b64[0]))
    chain = [decode_artifact(_unb64(item)) for item in chain_b64[1:]]
    if not all(isinstance(cert, Certificate) for cert in chain):
        raise CertError("chain holds a non-certificate")
    return leaf, chain


def make_handler(log: CtLog, clock: Callable[[], int]):
    # ThreadingHTTPServer answers each connection in its own thread, and CtLog
    # is not thread-safe: every log call, and the clock reading it uses, happens
    # under this lock, so requests reach the log one at a time and in clock
    # order.
    lock = threading.Lock()

    class LogRequestHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive; every answer carries Content-Length
        # The header and body of an answer go out in two writes; with Nagle's
        # algorithm the second waits for the client's delayed ACK of the first.
        disable_nagle_algorithm = True

        def log_message(self, *args) -> None:  # silence request logging
            pass

        def _send(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            parsed = urllib.parse.urlparse(self.path)
            query = urllib.parse.parse_qs(parsed.query)
            try:
                with lock:
                    payload = _read_endpoint(log, parsed.path, query, clock())
            except (LogError, ValueError, KeyError) as exc:
                self._send(400, _error_body(exc))
                return
            if payload is None:
                self._send(404, {"error": "unknown endpoint"})
            else:
                self._send(200, payload)

        def do_POST(self) -> None:
            # Read the body before any answer: on a kept-alive connection,
            # unread body bytes would be taken for the next request.
            length = self.headers.get("Content-Length", "0")
            if not (length.isascii() and length.isdigit()):
                self.close_connection = True  # the body's end is unknown
                self._send(400, {"error": "bad Content-Length"})
                return
            body = self.rfile.read(int(length))
            parsed = urllib.parse.urlparse(self.path)
            if parsed.path not in ("/ct/v1/add-chain", "/ct/v1/add-pre-chain"):
                self._send(404, {"error": "unknown endpoint"})
                return
            try:
                leaf, chain = _parse_add_chain(body)
                with lock:
                    sct = log.submit(leaf, chain, clock())
            except (LogError, CertError, ValueError, KeyError) as exc:
                self._send(400, _error_body(exc))
                return
            self._send(200, {
                "sct_version": 0,
                "id": _b64(sct.log_id.encode("utf-8")),
                "timestamp": sct.timestamp,
                "extensions": "",
                "signature": _b64(sct.signature.value),
                "signer_id": sct.signature.signer_id,
                "entry_hash": _b64(sct.entry_hash),
            })

    return LogRequestHandler


class _LogServer(ThreadingHTTPServer):
    """A threading HTTP server that ends its open connections when it closes.

    A kept-alive connection holds its handler thread in a wait for the next
    request; without this, a closed server would go on answering there.
    """

    def __init__(self, *args, **kwargs) -> None:
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            for request in self._connections:
                with contextlib.suppress(OSError):
                    request.shutdown(socket.SHUT_RDWR)  # the handler sees EOF and exits


def serve_log(log: CtLog, host: str = "127.0.0.1", port: int = 0,
              clock: Callable[[], int] = default_clock) -> ThreadingHTTPServer:
    """Start a background HTTP server for one log; caller shuts it down."""
    server = _LogServer((host, port), make_handler(log, clock))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class HttpLogReader:
    """Client for the endpoint surface above: a ``LogReader`` over HTTP.

    A reader holds one HTTP/1.1 connection to its server, opened on first use
    and reused for every request. It is not shared between threads.
    """

    def __init__(self, base_url: str, log_id: str | None = None, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        self._conn = connection(url.netloc, timeout=timeout)
        self._path_prefix = url.path
        self._bust = itertools.count()
        self.log_id = log_id or self._fetch_log_id()

    def close(self) -> None:
        self._conn.close()

    def _request(self, method: str, path: str, body: bytes | None = None) -> dict:
        """JSON body of a 200 answer; LogError(code, detail) for any other status."""
        reused = self._conn.sock is not None
        try:
            self._conn.request(method, self._path_prefix + path, body,
                               {"Content-Type": "application/json"} if body else {})
            response = self._conn.getresponse()
            status, data = response.status, response.read()
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            self._conn.close()
            # The server may close an idle connection at any time, so a GET
            # retries once on a fresh one. A POST does not: the server may
            # have logged it, and under REINSERT a resend logs it twice.
            if reused and method == "GET":
                return self._request(method, path)
            raise
        except BaseException:
            self._conn.close()  # leave no half-sent request on the connection
            raise
        if status != 200:
            try:
                detail = json.loads(data)
            except ValueError:
                detail = None
            if not isinstance(detail, dict):
                detail = {}
            raise LogError(detail.get("error", f"http-{status}"), detail.get("detail", ""))
        return json.loads(data)

    def _get(self, path: str, params: dict | None = None, bust: bool = False) -> dict:
        query = dict(params or {})
        if bust:
            query["nocache"] = str(next(self._bust))
        if query:
            path += "?" + urllib.parse.urlencode(query)
        return self._request("GET", path)

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
        data = self._get("/ct/v1/get-entry-and-proof",
                         {"leaf_index": entry_number, "tree_size": treesize})
        return MerkleAuditProof(entry_number, treesize,
                                tuple(_unb64(node) for node in data["audit_path"]))

    def submit(self, payload: Certificate | Postcertificate, chain: list[Certificate],
               now: int | None = None) -> SCT:
        body = json.dumps({
            "chain": [_b64(encode_artifact(payload))]
            + [_b64(encode_artifact(cert)) for cert in chain],
        }).encode("utf-8")
        data = self._request("POST", "/ct/v1/add-chain", body)
        return SCT(
            log_id=_unb64(data["id"]).decode("utf-8"),
            timestamp=data["timestamp"],
            entry_hash=_unb64(data["entry_hash"]),
            signature=Signature(data.get("signer_id", self.log_id), _unb64(data["signature"])),
        )
