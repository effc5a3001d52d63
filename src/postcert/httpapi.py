"""HTTP endpoint surface for logs, with the conventional field names.

The server exposes an in-process log at the usual paths (add-chain, get-sth,
get-sth-consistency, get-proof-by-hash, get-entries, get-entry-and-proof) with
the conventional JSON field names, so recordings of real logs can be replayed
through the same analysis code. The client side wraps such an endpoint in the
``LogReader`` interface the in-process log implements, and busts caches by
appending a unique throwaway query parameter to state requests.

Both sides speak HTTP/1.1 keep-alive: a reader sends all its requests over one
persistent connection, and the server answers each connection in one thread.
The server reads a request line and header lines itself and acts on three
headers only: ``Content-Length`` (a request body must have one; chunked
request bodies get a 501), ``Connection: close`` and ``Expect: 100-continue``.
An HTTP/1.0 request, a ``Connection: close`` and every error on the request
head end the connection after the answer. A request line or header line over
65 536 bytes gets 414 or 431, more than 100 headers 431, a body over 1 MiB
413, a bad ``Content-Length`` 400, and a method other than GET and POST 501.
Each answer is one buffered write flushed once, so its status line, headers
and a small body leave in one send.

The client is as lean. A reader opens one socket on first use (with
TCP_NODELAY, and for an ``https`` URL wrapped in TLS by
``ssl.create_default_context()`` with the URL's host name) and keeps it for
every request. Each request is one send: the request line, ``Host``,
``Accept-Encoding: identity``, ``Content-Type`` and ``Content-Length`` when
there is a body, then the body. Of an answer it reads the status line and
acts on ``Content-Length``, ``Transfer-Encoding: chunked`` and
``Connection`` only: it skips 1xx interim answers, reads an answer without a
length to EOF, and closes after ``Connection: close`` or an HTTP/1.0 answer.
A GET that finds a reused connection closed by the server retries once on a
new one; a POST never resends, since the server may have logged it. A status
line that is not HTTP, a header line over 65 536 bytes, more than 100
headers, a bad length or chunk size and a body cut short raise
``LogError("malformed-response")``, so only ``OSError`` and ``LogError``
leave a reader.

The client reads every 200 answer strictly: an answer that is not a JSON
object, lacks a field, has a field of the wrong type or bad base64 raises
``LogError("malformed-response")``.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import re
import socket
import socketserver
import threading
import time
import urllib.parse
from http import HTTPStatus
from typing import Callable

from .certs import CertError, Certificate, Postcertificate, decode_payload
from .crypto import Signature
from .encoding import canonical_int, decode_artifact, encode_artifact
from .log import CtLog, LogEntry, LogError, MerkleAuditProof, SCT, STH


_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(second: int) -> str:
    """IMF-fixdate (RFC 9110 §5.6.7) of a POSIX second, with the English
    names the format fixes whatever the locale."""
    t = time.gmtime(second)
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(data: str) -> bytes:
    """Bytes of a base64 string; ``ValueError`` or ``TypeError`` for anything else."""
    return base64.b64decode(data, validate=True)


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
        start = canonical_int(query["start"][0])
        end = canonical_int(query["end"][0])
        return {"entries": [_entry_json(e) for e in log.get_entries(start, end, now)]}
    if path == "/ct/v1/get-sth-consistency":
        first = canonical_int(query["first"][0])
        second = canonical_int(query["second"][0])
        log.advance(now)
        return {"consistency": [_b64(node) for node in log.consistency_proof(first, second)]}
    if path == "/ct/v1/get-proof-by-hash":
        leaf_hash = _unb64(query["hash"][0])
        tree_size = canonical_int(query["tree_size"][0])
        log.advance(now)
        proof = log.get_proof_by_hash(leaf_hash, tree_size)
        return {
            "leaf_index": proof.entry_number,
            "audit_path": [_b64(node) for node in proof.path],
        }
    if path == "/ct/v1/get-entry-and-proof":
        index = canonical_int(query["leaf_index"][0])
        tree_size = canonical_int(query["tree_size"][0])
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


# Limits on a request: the line and header limits of the standard library's
# HTTP server, and a cap on the body.
_MAX_LINE = 65_536  # bytes in the request line or in one header line
_MAX_HEADERS = 100
_MAX_BODY = 1 << 20  # an add-chain body is a few kilobytes
_HTTP_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_STATUS_LINES = {
    code: f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n".encode("ascii")
    for code in (100, 200, 400, 404, 413, 414, 431, 501, 505)
}


class _BadRequest(Exception):
    """A request the handler answers with ``code`` and then closes."""

    def __init__(self, code: int, error: str) -> None:
        super().__init__(error)
        self.code = code


def make_handler(log: CtLog, clock: Callable[[], int]):
    # The server answers each connection in its own thread, and CtLog is not
    # thread-safe: every log call, and the clock reading it uses, happens
    # under this lock, so requests reach the log one at a time and in clock
    # order.
    lock = threading.Lock()
    date = [0, b""]  # the Date header line of the current second

    class LogRequestHandler(socketserver.StreamRequestHandler):
        """HTTP/1.1 over one connection: each request's head, then its body,
        then one answer, until the client or an error closes it.

        Of the request headers only Content-Length, Connection and Expect are
        acted on, and a Transfer-Encoding is refused. Each answer is written
        to a buffered writer and flushed once, so its head and a small body
        leave in one send.
        """

        disable_nagle_algorithm = True
        wbufsize = 1 << 16  # larger bodies bypass the buffer uncopied

        def handle(self) -> None:
            with contextlib.suppress(ConnectionError):
                keep_alive = True
                while keep_alive:
                    keep_alive = self._answer_one()
                    self.wfile.flush()  # the answer leaves in one send

        def _answer_one(self) -> bool:
            """Answer the next request; whether the connection stays open."""
            try:
                head = self._read_head()
            except _BadRequest as exc:
                self._send(exc.code, {"error": str(exc)}, keep_alive=False)
                return False
            if head is None:
                return False  # the client closed, maybe mid-request
            method, target, keep_alive, length, expect = head
            if expect:
                self.wfile.write(_STATUS_LINES[100] + b"\r\n")
                self.wfile.flush()
            # Read the body before any answer: on a kept-alive connection,
            # unread body bytes would be taken for the next request.
            body = self.rfile.read(length)
            if len(body) < length:
                return False
            if target.startswith("//"):
                target = "/" + target.lstrip("/")  # a path, not a network location
            try:
                url = urllib.parse.urlsplit(target)
            except ValueError:
                code, payload = 400, {"error": "bad request target"}
            else:
                code, payload = self._get(url) if method == "GET" else self._post(url.path, body)
            self._send(code, payload, keep_alive)
            return keep_alive

        def _read_head(self) -> tuple[str, str, bool, int, bool] | None:
            """Method, target, keep-alive, body length and whether to send
            100 Continue; None if the stream ends first."""
            line = self.rfile.readline(_MAX_LINE + 1)
            if not line:
                return None
            if len(line) > _MAX_LINE:
                raise _BadRequest(414, "request line too long")
            words = line.decode("iso-8859-1").split()
            if len(words) != 3:
                raise _BadRequest(400, "bad request line")
            method, target, version = words
            version = _HTTP_VERSION.fullmatch(version)
            if version is None:
                raise _BadRequest(400, "bad HTTP version")
            version = int(version[1]), int(version[2])
            if version >= (2, 0):
                raise _BadRequest(505, "HTTP version not supported")
            keep_alive = version >= (1, 1)
            length = None
            expect = False
            for _ in range(_MAX_HEADERS + 1):
                line = self.rfile.readline(_MAX_LINE + 1)
                if not line:
                    return None
                if len(line) > _MAX_LINE:
                    raise _BadRequest(431, "header line too long")
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.partition(b":")
                name = name.lower()
                if name == b"content-length":
                    value = value.strip()
                    if not (value.isdigit() and length in (None, value)):
                        raise _BadRequest(400, "bad Content-Length")
                    length = value
                elif name == b"connection":
                    if b"close" in (token.strip() for token in value.lower().split(b",")):
                        keep_alive = False
                elif name == b"expect":
                    expect = version >= (1, 1) and value.strip().lower() == b"100-continue"
                elif name == b"transfer-encoding":
                    raise _BadRequest(501, "only Content-Length request bodies are supported")
            else:
                raise _BadRequest(431, "too many headers")
            if method not in ("GET", "POST"):
                raise _BadRequest(501, f"unsupported method {method!r}")
            length = int(length or 0)
            if length > _MAX_BODY:
                raise _BadRequest(413, "request body too large")
            return method, target, keep_alive, length, expect

        @staticmethod
        def _get(url: urllib.parse.SplitResult) -> tuple[int, dict]:
            query = urllib.parse.parse_qs(url.query)
            try:
                with lock:
                    payload = _read_endpoint(log, url.path, query, clock())
            except (LogError, ValueError, KeyError) as exc:
                return 400, _error_body(exc)
            if payload is None:
                return 404, {"error": "unknown endpoint"}
            return 200, payload

        @staticmethod
        def _post(path: str, body: bytes) -> tuple[int, dict]:
            if path not in ("/ct/v1/add-chain", "/ct/v1/add-pre-chain"):
                return 404, {"error": "unknown endpoint"}
            try:
                leaf, chain = _parse_add_chain(body)
                with lock:
                    sct = log.submit(leaf, chain, clock())
            except (LogError, CertError, ValueError, KeyError) as exc:
                return 400, _error_body(exc)
            return 200, {
                "sct_version": 0,
                "id": _b64(sct.log_id.encode("utf-8")),
                "timestamp": sct.timestamp,
                "extensions": "",
                "signature": _b64(sct.signature.value),
                "signer_id": sct.signature.signer_id,
                "entry_hash": _b64(sct.entry_hash),
            }

        def _send(self, code: int, payload: dict, keep_alive: bool) -> None:
            body = json.dumps(payload).encode("utf-8")
            second = int(time.time())
            if date[0] != second:
                date[:] = second, f"Date: {_http_date(second)}\r\n".encode("ascii")
            self.wfile.write(b"%s%sContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n" % (
                _STATUS_LINES[code], date[1], len(body), b"" if keep_alive else b"Connection: close\r\n"))
            self.wfile.write(body)

    return LogRequestHandler


class _LogServer(socketserver.ThreadingTCPServer):
    """A threading TCP server that ends its open connections when it closes.

    A kept-alive connection holds its handler thread in a wait for the next
    request; without this, a closed server would go on answering there.
    """

    daemon_threads = True
    allow_reuse_address = True

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
              clock: Callable[[], int] = default_clock) -> socketserver.ThreadingTCPServer:
    """Start a background HTTP server for one log; caller shuts it down."""
    server = _LogServer((host, port), make_handler(log, clock))
    # shutdown() waits for the accept loop's next poll; the default poll of
    # 0.5 s would make every shutdown take that long.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server


ERR_MALFORMED_RESPONSE = "malformed-response"
ERR_INVALID_URL = "invalid-url"


def _typed(value, kind: type):
    """``value`` if it is exactly a ``kind`` (so no bool for an int), else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r:.40}")
    return value


def _path(nodes) -> tuple[bytes, ...]:
    """The hashes of a proof path: a list of base64 strings."""
    return tuple(_unb64(node) for node in _typed(nodes, list))


@contextlib.contextmanager
def _malformed(endpoint: str):
    """Turns a failure to read an answer into ``LogError(malformed-response)``:
    a missing field, a value of the wrong type or bad base64."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise LogError(ERR_MALFORMED_RESPONSE, f"{endpoint}: {exc!r}") from exc


_HEX = re.compile(rb"[0-9A-Fa-f]{1,16}")


def _bad_answer(detail: str) -> LogError:
    return LogError(ERR_MALFORMED_RESPONSE, detail)


def _read_line(rfile) -> bytes:
    """One line of an answer head; LogError for a line over the limit."""
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _bad_answer("header line too long")
    return line


def _read_exactly(rfile, length: int) -> bytes:
    """``length`` bytes, read at most 1 MiB at a time: a buffered read
    allocates all it asks for, and a length comes from the server."""
    parts = []
    left = length
    while left:
        part = rfile.read(min(left, 1 << 20))
        if not part:
            raise _bad_answer(f"body cut short at {length - left} of {length} bytes")
        parts.append(part)
        left -= len(part)
    return b"".join(parts)


def _read_chunked(rfile) -> bytes:
    """A chunked body: sized chunks, a zero-size chunk, then trailer lines."""
    chunks = []
    while True:
        size = _read_line(rfile).partition(b";")[0].strip()
        if not _HEX.fullmatch(size):
            raise _bad_answer(f"bad chunk size {size[:40]!r}")
        size = int(size, 16)
        if size == 0:
            break
        chunks.append(_read_exactly(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise _bad_answer("chunk not followed by a line end")
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return b"".join(chunks)
        if not line:
            raise _bad_answer("body cut short in the trailer")
    raise _bad_answer("too many trailer lines")


def _read_answer(rfile) -> tuple[int, bytes, bool]:
    """Status, body and whether the server keeps the connection open.

    Of the answer head only the status line, Content-Length,
    Transfer-Encoding: chunked and Connection are acted on; 1xx interim
    answers are skipped. An answer without a length ends at EOF.
    """
    while True:
        line = _read_line(rfile)
        if not line:
            # EOF before an answer: the server closed the connection, which
            # it may do to an idle kept-alive one at any time.
            raise ConnectionResetError("server closed the connection before answering")
        words = line.split(None, 2)
        if len(words) < 2 or not words[0].startswith(b"HTTP/") or not (
                len(words[1]) == 3 and words[1].isdigit()):
            raise _bad_answer(f"bad status line {line[:40]!r}")
        status = int(words[1])
        keep_alive = words[0] != b"HTTP/1.0"
        length = None
        chunked = False
        for _ in range(_MAX_HEADERS + 1):
            line = _read_line(rfile)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _bad_answer("answer head cut short")
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                value = value.strip()
                if len(value) > 18 or not value.isdigit() or length not in (None, int(value)):
                    raise _bad_answer(f"bad Content-Length {value[:40]!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                chunked = value.strip().lower().endswith(b"chunked")
            elif name == b"connection":
                if b"close" in (token.strip() for token in value.lower().split(b",")):
                    keep_alive = False
        else:
            raise _bad_answer("too many headers")
        if status >= 200:
            break
    if chunked:
        return status, _read_chunked(rfile), keep_alive
    if length is None:
        return status, rfile.read(), False
    return status, _read_exactly(rfile, length), keep_alive


class HttpLogReader:
    """Client for the endpoint surface above: a ``LogReader`` over HTTP.

    A reader holds one HTTP/1.1 connection to its server, opened on first use
    and reused for every request. It is not shared between threads.
    """

    def __init__(self, base_url: str, log_id: str | None = None, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        try:
            url = urllib.parse.urlsplit(self.base_url)
            port = url.port
            netloc = url.netloc.rpartition("@")[2]
            host = netloc.encode("idna")
        except ValueError as exc:  # UnicodeError from the host name too
            raise LogError(ERR_INVALID_URL, str(exc)) from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise LogError(ERR_INVALID_URL, "not an http or https URL with a host")
        self._https = url.scheme == "https"
        self._address = (url.hostname, port or (443 if self._https else 80))
        self._tls = None  # the TLS context of an https reader, made on first connect
        self._sock: socket.socket | None = None
        self._rfile = None
        # Every request line and head: method, prefix + path, then this.
        self._prefix = url.path.encode("utf-8")
        self._head = b" HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n" % host
        self._bust = itertools.count()
        # RFC 6962's get-sth answer names no log; the URL then names it
        self.log_id = log_id or self._fetch_log_id(netloc + url.path)

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def _connect(self) -> None:
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._https:
                if self._tls is None:
                    import ssl  # only an https reader pays for loading it

                    self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def _request(self, method: str, path: str, body: bytes = b"") -> dict:
        """JSON body of a 200 answer; LogError(code, detail) for any other status."""
        request = b"%s %s%s%s" % (method.encode("ascii"), self._prefix, path.encode("utf-8"), self._head)
        if body:
            request += b"Content-Type: application/json\r\nContent-Length: %d\r\n" % len(body)
        request += b"\r\n" + body
        reused = self._sock is not None
        try:
            if not reused:
                self._connect()
            self._sock.sendall(request)
            status, data, keep_alive = _read_answer(self._rfile)
        except (ConnectionResetError, BrokenPipeError):
            self.close()
            # The server may close an idle connection at any time, so a GET
            # retries once on a fresh one. A POST does not: the server may
            # have logged it, and under REINSERT a resend logs it twice.
            if reused and method == "GET":
                return self._request(method, path)
            raise
        except BaseException:
            self.close()  # leave no half-read answer on the connection
            raise
        if not keep_alive:
            self.close()
        try:
            answer = json.loads(data)
        except ValueError:
            answer = None
        if status != 200:
            detail = answer if isinstance(answer, dict) else {}
            raise LogError(detail.get("error", f"http-{status}"), detail.get("detail", ""))
        if not isinstance(answer, dict):
            raise LogError(ERR_MALFORMED_RESPONSE, f"{method} {path}: not a JSON object")
        return answer

    def _get(self, path: str, params: dict | None = None, bust: bool = False) -> dict:
        """JSON body of a GET; ``params`` values enter the query as they are
        written, so a string value must come quoted."""
        query = [f"{name}={value}" for name, value in (params or {}).items()]
        if bust:
            query.append(f"nocache={next(self._bust)}")
        if query:
            path += "?" + "&".join(query)
        return self._request("GET", path)

    def _fetch_log_id(self, default: str) -> str:
        data = self._get("/ct/v1/get-sth", bust=True)
        with _malformed("get-sth"):
            return _typed(data.get("log_id", default), str)

    def get_sth(self, now: int | None = None) -> STH:
        data = self._get("/ct/v1/get-sth", bust=True)
        with _malformed("get-sth"):
            return STH(
                log_id=_typed(data.get("log_id", self.log_id), str),
                t=_typed(data["timestamp"], int),
                treesize=_typed(data["tree_size"], int),
                root_hash=_unb64(data["sha256_root_hash"]),
                signature=Signature(_typed(data.get("signer_id", self.log_id), str),
                                    _unb64(data["tree_head_signature"])),
            )

    def latest_sth(self) -> STH:
        return self.get_sth()

    def get_entries(self, start: int, end: int, now: int | None = None) -> list[LogEntry]:
        data = self._get("/ct/v1/get-entries", {"start": start, "end": end})
        with _malformed("get-entries"):
            entries = []
            for item in _typed(data["entries"], list):
                extra = item["extra_data"]
                entries.append(
                    LogEntry(
                        payload=_unb64(item["leaf_input"]),
                        t_submission=_typed(extra["timestamp"], int),
                        log_id=self.log_id,
                        number=_typed(extra["number"], int),
                    )
                )
            return entries

    def published_size(self, now: int | None = None) -> int:
        from .probe import binary_search_size

        return binary_search_size(self).size

    def consistency_proof(self, first: int, second: int) -> tuple[bytes, ...]:
        data = self._get("/ct/v1/get-sth-consistency", {"first": first, "second": second})
        with _malformed("get-sth-consistency"):
            return _path(data["consistency"])

    def get_proof_by_hash(self, leaf_hash: bytes, treesize: int) -> MerkleAuditProof:
        data = self._get("/ct/v1/get-proof-by-hash",
                         {"hash": urllib.parse.quote(_b64(leaf_hash), safe=""), "tree_size": treesize})
        with _malformed("get-proof-by-hash"):
            return MerkleAuditProof(
                entry_number=_typed(data["leaf_index"], int),
                treesize=treesize,
                path=_path(data["audit_path"]),
            )

    def audit_proof(self, entry_number: int, treesize: int) -> MerkleAuditProof:
        data = self._get("/ct/v1/get-entry-and-proof",
                         {"leaf_index": entry_number, "tree_size": treesize})
        with _malformed("get-entry-and-proof"):
            return MerkleAuditProof(entry_number, treesize, _path(data["audit_path"]))

    def submit(self, payload: Certificate | Postcertificate, chain: list[Certificate],
               now: int | None = None) -> SCT:
        body = json.dumps({
            "chain": [_b64(encode_artifact(payload))]
            + [_b64(encode_artifact(cert)) for cert in chain],
        }).encode("utf-8")
        data = self._request("POST", "/ct/v1/add-chain", body)
        with _malformed("add-chain"):
            return SCT(
                log_id=_unb64(data["id"]).decode("utf-8"),
                timestamp=_typed(data["timestamp"], int),
                entry_hash=_unb64(data["entry_hash"]),
                signature=Signature(_typed(data.get("signer_id", self.log_id), str),
                                    _unb64(data["signature"])),
            )
