"""HTTP facade for the in-process depot.

Matches each request against :data:`curator.client.ROUTES`, gathers the
route's parameters from the path, query, body and headers, and hands them
to :meth:`curator.depot.Depot.handle`, so the facade adds transport and
auth but no semantics of its own. Error bodies are always
``{"error": <kind>}`` with the status from
:data:`curator.errors.STATUS_BY_KIND`.
"""

from __future__ import annotations

import hmac
import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from .client import FILE_NAME_HEADER, ROUTES
from .depot import Depot
from .errors import STATUS_BY_KIND, AuthFailure, BindError, CuratorError, InvalidMeta, NotFound

logger = logging.getLogger(__name__)


class _Server(ThreadingHTTPServer):
    """Tracks the connections it has accepted, so that closing the server
    ends them too: a kept-alive one would go on serving its depot."""

    daemon_threads = True
    allow_reuse_address = True
    depot: Depot
    token: str

    def __init__(self, *args):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        # Each handler sees end of input at its next read and finishes.
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "curator-depot"
    # Headers and body leave in two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK, about 40 ms on every call.
    disable_nagle_algorithm = True

    server: _Server

    def log_message(self, format, *args):
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        # A body of unknown length cannot be drained, so the connection is
        # dropped: the next request would start mid-stream.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise InvalidMeta("Content-Length must be a nonnegative integer")
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:  # the client stopped sending, so the body is not whole
            self.close_connection = True
            raise InvalidMeta(f"body ended after {len(raw)} of {length} bytes")
        return raw

    def _read_json(self, raw: bytes) -> dict:
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise InvalidMeta("request body is not valid JSON")
        if not isinstance(payload, dict):
            raise InvalidMeta("request body must be a JSON object")
        return payload

    def _file_name(self) -> str | None:
        name = self.headers.get(FILE_NAME_HEADER)
        try:
            return None if name is None else unquote(name, errors="strict")
        except UnicodeDecodeError:
            raise InvalidMeta(f"{FILE_NAME_HEADER} is not percent-encoded UTF-8")

    def _authorized(self) -> bool:
        # Bytes, because compare_digest raises TypeError on non-ASCII str.
        given = (self.headers.get("Authorization") or "").encode("utf-8")
        return hmac.compare_digest(given, f"token {self.server.token}".encode("utf-8"))

    def handle(self):
        try:
            super().handle()
        except ConnectionError as exc:
            # The client reset or hung up mid-exchange, so there is no one to answer.
            logger.info("client %s gone: %s", self.address_string(), exc.__class__.__name__)

    def _dispatch(self, method: str) -> None:
        try:
            if not self._authorized():
                # Answered before the body is read, so a client without the
                # token cannot make the depot wait for or hold its body; the
                # body is not drained either, so the connection ends.
                if method == "POST":
                    self.close_connection = True
                raise AuthFailure("missing or wrong token")
            self._route(method, self._read_body() if method == "POST" else b"")
        except CuratorError as exc:
            status = STATUS_BY_KIND.get(type(exc), 500)
            if status == 500:  # the depot's own failure, such as an append that failed
                logger.error("%s %s failed: %s: %s", method, self.path, exc.kind, exc)
            self._send(status, {"error": exc.kind})
        except ConnectionError:
            raise  # handle() logs the client gone
        except Exception:
            logger.exception("unhandled facade failure on %s %s", method, self.path)
            self._send(500, {"error": "InternalError"})

    def _route(self, method: str, raw: bytes) -> None:
        split = urlsplit(self.path)
        for op, route in ROUTES.items():
            match = route.method == method and route.pattern.fullmatch(split.path)
            if not match:
                continue
            if method == "GET":
                params = {k: v[0] for k, v in parse_qs(split.query).items()}
            elif "body" in route.params:
                params = {"name": self._file_name(), "body": raw}
            else:
                params = self._read_json(raw)
            try:
                params.update((k, int(v)) for k, v in match.groupdict().items())
            except ValueError:  # more digits than int parses (from Python 3.11)
                raise NotFound("no such article: an id longer than int parses") from None
            self._send(route.status, self.server.depot.handle(op, params))
            return
        raise NotFound(f"no route for {method} {split.path}")

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")


def _split_bind(bind_address: str) -> tuple[str, int]:
    host, sep, port_text = str(bind_address).rpartition(":")
    if not sep:
        host, port_text = "", bind_address
    try:
        port = int(port_text)
    except ValueError:
        raise BindError(f"invalid bind address {bind_address!r}, want host:port")
    return host or "127.0.0.1", port


class DepotHttpServer:
    """Wire-protocol facade bound to a host:port.

    ``start`` serves on a background thread and returns self; ``stop`` is
    idempotent, releases the socket and closes every open connection.
    ``serve_until_interrupt`` keeps the calling thread serving, for the
    foreground CLI mode.
    """

    def __init__(self, bind_address: str, depot: Depot, token: str):
        host, port = _split_bind(bind_address)
        try:
            self._httpd = _Server((host, port), _Handler)
        except OSError as exc:
            raise BindError(
                f"cannot bind {bind_address}: {exc.strerror or exc}"
            ) from exc
        self._httpd.depot = depot
        self._httpd.token = token
        self._thread: threading.Thread | None = None

    @property
    def depot(self) -> Depot:
        return self._httpd.depot

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    @property
    def base_url(self) -> str:
        return f"http://{self.address}"

    def start(self) -> "DepotHttpServer":
        if self._thread is None:
            # the short poll makes stop() return promptly
            self._thread = threading.Thread(
                target=lambda: self._httpd.serve_forever(poll_interval=0.05),
                name="depot-http",
                daemon=True,
            )
            self._thread.start()
            logger.info("depot facade listening on %s", self.address)
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def serve_until_interrupt(self) -> None:
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            logger.info("interrupt received, shutting down")
        finally:
            self._httpd.server_close()

