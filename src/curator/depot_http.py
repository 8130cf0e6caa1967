"""HTTP facade for the in-process depot.

Matches each request against :data:`curator.client.ROUTES`, gathers the
route's parameters from the path, query, body and headers, and hands them
to :meth:`curator.depot.Depot.handle`, so the facade adds transport and
auth but no semantics of its own. Error bodies are always
``{"error": <kind>}`` with the status from
:data:`curator.errors.STATUS_BY_KIND`.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .client import FILE_NAME_HEADER, ROUTES
from .depot import Depot
from .errors import STATUS_BY_KIND, AuthFailure, BindError, CuratorError, InvalidMeta, NotFound

logger = logging.getLogger(__name__)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    depot: Depot
    token: str


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "curator-depot"

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
        # Always drain the body, even on auth failure, or the next
        # request on a keep-alive connection starts mid-stream. A body of
        # unknown length cannot be drained, so the connection is dropped.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise InvalidMeta("Content-Length must be a nonnegative integer")
        return self.rfile.read(length) if length else b""

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

    def _authorized(self) -> bool:
        return self.headers.get("Authorization") == f"token {self.server.token}"

    def _dispatch(self, method: str) -> None:
        try:
            raw = self._read_body() if method == "POST" else b""
            if not self._authorized():
                raise AuthFailure("missing or wrong token")
            self._route(method, raw)
        except CuratorError as exc:
            self._send(STATUS_BY_KIND.get(type(exc), 500), {"error": exc.kind})
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
                params = {"name": self.headers.get(FILE_NAME_HEADER), "body": raw}
            else:
                params = self._read_json(raw)
            params.update((k, int(v)) for k, v in match.groupdict().items())
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
    idempotent and releases the socket. ``serve_until_interrupt`` keeps
    the calling thread serving, for the foreground CLI mode.
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


def serve_http(bind_address: str, depot: Depot | None = None, token: str = "") -> DepotHttpServer:
    """Start a facade for ``depot`` (a fresh one when omitted) and return it."""
    return DepotHttpServer(bind_address, depot or Depot(), token).start()
