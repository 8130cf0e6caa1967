"""HTTP facade for the in-process depot.

The facade frames HTTP/1.1 itself: a thread per connection, for at most
MAX_CONNECTIONS at once, reads each request head with
:func:`curator.client.read_head`, under its caps (64 KiB a line, 100 header
lines) and within STALL_TIMEOUT of the head's first byte, and sends each reply
in one write. A request it cannot frame gets the status http.server gave
it (400, 414, 431, 501 or 505) and a close. The others are matched against
:data:`curator.client.ROUTES` and handed to :meth:`curator.depot.Depot.handle`,
so the facade adds transport and auth but no semantics of its own. Error bodies
are always ``{"error": <kind>}`` with the status from
:data:`curator.errors.STATUS_BY_KIND`.
"""

from __future__ import annotations

import hmac
import io
import json
import logging
import re
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qs, unquote, urlsplit

from .client import DEFAULT_TIMEOUT, FILE_NAME_HEADER, ROUTES, content_length, read_head
from .depot import Depot
from .errors import STATUS_BY_KIND, AuthFailure, BindError, CuratorError, InvalidMeta, NotFound

logger = logging.getLogger(__name__)

# A stalled request head, body or reply closes its connection after this long.
STALL_TIMEOUT = 2 * DEFAULT_TIMEOUT
# A connection holds a thread for up to STALL_TIMEOUT though its client sends nothing and
# shows no token, so only this many are served at once. A stage keeps one, and the client
# retries a connection closed past the cap on its backoff schedule.
MAX_CONNECTIONS = 64
REQUEST_LINE = re.compile(rb"(\S+) (\S+) HTTP/(\d\.\d)\r?\n")
REASONS = {status.value: status.phrase for status in HTTPStatus}


class _Server(socketserver.ThreadingTCPServer):
    """Tracks the connections it has accepted, so that closing the server
    ends them too (a kept-alive one would go on serving its depot), and so
    that it serves at most MAX_CONNECTIONS at once."""

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
            full = len(self._connections) >= MAX_CONNECTIONS
            if not full:
                self._connections.add(request)
        if full:  # closed at once, so the accept loop never waits for a slot
            logger.warning(
                "connection from %s closed unanswered: %d open", client_address[0], MAX_CONNECTIONS
            )
            self.shutdown_request(request)
        else:
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


class _Receiver(socket.SocketIO):
    """A connection's raw reader; while ``deadline`` is set, no receive waits past it."""

    deadline: float | None = None

    def readinto(self, buffer) -> int:
        if self.deadline is None:
            return super().readinto(buffer)
        timeout, left = self._sock.gettimeout(), self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the request head is late")
        self._sock.settimeout(left)
        try:
            return super().readinto(buffer)
        finally:
            self._sock.settimeout(timeout)


class _Handler(socketserver.StreamRequestHandler):
    timeout = STALL_TIMEOUT
    # A reply must not wait for the client's delayed ACK (Nagle's algorithm).
    disable_nagle_algorithm = True
    rbufsize = 0  # the rfile that setup() replaces is then a bare SocketIO
    close_connection = False

    server: _Server

    def setup(self):
        super().setup()
        self.rfile = io.BufferedReader(_Receiver(self.connection, "rb"))

    def handle(self):
        try:
            while not self.close_connection and self._read_request():
                self._dispatch(self.command)
        except (ConnectionError, TimeoutError) as exc:
            # The client reset, hung up or stopped reading: there is no one to answer.
            logger.info("client %s gone: %s", self.client_address[0], exc.__class__.__name__)

    def _read_request(self) -> bool:
        """Read the next request head; False, to end the connection, when there is none
        to serve: the client closed or idled, was too slow, or is refused here."""
        receiver, self.command, self.path = self.rfile.raw, "-", "-"
        try:
            if not self.rfile.peek(1):
                return False
            receiver.deadline = time.monotonic() + self.timeout
            line, self.headers = read_head(self.rfile)  # 400, 414 or 431
            receiver.deadline = None
            request = REQUEST_LINE.fullmatch(line)
            if request is None:
                raise ValueError("a malformed request line", 400)
            self.command, self.path, self.version = (p.decode("latin-1") for p in request.groups())
            if self.version >= "2":
                raise ValueError("an HTTP version above 1.1", 505)
            if self.command not in ("GET", "POST"):
                raise ValueError("a method other than GET or POST", 501)
        except TimeoutError:
            return False
        except ValueError as exc:
            self.close_connection = True
            self._send(exc.args[1], {"error": "TransportError"})
            return False
        # HTTP/1.1 keeps the connection unless told to close it, HTTP/1.0 only if told to keep it.
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.version < "1.1" and connection != "keep-alive"
        )
        return True

    def _send(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        close = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"HTTP/1.1 {status} {REASONS[status]}\r\nServer: curator-depot\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{close}\r\n"
        )
        self.connection.sendall(head.encode("latin-1") + body)
        logger.debug('%s - "%s %s" %d', self.client_address[0], self.command, self.path, status)

    def _read_body(self, method: str) -> bytes:
        # A body whose end is unknown cannot be drained, so the connection is dropped, as
        # the next request would start mid-stream: an unreadable length, one a proxy would
        # frame otherwise, a GET's body, or a short or stalled body.
        try:
            if "transfer-encoding" in self.headers:
                raise ValueError("a request in transfer coding")
            length = content_length(self.headers.get("content-length") or "0")
            if length and method == "GET":
                raise ValueError("a GET with a body")
            expect = self.headers.get("expect", "").lower()
            if length and expect == "100-continue" and self.version >= "1.1":
                self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            raw = self.rfile.read(length) if length else b""
            if len(raw) < length:  # the client stopped sending
                raise ValueError(f"body ended after {len(raw)} of {length} bytes")
            return raw
        except (ValueError, TimeoutError) as exc:
            self.close_connection = True
            raise InvalidMeta(str(exc)) from None

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
        name = self.headers.get(FILE_NAME_HEADER.lower())
        try:
            return None if name is None else unquote(name, errors="strict")
        except UnicodeDecodeError:
            raise InvalidMeta(f"{FILE_NAME_HEADER} is not percent-encoded UTF-8")

    def _authorized(self) -> bool:
        # Bytes, because compare_digest raises TypeError on non-ASCII str.
        given = self.headers.get("authorization", "").encode("utf-8")
        return hmac.compare_digest(given, f"token {self.server.token}".encode("utf-8"))

    def _dispatch(self, method: str) -> None:
        try:
            if not self._authorized():
                # Answered before any body is read, so a client without the token cannot make
                # the depot wait for or hold a body; one left unread ends the connection.
                length = self.headers.get("content-length", "0")
                self.close_connection |= "transfer-encoding" in self.headers or length != "0"
                raise AuthFailure("missing or wrong token")
            self._route(method, self._read_body(method))
        except CuratorError as exc:
            status = STATUS_BY_KIND.get(type(exc), 500)
            if status == 500:  # the depot's own failure, such as an append that failed
                logger.error("%s %s failed: %s: %s", method, self.path, exc.kind, exc)
            self._send(status, {"error": exc.kind})
        except (ConnectionError, TimeoutError):
            raise  # handle() logs it and ends the connection
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

