"""Depot service contract: domain records, the abstract client, and the
HTTP backend speaking the reference wire protocol.

Two interchangeable implementations exist: :class:`HttpDepotClient` below
and the in-process :class:`curator.depot.Depot`. Workflow code only ever
sees the :class:`DepotClient` interface. Each operation's method, path,
success status and wire codecs are declared once, in :data:`ROUTES`: the
client builds its requests from it and the facade in
:mod:`curator.depot_http` dispatches by it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import select
import socket
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable
from urllib.parse import quote, urlencode, urlparse

from .errors import IoError, NotFound, TransportError, as_io_error, wire_error

logger = logging.getLogger(__name__)

ARTICLE_KINDS = ("code", "fileset")

DEFAULT_TIMEOUT = 30.0
# Transport failures are retried this many times before surfacing.
RETRY_BACKOFF = (0.5, 1.0, 2.0)
FILE_NAME_HEADER = "X-File-Name"
# Bytes per read of a file being uploaded, and per socket write of its body.
UPLOAD_CHUNK = 1 << 20
# The caps http.client puts on a head: bytes in a line, and header lines.
MAX_LINE, MAX_HEADERS = 65536, 100


@dataclass(frozen=True)
class ArticleMeta:
    """Descriptive metadata for a depot article (code archive or fileset). Frozen,
    like every record; a list of tags is taken as a tuple, so it is never shared."""

    title: str
    description: str = ""
    kind: str = "fileset"
    category: str = ""
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.tags, list):
            object.__setattr__(self, "tags", tuple(self.tags))


@dataclass(frozen=True)
class FileEntry:
    """One stored file within an article version."""

    file_id: int
    name: str
    size: int
    md5: str


@dataclass(frozen=True)
class ArticleRecord:
    """State of a depot article as seen by clients, at one moment."""

    article_id: int
    meta: ArticleMeta
    status: str = "draft"  # "draft" | "published"
    version: int = 0
    doi: str | None = None
    files: tuple[FileEntry, ...] = ()
    authors: tuple[int, ...] = ()


@dataclass
class ClientConfig:
    """Connection settings for the HTTP backend.

    The wire protocol authenticates with a single bearer-style header
    carrying ``token``; the remaining credential fields mirror the usual
    OAuth-style four-part scheme and must still be populated.
    """

    base_url: str
    client_key: str
    client_secret: str
    token: str
    token_secret: str


def file_entry_to_wire(entry: FileEntry) -> dict:
    return dict(vars(entry))


def file_entry_from_wire(payload: dict) -> FileEntry:
    return FileEntry(payload["file_id"], payload["name"], payload["size"], payload["md5"])


def meta_to_wire(meta: ArticleMeta) -> dict:
    """Metadata fields as sent on the wire. Values pass through unchanged,
    so the depot validates exactly what the caller gave."""
    return dict(vars(meta))


def meta_from_wire(payload: dict) -> ArticleMeta:
    return ArticleMeta(
        title=payload.get("title"),
        description=payload.get("description", ""),
        kind=payload.get("kind"),
        category=payload.get("category", ""),
        tags=payload.get("tags", ()),
    )


def record_to_wire(record: ArticleRecord) -> dict:
    """Flatten a record into the wire-protocol article representation,
    its tuples as the lists JSON reads back."""
    return {
        "article_id": record.article_id,
        **meta_to_wire(record.meta),
        "tags": list(record.meta.tags),
        "status": record.status,
        "version": record.version,
        "doi": record.doi,
        "files": [file_entry_to_wire(f) for f in record.files],
        "authors": list(record.authors),
    }


def record_from_wire(payload: dict) -> ArticleRecord:
    return ArticleRecord(
        article_id=payload["article_id"],
        meta=meta_from_wire(payload),
        status=payload["status"],
        version=payload["version"],
        doi=payload.get("doi"),
        files=tuple(file_entry_from_wire(f) for f in payload.get("files", [])),
        authors=tuple(payload.get("authors", [])),
    )


def is_utf8_text(value) -> bool:
    """True for a str that encodes as UTF-8, which one holding a lone
    surrogate (an undecodable name from ``os.listdir``) does not."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def json_carries(value) -> bool:
    """False for an int with more digits than ``str`` converts (from Python
    3.11), which no JSON text holds, so no transport accepts one."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            return False
    return True


def _json_safe(value):
    """``value`` with each int that JSON cannot carry, alone or in a list, as None."""
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value if json_carries(value) else None


def args_to_wire(names, args) -> dict:
    """Flat wire parameters for positional arguments; ``meta`` is spread into its fields."""
    wire = {}
    for name, value in zip(names, args):
        wire.update(meta_to_wire(value) if name == "meta" else {name: value})
    return wire


def args_from_wire(names, params: dict) -> list:
    return [meta_from_wire(params) if name == "meta" else params.get(name) for name in names]


@dataclass
class Route:
    """One depot operation on the wire.

    ``{name}`` path segments carry integer parameters. The others travel
    in a GET's query string or a POST's JSON object body, except that a
    ``body`` parameter is the raw request body, with ``name`` in the
    X-File-Name header. ``reply`` encodes the contract method's result as
    the response payload; ``parse`` decodes it.
    """

    method: str
    path: str
    status: int
    params: tuple[str, ...]
    reply: Callable = record_to_wire
    parse: Callable = record_from_wire

    def __post_init__(self):
        self.pattern = re.compile(re.sub(r"\{(\w+)\}", r"(?P<\1>\\d+)", self.path))


# The one declaration of each depot operation, keyed by Depot method: the
# facade routes by it, Depot.handle decodes and encodes with it, and
# HttpDepotClient builds its requests from it.
ROUTES = {
    "create_article": Route(
        "POST", "/v1/articles", 201, ("meta",),
        reply=lambda record: {"article_id": record.article_id},
        parse=lambda payload: payload["article_id"],
    ),
    "search_by_tag": Route(
        "GET", "/v1/articles/search", 200, ("tag",),
        reply=lambda records: {"items": [record_to_wire(r) for r in records]},
        parse=lambda payload: [record_from_wire(item) for item in payload["items"]],
    ),
    "get_article": Route("GET", "/v1/articles/{article_id}", 200, ("article_id",)),
    "upload_bytes": Route(
        "POST", "/v1/articles/{article_id}/files", 201, ("article_id", "name", "body"),
        reply=file_entry_to_wire, parse=file_entry_from_wire,
    ),
    "add_tag": Route("POST", "/v1/articles/{article_id}/tags", 200, ("article_id", "tag")),
    "add_authors": Route(
        "POST", "/v1/articles/{article_id}/authors", 200, ("article_id", "author_ids")
    ),
    "publish_article": Route(
        "POST", "/v1/articles/{article_id}/publish", 200, ("article_id",),
        reply=lambda result: {"doi": result[0], "version": result[1]},
        parse=lambda payload: (payload["doi"], payload["version"]),
    ),
}


class FileBody:
    """A local file opened as an upload body, streamed instead of held.

    ``len()`` is the file's size when it was opened, and reads return
    exactly that many bytes in all: a file that grows meanwhile is cut at
    that size, and one that shrinks raises IoError. :meth:`rewind` starts
    it over, for a request sent again. Closes on leaving a ``with`` block.
    """

    def __init__(self, handle, path):
        self._handle = handle
        self._path = path
        self._size = self._left = os.fstat(handle.fileno()).st_size

    def __len__(self) -> int:
        return self._size

    def __enter__(self) -> FileBody:
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def rewind(self) -> None:
        self._handle.seek(0)
        self._left = self._size

    def read(self, size: int = -1) -> bytes:
        buffer = bytearray(self._left if size < 0 else min(size, self._left))
        self.readinto(buffer)
        return bytes(buffer)

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)[: self._left]
        with as_io_error("cannot read", self._path):
            count = self._handle.readinto(view)
        if count < len(view):
            raise IoError(f"{self._path} shrank below {self._size} bytes while being uploaded")
        self._left -= count
        return count


def md5_of(stream, size: int) -> tuple[str, int]:
    """The MD5 and length of what ``stream.readinto`` gives until it gives
    nothing, read in ``UPLOAD_CHUNK`` pieces into one buffer no larger than
    ``size``, the length the stream is expected to have."""
    digest, total = hashlib.md5(), 0
    buffer = memoryview(bytearray(min(size, UPLOAD_CHUNK)))
    while count := stream.readinto(buffer):
        digest.update(buffer[:count])
        total += count
    return digest.hexdigest(), total


def read_local_file(local_path) -> FileBody:
    """Open a file for upload, mapping OS failures to IoError."""
    with as_io_error("cannot read", local_path):
        return FileBody(open(local_path, "rb"), local_path)


def content_length(value: str) -> int:
    """A request's or reply's Content-Length: ASCII digits only (RFC 9110), as
    ``int`` also reads signs and underscores, which a proxy frames otherwise."""
    value = value.strip(" \t")
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"Content-Length {value[:32]!r} is not a nonnegative integer")
    return int(value)


def no_such_article(article_id) -> NotFound:
    """The NotFound for ``article_id``, which names it unless JSON cannot carry
    it: no depot holds one."""
    if json_carries(article_id):
        return NotFound(f"no such article: {article_id}")
    return NotFound(f"no such article: an int of {article_id.bit_length()} bits")


def upload_body(body) -> FileBody | memoryview:
    """The one rule for an upload body, which both backends apply first: a
    FileBody, or a bytes-like object, taken as a memoryview of its bytes so it
    is never copied. Anything else (an int, a str, a list, an open file) is a TypeError."""
    if isinstance(body, FileBody):
        return body
    try:
        view = memoryview(body)
        if view.c_contiguous:
            return view.cast("B")
    except TypeError:
        pass
    raise TypeError(f"an upload body is a FileBody or bytes-like, not {type(body).__name__}")


class DepotClient(ABC):
    """Operations every depot backend must support.

    The abstract methods are the contract, one per entry of :data:`ROUTES`.
    Two conveniences sit on top of it. :meth:`upload_file` opens a local
    file and hands it to :meth:`upload_bytes` as a :class:`FileBody`, so no
    backend holds the whole file in memory; :meth:`upload_changed` does so
    only when the file's MD5 differs from one recorded earlier.
    """

    @abstractmethod
    def create_article(self, meta: ArticleMeta) -> ArticleRecord:
        """Create a draft article and return its initial record."""

    @abstractmethod
    def upload_bytes(self, article_id: int, name: str, body) -> FileEntry:
        """Store a file under a name, replacing any entry with the same name. ``body``
        is a FileBody or bytes-like; anything else is a TypeError (:func:`upload_body`)."""

    def upload_file(self, article_id: int, local_path) -> FileEntry:
        """Upload a local file under its base name, streamed from disk."""
        with read_local_file(local_path) as body:
            return self.upload_bytes(article_id, Path(local_path).name, body)

    def upload_changed(self, article_id: int, local_path, recorded_md5: str) -> FileEntry | None:
        """Upload a local file as :meth:`upload_file` does unless its MD5 is
        ``recorded_md5``; then return None, with nothing sent or recorded and
        the article left unchecked. Here the file is hashed before the
        upload; :class:`curator.depot.Depot` hashes it once, as it records it."""
        with read_local_file(local_path) as body:
            if md5_of(body, len(body))[0] == recorded_md5:
                return None
        return self.upload_file(article_id, local_path)

    @abstractmethod
    def search_by_tag(self, tag: str) -> list[ArticleRecord]:
        """Return every article (draft or published) carrying the tag."""

    @abstractmethod
    def add_tag(self, article_id: int, tag: str) -> ArticleRecord:
        """Add a tag; adding an existing tag is a no-op."""

    @abstractmethod
    def add_authors(self, article_id: int, author_ids) -> ArticleRecord:
        """Append author ids in order, skipping ones already present."""

    @abstractmethod
    def publish_article(self, article_id: int) -> tuple[str, int]:
        """Publish pending changes; returns (doi, version). The DOI is
        minted on the first publish and identical ever after."""

    @abstractmethod
    def get_article(self, article_id: int) -> ArticleRecord:
        """Fetch the current record."""


@dataclass
class _Reply:
    """Status and body of one HTTP reply, read in full."""

    status_code: int
    content: bytes


def _peer_closed(sock: socket.socket) -> bool:
    """True when an idle connection's socket is readable: the depot sends
    nothing unasked, so that means it closed the connection."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _read_line(reader, status: int = 431) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ValueError(f"a line is longer than {MAX_LINE} bytes", status)
    return line


def read_head(reader) -> tuple[bytes, dict[str, str]]:
    """A request's or reply's first line (b"" at end of input) and fields by lower-case
    name, a repeated field's values joined by ", ". A head past the caps, or with a field
    line a proxy could read as another field or as none (RFC 9112 section 5), raises
    ValueError(message, the status a server answers it with: 400, 414 or 431)."""
    start, headers = _read_line(reader, 414), {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            return start, headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not (colon and name and name == name.strip()) or "\r" in value.rstrip("\n")[:-1]:
            raise ValueError(f"a malformed header line {line[:64]!r}", 400)
        name, value = name.lower(), value.strip(" \t\r\n")
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ValueError(f"more than {MAX_HEADERS} header lines", 431)


def _read_reply(reader) -> tuple[_Reply, bool]:
    """One reply, and whether its connection can carry another; a reply
    without a Content-Length runs until the depot closes the connection."""
    line, headers = read_head(reader)
    if not line:
        raise ConnectionResetError("the depot closed the connection without a reply")
    status = re.fullmatch(rb"HTTP/1\.([01]) (\d{3})(?: .*)?\r?\n", line)
    if status is None:
        raise ValueError(f"not an HTTP/1.x status line: {line[:64]!r}")
    if "transfer-encoding" in headers:
        raise ValueError(f"a reply in transfer coding {headers['transfer-encoding']!r}")
    if "content-length" not in headers:
        return _Reply(int(status[2]), reader.read()), False
    length = content_length(headers["content-length"])
    body = reader.read(length)
    if len(body) < length:
        raise ValueError(f"a reply ended after {len(body)} of {length} bytes")
    keep = status[1] == b"1" and headers.get("connection", "").lower() != "close"
    return _Reply(int(status[2]), body), keep


class HttpDepotClient(DepotClient):
    """Depot client over one HTTP/1.1 keep-alive connection.

    A request and up to UPLOAD_CHUNK bytes of its body leave in one socket
    write; ``https`` certificates are checked with the default SSL context.
    Every call reuses the connection the previous call left idle, or opens
    a new one when there is none or the depot has closed it. A call that
    fails in any way, or whose reply says ``Connection: close``, discards
    its connection. Connection failures (refused, reset, unreachable,
    closed without a reply) and timeouts are retried with the RETRY_BACKOFF
    schedule before raising TransportError, except a POST whose reply timed
    out: the depot may already have applied it, so it is not sent again. A
    request that breaks off because the depot answered it early and closed
    (a 401 before the body is read) gets that answer. Any other failure,
    such as a reply that is not HTTP/1.x, is chunked, ends short of its
    Content-Length or has a head past MAX_LINE or MAX_HEADERS, is
    TransportError at once, and an error reply maps to the error kind named
    in its body. All calls carry a bounded timeout.
    """

    def __init__(self, config: ClientConfig, timeout: float = DEFAULT_TIMEOUT):
        url = urlparse(config.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("base_url must be an http or https URL with a host")
        missing = [
            name
            for name in ("client_key", "client_secret", "token", "token_secret")
            if not getattr(config, name)
        ]
        if missing:
            raise ValueError(f"credential fields must be nonempty: {', '.join(missing)}")
        self._base = config.base_url.rstrip("/")
        self._root = url.path.rstrip("/")
        host = url.netloc.rpartition("@")[2]
        if re.search(r"[\x00-\x1f\x7f]", host + self._root + config.token):
            raise ValueError("base_url and token must hold no control characters")
        self._address = (url.hostname, url.port or (443 if url.scheme == "https" else 80))
        self._tls = url.scheme == "https"
        self._timeout = timeout
        self._headers = {"Host": host, "Authorization": f"token {config.token}"}
        self._sock = self._reader = None  # the kept-alive connection and its reply reader

    def close(self) -> None:
        """Close the kept-alive connection; a later call opens a new one."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> HttpDepotClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open(self) -> None:
        sock = socket.create_connection(self._address, self._timeout)
        # a body's last write must not wait for the depot's ACK (Nagle's algorithm)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self._tls:
            import ssl  # only an https depot needs it

            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=self._address[0])
        self._sock, self._reader = sock, sock.makefile("rb")

    def _send(self, method: str, path: str, data, headers) -> None:
        """Write one request: its head and the first UPLOAD_CHUNK bytes of
        its body in one write, then the rest of the body a chunk at a time."""
        lines = [f"{method} {self._root}{path} HTTP/1.1"]
        lines += [f"{name}: {value}" for name, value in {**self._headers, **headers}.items()]
        if data is not None:
            lines.append(f"Content-Length: {len(data)}")
        if isinstance(data, FileBody):
            data.rewind()  # a request sent again sends the file from its start
            chunks = iter(partial(data.read, UPLOAD_CHUNK), b"")
        else:
            data = data or b""
            chunks = (data[at : at + UPLOAD_CHUNK] for at in range(0, len(data), UPLOAD_CHUNK))
        self._sock.sendall("\r\n".join([*lines, "", ""]).encode("latin-1") + next(chunks, b""))
        for chunk in chunks:
            self._sock.sendall(chunk)

    def _request(self, method: str, path: str, *, data=None, headers=None):
        url = f"{self._base}{path}"
        for delay in (*RETRY_BACKOFF, None):
            if self._sock is not None and _peer_closed(self._sock):
                self.close()  # the request below reconnects, with no retry delay
            sent = False
            try:
                if self._sock is None:
                    self._open()
                try:
                    self._send(method, path, data, headers or {})
                    sent = True
                except (BrokenPipeError, ConnectionResetError) as exc:
                    # The depot may have answered (a 401, say) and closed without
                    # reading the rest of the body: a reply there is the answer.
                    try:
                        reply, keep = _read_reply(self._reader)
                    except (OSError, ValueError):
                        raise exc from None
                else:
                    reply, keep = _read_reply(self._reader)
            except OSError as exc:
                self.close()
                maybe_applied = sent and method == "POST" and isinstance(exc, TimeoutError)
                if delay is None or maybe_applied:
                    raise TransportError(
                        f"{method} {url} failed: {exc.__class__.__name__}"
                    ) from exc
                logger.warning(
                    "transport failure on %s %s; retrying in %.1fs", method, url, delay
                )
                time.sleep(delay)
                continue
            except ValueError as exc:
                self.close()
                raise TransportError(f"{method} {url}: {exc.args[0]}") from exc
            except BaseException:  # such as the IoError of a file that shrank mid-upload
                self.close()
                raise
            if not keep:
                self.close()
            return self._handle_response(method, path, reply)
        raise AssertionError("unreachable")

    @staticmethod
    def _handle_response(method: str, path: str, response: _Reply):
        status = response.status_code
        ok = 200 <= status < 300
        try:
            payload = json.loads(response.content) if response.content else None
        except ValueError as exc:
            if ok:
                raise TransportError(f"{method} {path} returned {status}, not JSON") from exc
            payload = None
        if ok:
            return payload
        kind = payload.get("error") if isinstance(payload, dict) else None
        raise wire_error(kind, status)(f"{method} {path} returned {status}")

    def _call(self, op: str, *args):
        """Send one operation as its route declares and parse the reply."""
        route = ROUTES[op]
        fields = args_to_wire(route.params, args)
        ids = {name: fields.pop(name) for name in route.pattern.groupindex}
        for value in ids.values():
            # Exactly int, as in process: True, 1.0 and "1" name no article.
            if type(value) is not int or not json_carries(value):
                raise no_such_article(value)
        path = route.path.format(**ids)
        # A value the wire cannot carry arrives as missing (a query value or
        # file name that is not UTF-8 text) or null (in JSON), for the depot
        # to reject as it would the value.
        data = headers = None
        if route.method == "GET":
            text = {k: v for k, v in fields.items() if is_utf8_text(v)}
            path += f"?{urlencode(text, quote_via=quote)}" if text else ""
        elif "body" in fields:
            data = fields["body"]
            headers = {"Content-Type": "application/octet-stream"}
            if is_utf8_text(fields["name"]):
                # Header values are Latin-1, so the name travels percent-encoded UTF-8.
                headers[FILE_NAME_HEADER] = quote(fields["name"], safe="")
        else:
            data = json.dumps(
                {name: _json_safe(value) for name, value in fields.items()},
                default=lambda _: None,
            ).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        payload = self._request(route.method, path, data=data, headers=headers)
        try:
            return route.parse(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"{route.method} {path} returned a malformed reply") from exc

    def create_article(self, meta: ArticleMeta) -> ArticleRecord:
        return self.get_article(self._call("create_article", meta))

    def upload_bytes(self, article_id: int, name: str, body) -> FileEntry:
        return self._call("upload_bytes", article_id, name, upload_body(body))

    def search_by_tag(self, tag: str) -> list[ArticleRecord]:
        return self._call("search_by_tag", tag)

    def add_tag(self, article_id: int, tag: str) -> ArticleRecord:
        return self._call("add_tag", article_id, tag)

    def add_authors(self, article_id: int, author_ids) -> ArticleRecord:
        return self._call("add_authors", article_id, author_ids)

    def publish_article(self, article_id: int) -> tuple[str, int]:
        return self._call("publish_article", article_id)

    def get_article(self, article_id: int) -> ArticleRecord:
        return self._call("get_article", article_id)
