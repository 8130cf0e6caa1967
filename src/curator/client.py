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

import json
import logging
import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import quote, urlencode, urlparse

import requests

from .errors import IoError, TransportError, wire_error

logger = logging.getLogger(__name__)

ARTICLE_KINDS = ("code", "fileset")

DEFAULT_TIMEOUT = 30.0
# Transport failures are retried this many times before surfacing.
RETRY_BACKOFF = (0.5, 1.0, 2.0)
FILE_NAME_HEADER = "X-File-Name"


@dataclass
class ArticleMeta:
    """Descriptive metadata for a depot article (code archive or fileset)."""

    title: str
    description: str = ""
    kind: str = "fileset"
    category: str = ""
    tags: list[str] = field(default_factory=list)


@dataclass
class FileEntry:
    """One stored file within an article version."""

    file_id: int
    name: str
    size: int
    md5: str


@dataclass
class ArticleRecord:
    """Current state of a depot article as seen by clients."""

    article_id: int
    meta: ArticleMeta
    status: str = "draft"  # "draft" | "published"
    version: int = 0
    doi: str | None = None
    files: list[FileEntry] = field(default_factory=list)
    authors: list[int] = field(default_factory=list)


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
        tags=payload.get("tags", []),
    )


def record_to_wire(record: ArticleRecord) -> dict:
    """Flatten a record into the wire-protocol article representation.
    Lists are copied, so the result never aliases ``record``."""
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
        files=[file_entry_from_wire(f) for f in payload.get("files", [])],
        authors=list(payload.get("authors", [])),
    )


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


def read_local_file(local_path) -> bytes:
    """Read a file for upload, mapping OS failures to IoError."""
    try:
        return Path(local_path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {local_path}: {exc.strerror or exc}") from exc


class DepotClient(ABC):
    """Operations every depot backend must support."""

    @abstractmethod
    def create_article(self, meta: ArticleMeta) -> ArticleRecord:
        """Create a draft article and return its initial record."""

    @abstractmethod
    def upload_file(self, article_id: int, local_path) -> FileEntry:
        """Upload a local file, replacing any entry with the same name."""

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


class HttpDepotClient(DepotClient):
    """Depot client over HTTP.

    Connection errors and timeouts are retried with the RETRY_BACKOFF
    schedule before raising TransportError; every other failure maps to
    the error kind named in the response body. All calls carry a bounded
    timeout, so no operation blocks indefinitely.
    """

    def __init__(self, config: ClientConfig, timeout: float = DEFAULT_TIMEOUT):
        if urlparse(config.base_url).scheme not in ("http", "https"):
            raise ValueError("base_url must use an http or https scheme")
        missing = [
            name
            for name in ("client_key", "client_secret", "token", "token_secret")
            if not getattr(config, name)
        ]
        if missing:
            raise ValueError(f"credential fields must be nonempty: {', '.join(missing)}")
        self._base = config.base_url.rstrip("/")
        self._timeout = timeout
        self._session = requests.Session()
        self._session.headers["Authorization"] = f"token {config.token}"

    def _request(self, method: str, path: str, *, data=None, headers=None):
        url = f"{self._base}{path}"
        for delay in (*RETRY_BACKOFF, None):
            try:
                response = self._session.request(
                    method, url, data=data, headers=headers, timeout=self._timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                if delay is None:
                    raise TransportError(
                        f"{method} {url} failed after retries: {exc.__class__.__name__}"
                    ) from exc
                logger.warning(
                    "transport failure on %s %s; retrying in %.1fs", method, url, delay
                )
                time.sleep(delay)
                continue
            except requests.RequestException as exc:
                raise TransportError(f"{method} {url}: {exc}") from exc
            return self._handle_response(method, path, response)
        raise AssertionError("unreachable")

    @staticmethod
    def _handle_response(method: str, path: str, response: requests.Response):
        status = response.status_code
        ok = 200 <= status < 300
        try:
            payload = response.json() if response.content else None
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
        path = route.path.format(**fields)
        for name in route.pattern.groupindex:
            del fields[name]
        # A value the wire cannot carry arrives as missing (a non-text query
        # value) or null (in JSON), for the depot to reject as it would the value.
        data = headers = None
        if route.method == "GET":
            text = {k: v for k, v in fields.items() if isinstance(v, str)}
            path += f"?{urlencode(text, quote_via=quote)}" if text else ""
        elif "body" in fields:
            data = fields["body"]
            headers = {FILE_NAME_HEADER: fields["name"], "Content-Type": "application/octet-stream"}
        else:
            data = json.dumps(fields, default=lambda _: None).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        payload = self._request(route.method, path, data=data, headers=headers)
        try:
            return route.parse(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"{route.method} {path} returned a malformed reply") from exc

    def create_article(self, meta: ArticleMeta) -> ArticleRecord:
        return self.get_article(self._call("create_article", meta))

    def upload_file(self, article_id: int, local_path) -> FileEntry:
        body = read_local_file(local_path)
        return self._call("upload_bytes", article_id, Path(local_path).name, body)

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
