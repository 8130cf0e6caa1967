"""In-process reference depot.

A small state machine that implements the full :class:`DepotClient`
contract so the publication workflow can run with no network at all.
Every mutation is appended to an op log for test observability, and the
current article records can optionally persist to a JSONL file so a
restarted process sees the same articles. The HTTP facade reaches it
through :meth:`Depot.handle`, which decodes, calls and encodes with the
operation table in :mod:`curator.client`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

from .client import (
    ARTICLE_KINDS,
    ROUTES,
    ArticleMeta,
    ArticleRecord,
    DepotClient,
    FileEntry,
    args_from_wire,
    read_local_file,
    record_from_wire,
    record_to_wire,
)
from .errors import AlreadyMinted, InvalidMeta, NotFound, NothingToPublish

logger = logging.getLogger(__name__)

# 10.5072 is the reserved DOI test prefix, so minted values can never
# collide with a resolvable DOI.
DOI_PREFIX = "10.5072/mockdepot"


@dataclass
class Snapshot:
    """Frozen copy of one published version; never mutated once stored."""

    version: int
    files: list[FileEntry]
    meta: ArticleMeta


@dataclass
class StoredArticle:
    """Server-side state for one article.

    ``doi`` holds the minted value; it appears on ``head`` only once the
    first publish completes. ``dirty`` tracks whether changes are pending
    since the last publish.
    """

    head: ArticleRecord
    published_versions: list[Snapshot] = field(default_factory=list)
    doi: str | None = None
    dirty: bool = True
    blobs: dict[int, bytes] = field(default_factory=dict)


@dataclass
class DepotState:
    """Whole-depot state: id counters are never reused."""

    next_article_id: int = 1
    next_file_id: int = 1
    articles: dict[int, StoredArticle] = field(default_factory=dict)
    op_log: list[tuple[str, int, str]] = field(default_factory=list)


def _require_text(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidMeta(f"{what} must be nonempty text")
    return value


def _validate_meta(meta: ArticleMeta) -> None:
    _require_text(meta.title, "title")
    if meta.kind not in ARTICLE_KINDS:
        raise InvalidMeta(f"kind must be one of {ARTICLE_KINDS}")
    if not isinstance(meta.description, str):
        raise InvalidMeta("description must be text")
    if not isinstance(meta.category, str):
        raise InvalidMeta("category must be text")
    if not isinstance(meta.tags, (list, tuple)):
        raise InvalidMeta("tags must be a list")
    seen = set()
    for tag in meta.tags:
        _require_text(tag, "tag")
        if tag in seen:
            raise InvalidMeta(f"duplicate tag {tag!r}")
        seen.add(tag)


def _validate_file_name(name) -> str:
    bad = (
        not isinstance(name, str)
        or not name
        or name in (".", "..")
        or "/" in name
        or "\\" in name
    )
    if bad:
        raise InvalidMeta("file name must be a bare name with no directory parts")
    return name


class Depot(DepotClient):
    """Reference depot holding all state in memory.

    All operations are serialized behind one lock, so concurrent callers
    observe a single linear history (the op log). Pass ``state_path`` to
    persist article records across restarts; the op log, version history
    and file bytes are process-local and start fresh each run.
    """

    def __init__(self, state_path=None):
        self.state = DepotState()
        self._lock = threading.RLock()
        self._state_path = Path(state_path) if state_path else None
        if self._state_path is not None and self._state_path.exists():
            self._load()

    # -- helpers -----------------------------------------------------

    def _get(self, article_id: int) -> StoredArticle:
        article = self.state.articles.get(article_id)
        if article is None:
            raise NotFound(f"no such article: {article_id}")
        return article

    @staticmethod
    def _copy_record(record: ArticleRecord) -> ArticleRecord:
        # Round-tripping through the wire form guarantees callers can
        # never alias internal state, and that in-process results carry
        # exactly the information the HTTP facade can.
        return record_from_wire(record_to_wire(record))

    def _log(self, op: str, article_id: int, detail: str) -> None:
        self.state.op_log.append((op, article_id, detail))
        self._save()

    def _save(self) -> None:
        if self._state_path is None:
            return
        lines = [
            json.dumps(record_to_wire(article.head), sort_keys=True)
            for _, article in sorted(self.state.articles.items())
        ]
        tmp = self._state_path.with_name(self._state_path.name + ".tmp")
        tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        os.replace(tmp, self._state_path)

    def _load(self) -> None:
        text = self._state_path.read_text(encoding="utf-8")
        max_file_id = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            record = record_from_wire(json.loads(line))
            self.state.articles[record.article_id] = StoredArticle(
                head=record,
                doi=record.doi,
                dirty=False,
            )
            for entry in record.files:
                max_file_id = max(max_file_id, entry.file_id)
        if self.state.articles:
            self.state.next_article_id = max(self.state.articles) + 1
        self.state.next_file_id = max_file_id + 1
        logger.info(
            "loaded %d article(s) from %s", len(self.state.articles), self._state_path
        )

    # -- contract operations -----------------------------------------

    def create_article(self, meta: ArticleMeta) -> ArticleRecord:
        with self._lock:
            _validate_meta(meta)
            article_id = self.state.next_article_id
            self.state.next_article_id += 1
            head = ArticleRecord(article_id, replace(meta, tags=list(meta.tags)))
            self.state.articles[article_id] = StoredArticle(head=head)
            self._log("create_article", article_id, meta.title)
            return self._copy_record(head)

    def upload_bytes(self, article_id: int, name: str, body: bytes) -> FileEntry:
        """Store file bytes under a name, replacing any same-named entry."""
        with self._lock:
            article = self._get(article_id)
            _validate_file_name(name)
            entry = FileEntry(
                file_id=self.state.next_file_id,
                name=name,
                size=len(body),
                md5=hashlib.md5(bytes(body)).hexdigest(),
            )
            self.state.next_file_id += 1
            article.blobs[entry.file_id] = bytes(body)
            files = article.head.files
            for index, existing in enumerate(files):
                if existing.name == name:
                    files[index] = entry
                    break
            else:
                files.append(entry)
            article.dirty = True
            self._log("upload_file", article_id, name)
            return FileEntry(**vars(entry))

    def upload_file(self, article_id: int, local_path) -> FileEntry:
        body = read_local_file(local_path)
        return self.upload_bytes(article_id, Path(local_path).name, body)

    def search_by_tag(self, tag: str) -> list[ArticleRecord]:
        with self._lock:
            _require_text(tag, "tag")
            return [
                self._copy_record(article.head)
                for _, article in sorted(self.state.articles.items())
                if tag in article.head.meta.tags
            ]

    def add_tag(self, article_id: int, tag: str) -> ArticleRecord:
        with self._lock:
            article = self._get(article_id)
            _require_text(tag, "tag")
            if tag not in article.head.meta.tags:
                article.head.meta.tags.append(tag)
                article.dirty = True
                self._log("add_tag", article_id, tag)
            return self._copy_record(article.head)

    def add_authors(self, article_id: int, author_ids) -> ArticleRecord:
        with self._lock:
            article = self._get(article_id)
            if not isinstance(author_ids, (list, tuple)):
                raise InvalidMeta("author_ids must be a list")
            for author_id in author_ids:
                if isinstance(author_id, bool) or not isinstance(author_id, int):
                    raise InvalidMeta("author ids must be positive integers")
                if author_id <= 0:
                    raise InvalidMeta("author ids must be positive integers")
            added = []
            for author_id in author_ids:
                if author_id not in article.head.authors:
                    article.head.authors.append(author_id)
                    added.append(author_id)
            if added:
                article.dirty = True
                self._log(
                    "add_authors", article_id, ",".join(str(a) for a in added)
                )
            return self._copy_record(article.head)

    def mint_doi(self, article_id: int) -> str:
        with self._lock:
            article = self._get(article_id)
            if article.doi is not None:
                raise AlreadyMinted(f"article {article_id} already has {article.doi}")
            article.doi = f"{DOI_PREFIX}.{article_id}"
            self._log("mint_doi", article_id, article.doi)
            return article.doi

    def publish_article(self, article_id: int) -> tuple[str, int]:
        with self._lock:
            article = self._get(article_id)
            if article.head.status == "published" and not article.dirty:
                raise NothingToPublish(f"article {article_id} has no pending changes")
            doi = article.doi if article.doi is not None else self.mint_doi(article_id)
            article.head.version += 1
            article.head.status = "published"
            article.head.doi = doi
            frozen = self._copy_record(article.head)
            article.published_versions.append(
                Snapshot(version=frozen.version, files=frozen.files, meta=frozen.meta)
            )
            article.dirty = False
            self._log("publish_article", article_id, f"version={article.head.version}")
            return doi, article.head.version

    def get_article(self, article_id: int) -> ArticleRecord:
        with self._lock:
            return self._copy_record(self._get(article_id).head)

    # -- facade entry point -------------------------------------------

    def handle(self, op: str, params: dict):
        """Apply operation ``op`` of :data:`curator.client.ROUTES` to wire-shaped
        ``params`` and return its wire-shaped reply. This is the seam the HTTP
        facade drives; the same table builds the client's requests, which
        keeps the two transports semantically identical by construction."""
        route = ROUTES[op]
        return route.reply(getattr(self, op)(*args_from_wire(route.params, params)))
