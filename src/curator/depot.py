"""In-process reference depot.

A small state machine that implements the full :class:`DepotClient`
contract so the publication workflow can run with no network at all.
Every mutation hands the touched article's new record to one state rule,
:meth:`Depot._apply`, and is appended to an op log for test observability
and, when a state file is given, as one line to a JSONL log.
An upload's line is the one file entry it added, so a line's size does not
grow with the fileset; every other mutation's line is the article's whole
wire-form record. Replay applies each line with the same rule, so a
restarted process gets the same state; an upload keeps its file's record,
never its bytes. A load that replayed many more lines than the depot holds
live records marks the log, and the process's first write then rewrites it
as those records alone (:meth:`Depot._compact`) instead of appending, so a
load's cost follows what the depot holds, not every change ever made. The
HTTP facade reaches it through :meth:`Depot.handle`,
which decodes, calls and encodes with the operation table in
:mod:`curator.client`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .client import (
    ARTICLE_KINDS,
    ROUTES,
    ArticleMeta,
    ArticleRecord,
    DepotClient,
    FileBody,
    FileEntry,
    args_from_wire,
    file_entry_from_wire,
    file_entry_to_wire,
    is_utf8_text,
    json_carries,
    md5_of,
    no_such_article,
    read_local_file,
    record_from_wire,
    record_to_wire,
    upload_body,
)
from .errors import InvalidMeta, IoError, NotFound, NothingToPublish, ParseError, as_io_error
from .provenance import replace_file

logger = logging.getLogger(__name__)

# 10.5072 is the reserved DOI test prefix, so minted values can never
# collide with a resolvable DOI.
DOI_PREFIX = "10.5072/mockdepot"

# A load marks its log for compaction once it replayed more than twice its
# live records and more than this many lines. Replaying a line costs about
# 20 us, and one rewrite about 0.4 ms plus 30 us per live record (CPython
# 3.11, ext4, 2 vCPUs), so below 64 lines a rewrite costs about as much as
# the whole replay it would shorten.
COMPACT_FLOOR = 64


@dataclass
class StoredArticle:
    """Server-side state for one article: records, never file bytes.

    ``head`` is replaced by each change, and ``doi`` is its DOI. ``dirty``
    tracks whether changes are pending since the last publish.
    ``published_versions`` holds, per published version, the record
    ``get_article`` returned right after that publish: the head of that
    moment, which no later change can alter, since records are frozen.
    Only :meth:`Depot._apply` sets ``dirty`` and grows ``published_versions``.
    """

    head: ArticleRecord
    published_versions: list[ArticleRecord] = field(default_factory=list)
    doi: str | None = None
    dirty: bool = True


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
    if not isinstance(meta.tags, tuple):
        raise InvalidMeta("tags must be a list")
    seen = set()
    for tag in meta.tags:
        _require_text(tag, "tag")
        if tag in seen:
            raise InvalidMeta(f"duplicate tag {tag!r}")
        seen.add(tag)


def _validate_file_name(name) -> str:
    bad = (
        not is_utf8_text(name)
        or not name
        or name in (".", "..")
        or "/" in name
        or "\\" in name
    )
    if bad:
        raise InvalidMeta("file name must be a bare UTF-8 name with no directory parts")
    return name


def _validate_author_ids(author_ids) -> None:
    if not isinstance(author_ids, (list, tuple)):
        raise InvalidMeta("author_ids must be a list")
    for author_id in author_ids:
        if isinstance(author_id, bool) or not isinstance(author_id, int) or author_id <= 0:
            raise InvalidMeta("author ids must be positive integers")
        if not json_carries(author_id):
            raise InvalidMeta("an author id has more digits than JSON carries")


def _validate_replayed(payload: dict, record: ArticleRecord, article: StoredArticle | None) -> None:
    """Hold a replayed state line to the checks the live operations apply,
    ``article`` being its article as replayed so far: after a head, a live
    operation writes the same version or the next, and never a new DOI.
    Authors are checked in ``payload``, before ``record_from_wire`` converts them."""
    if type(record.article_id) is not int or type(record.version) is not int:
        raise InvalidMeta("article_id and version must be integers")
    _validate_meta(record.meta)
    _validate_author_ids(payload.get("authors", []))
    for entry in record.files:
        _validate_file_name(entry.name)
    if record.status == "published" and record.version > 0:
        _require_text(record.doi, "a published record's doi")
    elif (record.status, record.version, record.doi) != ("draft", 0, None):
        raise InvalidMeta("draft: version 0 and no doi; published: version 1 or more and a doi")
    if article is not None:
        previous = article.head
        if record.version - previous.version not in (0, 1):
            raise InvalidMeta(f"version went {previous.version} -> {record.version}")
        if previous.doi is not None and record.doi != previous.doi:
            raise InvalidMeta(f"doi went {previous.doi} -> {record.doi}")


def _live_records(article: StoredArticle) -> list[ArticleRecord]:
    """The lines a load needs to rebuild ``article``: each published version,
    then the head if changes are pending, as a draft's always are."""
    return [*article.published_versions, *([article.head] if article.dirty else [])]


def _log_line(change: dict) -> bytes:
    """A change as the log holds it, whether appended or compacted."""
    return (json.dumps(change, sort_keys=True) + "\n").encode("utf-8")


def _with_file(head: ArticleRecord, entry: FileEntry) -> ArticleRecord:
    """``head`` with ``entry`` where its same-named file stands, or last for a new name."""
    files = tuple(entry if held.name == entry.name else held for held in head.files)
    return replace(head, files=files if entry in files else (*files, entry))


class Depot(DepotClient):
    """Reference depot holding all state in memory.

    All operations are serialized behind one lock, so concurrent callers
    observe a single linear history (the op log). Pass ``state_path`` to
    persist the depot across restarts as a log, one line per mutation,
    replayed through the rule the live operations use (:meth:`_apply`):
    everything but the op log survives a restart. A load that finds the log
    mostly superseded leaves it to the first write to compact.
    """

    def __init__(self, state_path=None):
        self.state = DepotState()
        self._lock = threading.Lock()
        self._state_path = Path(state_path) if state_path else None
        # the lines a load replayed from a log the next write compacts, else 0
        self._compact_from = 0
        if self._state_path is not None and self._state_path.exists():
            self._load()

    # -- helpers -----------------------------------------------------

    def _get(self, article_id: int) -> StoredArticle:
        # Exactly int, as over HTTP: True and 1.0 would otherwise find article 1.
        article = self.state.articles.get(article_id) if type(article_id) is int else None
        if article is None:
            raise no_such_article(article_id)
        return article

    def _apply(self, record: ArticleRecord) -> None:
        """Make ``record`` its article's head. A published record whose
        version differs from the previous head's is frozen as that version;
        any other record leaves changes pending."""
        article = self.state.articles.get(record.article_id)
        frozen = record.status == "published" and (
            article is None or article.head.version != record.version
        )
        if article is None:
            article = self.state.articles[record.article_id] = StoredArticle(record)
        article.head = record
        article.doi = record.doi
        article.dirty = not frozen
        if frozen:
            article.published_versions.append(record)

    def _log(self, op: str, head: ArticleRecord, detail: str) -> None:
        """Apply ``head`` and persist it; an append that fails undoes both."""
        article_id = head.article_id
        before = self.state.articles.get(article_id)
        if before is not None:
            before = replace(before, published_versions=list(before.published_versions))
        self._apply(head)
        self.state.op_log.append((op, article_id, detail))
        try:
            self._save()
        except IoError:
            self.state.op_log.pop()
            if before is None:
                del self.state.articles[article_id]
            else:
                self.state.articles[article_id] = before
            raise

    def _save(self) -> None:
        """Append the newest op-log entry's change: the file entry an upload
        added, or the head of the article any other operation touched. The
        first write after a load that marked the log compacts it instead."""
        if self._state_path is None:
            return
        if self._compact_from:
            self._compact()
            return
        op, article_id, detail = self.state.op_log[-1]
        head = self.state.articles[article_id].head
        if op == "upload_file":
            entry = next(entry for entry in head.files if entry.name == detail)
            change = {"article_id": article_id, "file": file_entry_to_wire(entry)}
        else:
            change = record_to_wire(head)
        with as_io_error("cannot write", self._state_path), open(self._state_path, "ab") as handle:
            handle.write(_log_line(change))

    def _compact(self) -> None:
        """Replace the log with each article's live records, in id order, in
        the lines the live operations write for them. A failed rewrite
        leaves the old log, and the next write tries again."""
        started = time.perf_counter()
        lines = [
            _log_line(record_to_wire(record))
            for _, article in sorted(self.state.articles.items())
            for record in _live_records(article)
        ]
        data = b"".join(lines)
        replace_file(self._state_path, data)
        logger.info(
            "compacted %s: %d line(s) -> %d, %d byte(s) written in %.1f ms",
            self._state_path,
            self._compact_from,
            len(lines),
            len(data),
            (time.perf_counter() - started) * 1e3,
        )
        self._compact_from = 0

    def _load(self) -> None:
        """Replay the log, passing each line to :meth:`_apply` in order, as
        the live operations did when they wrote it. A line holding ``status``
        is a head, as every line was before uploads logged one file entry;
        any other is an upload's, held to the checks ``upload_bytes`` makes."""
        with as_io_error("cannot read", self._state_path):
            data = self._state_path.read_bytes()
        end = data.rfind(b"\n") + 1
        replayed = max_file_id = 0
        for number, line in enumerate(data[:end].split(b"\n"), 1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
                if "status" in payload:
                    record = record_from_wire(payload)
                    _validate_replayed(payload, record, self.state.articles.get(record.article_id))
                    max_file_id = max([max_file_id, *(entry.file_id for entry in record.files)])
                else:
                    head = self._get(payload["article_id"]).head
                    entry = file_entry_from_wire(payload["file"])
                    _validate_file_name(entry.name)
                    if type(entry.file_id) is not int or entry.file_id <= max_file_id:
                        raise InvalidMeta(f"file id {entry.file_id!r} is not above {max_file_id}")
                    record, max_file_id = _with_file(head, entry), entry.file_id
            except (ValueError, KeyError, TypeError, AttributeError, InvalidMeta, NotFound) as exc:
                raise ParseError(
                    f"{self._state_path}, line {number}: not a depot record"
                    f" ({exc.__class__.__name__}: {exc})"
                ) from exc
            replayed += 1
            self._apply(record)
        torn = len(data) - end
        if torn:
            logger.warning(
                "dropping %d byte(s) of a torn final line in %s", torn, self._state_path
            )
            with as_io_error("cannot truncate", self._state_path):
                os.truncate(self._state_path, end)
        if self.state.articles:
            self.state.next_article_id = max(self.state.articles) + 1
        self.state.next_file_id = max_file_id + 1
        live = sum(len(_live_records(article)) for article in self.state.articles.values())
        if replayed > max(2 * live, COMPACT_FLOOR):
            self._compact_from = replayed
        logger.info(
            "loaded %d article(s) from %s: %d line(s) replayed, %d with unpublished"
            " changes, %d torn byte(s) dropped%s",
            len(self.state.articles),
            self._state_path,
            replayed,
            sum(article.dirty for article in self.state.articles.values()),
            torn,
            f"; {live} live record(s), so the next write compacts the log"
            if self._compact_from
            else "",
        )

    # -- contract operations -----------------------------------------

    def create_article(self, meta: ArticleMeta) -> ArticleRecord:
        with self._lock:
            _validate_meta(meta)
            article_id = self.state.next_article_id
            self.state.next_article_id += 1
            head = ArticleRecord(article_id, meta)
            self._log("create_article", head, meta.title)
            return head

    def upload_bytes(self, article_id: int, name: str, body) -> FileEntry:
        """Record a file under a name, replacing any same-named entry; the body
        is not kept, and a :class:`FileBody` is hashed from its start in chunks."""
        return self._record_upload(article_id, name, upload_body(body))

    def upload_changed(self, article_id: int, local_path, recorded_md5: str) -> FileEntry | None:
        """:meth:`DepotClient.upload_changed` with the one hash the upload makes:
        a file whose MD5 is ``recorded_md5`` is read once and records nothing."""
        with read_local_file(local_path) as body:
            return self._record_upload(article_id, Path(local_path).name, body, recorded_md5)

    def _record_upload(
        self, article_id: int, name: str, body, unless_md5: str | None = None
    ) -> FileEntry | None:
        """Hash ``body``, then record it as ``upload_bytes`` does unless its
        MD5 is ``unless_md5``. The body is read before the article and name
        are checked, as the HTTP facade reads a whole request first."""
        with self._lock:
            if isinstance(body, FileBody):
                body.rewind()
                md5, size = md5_of(body, len(body))
            else:
                md5, size = hashlib.md5(body).hexdigest(), body.nbytes
            if md5 == unless_md5:
                return None
            article = self._get(article_id)
            _validate_file_name(name)
            entry = FileEntry(file_id=self.state.next_file_id, name=name, size=size, md5=md5)
            self.state.next_file_id += 1
            self._log("upload_file", _with_file(article.head, entry), name)
            return entry

    def search_by_tag(self, tag: str) -> list[ArticleRecord]:
        with self._lock:
            _require_text(tag, "tag")
            if not is_utf8_text(tag):
                # a query string cannot carry it, so no transport accepts it
                raise InvalidMeta("tag must be UTF-8 text")
            return [
                article.head
                for _, article in sorted(self.state.articles.items())
                if tag in article.head.meta.tags
            ]

    def add_tag(self, article_id: int, tag: str) -> ArticleRecord:
        with self._lock:
            article = self._get(article_id)
            _require_text(tag, "tag")
            head = article.head
            if tag not in head.meta.tags:
                head = replace(head, meta=replace(head.meta, tags=(*head.meta.tags, tag)))
                self._log("add_tag", head, tag)
            return head

    def add_authors(self, article_id: int, author_ids) -> ArticleRecord:
        with self._lock:
            article = self._get(article_id)
            _validate_author_ids(author_ids)
            head = article.head
            added = [a for a in dict.fromkeys(author_ids) if a not in head.authors]
            if added:
                head = replace(head, authors=(*head.authors, *added))
                self._log("add_authors", head, ",".join(str(a) for a in added))
            return head

    def publish_article(self, article_id: int) -> tuple[str, int]:
        with self._lock:
            article = self._get(article_id)
            if article.head.status == "published" and not article.dirty:
                raise NothingToPublish(f"article {article_id} has no pending changes")
            doi = article.head.doi or f"{DOI_PREFIX}.{article_id}"
            version = article.head.version + 1
            head = replace(article.head, status="published", version=version, doi=doi)
            self._log("publish_article", head, f"version={version}")
            return doi, version

    def get_article(self, article_id: int) -> ArticleRecord:
        with self._lock:
            return self._get(article_id).head

    # -- facade entry point -------------------------------------------

    def handle(self, op: str, params: dict):
        """Apply operation ``op`` of :data:`curator.client.ROUTES` to wire-shaped
        ``params`` and return its wire-shaped reply. This is the seam the HTTP
        facade drives; the same table builds the client's requests, which
        keeps the two transports semantically identical by construction."""
        route = ROUTES[op]
        return route.reply(getattr(self, op)(*args_from_wire(route.params, params)))
