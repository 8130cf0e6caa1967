"""Publication workflows.

Every article carries its lookup key from creation, so a fresh run and a
run resuming a failed one take the same path. A software article is
created tagged with its full commit hash, so a published revision is
returned as-is and an interrupted draft is found and completed; its
archive goes from memory to the depot, never through a file. A fileset
is keyed by its article id, recorded by the caller before any upload; a
file is skipped only when the article holds its name and the file still
matches its local MD5 sidecar.

A sidecar confirmed by an upload or a hash match is stamped with the
file's mtime, and is trusted from ``os.stat`` alone while the file's ctime
stays older than the sidecar's. User space cannot set ctime, so a restore
that keeps the mtime (``cp -p``) or a swapped inode is hashed again; as in
git's racy-clean rule, a file changed in the clock tick it is read in is
never stamped. ``publish_data`` offers such a file to the depot with the
digest its sidecar records (:meth:`DepotClient.upload_changed`), so it is
read once: by the in-process depot as it takes the upload, or over HTTP by
the client, which sends it only when it changed.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .client import ArticleMeta, ArticleRecord, DepotClient, md5_of
from .errors import InvalidMeta, IoError, KindMismatch, NothingToPublish, as_io_error
from .gitrepo import COMMIT_HASH_RE, Archive, export_archive

logger = logging.getLogger(__name__)

# One author id per line, e.g. "Jane Doe <fs:554577>"; the scheme is
# documented in the README and easy to swap out.
AUTHOR_TOKEN_RE = re.compile(r"<fs:([0-9]+)>")


@dataclass
class SoftwareIdentity:
    """Everything needed to publish one revision of a software project."""

    name: str
    commit: str
    local_repo: Path
    remote_url: str | None = None


@dataclass
class FilesetSpec:
    """Everything needed to publish a set of data files."""

    title: str
    description: str = ""
    tags: list[str] = field(default_factory=list)
    paths: list = field(default_factory=list)
    existing_article_id: int | None = None


@dataclass
class AuthorEntry:
    display_name: str
    service_author_id: int


class SoftwareResult(NamedTuple):
    article_id: int
    doi: str
    reused: bool


class DataResult(NamedTuple):
    article_id: int
    doi: str
    uploaded: list
    skipped: list


def file_md5(path) -> str:
    """MD5 of a file's current bytes, streamed."""
    with as_io_error("cannot read", path), open(path, "rb", buffering=0) as handle:
        return md5_of(handle, os.fstat(handle.fileno()).st_size)[0]


def sidecar_path(path) -> Path:
    return Path(str(path) + ".md5")


def write_sidecar(path, digest: str) -> None:
    """Write ``digest`` and a newline as ``path``'s sidecar, overwriting it in
    place and then cutting it to size: on ext4, a file truncated to zero and
    written again starts its writeback at ``close`` (``auto_da_alloc``). The
    write still moves the sidecar's times, so it is unstamped until
    :func:`_stamp` vouches for it."""
    line = (digest + "\n").encode("ascii")
    with as_io_error("cannot write sidecar for", path):
        fd = os.open(sidecar_path(path), os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            os.write(fd, line)
            os.ftruncate(fd, len(line))
        finally:
            os.close(fd)


def needs_upload(path) -> bool:
    """True when no sidecar exists or the file changed since it was written.

    A sidecar stamped for the file's current mtime and ctime answers
    without reading the file; otherwise the file is hashed, and a match
    stamps the sidecar.
    """
    vouched, recorded = _check_sidecar(path)
    if vouched:
        return False
    if recorded is None:
        return True
    now, before = _capture(path, {})
    if recorded != file_md5(path):
        return True
    _stamp(path, before, now)
    return False


def _check_sidecar(path) -> tuple[bool, str | None]:
    """What ``os.stat`` alone says of ``path``'s sidecar, as (vouched, recorded):
    vouched when it is stamped for the file's current mtime and ctime, and
    otherwise the digest it records, for a hash of the file to confirm, or
    None when there is no sidecar."""
    sidecar = sidecar_path(path)
    with as_io_error("cannot read", sidecar):
        try:
            mark = sidecar.stat()
        except FileNotFoundError:
            return False, None
        current = _stat(path)
        if mark.st_mtime_ns == current.st_mtime_ns and current.st_ctime_ns < mark.st_ctime_ns:
            return True, None
        return False, sidecar.read_text(encoding="ascii", errors="replace").strip()


def _stat(path) -> os.stat_result:
    with as_io_error("cannot read", path):
        return os.stat(path)


def _capture(path, clocks: dict) -> tuple[int, os.stat_result]:
    """Sample the filesystem clock, then stat ``path``; call before reading it.

    The clock is the mtime of ``path``'s directory just after touching it,
    sampled once per directory in ``clocks`` (an earlier sample is only
    stricter). A touch costs a fraction of creating a probe file and leaves
    nothing behind for pattern expansion to find.
    """
    directory = Path(path).parent
    if directory not in clocks:
        try:
            os.utime(directory)
            clocks[directory] = os.stat(directory).st_mtime_ns
        except OSError:
            clocks[directory] = 0  # no clock, so nothing from here is stamped
    return clocks[directory], _stat(path)


def _stamp(path, before: os.stat_result, now: int) -> None:
    """Mark ``path``'s sidecar as confirmed for the file ``before`` describes.

    A file changed in or after the clock tick of ``now`` is left unstamped,
    and one that moved while it was read gets the sidecar's times reset, so
    the next check hashes it, as it does a sidecar that cannot be stamped.
    """
    if max(before.st_mtime_ns, before.st_ctime_ns) >= now:
        return
    sidecar = sidecar_path(path)
    try:
        os.utime(sidecar, ns=(now, before.st_mtime_ns))
        if _stat_key(os.stat(path)) != _stat_key(before):
            os.utime(sidecar)
    except OSError:
        pass


def _stat_key(info: os.stat_result) -> tuple:
    return info.st_size, info.st_mtime_ns, info.st_ctime_ns, info.st_ino


def parse_authors_file(path) -> list[AuthorEntry]:
    """Extract (display name, author id) pairs from an AUTHORS file.

    A line counts when it carries a ``<fs:ID>`` token of ASCII digits that
    ``int`` parses to a positive id; the display name is whatever precedes
    the token. Comment lines and token-less lines are skipped, and a
    duplicated id keeps its first occurrence. A missing file yields none.
    """
    path = Path(path)
    if not path.exists():
        return []
    with as_io_error("cannot read", path):
        text = path.read_text(encoding="utf-8", errors="replace")
    entries: list[AuthorEntry] = []
    seen: set[int] = set()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = AUTHOR_TOKEN_RE.search(line)
        if match is None:
            continue
        try:
            author_id = int(match.group(1))
        except ValueError:  # more digits than int parses (from Python 3.11)
            continue
        if author_id <= 0 or author_id in seen:
            continue
        seen.add(author_id)
        entries.append(
            AuthorEntry(
                display_name=line[: match.start()].strip(),
                service_author_id=author_id,
            )
        )
    return entries


def _log_software(
    result: SoftwareResult, started: float, archive: Archive | None = None, export_s: float = 0.0
) -> SoftwareResult:
    logger.info(
        "software %s: %s, archive %.1f MiB exported in %.0f ms%s, %.0f ms in all",
        result.article_id,
        "reused" if result.reused else "published",
        len(archive or b"") / (1 << 20),
        export_s * 1000,
        "" if archive is None
        else f" ({archive.cached} entries from the export cache, {archive.deflated} deflated)",
        (time.perf_counter() - started) * 1000,
    )
    return result


class Publisher:
    """Drives the depot client through complete publication workflows.

    One instance runs one publication at a time. Only software articles
    get authors (from AUTHORS files); filesets get none.
    """

    def __init__(self, client: DepotClient, default_category: str = ""):
        self.client = client
        self._default_category = default_category

    # -- software -----------------------------------------------------

    def find_software(self, commit: str):
        """Look up an existing publication of this exact revision.

        Returns (article_id, doi) or None. Several matches should not
        happen in normal use; the lowest article id wins with a warning.
        """
        records = self.client.search_by_tag(commit)
        if not records:
            return None
        if len(records) > 1:
            logger.warning(
                "%d articles carry tag %s; selecting the lowest id", len(records), commit
            )
        chosen = min(records, key=lambda record: record.article_id)
        return chosen.article_id, chosen.doi

    def publish_software(self, identity: SoftwareIdentity) -> SoftwareResult:
        """Publish one revision, or return the existing publication.

        The article is created with the commit hash as its tag, so a run
        that fails at any depot call leaves a draft the next run finds;
        that draft is completed rather than duplicated.
        """
        started = time.perf_counter()
        if not identity.name or "/" in identity.name:
            raise InvalidMeta(f"software name {identity.name!r} must be a nonempty name")
        if not COMMIT_HASH_RE.match(identity.commit or ""):
            raise InvalidMeta("commit must be a full 40- or 64-hex lowercase hash")

        found = self.find_software(identity.commit)
        if found is not None and found[1] is not None:
            return _log_software(SoftwareResult(*found, reused=True), started)

        description = f"Source code of {identity.name} at revision {identity.commit}."
        if identity.remote_url:
            description += f"\nRepository: {identity.remote_url}"
        meta = ArticleMeta(
            title=f"{identity.name} ({identity.commit[:7]})",
            description=description,
            kind="code",
            category=self._default_category,
            tags=(identity.commit,),
        )
        article_id = found[0] if found else self.client.create_article(meta).article_id
        exporting = time.perf_counter()
        archive = export_archive(identity.local_repo, identity.commit, name=identity.name)
        export_s = time.perf_counter() - exporting
        self.client.upload_bytes(article_id, f"{identity.name}-{identity.commit[:7]}.zip", archive)
        authors = parse_authors_file(Path(identity.local_repo) / "AUTHORS")
        if authors:
            self.client.add_authors(
                article_id, [entry.service_author_id for entry in authors]
            )
        doi, _ = self.client.publish_article(article_id)
        result = SoftwareResult(article_id, doi, reused=False)
        return _log_software(result, started, archive, export_s)

    # -- data ---------------------------------------------------------

    def create_fileset(self, spec: FilesetSpec) -> ArticleRecord:
        """Create the draft fileset article that ``spec`` describes."""
        meta = ArticleMeta(
            spec.title, spec.description, "fileset", self._default_category, spec.tags
        )
        return self.client.create_article(meta)

    def publish_data(self, spec: FilesetSpec) -> DataResult:
        """Publish a fileset, uploading only what changed.

        Without ``existing_article_id`` a new article is created first. A
        file is skipped only when the article already holds its name and
        its sidecar still matches, so a new article gets every file and a
        resumed draft gets those it never confirmed. The DOI stays the same
        across versions; when nothing changed, nothing is published.
        """
        started = time.perf_counter()
        paths = [Path(p) for p in spec.paths]
        self._check_fileset(spec, paths)

        if spec.existing_article_id is None:
            record = self.create_fileset(spec)
        else:
            record = self.client.get_article(spec.existing_article_id)
        if record.meta.kind != "fileset":
            raise KindMismatch(
                f"article {record.article_id} holds {record.meta.kind!r}, not a fileset"
            )
        article_id = record.article_id
        held = {entry.name for entry in record.files}

        uploaded = []
        skipped = []
        uploaded_bytes = rehashed = rehashed_bytes = 0
        clocks: dict = {}
        for path in paths:
            vouched, recorded = _check_sidecar(path) if path.name in held else (False, None)
            if vouched:
                skipped.append(path)
                continue
            now, before = _capture(path, clocks)
            if recorded is None:
                entry = self.client.upload_file(article_id, path)
            else:
                # the one hash of the file: the depot's, or the client's before it sends
                rehashed += 1
                rehashed_bytes += before.st_size
                entry = self.client.upload_changed(article_id, path, recorded)
                if entry is None:
                    _stamp(path, before, now)
                    skipped.append(path)
                    continue
            write_sidecar(path, entry.md5)
            _stamp(path, before, now)
            uploaded.append(path)
            uploaded_bytes += entry.size

        try:
            doi, _ = self.client.publish_article(article_id)
        except NothingToPublish:
            # Nothing changed since the record was fetched, so its DOI stands.
            doi = record.doi
            logger.info("article %s unchanged; keeping %s", article_id, doi)
        logger.info(
            "fileset %s: %d files matched, %d skipped, %d rehashed (%.1f MiB),"
            " %d uploaded (%.1f MiB) in %.0f ms",
            article_id,
            len(paths),
            len(skipped),
            rehashed,
            rehashed_bytes / (1 << 20),
            len(uploaded),
            uploaded_bytes / (1 << 20),
            (time.perf_counter() - started) * 1000,
        )
        return DataResult(article_id, doi, uploaded, skipped)

    @staticmethod
    def _check_fileset(spec: FilesetSpec, paths: list[Path]) -> None:
        if not spec.title:
            raise InvalidMeta("fileset title must be nonempty")
        if not paths:
            raise InvalidMeta("fileset needs at least one path")
        names = set()
        for path in paths:
            if path.suffix == ".md5":
                raise InvalidMeta(f"checksum sidecars are never published: {path}")
            if not path.is_file():
                raise IoError(f"no such data file: {path}")
            if path.name in names:
                raise InvalidMeta(f"duplicate file name in fileset: {path.name}")
            names.add(path.name)
