"""Local git interrogation and deterministic source archives.

Archives are assembled from the repository object store rather than a
working-tree copy, so the result is a pure function of the tree, the
commit timestamp and the chosen name: entries are sorted, every
timestamp equals the commit time, and file modes come from the tree.
Blobs are read through one ``git cat-file --batch`` process that takes
its ids from an unlinked temporary file, so no helper thread runs.
The zip is packed here and returned in memory, byte for byte as ``zipfile``
would write it, zip64 records included; a name that is not UTF-8 keeps its
bytes, as ``git archive`` keeps them. A commit time outside what a zip can
store (1980 to 2107) is clamped to the nearest end of that range.

Deflating is most of an export's cost, and a new revision changes few
blobs, so each export keeps the deflated bytes of every blob it packed in
one file, ``curator-deflate-cache`` in the repository's common git
directory (shared by its linked worktrees). A later export, in any
process, deflates only the blobs no earlier export has seen. The file
holds copies of tracked blobs and is trusted like the object store: an
entry is used when a CRC-32 over its whole record (blob id, the blob's
CRC-32 and size, and the deflated bytes) holds, and git reads only the
blobs the cache lacks or rejects. Every git process here runs with
replace refs off, so a blob id names one content, as it does in a fresh
clone, and the archive holds what the commit id names. A damaged,
foreign or unwritable cache costs speed and never changes the archive,
and deleting the file is always safe.
"""

from __future__ import annotations

import contextlib
import logging
import os
import re
import struct
import subprocess
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import IoError, NoCommits, NotARepository, UnknownRef, as_io_error

logger = logging.getLogger(__name__)

COMMIT_HEX = r"[0-9a-f]{64}|[0-9a-f]{40}"  # a full SHA-256 or SHA-1 commit id
COMMIT_HASH_RE = re.compile(rf"^(?:{COMMIT_HEX})$")

_REGULAR_MODES = (b"100644", b"100755")

# zipfile's thresholds: a size or offset past ZIP64_LIMIT, or more entries
# than ZIP_FILECOUNT_LIMIT, needs a zip64 record.
ZIP64_LIMIT = (1 << 31) - 1
ZIP_FILECOUNT_LIMIT = (1 << 16) - 1

_MASK32 = 0xFFFFFFFF
_DOS_FIRST = (1980, 1, 1, 0, 0, 0)
_DOS_LAST = (2107, 12, 31, 23, 59, 59)
_LOCAL = struct.Struct("<4s2B4HL2L2H")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_END64 = struct.Struct("<4sQ2H2L4Q")
_LOCATOR64 = struct.Struct("<4sLQL")

_LEVEL = 9
_CACHE_NAME = "curator-deflate-cache"
# The cache holds only what this format, level and zlib produce; any other
# header means the file counts as empty and is replaced.
_CACHE_HEADER = f"curator deflate cache 2 level {_LEVEL} zlib {zlib.ZLIB_RUNTIME_VERSION}\n".encode()
# blob id (hex, zero-padded), blob CRC-32 and size, size of the deflated bytes
_CACHE_ENTRY = struct.Struct("<64sLQQ")
# a record: a CRC-32 of the entry and the deflated bytes, then the entry
_CACHE_RECORD = struct.Struct("<L" + _CACHE_ENTRY.format[1:])
# what an export keeps of each entry: the entry, where the archive holds its
# deflated bytes, and whether they were deflated afresh
_KEPT = struct.Struct(_CACHE_ENTRY.format + "Q?")


class Archive(bytearray):
    """A zip in memory, with how many entries came from the deflate cache."""

    cached = 0
    deflated = 0


@dataclass
class RepoInfo:
    """What the publisher needs to know about a local repository."""

    head: str
    remote_url: str | None = None


def _git_env() -> dict[str, str]:
    """The environment of every git process here: with replace refs off, a
    blob id names one content, as it does in a fresh clone."""
    return {**os.environ, "GIT_NO_REPLACE_OBJECTS": "1"}


def _run_git(local_path, *args) -> tuple[int, bytes, bytes]:
    with as_io_error("cannot run git"):
        proc = subprocess.run(
            ["git", "-C", str(local_path), *args], capture_output=True, env=_git_env()
        )
    return proc.returncode, proc.stdout, proc.stderr


def resolve_commit(local_path, ref: str) -> str:
    """Resolve a full hash, abbreviated hash or symbolic name to a full commit id."""
    return _rev_parse(local_path, ref)[0]


def _rev_parse(local_path, ref: str) -> tuple[str, Path]:
    """The commit ``ref`` names, and the repository's common git directory."""
    if not isinstance(ref, str) or not ref or ref.startswith("-"):
        raise UnknownRef(f"invalid ref {ref!r}")
    code, out, _ = _run_git(
        local_path, "rev-parse", "--git-common-dir", "--verify", "--quiet", f"{ref}^{{commit}}"
    )
    if code != 0:
        raise UnknownRef(f"cannot resolve {ref!r} in {local_path}")
    # git prints the directory relative to local_path, or absolute
    git_dir, _, value = out.rstrip(b"\n").rpartition(b"\n")
    value = value.decode("ascii")
    if not COMMIT_HASH_RE.match(value):
        raise UnknownRef(f"{ref!r} resolved to unexpected object id {value!r}")
    return value, Path(local_path) / os.fsdecode(git_dir)


def inspect_repo(local_path) -> RepoInfo:
    """Read head commit and the configured remote URL, if any."""
    path = Path(local_path)
    code, out, _ = _run_git(path, "rev-parse", "--verify", "--quiet", "HEAD^{commit}")
    if code == 128:  # git's status outside a repository, or for a missing directory
        raise NotARepository(f"{path} is not a git repository")
    head = out.decode("ascii", "replace").strip()
    if code != 0 or not COMMIT_HASH_RE.match(head):
        raise NoCommits(f"{path} has no commits")

    remote_url = None
    code, out, _ = _run_git(path, "config", "--get-regexp", r"^remote\..*\.url$")
    if code == 0 and out.strip():
        lines = out.decode("utf-8", "replace").strip().splitlines()
        key, _, remote_url = lines[0].partition(" ")
        if len(lines) > 1:
            logger.warning(
                "repository %s has %d remote urls; using %s", path, len(lines), key
            )
    return RepoInfo(head=head, remote_url=remote_url or None)


def _commit_timestamp(local_path, commit: str) -> int:
    code, out, err = _run_git(local_path, "show", "-s", "--format=%ct", commit)
    if code != 0:
        raise UnknownRef(f"cannot read commit {commit!r}: {err.decode(errors='replace').strip()}")
    return int(out.split()[0])


def _list_tree(local_path, commit: str) -> list[tuple[bytes, int, bytes]]:
    code, out, err = _run_git(local_path, "ls-tree", "-r", "-z", commit)
    if code != 0:
        raise UnknownRef(f"cannot list tree of {commit!r}: {err.decode(errors='replace').strip()}")
    entries = []
    for chunk in out.split(b"\0"):
        if not chunk:
            continue
        head, _, rel = chunk.partition(b"\t")
        mode, kind, sha = head.split()
        if mode not in _REGULAR_MODES:
            logger.warning(
                "skipping non-regular entry %s (mode %s)",
                rel.decode("utf-8", "replace"),
                mode.decode(),
            )
            continue
        entries.append((rel, int(mode, 8), sha))
    entries.sort()
    return entries


def export_archive(local_path, commit: str, name: str | None = None) -> Archive:
    """Return a zip of the full tree at ``commit``.

    The archive places everything under "<name>-<hash[0:7]>/" with the
    repository directory's basename as the default name. Exporting the
    same commit twice yields byte-identical archives, whatever the state
    of the deflate cache; the archive counts the entries it took from
    that cache and those it deflated.
    """
    path = Path(local_path)
    full, git_dir = _rev_parse(path, commit)
    if name is None:
        name = path.resolve().name
    dos_time = _dos_time(_commit_timestamp(path, full))
    prefix = f"{name}-{full[:7]}/".encode("utf-8", "surrogateescape")
    entries = _list_tree(path, full)

    # Each entry is appended as it is packed, so the archive is held once.
    archive = Archive()
    central: list[bytes] = []
    with _DeflateCache(git_dir / _CACHE_NAME) as cache:
        # Hits are known before git starts, so git reads only the blobs the
        # cache lacks or rejects; a hit's bytes are read again as it is
        # packed, so the export holds one at a time.
        missed = {sha for _, _, sha in entries if sha not in cache.index}
        with _cat_file(path, [sha for _, _, sha in entries if sha in missed]) as blobs:
            for rel, mode, sha in entries:
                new = sha in missed
                if new:
                    body = _read_blob(blobs, sha, path)
                    crc, size = zlib.crc32(body), len(body)
                    # a raw deflate stream; zlib.compress accepts wbits only from Python 3.11
                    deflate = zlib.compressobj(_LEVEL, zlib.DEFLATED, -15)
                    data = deflate.compress(body) + deflate.flush()
                else:
                    hit = cache.take(sha)
                    if hit is None:  # no export writes a record in place
                        raise IoError(f"deflate cache {cache.path} changed during the export")
                    crc, size, data = hit
                central.append(_zip_entry(archive, prefix + rel, mode, crc, size, data, dos_time))
                cache.keep(sha, crc, size, len(data), len(archive) - len(data), new)
    start = len(archive)
    archive += b"".join(central)
    archive += _zip_end(len(central), start, len(archive) - start)
    cache.save(archive)
    archive.cached, archive.deflated = len(entries) - cache.new, cache.new
    return archive


@contextlib.contextmanager
def _cat_file(path: Path, ids: list[bytes]):
    """The replies of one ``git cat-file --batch --buffer`` process to ``ids``,
    or None with no process when there are none. git reads the ids from a
    file, not a pipe, so nothing has to keep writing them while its replies
    are read, and its lookups overlap compression."""
    if not ids:
        yield None
        return
    with as_io_error("cannot run git"), tempfile.TemporaryFile() as id_file:
        id_file.write(b"".join(sha + b"\n" for sha in ids))
        id_file.seek(0)
        reader = subprocess.Popen(
            ["git", "-C", str(path), "cat-file", "--batch", "--buffer"],
            stdin=id_file,
            stdout=subprocess.PIPE,
            env=_git_env(),
        )
    # Leaving the block closes git's stdout first, so a git still writing
    # exits on EPIPE, and then waits for it.
    with reader:
        yield reader.stdout


def _dos_time(seconds: int) -> tuple[int, int]:
    """The zip (time, date) fields for a UTC time, clamped to 1980-2107."""
    stamp = time.gmtime(seconds)[:6]
    clamped = min(max(stamp, _DOS_FIRST), _DOS_LAST)
    if clamped != stamp:
        logger.warning("commit time %s UTC does not fit in a zip; entries carry %s", stamp, clamped)
    year, month, day, hour, minute, second = clamped
    return hour << 11 | minute << 5 | second // 2, (year - 1980) << 9 | month << 5 | day


def _zip_entry(
    archive: bytearray, raw: bytes, mode: int, crc: int, size: int, data: bytes, dos_time
) -> bytes:
    """Append one file's local header and deflated ``data`` (of ``size`` bytes with
    CRC-32 ``crc``) to ``archive``, as ``zipfile``'s ``writestr`` lays them out at
    compresslevel 9, and return its central record."""
    offset = len(archive)
    # as git archive does, only a non-ASCII name that is valid UTF-8 is flagged as UTF-8
    utf8 = not raw.isascii() and raw.decode("utf-8", "ignore").encode("utf-8") == raw
    flags = 0x800 if utf8 else 0
    csize = len(data)
    # zipfile decides on the local zip64 field before deflating, from a bound
    # on the deflated size, and masks both sizes beside it (since Python
    # 3.11.4; before, it left them unmasked); the central record looks at
    # the real sizes.
    zip64 = size * 1.05 > ZIP64_LIMIT
    local_extra = struct.pack("<2H2Q", 1, 16, size, csize) if zip64 else b""
    head = _LOCAL.pack(
        b"PK\x03\x04", 45 if zip64 else 20, 0, flags, 8, *dos_time, crc,
        *((_MASK32, _MASK32) if zip64 else (csize, size)), len(raw), len(local_extra),
    )
    wide = [size, csize] if size > ZIP64_LIMIT or csize > ZIP64_LIMIT else []
    sizes = (_MASK32, _MASK32) if wide else (csize, size)
    if offset > ZIP64_LIMIT:
        wide.append(offset)
    extra = struct.pack(f"<2H{len(wide)}Q", 1, 8 * len(wide), *wide) if wide else b""
    version = 45 if zip64 or wide else 20
    record = _CENTRAL.pack(
        b"PK\x01\x02", version, 3, version, 0, flags, 8, *dos_time, crc, *sizes,
        len(raw), len(extra), 0, 0, 0, (mode & 0xFFFF) << 16,
        _MASK32 if offset > ZIP64_LIMIT else offset,
    )
    archive += head + raw + local_extra
    archive += data
    return record + raw + extra


def _zip_end(count: int, start: int, size: int) -> bytes:
    """End records for ``count`` central records of ``size`` bytes at ``start``."""
    tail = b""
    if count > ZIP_FILECOUNT_LIMIT or start > ZIP64_LIMIT or size > ZIP64_LIMIT:
        tail = _END64.pack(b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, size, start)
        tail += _LOCATOR64.pack(b"PK\x06\x07", 0, start + size, 1)
        count, size, start = min(count, 0xFFFF), min(size, _MASK32), min(start, _MASK32)
    return tail + _END.pack(b"PK\x05\x06", 0, 0, count, count, size, start, 0)


def _read_blob(stream, sha: bytes, path: Path) -> bytes:
    header = stream.readline().split()
    if len(header) != 3 or header[0] != sha or header[1] != b"blob":
        raise IoError(f"unexpected object {sha.decode()} in {path}")
    size = int(header[2])
    body = stream.read(size)
    if len(body) != size or stream.read(1) != b"\n":
        raise IoError(f"truncated object {sha.decode()} in {path}")
    return body


class _DeflateCache:
    """The deflated blobs of earlier exports: ``_CACHE_HEADER``, then per blob a
    ``_CACHE_RECORD`` and its deflated bytes. An export appends the records it
    deflated in one write, so appends never split a record; a file that was
    missing, foreign or torn, or holds over twice the records the export used,
    is written anew with only those. Opening the file reads it through once
    and indexes each record whose CRC-32 holds; an ``OSError`` here is logged
    and ignored. Both the index and the entries kept are small per blob, so
    the export holds little beside the archive."""

    def __init__(self, path: Path):
        self.path, self.file, self.index, self.kept = path, None, {}, bytearray()
        self.records = self.new = 0
        self.whole = False  # a matching header and only whole records

    def __enter__(self) -> _DeflateCache:
        try:
            self.file = open(self.path, "rb")
            end, offset = os.fstat(self.file.fileno()).st_size, len(_CACHE_HEADER)
            if self.file.read(offset) != _CACHE_HEADER:
                return self
            while offset + _CACHE_RECORD.size <= end:
                head = self.file.read(_CACHE_RECORD.size)
                check, sha, *_, csize = _CACHE_RECORD.unpack(head)
                if offset + _CACHE_RECORD.size + csize > end:
                    break
                if zlib.crc32(self.file.read(csize), zlib.crc32(head[4:])) == check:
                    self.index[sha.rstrip(b"\0")] = offset
                offset += _CACHE_RECORD.size + csize
                self.records += 1
            self.whole = offset == end
        except FileNotFoundError:
            pass
        except (OSError, struct.error) as exc:
            logger.debug("deflate cache %s not read: %s", self.path, exc)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.file is not None:
            self.file.close()

    def take(self, sha: bytes) -> tuple[int, int, bytes] | None:
        """Blob ``sha``'s CRC-32 and size and its cached deflated bytes, if the
        CRC-32 of its record holds."""
        offset = self.index.get(sha)
        if offset is None:
            return None
        try:
            self.file.seek(offset)
            head = self.file.read(_CACHE_RECORD.size)
            check, _, crc, size, csize = _CACHE_RECORD.unpack(head)
            data = self.file.read(csize)
        except (OSError, struct.error) as exc:
            logger.debug("deflate cache %s not read: %s", self.path, exc)
            return None
        if len(data) != csize or zlib.crc32(data, zlib.crc32(head[4:])) != check:
            return None
        return crc, size, data

    def keep(self, sha: bytes, crc: int, size: int, csize: int, start: int, new: bool) -> None:
        """Note that the archive holds the ``csize`` deflated bytes of blob
        ``sha`` at ``start``."""
        self.kept += _KEPT.pack(sha, crc, size, csize, start, new)
        self.new += new

    def save(self, archive: bytearray) -> None:
        """Write back the entries the export used, their bytes taken from ``archive``."""
        used = len(self.kept) // _KEPT.size
        append = self.whole and self.records + self.new <= 2 * used
        try:
            with memoryview(archive) as view:
                if append and self.new:
                    with open(self.path, "ab", buffering=0) as out:  # one write(2)
                        out.write(b"".join(_cache_parts(view, self.kept, new_only=True)))
                elif not append:
                    fd, temp = tempfile.mkstemp(prefix=f"{_CACHE_NAME}.", dir=self.path.parent)
                    try:
                        with open(fd, "wb") as out:
                            out.write(_CACHE_HEADER)
                            out.writelines(_cache_parts(view, self.kept, new_only=False))
                        os.replace(temp, self.path)
                    except BaseException:
                        os.unlink(temp)
                        raise
        except OSError as exc:
            logger.debug("deflate cache %s not written: %s", self.path, exc)


def _cache_parts(view: memoryview, kept: bytearray, new_only: bool):
    for *fields, start, new in _KEPT.iter_unpack(kept):
        if new or not new_only:
            entry, data = _CACHE_ENTRY.pack(*fields), view[start : start + fields[-1]]
            yield zlib.crc32(data, zlib.crc32(entry)).to_bytes(4, "little") + entry
            yield data
