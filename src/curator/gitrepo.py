"""Local git interrogation and deterministic source archives.

Archives are assembled from the repository object store rather than a
working-tree copy, so the result is a pure function of the tree, the
commit timestamp and the chosen name: entries are sorted, every
timestamp equals the commit time, and file modes come from the tree.
"""

from __future__ import annotations

import io
import logging
import re
import subprocess
import threading
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

from .errors import IoError, NoCommits, NotARepository, UnknownRef

logger = logging.getLogger(__name__)

COMMIT_HASH_RE = re.compile(r"^[0-9a-f]{40}$")

_REGULAR_MODES = (b"100644", b"100755")


@dataclass
class RepoInfo:
    """What the publisher needs to know about a local repository."""

    head: str
    remote_url: str | None = None


def _run_git(local_path, *args) -> tuple[int, bytes, bytes]:
    try:
        proc = subprocess.run(
            ["git", "-C", str(local_path), *args],
            capture_output=True,
        )
    except OSError as exc:
        raise IoError(f"cannot run git: {exc.strerror or exc}") from exc
    return proc.returncode, proc.stdout, proc.stderr


def resolve_commit(local_path, ref: str) -> str:
    """Resolve a full hash, abbreviated hash or symbolic name to 40 hex."""
    if not isinstance(ref, str) or not ref or ref.startswith("-"):
        raise UnknownRef(f"invalid ref {ref!r}")
    code, out, _ = _run_git(
        local_path, "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"
    )
    if code != 0:
        raise UnknownRef(f"cannot resolve {ref!r} in {local_path}")
    value = out.decode("ascii").strip()
    if not COMMIT_HASH_RE.match(value):
        raise UnknownRef(f"{ref!r} resolved to unexpected object id {value!r}")
    return value


def inspect_repo(local_path) -> RepoInfo:
    """Read head commit and the configured remote URL, if any."""
    path = Path(local_path)
    code, _, _ = _run_git(path, "rev-parse", "--git-dir")
    if code != 0:
        raise NotARepository(f"{path} is not a git repository")
    try:
        head = resolve_commit(path, "HEAD")
    except UnknownRef as exc:
        raise NoCommits(f"{path} has no commits") from exc

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


def _list_tree(local_path, commit: str) -> list[tuple[str, int, bytes]]:
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
        entries.append((rel.decode("utf-8"), int(mode, 8), sha))
    entries.sort(key=lambda item: item[0])
    return entries


def export_archive(local_path, commit: str, dest_path, name: str | None = None) -> Path:
    """Write a zip of the full tree at ``commit`` and return its path.

    The archive places everything under "<name>-<hash[0:7]>/" with the
    repository directory's basename as the default name. Exporting the
    same commit twice yields byte-identical files.
    """
    path = Path(local_path)
    dest = Path(dest_path)
    full = resolve_commit(path, commit)
    if name is None:
        name = path.resolve().name
    stamp = time.gmtime(_commit_timestamp(path, full))[:6]
    prefix = f"{name}-{full[:7]}/"
    entries = _list_tree(path, full)

    # One --buffer process answers every blob id. The ids are written from
    # a second thread, since all of them can overflow a pipe while the
    # replies are still unread; git's lookups then overlap compression.
    reader = subprocess.Popen(
        ["git", "-C", str(path), "cat-file", "--batch", "--buffer"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    ids = b"".join(sha + b"\n" for _, _, sha in entries)
    feeder = threading.Thread(target=_feed, args=(reader.stdin, ids), name="cat-file-feed")
    feeder.start()
    # In memory, zipfile rewrites each local header without a flush to disk.
    buffer = io.BytesIO()
    try:
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
            for rel, mode, sha in entries:
                info = zipfile.ZipInfo(prefix + rel, date_time=stamp)
                info.create_system = 3
                info.external_attr = (mode & 0xFFFF) << 16
                info.compress_type = zipfile.ZIP_DEFLATED
                archive.writestr(info, _read_blob(reader.stdout, sha, path), compresslevel=9)
    finally:
        # Closing stdout first makes git exit on EPIPE, which frees the feeder.
        reader.stdout.close()
        feeder.join()
        reader.wait()
    try:
        dest.write_bytes(buffer.getbuffer())
    except OSError as exc:
        raise IoError(f"cannot write archive {dest}: {exc.strerror or exc}") from exc
    return dest


def _feed(pipe, data: bytes) -> None:
    """Write ``data`` and close ``pipe``; a reader gone early is no error."""
    try:
        with pipe:
            pipe.write(data)
    except OSError:
        pass


def _read_blob(stream, sha: bytes, path: Path) -> bytes:
    header = stream.readline().split()
    if len(header) != 3 or header[0] != sha or header[1] != b"blob":
        raise IoError(f"unexpected object {sha.decode()} in {path}")
    size = int(header[2])
    body = stream.read(size)
    if len(body) != size or stream.read(1) != b"\n":
        raise IoError(f"truncated object {sha.decode()} in {path}")
    return body
