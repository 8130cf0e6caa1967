from __future__ import annotations

import io
import logging
import os
import random
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

import pytest

from conftest import commit_all, git, make_repo, make_sim_dir

import curator.cli as cli
from curator import gitrepo
from curator.errors import IoError, NoCommits, NotARepository, UnknownRef
from curator.gitrepo import COMMIT_HASH_RE, export_archive, inspect_repo, resolve_commit

# GIT_COMMITTER_DATE in conftest is 2014-05-23T15:22:23+01:00; zip stores
# DOS times with 2-second resolution, so seconds round down to 22.
COMMIT_UTC = (2014, 5, 23, 14, 22, 22)


def test_inspect_matches_rev_parse(tmp_path):
    repo = make_repo(tmp_path / "repo")
    info = inspect_repo(repo)
    assert info.head == git(repo, "rev-parse", "HEAD")
    assert COMMIT_HASH_RE.match(info.head)
    assert info.remote_url is None


def test_inspect_reads_remote_url(tmp_path):
    repo = make_repo(tmp_path / "repo", remote="https://example.org/wave.git")
    assert inspect_repo(repo).remote_url == "https://example.org/wave.git"


def test_inspect_first_remote_wins_with_warning(tmp_path, caplog):
    repo = make_repo(tmp_path / "repo", remote="https://example.org/first.git")
    git(repo, "remote", "add", "mirror", "https://example.org/second.git")
    with caplog.at_level(logging.WARNING):
        info = inspect_repo(repo)
    assert info.remote_url == "https://example.org/first.git"
    assert any("remote" in record.message for record in caplog.records)


def test_inspect_starts_two_git_processes(tmp_path, monkeypatch):
    repo = make_repo(tmp_path / "repo", remote="https://example.org/first.git")
    commands, real_run = [], subprocess.run

    def run(args, **kwargs):
        commands.append(args[3])
        return real_run(args, **kwargs)

    monkeypatch.setattr(gitrepo.subprocess, "run", run)
    info = inspect_repo(repo)
    monkeypatch.undo()
    assert commands == ["rev-parse", "config"]
    assert info.head == git(repo, "rev-parse", "HEAD")


def test_inspect_rejects_non_repo(tmp_path):
    with pytest.raises(NotARepository):
        inspect_repo(tmp_path)
    with pytest.raises(NotARepository):
        inspect_repo(tmp_path / "missing")


def test_inspect_rejects_empty_repo(tmp_path):
    repo = tmp_path / "bare"
    repo.mkdir()
    subprocess.run(["git", "-C", str(repo), "init", "-q", "-b", "main"], check=True)
    with pytest.raises(NoCommits):
        inspect_repo(repo)


def test_resolve_symbolic_and_abbreviated(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    assert resolve_commit(repo, "HEAD") == head
    assert resolve_commit(repo, head[:8]) == head
    assert resolve_commit(repo, "main") == head


def test_resolve_unknown_ref(tmp_path):
    repo = make_repo(tmp_path / "repo")
    with pytest.raises(UnknownRef):
        resolve_commit(repo, "deadbeef")
    with pytest.raises(UnknownRef):
        resolve_commit(repo, "--flags-are-not-refs")
    with pytest.raises(UnknownRef):
        resolve_commit(repo, "")


def test_export_same_commit_twice_is_byte_identical(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    first = export_archive(repo, head)
    second = export_archive(repo, head)
    assert first == second


def test_archive_lists_exactly_the_tree_under_prefix(tmp_path):
    repo = make_repo(
        tmp_path / "wavesolver",
        files={"a.txt": "alpha\n", "b/c.txt": "nested\n"},
    )
    head = git(repo, "rev-parse", "HEAD")
    zipped = export_archive(repo, head)
    with zipfile.ZipFile(io.BytesIO(zipped)) as archive:
        names = archive.namelist()
    prefix = f"wavesolver-{head[:7]}/"
    assert names == [f"{prefix}a.txt", f"{prefix}b/c.txt"]


def test_archive_entries_sorted_lexicographically(tmp_path):
    repo = make_repo(
        tmp_path / "repo",
        files={"z.txt": "z", "a.txt": "a", "m/inner.txt": "m", "b.txt": "b"},
    )
    head = git(repo, "rev-parse", "HEAD")
    with zipfile.ZipFile(io.BytesIO(export_archive(repo, head))) as archive:
        names = archive.namelist()
    assert names == sorted(names)


def test_archive_timestamps_equal_commit_time(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    with zipfile.ZipFile(io.BytesIO(export_archive(repo, head))) as archive:
        stamps = {info.date_time for info in archive.infolist()}
    assert stamps == {COMMIT_UTC}


def _clean_checkout(repo: Path, commit: str, dest: Path) -> Path:
    subprocess.run(
        ["git", "clone", "-q", "--no-checkout", str(repo), str(dest)], check=True
    )
    subprocess.run(["git", "-C", str(dest), "checkout", "-q", commit], check=True)
    return dest


def _tree_bytes(root: Path) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and ".git" not in path.parts
    }


def test_unpacked_archive_equals_clean_checkout(tmp_path):
    repo = make_repo(
        tmp_path / "repo",
        files={
            "solver.c": "int solve(void);\n",
            "data/mesh.bin": bytes(range(200)),
            "docs/readme.txt": "usage\n",
        },
    )
    (repo / "later.txt").write_text("second commit\n")
    head = commit_all(repo, "add later")

    zipped = export_archive(repo, head)
    unpacked = tmp_path / "unpacked"
    with zipfile.ZipFile(io.BytesIO(zipped)) as archive:
        archive.extractall(unpacked)
    archive_root = unpacked / f"repo-{head[:7]}"

    checkout = _clean_checkout(repo, head, tmp_path / "checkout")
    assert _tree_bytes(archive_root) == _tree_bytes(checkout)


def test_export_accepts_abbreviated_and_older_commits(tmp_path):
    repo = make_repo(tmp_path / "repo", files={"only.txt": "first\n"})
    first = git(repo, "rev-parse", "HEAD")
    (repo / "more.txt").write_text("second\n")
    commit_all(repo, "second")

    with zipfile.ZipFile(io.BytesIO(export_archive(repo, first[:10]))) as archive:
        names = archive.namelist()
    assert names == [f"repo-{first[:7]}/only.txt"]


def test_export_unknown_commit(tmp_path):
    repo = make_repo(tmp_path / "repo")
    with pytest.raises(UnknownRef):
        export_archive(repo, "0" * 40)


def test_export_skips_symlinks_with_warning(tmp_path, caplog):
    repo = make_repo(tmp_path / "repo", files={"real.txt": "content\n"})
    (repo / "alias").symlink_to("real.txt")
    head = commit_all(repo, "add symlink")
    with caplog.at_level(logging.WARNING):
        zipped = export_archive(repo, head)
    with zipfile.ZipFile(io.BytesIO(zipped)) as archive:
        names = archive.namelist()
    assert names == [f"repo-{head[:7]}/real.txt"]
    assert any("alias" in record.message for record in caplog.records)


def test_export_preserves_executable_mode(tmp_path):
    repo = make_repo(tmp_path / "repo", files={"run.sh": "#!/bin/sh\n", "plain.txt": "x\n"})
    os.chmod(repo / "run.sh", 0o755)
    head = commit_all(repo, "make executable")
    with zipfile.ZipFile(io.BytesIO(export_archive(repo, head))) as archive:
        modes = {
            info.filename.split("/", 1)[1]: info.external_attr >> 16
            for info in archive.infolist()
        }
    assert modes["run.sh"] == 0o100755
    assert modes["plain.txt"] == 0o100644


def test_export_honors_name_override(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    zipped = export_archive(repo, head, name="custom")
    with zipfile.ZipFile(io.BytesIO(zipped)) as archive:
        assert archive.namelist()[0].startswith(f"custom-{head[:7]}/")


def test_name_that_is_not_utf8_is_stored_raw(tmp_path, monkeypatch):
    # git archive's rule: the UTF-8 flag marks only a non-ASCII name that is
    # valid UTF-8, and any other name keeps its bytes without the flag
    repo = make_repo(tmp_path / "repo", files={"café.txt": "utf-8\n", "plain.txt": "ascii\n"})
    (repo / os.fsdecode(b"caf\xe9.dat")).write_text("latin-1\n")
    head = commit_all(repo, "a latin-1 name")
    with zipfile.ZipFile(io.BytesIO(export_archive(repo, head))) as archive:
        # zipfile decodes a name without the flag as cp437, which maps every byte
        stored = {
            info.filename.encode("utf-8" if info.flag_bits & 0x800 else "cp437"): info.flag_bits
            for info in archive.infolist()
        }
    prefix = f"repo-{head[:7]}/".encode()
    assert stored == {
        prefix + b"caf\xe9.dat": 0,
        prefix + "café.txt".encode(): 0x800,
        prefix + b"plain.txt": 0,
    }
    monkeypatch.setenv("CURATOR_CONFIG", str(tmp_path / "unset-config"))
    project = make_sim_dir(tmp_path / "sim") / "top_hat.xml"
    argv = ["publish-software", "-p", str(project), "--backend", "mock", "--repo", str(repo)]
    assert cli.run(argv) == 0


def _fast_import_repo(root: Path, files: dict, existing: dict | None = None) -> str:
    """One commit holding ``files`` (path -> bytes) inline and ``existing``
    (path -> blob id already in the store), written with git fast-import."""
    root.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "-C", str(root), "init", "-q", "-b", "main"], check=True)
    stamp = "Alex Fixture <alex@example.org> 1400854943 +0100"
    parts = [f"commit refs/heads/main\nauthor {stamp}\ncommitter {stamp}\ndata 5\nbulk\n"]
    for rel, sha in (existing or {}).items():
        parts.append(f"M 100644 {sha} {rel}\n")
    for rel, body in files.items():
        parts.append(f"M 100644 inline {rel}\ndata {len(body)}\n{body.decode()}\n")
    subprocess.run(
        ["git", "-C", str(root), "fast-import", "--quiet"],
        input="".join(parts).encode(),
        check=True,
    )
    return git(root, "rev-parse", "HEAD")


def _bulk_files(count: int) -> dict:
    return {f"d{index % 7}/f{index:05d}.txt": b"line %d\n" % index for index in range(count)}


def test_export_of_a_tree_larger_than_a_pipe_is_complete(tmp_path):
    # 3000 ids are about 120 KiB of cat-file input, more than a pipe holds
    files = _bulk_files(3000)
    head = _fast_import_repo(tmp_path / "bulk", files)
    zipped = export_archive(tmp_path / "bulk", head)
    unpacked = tmp_path / "unpacked"
    with zipfile.ZipFile(io.BytesIO(zipped)) as archive:
        archive.extractall(unpacked)
    assert _tree_bytes(unpacked / f"bulk-{head[:7]}") == files


def test_export_with_a_missing_blob_raises_and_leaves_nothing_running(tmp_path):
    repo = tmp_path / "broken"
    repo.mkdir()
    subprocess.run(["git", "-C", str(repo), "init", "-q", "-b", "main"], check=True)
    # a loose blob listed first, so git still has thousands of ids to answer
    (repo / "lost.txt").write_text("lost\n")
    lost = git(repo, "hash-object", "-w", "lost.txt")
    head = _fast_import_repo(repo, _bulk_files(3000), existing={"0-lost.txt": lost})
    (repo / ".git" / "objects" / lost[:2] / lost[2:]).unlink()
    before = threading.active_count()
    with pytest.raises(IoError):
        export_archive(repo, head)
    assert threading.active_count() == before


@pytest.mark.parametrize("stage", ["id file", "git"])
def test_export_that_cannot_start_cat_file_raises_io_error(tmp_path, monkeypatch, stage):
    repo = make_repo(tmp_path / "repo")
    popen = subprocess.Popen

    def refuse(*args, **kwargs):
        raise OSError(24, "Too many open files")

    def refuse_cat_file(argv, *args, **kwargs):
        return refuse() if "cat-file" in argv else popen(argv, *args, **kwargs)

    if stage == "id file":
        monkeypatch.setattr(gitrepo.tempfile, "TemporaryFile", refuse)
    else:
        monkeypatch.setattr(gitrepo.subprocess, "Popen", refuse_cat_file)
    with pytest.raises(IoError, match="Too many open files"):
        export_archive(repo, "HEAD")


def _zipfile_reference(repo: Path, name: str) -> bytes:
    """The archive of HEAD as ``zipfile`` writes it, blob by blob."""
    head = git(repo, "rev-parse", "HEAD")
    stamp = time.gmtime(int(git(repo, "show", "-s", "--format=%ct", head)))[:6]
    listing = subprocess.run(
        ["git", "-C", str(repo), "ls-tree", "-r", "-z", head], capture_output=True, check=True
    ).stdout
    entries = sorted(
        (rel.decode(), int(mode, 8), sha.decode())
        for meta, _, rel in (chunk.partition(b"\t") for chunk in listing.split(b"\0") if chunk)
        for mode, _, sha in [meta.split()]
    )
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for rel, mode, sha in entries:
            body = subprocess.run(
                ["git", "-C", str(repo), "cat-file", "blob", sha], capture_output=True, check=True
            ).stdout
            info = zipfile.ZipInfo(f"{name}-{head[:7]}/{rel}", date_time=stamp)
            info.create_system = 3
            info.external_attr = mode << 16
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, body, compresslevel=9)
    return buffer.getvalue()


def _noise(size: int, seed: int) -> bytes:
    # deflate cannot shrink random bytes, so these sizes survive compression
    return random.Random(seed).randbytes(size)


def test_export_equals_zipfile_byte_for_byte(tmp_path):
    repo = make_repo(
        tmp_path / "repo",
        files={
            "données/éphémère.txt": "non-ASCII path\n",
            "run.sh": "#!/bin/sh\n",
            "empty.txt": b"",
            "mesh/noise.bin": _noise(70_000, 1),
            "mesh/grid.txt": "0 1 2 3\n" * 20_000,
        },
    )
    os.chmod(repo / "run.sh", 0o755)
    commit_all(repo, "mode")
    zipped = export_archive(repo, "HEAD")
    assert zipped == _zipfile_reference(repo, "repo")


def _zipfile_masks_local_zip64_sizes() -> bool:
    # zipfile before CPython 3.11.4 (gh-103861) left the real sizes in a
    # local header beside its zip64 field, where the format asks for 0xFFFFFFFF
    info = zipfile.ZipInfo("x")
    info.CRC = info.compress_size = 0
    return info.FileHeader(zip64=True)[18:22] == b"\xff" * 4


MASKING_ZIPFILE = pytest.mark.skipif(
    not _zipfile_masks_local_zip64_sizes(),
    reason="this zipfile writes the older local zip64 header",
)


@pytest.mark.parametrize(
    "size_limit, count_limit",
    [
        pytest.param(3000, 10, marks=MASKING_ZIPFILE),
        pytest.param(5000, 10, marks=MASKING_ZIPFILE),
        (zipfile.ZIP64_LIMIT, 10),
        pytest.param(3000, zipfile.ZIP_FILECOUNT_LIMIT, marks=MASKING_ZIPFILE),
    ],
)
def test_export_equals_zipfile_in_zip64_cases(tmp_path, monkeypatch, size_limit, count_limit):
    # Lowered limits reach every zip64 branch with small files: a local
    # field for a size near the limit, central fields for sizes and
    # offsets past it, and the zip64 end records for the entry count or
    # the central directory's offset.
    for module in (zipfile, gitrepo):
        monkeypatch.setattr(module, "ZIP64_LIMIT", size_limit)
        monkeypatch.setattr(module, "ZIP_FILECOUNT_LIMIT", count_limit)
    files = {f"n{size}.bin": _noise(size, size) for size in (2900, 4000, 4900, 6000)}
    files.update({f"small/{index:02d}.txt": f"{index}\n" for index in range(12)})
    repo = make_repo(tmp_path / "repo", files=files)
    zipped = export_archive(repo, "HEAD")
    assert zipped == _zipfile_reference(repo, "repo")


def test_commit_before_1980_is_clamped_to_the_first_zip_time(tmp_path, caplog):
    repo = make_repo(tmp_path / "repo")
    (repo / "old.txt").write_text("from 1975\n")
    commit_all(repo, "old", date="1975-01-01T00:00:00 +0000")
    with caplog.at_level(logging.WARNING):
        first = export_archive(repo, "HEAD")
    assert sum("1975" in record.getMessage() for record in caplog.records) == 1
    second = export_archive(repo, "HEAD")
    with zipfile.ZipFile(io.BytesIO(first)) as archive:
        stamps = {info.date_time for info in archive.infolist()}
    assert stamps == {(1980, 1, 1, 0, 0, 0)}
    assert first == second


# -- the deflate cache in the git directory ------------------------------

CACHE = "curator-deflate-cache"


def _revision_repo(tmp_path: Path) -> Path:
    """A repository of 40 blobs whose second commit changes 3 of them."""
    files = {
        f"src/m{index:02d}.c": f"int m{index}(void) {{ return {index}; }}\n" * 40
        for index in range(40)
    }
    repo = make_repo(tmp_path / "repo", files=files)
    for index in (3, 17, 31):
        (repo / f"src/m{index:02d}.c").write_text(f"changed {index}\n" * 30)
    commit_all(repo, "three blobs")
    return repo


def test_warm_export_deflates_only_the_changed_blobs(tmp_path):
    repo = _revision_repo(tmp_path)
    export_archive(repo, "HEAD~1")
    warm = export_archive(repo, "HEAD")
    (repo / ".git" / CACHE).unlink()
    cold = export_archive(repo, "HEAD")
    assert (warm.cached, warm.deflated) == (37, 3)
    assert (cold.cached, cold.deflated) == (0, 40)
    assert warm == cold == _zipfile_reference(repo, "repo")
    assert export_archive(repo, "HEAD").cached == 40


def _flip_last_byte(cache: Path) -> None:
    data = bytearray(cache.read_bytes())
    data[-1] ^= 0xFF
    cache.write_bytes(data)


def _truncate_last_record(cache: Path) -> None:
    cache.write_bytes(cache.read_bytes()[:-5])


def _header_of_another_zlib(cache: Path) -> None:
    header, newline, records = cache.read_bytes().partition(b"\n")
    cache.write_bytes(header.rsplit(b" ", 1)[0] + b" 0.0.0" + newline + records)


@pytest.mark.parametrize(
    "damage, cached",
    [(_flip_last_byte, 39), (_truncate_last_record, 39), (_header_of_another_zlib, 0)],
)
def test_damaged_cache_gives_the_same_archive_and_is_mended(tmp_path, damage, cached):
    repo = _revision_repo(tmp_path)
    cold = export_archive(repo, "HEAD")
    damage(repo / ".git" / CACHE)
    again = export_archive(repo, "HEAD")
    assert again == cold
    assert again.cached == cached
    assert export_archive(repo, "HEAD").cached == 40


# the first record's blob id, blob CRC-32 and blob size fields, after its own CRC-32
@pytest.mark.parametrize("field", [4, 4 + 64, 4 + 64 + 4], ids=["blob id", "crc", "size"])
def test_damaged_record_field_gives_the_same_archive_and_is_mended(tmp_path, field):
    repo = _revision_repo(tmp_path)
    cold = export_archive(repo, "HEAD")
    cache = repo / ".git" / CACHE
    data = bytearray(cache.read_bytes())
    data[data.index(b"\n") + 1 + field] ^= 0x01  # past the header line
    cache.write_bytes(data)
    again = export_archive(repo, "HEAD")
    assert again == cold
    assert (again.cached, again.deflated) == (39, 1)
    assert export_archive(repo, "HEAD").cached == 40


def test_a_cache_record_changed_during_the_export_raises(tmp_path, monkeypatch):
    repo = _revision_repo(tmp_path)
    export_archive(repo, "HEAD")
    cache = repo / ".git" / CACHE
    enter = gitrepo._DeflateCache.__enter__

    def enter_then_overwrite(self):
        opened = enter(self)
        with open(cache, "r+b") as out:  # the last record's deflated bytes, in place
            out.seek(-1, os.SEEK_END)
            last = out.read(1)[0]
            out.seek(-1, os.SEEK_END)
            out.write(bytes([last ^ 0xFF]))
        return opened

    monkeypatch.setattr(gitrepo._DeflateCache, "__enter__", enter_then_overwrite)
    with pytest.raises(IoError) as raised:
        export_archive(repo, "HEAD")
    assert f"deflate cache {cache} changed" in str(raised.value)
    monkeypatch.undo()
    again = export_archive(repo, "HEAD")
    assert again == _zipfile_reference(repo, "repo")
    assert (again.cached, again.deflated) == (39, 1)


def _spy_on_cat_file(monkeypatch) -> list:
    """Patch Popen to note the ids each ``cat-file`` process reads, one list per process."""
    asked, popen = [], subprocess.Popen

    def spy(argv, *args, **kwargs):
        if "cat-file" in argv:
            ids = kwargs["stdin"]
            asked.append(ids.read().split())
            ids.seek(0)
        return popen(argv, *args, **kwargs)

    monkeypatch.setattr(gitrepo.subprocess, "Popen", spy)
    return asked


def test_warm_export_hands_git_only_the_changed_blobs(tmp_path, monkeypatch):
    repo = _revision_repo(tmp_path)
    changed = [git(repo, "rev-parse", f"HEAD:src/m{index:02d}.c").encode() for index in (3, 17, 31)]
    export_archive(repo, "HEAD~1")
    asked = _spy_on_cat_file(monkeypatch)
    warm = export_archive(repo, "HEAD")
    monkeypatch.undo()
    assert asked == [changed]
    assert (warm.cached, warm.deflated) == (37, 3)
    assert warm == _zipfile_reference(repo, "repo")


def test_export_with_every_blob_cached_starts_no_cat_file(tmp_path, monkeypatch):
    repo = _revision_repo(tmp_path)
    cold = export_archive(repo, "HEAD")
    asked = _spy_on_cat_file(monkeypatch)
    warm = export_archive(repo, "HEAD")
    monkeypatch.undo()
    assert asked == []
    assert (warm.cached, warm.deflated) == (40, 0)
    assert warm == cold


def test_cache_with_the_version_1_header_counts_as_empty_and_is_rewritten(tmp_path):
    repo = _revision_repo(tmp_path)
    cold = export_archive(repo, "HEAD")
    cache = repo / ".git" / CACHE
    header, newline, records = cache.read_bytes().partition(b"\n")
    assert header.startswith(b"curator deflate cache 2 ")
    cache.write_bytes(header.replace(b" cache 2 ", b" cache 1 ", 1) + newline + records)
    again = export_archive(repo, "HEAD")
    assert again == cold
    assert (again.cached, again.deflated) == (0, 40)
    assert cache.read_bytes().startswith(header + newline)
    assert export_archive(repo, "HEAD").cached == 40


def test_replace_refs_do_not_change_the_archive(tmp_path):
    # A replace ref maps a.txt's blob to b.txt's; the archive must still hold
    # what the commit id names, with a cold and a warm cache and after the
    # ref is deleted.
    repo = make_repo(tmp_path / "repo", files={"a.txt": "one\n", "b.txt": "two\n"})
    before = export_archive(repo, "HEAD")
    (repo / ".git" / CACHE).unlink()
    replaced = git(repo, "rev-parse", "HEAD:a.txt")
    git(repo, "replace", replaced, git(repo, "rev-parse", "HEAD:b.txt"))
    assert git(repo, "cat-file", "blob", replaced) == "two"
    cold = export_archive(repo, "HEAD")
    warm = export_archive(repo, "HEAD")
    git(repo, "replace", "-d", replaced)
    after = export_archive(repo, "HEAD")
    assert cold == warm == after == before
    assert (cold.cached, warm.cached, after.cached) == (0, 2, 2)
    with zipfile.ZipFile(io.BytesIO(cold)) as archive:
        assert archive.read(f"repo-{git(repo, 'rev-parse', '--short=7', 'HEAD')}/a.txt") == b"one\n"


def test_directory_in_place_of_the_cache_is_only_slower(tmp_path, caplog):
    repo = _revision_repo(tmp_path)
    (repo / ".git" / CACHE).mkdir()
    with caplog.at_level(logging.DEBUG, logger="curator.gitrepo"):
        first = export_archive(repo, "HEAD")
        second = export_archive(repo, "HEAD")
    assert first == second == _zipfile_reference(repo, "repo")
    assert second.cached == 0
    assert any("not written" in record.getMessage() for record in caplog.records)
    assert list((repo / ".git").glob(f"{CACHE}*")) == [repo / ".git" / CACHE]


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes to any directory")
def test_git_directory_that_cannot_be_written_is_only_slower(tmp_path):
    repo = _revision_repo(tmp_path)
    git_dir = repo / ".git"
    git_dir.chmod(0o555)
    try:
        first = export_archive(repo, "HEAD")
        second = export_archive(repo, "HEAD")
    finally:
        git_dir.chmod(0o755)
    assert first == second == _zipfile_reference(repo, "repo")
    assert second.cached == 0
    assert not (git_dir / CACHE).exists()


def test_linked_worktree_finds_and_fills_the_shared_cache(tmp_path):
    repo = _revision_repo(tmp_path)
    git(repo, "worktree", "add", "-q", str(tmp_path / "linked"))
    export_archive(repo, "HEAD~1")
    (repo / "src/m05.c").write_text("changed in the main worktree\n")
    commit_all(repo, "one more blob")
    linked = export_archive(tmp_path / "linked", "main~1", name="repo")
    assert (linked.cached, linked.deflated) == (37, 3)
    main = export_archive(repo, "main")
    assert (main.cached, main.deflated) == (39, 1)
    assert [path.name for path in (repo / ".git").rglob(f"{CACHE}*")] == [CACHE]
    (repo / ".git" / CACHE).unlink()
    assert linked == export_archive(repo, "main~1")


def test_concurrent_exports_share_the_cache_safely(tmp_path):
    # Exports of two revisions race on one cache file, appending and
    # rewriting it; every archive must still equal its cold export.
    repo = _revision_repo(tmp_path)
    cold = {}
    for rev in ("HEAD~1", "HEAD"):
        cold[rev] = export_archive(repo, rev)
        (repo / ".git" / CACHE).unlink()
    results, failures = [], []

    def export(rev):
        try:
            for _ in range(3):
                results.append((rev, export_archive(repo, rev)))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    workers = [threading.Thread(target=export, args=(rev,)) for rev in ("HEAD~1", "HEAD") * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    assert len(results) == 18
    assert all(archive == cold[rev] for rev, archive in results)
    # the file the race left is whole: one more export completes it
    assert export_archive(repo, "HEAD") == cold["HEAD"]
    assert export_archive(repo, "HEAD").cached == 40
