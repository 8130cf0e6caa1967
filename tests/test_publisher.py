from __future__ import annotations

import builtins
import hashlib
import io
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import git, make_repo, wait_for_clock

import curator.client
import curator.depot
import curator.publish as publish
from curator.client import UPLOAD_CHUNK, ArticleMeta, md5_of
from curator.depot import Depot
from curator.errors import InvalidMeta, IoError, KindMismatch, NotFound
from curator.gitrepo import export_archive
from curator.publish import (
    FilesetSpec,
    Publisher,
    SoftwareIdentity,
    file_md5,
    needs_upload,
    parse_authors_file,
    sidecar_path,
    write_sidecar,
)


def md5sum_of(path) -> str:
    out = subprocess.run(["md5sum", str(path)], capture_output=True, text=True, check=True)
    return out.stdout.split()[0]


# -- checksum sidecars ------------------------------------------------


def test_file_md5_matches_system_utility(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"some bytes\x00\xff" * 100)
    assert file_md5(path) == md5sum_of(path)


@pytest.mark.parametrize("size", [0, 1, UPLOAD_CHUNK - 1, UPLOAD_CHUNK, UPLOAD_CHUNK + 1])
def test_every_md5_path_agrees_with_hashlib_around_the_chunk_size(tmp_path, size):
    body = os.urandom(size)
    path = tmp_path / "blob.bin"
    path.write_bytes(body)
    expected = hashlib.md5(body).hexdigest()
    depot = Depot()
    article_id = depot.create_article(ArticleMeta("t")).article_id
    assert file_md5(path) == expected
    assert depot.upload_file(article_id, path).md5 == expected
    assert depot.upload_bytes(article_id, "again.bin", body).md5 == expected


def test_file_md5_hashes_what_it_reads_of_a_file_that_shrank(tmp_path, monkeypatch):
    # the size taken at open only bounds the buffer: a file shorter than it is
    # hashed as it now stands, so it reads as changed rather than failing
    path = tmp_path / "blob.bin"
    path.write_bytes(b"short")
    # st_size is the seventh field: the file had 100 bytes when opened
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result([0] * 6 + [100] + [0] * 3))
    assert file_md5(path) == hashlib.md5(b"short").hexdigest()


def test_sidecar_format_is_hex_plus_newline(tmp_path):
    path = tmp_path / "data.vtu"
    path.write_bytes(b"payload")
    write_sidecar(path, file_md5(path))
    content = sidecar_path(path).read_bytes()
    assert len(content) == 33
    assert content.endswith(b"\n")
    assert content[:-1] == file_md5(path).encode()


def test_write_sidecar_cuts_a_longer_sidecar_to_the_digest(tmp_path):
    # a hand-edited sidecar in md5sum's "<hex>  <name>" form is rewritten
    # to the digest line alone
    path = tmp_path / "data.vtu"
    path.write_bytes(b"payload")
    digest = file_md5(path)
    sidecar_path(path).write_text(f"{digest}  data.vtu\n")
    write_sidecar(path, digest)
    assert sidecar_path(path).read_bytes() == f"{digest}\n".encode()
    sidecar_path(path).unlink()
    sidecar_path(path).mkdir()
    with pytest.raises(IoError):
        write_sidecar(path, digest)


def test_write_sidecar_overwrites_in_place(tmp_path):
    # the same inode, cut to exactly the digest line whatever it held before
    path = tmp_path / "data.vtu"
    path.write_bytes(b"payload")
    write_sidecar(path, "0" * 32)
    inode = sidecar_path(path).stat().st_ino
    with open(sidecar_path(path), "a") as handle:
        handle.write("  data.vtu\n# checked by hand\n")
    digest = file_md5(path)
    write_sidecar(path, digest)
    info = sidecar_path(path).stat()
    assert (info.st_ino, info.st_size) == (inode, 33)
    assert sidecar_path(path).read_bytes() == f"{digest}\n".encode()


def test_needs_upload_transitions(tmp_path):
    path = tmp_path / "data.vtu"
    path.write_bytes(b"original")
    assert needs_upload(path) is True

    write_sidecar(path, file_md5(path))
    assert needs_upload(path) is False

    path.write_bytes(b"originaX")
    assert needs_upload(path) is True

    sidecar_path(path).write_text("not a checksum\n")
    assert needs_upload(path) is True


def test_needs_upload_missing_file(tmp_path):
    # without a sidecar the answer is simply "upload it"
    assert needs_upload(tmp_path / "gone.vtu") is True
    # with a sidecar the checksum is compared and the read fails loudly
    path = tmp_path / "was_here.vtu"
    path.write_text("x")
    write_sidecar(path, file_md5(path))
    path.unlink()
    with pytest.raises(IoError):
        needs_upload(path)


# -- AUTHORS parsing --------------------------------------------------


def test_parse_authors_basic_line(tmp_path):
    path = tmp_path / "AUTHORS"
    path.write_text("A. Researcher <fs:554577>\n")
    entries = parse_authors_file(path)
    assert len(entries) == 1
    assert entries[0].display_name == "A. Researcher"
    assert entries[0].service_author_id == 554577


def test_parse_authors_grammar_cases(tmp_path):
    path = tmp_path / "AUTHORS"
    path.write_text(
        "# maintainers\n"
        "Jane Doe\n"
        "A B <fs:9> trailing words\n"
        "   \n"
        "Dup Entry <fs:9>\n"
        "Zero Id <fs:0>\n"
        "  # indented comment <fs:77>\n"
        "No Brackets fs:12\n"
    )
    entries = parse_authors_file(path)
    assert [(e.display_name, e.service_author_id) for e in entries] == [("A B", 9)]


def test_parse_authors_order_and_duplicates(tmp_path):
    path = tmp_path / "AUTHORS"
    path.write_text(
        "First Author <fs:30>\n"
        "Second Author <fs:10>\n"
        "First Author Again <fs:30>\n"
        "Third Author <fs:20>\n"
    )
    assert [e.service_author_id for e in parse_authors_file(path)] == [30, 10, 20]


def test_parse_authors_ids_are_ascii_digits(tmp_path):
    path = tmp_path / "AUTHORS"
    path.write_text("Arabic <fs:\u0663>\nFullwidth <fs:\uff17>\nAscii <fs:4>\n", encoding="utf-8")
    assert [e.service_author_id for e in parse_authors_file(path)] == [4]


def test_parse_authors_skips_an_id_too_long_to_parse(tmp_path):
    path = tmp_path / "AUTHORS"
    path.write_text(f"Huge <fs:{'9' * 5000}>\nReal <fs:4>\n")
    # int parses at most 4300 digits from Python 3.11; earlier, the huge id is an id
    huge = [] if hasattr(sys, "get_int_max_str_digits") else [int("9" * 5000)]
    assert [e.service_author_id for e in parse_authors_file(path)] == [*huge, 4]


def test_parse_authors_empty_and_missing(tmp_path):
    empty = tmp_path / "AUTHORS"
    empty.write_text("")
    assert parse_authors_file(empty) == []
    assert parse_authors_file(tmp_path / "nope") == []


# -- software publication ---------------------------------------------


def test_publish_software_end_to_end(tmp_path):
    repo = make_repo(tmp_path / "wavesolver", remote="https://example.org/wave.git")
    head = git(repo, "rev-parse", "HEAD")
    depot = Depot()
    publisher = Publisher(depot, default_category="Computational Physics")

    result = publisher.publish_software(
        SoftwareIdentity(
            name="wavesolver",
            commit=head,
            local_repo=repo,
            remote_url="https://example.org/wave.git",
        )
    )
    assert result.reused is False
    assert result.doi == f"10.5072/mockdepot.{result.article_id}"

    record = depot.get_article(result.article_id)
    assert record.meta.title == f"wavesolver ({head[:7]})"
    assert record.meta.kind == "code"
    assert record.meta.category == "Computational Physics"
    assert head in record.meta.tags
    assert "https://example.org/wave.git" in record.meta.description
    assert record.status == "published"
    assert record.version == 1
    # conftest AUTHORS fixture carries ids 9001 and 9002 in that order
    assert record.authors == (9001, 9002)

    # the uploaded archive is exactly the deterministic export
    reference = export_archive(repo, head, name="wavesolver")
    assert [f.name for f in record.files] == [f"wavesolver-{head[:7]}.zip"]
    assert record.files[0].md5 == hashlib.md5(reference).hexdigest()


def test_publish_software_is_idempotent(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    publisher = Publisher(depot)
    identity = SoftwareIdentity(name="repo", commit=head, local_repo=repo)

    first = publisher.publish_software(identity)
    log_after_first = state.read_bytes()
    second = publisher.publish_software(identity)

    assert second == (first.article_id, first.doi, True)
    assert state.read_bytes() == log_after_first
    assert len(depot.state.articles) == 1


def test_publish_software_completes_interrupted_draft(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    depot = Depot()
    # simulate a crash after create+tag but before publish
    from curator.client import ArticleMeta

    draft = depot.create_article(ArticleMeta(title=f"repo ({head[:7]})", kind="code"))
    depot.add_tag(draft.article_id, head)

    result = Publisher(depot).publish_software(
        SoftwareIdentity(name="repo", commit=head, local_repo=repo)
    )
    assert result.reused is False
    assert result.article_id == draft.article_id
    record = depot.get_article(draft.article_id)
    assert record.status == "published"
    assert record.doi == result.doi
    assert len(depot.state.articles) == 1


def test_find_software_prefers_lowest_id_with_warning(tmp_path, caplog):
    from curator.client import ArticleMeta

    depot = Depot()
    a = depot.create_article(ArticleMeta(title="a", kind="code"))
    b = depot.create_article(ArticleMeta(title="b", kind="code"))
    tag = "f" * 40
    depot.add_tag(b.article_id, tag)
    depot.add_tag(a.article_id, tag)
    with caplog.at_level(logging.WARNING):
        found = Publisher(depot).find_software(tag)
    assert found[0] == a.article_id
    assert any("lowest" in record.message for record in caplog.records)


def test_find_software_empty_depot():
    assert Publisher(Depot()).find_software("a" * 40) is None


@pytest.mark.parametrize(
    "name,commit",
    [
        ("", "a" * 40),
        ("bad/name", "a" * 40),
        ("fine", "short"),
        ("fine", "A" * 40),
        ("fine", None),
    ],
)
def test_publish_software_validates_identity(tmp_path, name, commit):
    with pytest.raises(InvalidMeta):
        Publisher(Depot()).publish_software(
            SoftwareIdentity(name=name, commit=commit, local_repo=tmp_path)
        )


# -- fileset publication ----------------------------------------------


def _data_files(tmp_path, count=3):
    paths = []
    for index in range(count):
        path = tmp_path / f"frame_{index}.vtu"
        path.write_text(f"field values {index}\n")
        paths.append(path)
    return paths


def test_publish_data_fresh_uploads_everything(tmp_path):
    depot = Depot()
    paths = _data_files(tmp_path)
    # a stale sidecar must not suppress uploads to a brand-new article
    write_sidecar(paths[0], file_md5(paths[0]))

    result = Publisher(depot).publish_data(FilesetSpec(title="run data", paths=paths))
    assert result.uploaded == paths
    assert result.skipped == []
    record = depot.get_article(result.article_id)
    assert record.version == 1
    assert record.meta.kind == "fileset"
    assert [f.name for f in record.files] == [p.name for p in paths]
    for path in paths:
        assert sidecar_path(path).exists()


def test_publish_data_selective_rerun(tmp_path):
    depot = Depot()
    publisher = Publisher(depot)
    paths = _data_files(tmp_path)
    first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))

    paths[1].write_text("changed content\n")
    second = publisher.publish_data(
        FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
    )
    assert second.uploaded == [paths[1]]
    assert second.skipped == [paths[0], paths[2]]
    assert second.doi == first.doi
    assert depot.get_article(first.article_id).version == 2


def test_publish_data_noop_rerun_skips_publish(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    publisher = Publisher(depot)
    paths = _data_files(tmp_path)
    first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))
    log_before = state.read_bytes()

    again = publisher.publish_data(
        FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
    )
    assert again.uploaded == []
    assert again.skipped == paths
    assert again.doi == first.doi
    assert depot.get_article(first.article_id).version == 1
    assert state.read_bytes() == log_before


def test_publish_data_noop_rerun_fetches_the_record_once(tmp_path, monkeypatch):
    depot = Depot()
    publisher = Publisher(depot)
    paths = _data_files(tmp_path)
    first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))
    fetched = []
    get_article = depot.get_article
    monkeypatch.setattr(depot, "get_article", lambda i: fetched.append(i) or get_article(i))

    again = publisher.publish_data(
        FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
    )
    assert again.doi == first.doi
    assert fetched == [first.article_id]


def test_publish_data_sidecars_match_stored_bytes(tmp_path):
    depot = Depot()
    paths = _data_files(tmp_path, count=4)
    result = Publisher(depot).publish_data(FilesetSpec(title="run data", paths=paths))
    stored = depot.state.articles[result.article_id]
    by_name = {entry.name: entry.md5 for entry in stored.head.files}
    for path in paths:
        recorded = sidecar_path(path).read_text().strip()
        assert recorded == hashlib.md5(path.read_bytes()).hexdigest() == by_name[path.name]


def test_publish_data_logs_one_summary(tmp_path, caplog):
    depot = Depot()
    publisher = Publisher(depot)
    paths = _data_files(tmp_path)
    wait_for_clock(*paths)  # so the stat vouches for every file left unchanged
    first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))

    paths[1].write_text("changed content\n")
    with caplog.at_level(logging.INFO, logger="curator.publish"):
        publisher.publish_data(
            FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
        )
    summaries = [r.getMessage() for r in caplog.records if "files matched" in r.getMessage()]
    assert len(summaries) == 1
    assert re.fullmatch(
        rf"fileset {first.article_id}: 3 files matched, 2 skipped, 1 rehashed \(0\.0 MiB\),"
        r" 1 uploaded \(0\.0 MiB\) in \d+ ms",
        summaries[0],
    )


# -- trusting an unchanged file by stat ----------------------------------


def _count_hashes(monkeypatch) -> list:
    """Record the path of every MD5 pass over a file, wherever it runs: in
    curator.publish, curator.client or curator.depot."""
    hashed = []

    def counting_md5_of(stream, size):
        # a FileBody names its file; file_md5 hashes a raw file object
        hashed.append(Path(getattr(stream, "_path", None) or stream.name))
        return md5_of(stream, size)

    for module in (publish, curator.client, curator.depot):
        monkeypatch.setattr(module, "md5_of", counting_md5_of)
    return hashed


def _publish_settled(tmp_path):
    """Publish data files last changed before the current clock tick, so every
    sidecar is stamped; return the paths and a function that re-runs it."""
    publisher = Publisher(Depot())
    paths = _data_files(tmp_path)
    wait_for_clock(*paths)
    first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))

    def rerun():
        return publisher.publish_data(
            FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
        )

    return paths, rerun


def test_publish_data_noop_rerun_reads_no_data_file(tmp_path, monkeypatch):
    paths, rerun = _publish_settled(tmp_path)
    hashed = _count_hashes(monkeypatch)
    opened = []
    real_open = io.open

    def recording_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    again = rerun()
    assert again.skipped == paths
    assert hashed == []
    assert not set(opened) & set(paths)


def _rewrite_keeping_mtime(path):
    # what ``cp -p`` or ``rsync -t`` of other bytes of the same size leaves
    info = path.stat()
    path.write_bytes(b"X" * info.st_size)
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))


def _swap_inode(path):
    info = path.stat()
    fresh = path.with_name(path.name + ".new")
    fresh.write_bytes(b"Y" * info.st_size)
    os.utime(fresh, ns=(info.st_atime_ns, info.st_mtime_ns))
    os.replace(fresh, path)


def _edit_sidecar(path):
    sidecar_path(path).write_text("0" * 32 + "\n")


@pytest.mark.parametrize("edit", [_rewrite_keeping_mtime, _swap_inode, _edit_sidecar])
def test_publish_data_hashes_what_stat_cannot_vouch_for(tmp_path, monkeypatch, edit):
    paths, rerun = _publish_settled(tmp_path)
    edit(paths[1])
    hashed = _count_hashes(monkeypatch)
    again = rerun()
    assert hashed == [paths[1]]
    assert again.uploaded == [paths[1]]
    assert sidecar_path(paths[1]).read_text() == file_md5(paths[1]) + "\n"


def test_a_sidecar_overwritten_by_an_upload_is_stamped_and_trusted(tmp_path, monkeypatch):
    paths, rerun = _publish_settled(tmp_path)
    inode = sidecar_path(paths[1]).stat().st_ino
    paths[1].write_text("other field values\n")
    wait_for_clock(paths[1])
    assert rerun().uploaded == [paths[1]]
    assert sidecar_path(paths[1]).stat().st_ino == inode
    hashed = _count_hashes(monkeypatch)
    assert not any(needs_upload(path) for path in paths)
    assert hashed == []
    # a rewrite with no stamp moves the sidecar's times, so stat cannot vouch for it
    write_sidecar(paths[0], file_md5(paths[0]))
    hashed.clear()
    assert needs_upload(paths[0]) is False
    assert hashed == [paths[0]]


def test_publish_data_touched_file_is_hashed_once_then_trusted(tmp_path, monkeypatch):
    paths, rerun = _publish_settled(tmp_path)
    os.utime(paths[1])
    wait_for_clock(paths[1])
    hashed = _count_hashes(monkeypatch)
    assert rerun().skipped == paths
    assert hashed == [paths[1]]

    hashed.clear()
    assert rerun().skipped == paths
    assert hashed == []


def test_needs_upload_never_trusts_a_file_changed_in_the_tick_it_is_read(
    tmp_path, monkeypatch
):
    path = tmp_path / "data.vtu"
    path.write_bytes(b"payload")
    write_sidecar(path, file_md5(path))
    # an mtime not older than the filesystem clock: a write later in the
    # same tick would leave it unchanged, so the match is never stamped
    future = time.time_ns() + 3600 * 10**9
    os.utime(path, ns=(future, future))
    hashed = _count_hashes(monkeypatch)
    assert needs_upload(path) is False
    assert needs_upload(path) is False
    assert hashed == [path, path]


# what os.utime refuses: touching the directory for its clock, or stamping a sidecar
UTIME_REFUSALS = {
    "no directory clock": os.path.isdir,
    "no sidecar stamp": lambda path: str(path).endswith(".md5"),
}


@pytest.mark.parametrize("refused", UTIME_REFUSALS.values(), ids=UTIME_REFUSALS)
def test_publish_data_that_cannot_stamp_rehashes_each_file(tmp_path, monkeypatch, refused):
    paths = _data_files(tmp_path)
    wait_for_clock(*paths)
    utime = os.utime

    def refusing_utime(path, *args, **kwargs):
        if refused(path):
            raise PermissionError(f"cannot set times of {path}")
        return utime(path, *args, **kwargs)

    monkeypatch.setattr(publish.os, "utime", refusing_utime)
    publisher = Publisher(Depot())
    first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))
    assert first.uploaded == paths
    # a stamp would give each sidecar its file's mtime
    assert all(sidecar_path(p).stat().st_mtime_ns != p.stat().st_mtime_ns for p in paths)

    hashed = _count_hashes(monkeypatch)
    again = publisher.publish_data(
        FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
    )
    assert (again.uploaded, again.skipped) == ([], paths)
    assert hashed == paths


def test_publish_data_reuploads_a_file_rewritten_during_its_upload(tmp_path, monkeypatch):
    depot = Depot()
    publisher = Publisher(depot)
    paths = _data_files(tmp_path)
    wait_for_clock(*paths)
    upload_bytes = depot.upload_bytes

    def rewriting_upload(article_id, name, body):
        # the depot holds the bytes it was sent; the file then changes
        # under the same size and mtime before the sidecar is written
        entry = upload_bytes(article_id, name, body)
        path = tmp_path / name
        info = path.stat()
        path.write_bytes(b"Z" * len(body))
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(depot, "upload_bytes", rewriting_upload)
        first = publisher.publish_data(FilesetSpec(title="run data", paths=paths))

    again = publisher.publish_data(
        FilesetSpec(title="run data", paths=paths, existing_article_id=first.article_id)
    )
    assert again.uploaded == paths
    record = depot.get_article(first.article_id)
    assert [entry.md5 for entry in record.files] == [file_md5(path) for path in paths]


def test_publish_data_existing_must_be_fileset(tmp_path):
    from curator.client import ArticleMeta

    depot = Depot()
    code = depot.create_article(ArticleMeta(title="code thing", kind="code"))
    paths = _data_files(tmp_path, count=1)
    with pytest.raises(KindMismatch):
        Publisher(depot).publish_data(
            FilesetSpec(title="d", paths=paths, existing_article_id=code.article_id)
        )


def test_publish_data_unknown_existing_id(tmp_path):
    paths = _data_files(tmp_path, count=1)
    with pytest.raises(NotFound):
        Publisher(Depot()).publish_data(
            FilesetSpec(title="d", paths=paths, existing_article_id=555)
        )


def test_publish_data_rejects_bad_requests(tmp_path):
    publisher = Publisher(Depot())
    good = _data_files(tmp_path, count=2)

    with pytest.raises(InvalidMeta):
        publisher.publish_data(FilesetSpec(title="", paths=good))
    with pytest.raises(InvalidMeta):
        publisher.publish_data(FilesetSpec(title="d", paths=[]))
    with pytest.raises(IoError):
        publisher.publish_data(FilesetSpec(title="d", paths=[tmp_path / "absent.vtu"]))

    sidecar = tmp_path / "frame.vtu.md5"
    sidecar.write_text("aa\n")
    with pytest.raises(InvalidMeta):
        publisher.publish_data(FilesetSpec(title="d", paths=[sidecar]))

    nested = tmp_path / "sub"
    nested.mkdir()
    clash = nested / good[0].name
    clash.write_text("same basename\n")
    with pytest.raises(InvalidMeta):
        publisher.publish_data(FilesetSpec(title="d", paths=[good[0], clash]))


def test_publish_data_optional_fileset_authors(tmp_path):
    depot = Depot()
    paths = _data_files(tmp_path, count=1)
    plain = Publisher(depot).publish_data(
        FilesetSpec(title="without authors", paths=paths)
    )
    assert depot.get_article(plain.article_id).authors == ()


def test_publish_data_applies_tags_on_create(tmp_path):
    depot = Depot()
    paths = _data_files(tmp_path, count=1)
    result = Publisher(depot).publish_data(
        FilesetSpec(title="tagged", tags=["run-7"], paths=paths)
    )
    assert depot.get_article(result.article_id).meta.tags == ("run-7",)


def test_publish_software_logs_one_summary(tmp_path, caplog):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    publisher = Publisher(Depot())
    identity = SoftwareIdentity(name="wave", commit=head, local_repo=repo)
    with caplog.at_level(logging.INFO, logger="curator.publish"):
        first = publisher.publish_software(identity)
        publisher.publish_software(identity)
    summaries = [r.getMessage() for r in caplog.records if r.getMessage().startswith("software ")]
    assert len(summaries) == 2
    assert re.fullmatch(
        rf"software {first.article_id}: published, archive 0\.0 MiB exported in \d+ ms"
        r" \(0 entries from the export cache, 2 deflated\), \d+ ms in all",
        summaries[0],
    )
    assert re.fullmatch(
        rf"software {first.article_id}: reused, archive 0\.0 MiB exported in 0 ms, \d+ ms in all",
        summaries[1],
    )
