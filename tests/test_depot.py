from __future__ import annotations

import contextlib
import copy
import errno
import hashlib
import json
import logging
import os
import random
import re
import tracemalloc

import pytest

from curator.client import ArticleMeta, record_to_wire
from curator.depot import DOI_PREFIX, Depot
from curator.errors import (
    CuratorError,
    InvalidMeta,
    IoError,
    NotFound,
    NothingToPublish,
    ParseError,
)


def meta(title="wave", kind="fileset", category="Computational Physics", tags=None):
    return ArticleMeta(title=title, kind=kind, category=category, tags=tags or [])


def test_create_then_get_identical(depot):
    created = depot.create_article(meta())
    fetched = depot.get_article(created.article_id)
    assert record_to_wire(created) == record_to_wire(fetched)
    assert fetched.status == "draft"
    assert fetched.version == 0
    assert fetched.doi is None
    assert fetched.files == ()


def test_article_ids_increment_and_skip_nothing(depot):
    first = depot.create_article(meta())
    with pytest.raises(InvalidMeta):
        depot.create_article(meta(title=""))
    second = depot.create_article(meta())
    assert first.article_id == 1
    assert second.article_id == 2


@pytest.mark.parametrize(
    "bad",
    [
        meta(title=""),
        meta(title=None),
        meta(kind="dataset"),
        meta(kind=""),
        meta(tags=["a", "a"]),
        meta(tags=["a", ""]),
        meta(tags="not-a-list"),
        ArticleMeta(title="x", description=None, kind="code", category=""),
        ArticleMeta(title="x", description="", kind="code", category=42),
    ],
)
def test_create_rejects_invalid_meta(depot, bad):
    with pytest.raises(InvalidMeta):
        depot.create_article(bad)


def test_upload_md5_of_empty_file(depot, tmp_path):
    article = depot.create_article(meta())
    path = tmp_path / "empty.dat"
    path.write_bytes(b"")
    entry = depot.upload_file(article.article_id, path)
    assert entry.md5 == "d41d8cd98f00b204e9800998ecf8427e"
    assert entry.size == 0


def test_upload_md5_known_vector(depot, tmp_path):
    article = depot.create_article(meta())
    path = tmp_path / "abc.dat"
    path.write_bytes(b"abc")
    entry = depot.upload_file(article.article_id, path)
    assert entry.md5 == "900150983cd24fb0d6963f7d28e17f72"
    assert entry.size == 3


def test_upload_replaces_by_name_in_place(depot):
    article = depot.create_article(meta())
    depot.upload_bytes(article.article_id, "a.dat", b"one")
    depot.upload_bytes(article.article_id, "b.dat", b"two")
    replaced = depot.upload_bytes(article.article_id, "a.dat", b"one")
    record = depot.get_article(article.article_id)
    assert [f.name for f in record.files] == ["a.dat", "b.dat"]
    assert record.files[0].md5 == hashlib.md5(b"one").hexdigest()
    # ids are never reused, even for a replacement with identical bytes
    assert replaced.file_id == 3


@pytest.mark.parametrize("name", ["", None, ".", "..", "a/b", "a\\b"])
def test_upload_rejects_bad_names(depot, name):
    article = depot.create_article(meta())
    with pytest.raises(InvalidMeta):
        depot.upload_bytes(article.article_id, name, b"data")


def test_upload_keeps_no_file_body(depot):
    article_id = depot.create_article(meta()).article_id
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(8):
            depot.upload_bytes(article_id, f"{index}.dat", bytes([index]) * (1 << 20))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_upload_file_streams_from_disk(depot, tmp_path):
    path = tmp_path / "big.vtu"
    with open(path, "wb") as handle:
        for index in range(16):
            handle.write(bytes([index]) * (1 << 20))
    article_id = depot.create_article(meta()).article_id
    tracemalloc.start()
    try:
        entry = depot.upload_file(article_id, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert (entry.size, entry.md5) == (16 << 20, hashlib.md5(path.read_bytes()).hexdigest())


def test_upload_body_of_an_int_is_a_type_error(depot):
    article_id = depot.create_article(meta()).article_id
    with pytest.raises(TypeError):
        depot.upload_bytes(article_id, "a.dat", 5)
    assert depot.get_article(article_id).files == ()


def test_upload_to_missing_article(depot):
    with pytest.raises(NotFound):
        depot.upload_bytes(999999, "a.dat", b"data")


def test_publish_lifecycle(depot):
    article = depot.create_article(meta())
    depot.upload_bytes(article.article_id, "a.dat", b"one")
    doi, version = depot.publish_article(article.article_id)
    assert doi == f"{DOI_PREFIX}.{article.article_id}"
    assert version == 1
    record = depot.get_article(article.article_id)
    assert record.status == "published"
    assert record.doi == doi

    with pytest.raises(NothingToPublish):
        depot.publish_article(article.article_id)

    depot.upload_bytes(article.article_id, "a.dat", b"changed")
    doi2, version2 = depot.publish_article(article.article_id)
    assert (doi2, version2) == (doi, 2)


def test_first_publish_allows_empty_draft(depot):
    article = depot.create_article(meta())
    doi, version = depot.publish_article(article.article_id)
    assert version == 1
    assert doi.startswith(DOI_PREFIX)


def test_meta_changes_reopen_a_published_article(depot):
    article = depot.create_article(meta())
    depot.publish_article(article.article_id)
    depot.add_tag(article.article_id, "rerun")
    doi, version = depot.publish_article(article.article_id)
    assert version == 2
    assert doi == f"{DOI_PREFIX}.{article.article_id}"


def test_mint_doi_formatting_and_guard():
    depot = Depot()
    for _ in range(42):
        depot.create_article(meta())
    assert depot.publish_article(42) == ("10.5072/mockdepot.42", 1)
    # a later version keeps the value the first publish minted
    depot.add_tag(42, "again")
    assert depot.publish_article(42) == ("10.5072/mockdepot.42", 2)


def test_minted_dois_pairwise_distinct():
    depot = Depot()
    dois = set()
    for _ in range(100):
        article = depot.create_article(meta())
        dois.add(depot.publish_article(article.article_id)[0])
    assert len(dois) == 100


def test_mint_doi_missing_article(depot):
    with pytest.raises(NotFound):
        depot.publish_article(7)


def test_tags_and_authors_are_deduplicated(depot):
    article = depot.create_article(meta())
    depot.add_tag(article.article_id, "a")
    depot.add_tag(article.article_id, "b")
    record = depot.add_tag(article.article_id, "a")
    assert record.meta.tags == ("a", "b")

    record = depot.add_authors(article.article_id, [7, 7, 8])
    assert record.authors == (7, 8)
    record = depot.add_authors(article.article_id, [5, 8])
    assert record.authors == (7, 8, 5)
    record = depot.add_authors(article.article_id, [])
    assert record.authors == (7, 8, 5)


@pytest.mark.parametrize("ids", [[0], [-3], [True], ["9"], "oops", [1.5]])
def test_add_authors_rejects_bad_ids(depot, ids):
    article = depot.create_article(meta())
    with pytest.raises(InvalidMeta):
        depot.add_authors(article.article_id, ids)


def test_search_includes_drafts_and_sorts_by_id(depot):
    a = depot.create_article(meta(tags=["shared"]))
    b = depot.create_article(meta())
    depot.add_tag(b.article_id, "shared")
    depot.publish_article(b.article_id)
    hits = depot.search_by_tag("shared")
    assert [r.article_id for r in hits] == [a.article_id, b.article_id]
    assert depot.search_by_tag("absent") == []
    with pytest.raises(InvalidMeta):
        depot.search_by_tag("")


def test_search_matches_brute_force_over_fifty_articles():
    rng = random.Random(50)
    depot = Depot()
    pool = [f"tag{i}" for i in range(8)]
    expected = {}
    for _ in range(50):
        tags = rng.sample(pool, rng.randint(0, 4))
        record = depot.create_article(meta(tags=tags))
        expected[record.article_id] = set(tags)
    for tag in pool:
        want = sorted(aid for aid, tags in expected.items() if tag in tags)
        got = [r.article_id for r in depot.search_by_tag(tag)]
        assert got == want


def test_op_log_counts_only_successful_mutations(depot):
    article = depot.create_article(meta())
    depot.upload_bytes(article.article_id, "a.dat", b"x")
    depot.add_tag(article.article_id, "t")
    depot.add_tag(article.article_id, "t")  # no-op
    depot.add_authors(article.article_id, [])  # no-op
    depot.get_article(article.article_id)  # read
    depot.search_by_tag("t")  # read
    with pytest.raises(NotFound):
        depot.get_article(12345)
    depot.publish_article(article.article_id)
    ops = [entry[0] for entry in depot.state.op_log]
    assert ops == [
        "create_article",
        "upload_file",
        "add_tag",
        "publish_article",
    ]


def test_snapshots_stay_frozen_as_versions_advance(depot):
    article = depot.create_article(meta())
    depot.upload_bytes(article.article_id, "a.dat", b"v1 bytes")
    depot.publish_article(article.article_id)
    stored = depot.state.articles[article.article_id]
    first = stored.published_versions[0]
    first_files = [(f.file_id, f.name, f.md5) for f in first.files]

    depot.upload_bytes(article.article_id, "a.dat", b"v2 bytes")
    depot.publish_article(article.article_id)

    assert [(f.file_id, f.name, f.md5) for f in first.files] == first_files
    assert len(stored.published_versions) == 2
    assert stored.published_versions[1].files[0].md5 == hashlib.md5(b"v2 bytes").hexdigest()


def scribble(record):
    """Try each way a caller could change a record in place, ignoring refusals."""
    attempts = (
        lambda: record.meta.tags.append("z"),
        lambda: setattr(record.meta, "title", "changed"),
        lambda: record.files.append(record.files[0]),
        lambda: setattr(record.files[0], "md5", "0" * 32),
        lambda: record.authors.append(99),
        lambda: setattr(record, "version", 99),
        lambda: setattr(record, "files", []),
    )
    for attempt in attempts:
        with contextlib.suppress(AttributeError, IndexError, TypeError):
            attempt()


def published_wire(depot, article_id):
    return [record_to_wire(r) for r in depot.state.articles[article_id].published_versions]


def test_a_callers_tags_list_is_not_depot_state(depot):
    tags = ["x"]
    article_id = depot.create_article(meta(tags=tags)).article_id
    tags.append("y")
    tags[0] = "changed"
    assert record_to_wire(depot.get_article(article_id))["tags"] == ["x"]
    assert [record_to_wire(r)["tags"] for r in depot.search_by_tag("x")] == [["x"]]


def test_changing_a_returned_record_leaves_the_depot_as_it_was(depot):
    created = depot.create_article(meta(tags=["x"]))
    article_id = created.article_id
    entry = depot.upload_bytes(article_id, "a.dat", b"payload")
    depot.add_authors(article_id, [7])
    depot.publish_article(article_id)
    head, versions = record_to_wire(depot.get_article(article_id)), published_wire(depot, article_id)

    with contextlib.suppress(AttributeError):
        entry.md5 = "0" * 32
    for record in (
        created,
        depot.get_article(article_id),
        *depot.search_by_tag("x"),
        depot.add_authors(article_id, [7]),
    ):
        scribble(record)
        assert record_to_wire(depot.get_article(article_id)) == head
        assert published_wire(depot, article_id) == versions


def test_a_published_version_refuses_change(depot):
    article_id = depot.create_article(meta()).article_id
    depot.upload_bytes(article_id, "a.dat", b"payload")
    depot.publish_article(article_id)
    head, versions = record_to_wire(depot.get_article(article_id)), published_wire(depot, article_id)
    scribble(depot.state.articles[article_id].published_versions[0])
    assert published_wire(depot, article_id) == versions
    assert record_to_wire(depot.get_article(article_id)) == head


def test_state_survives_restart(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article = depot.create_article(meta(title="wave", tags=["x"]))
    depot.upload_bytes(article.article_id, "a.dat", b"payload")
    depot.publish_article(article.article_id)
    draft = depot.create_article(meta(title="pending"))
    before = record_to_wire(depot.get_article(article.article_id))

    reloaded = Depot(state_path=state)
    assert record_to_wire(reloaded.get_article(article.article_id)) == before
    assert reloaded.get_article(draft.article_id).status == "draft"
    # counters continue rather than reuse ids
    fresh = reloaded.create_article(meta(title="later"))
    assert fresh.article_id == draft.article_id + 1
    entry = reloaded.upload_bytes(fresh.article_id, "b.dat", b"z")
    assert entry.file_id == 2
    # a reloaded draft can still reach its first publish
    doi, version = reloaded.publish_article(draft.article_id)
    assert version == 1 and doi.endswith(str(draft.article_id))


def test_state_file_is_wire_format_jsonl(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    depot.create_article(meta(title="b"))
    depot.create_article(meta(title="a"))
    lines = state.read_text().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert [p["article_id"] for p in payloads] == [1, 2]
    assert set(payloads[0]) == {
        "article_id",
        "title",
        "description",
        "kind",
        "category",
        "tags",
        "status",
        "version",
        "doi",
        "files",
        "authors",
    }



def test_restart_between_upload_and_publish_keeps_the_pending_change(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta()).article_id
    depot.upload_bytes(article_id, "a.dat", b"first")
    depot.publish_article(article_id)
    depot.upload_bytes(article_id, "b.dat", b"second")

    reloaded = Depot(state_path=state)
    assert reloaded.publish_article(article_id) == (f"{DOI_PREFIX}.{article_id}", 2)
    record = reloaded.get_article(article_id)
    assert [f.name for f in record.files] == ["a.dat", "b.dat"]
    first, second = reloaded.state.articles[article_id].published_versions
    assert (first.version, [f.name for f in first.files]) == (1, ["a.dat"])
    assert (second.version, [f.name for f in second.files]) == (2, ["a.dat", "b.dat"])


def test_published_versions_survive_restart_unchanged(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta(tags=["x"])).article_id
    depot.upload_bytes(article_id, "a.dat", b"v1")
    depot.publish_article(article_id)
    depot.upload_bytes(article_id, "a.dat", b"v2")
    depot.add_tag(article_id, "y")
    depot.publish_article(article_id)
    stored = depot.state.articles[article_id]

    reloaded = Depot(state_path=state).state.articles[article_id]
    assert reloaded.published_versions == stored.published_versions
    assert (reloaded.doi, reloaded.dirty) == (stored.doi, False)
    # the snapshot is a copy: changing the head leaves it as published
    Depot(state_path=state).upload_bytes(article_id, "a.dat", b"v3")
    again = Depot(state_path=state).state.articles[article_id]
    assert again.published_versions == stored.published_versions
    assert again.dirty


def test_torn_final_line_is_dropped_and_truncated(tmp_path, caplog):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta()).article_id
    depot.upload_bytes(article_id, "a.dat", b"payload")
    depot.publish_article(article_id)
    before = record_to_wire(depot.get_article(article_id))
    intact = state.read_bytes()
    half = intact.splitlines(keepends=True)[-1][:40]
    state.write_bytes(intact + half)

    with caplog.at_level(logging.WARNING, logger="curator.depot"):
        reloaded = Depot(state_path=state)
    assert any("torn" in r.message and r.levelno == logging.WARNING for r in caplog.records)
    assert state.read_bytes() == intact
    assert record_to_wire(reloaded.get_article(article_id)) == before
    with pytest.raises(NothingToPublish):
        reloaded.publish_article(article_id)
    # the next append starts a clean line
    reloaded.add_tag(article_id, "later")
    assert Depot(state_path=state).publish_article(article_id)[1] == 2


def test_snapshot_form_state_loads_with_nothing_pending(tmp_path):
    # one published record per article, as the whole-file rewrite wrote it
    source = Depot()
    for title in ("first", "second"):
        article_id = source.create_article(meta(title=title, tags=[title])).article_id
        source.upload_bytes(article_id, f"{title}.dat", title.encode())
        source.add_authors(article_id, [7])
        source.publish_article(article_id)
    replies = {i: record_to_wire(a.head) for i, a in source.state.articles.items()}
    state = tmp_path / "depot.jsonl"
    state.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in replies.values()))

    depot = Depot(state_path=state)
    assert {i: record_to_wire(depot.get_article(i)) for i in replies} == replies
    assert not any(article.dirty for article in depot.state.articles.values())
    for article_id in replies:
        with pytest.raises(NothingToPublish):
            depot.publish_article(article_id)

    depot.upload_bytes(1, "extra.dat", b"extra")
    reloaded = Depot(state_path=state)
    assert reloaded.publish_article(1) == (f"{DOI_PREFIX}.1", 2)
    assert reloaded.upload_bytes(2, "z.dat", b"z").file_id == 4
    assert len(state.read_text().splitlines()) == 5


def test_load_reports_what_it_replayed(tmp_path, caplog):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    published = depot.create_article(meta()).article_id
    depot.publish_article(published)
    depot.create_article(meta(title="draft"))
    state.write_bytes(state.read_bytes() + b'{"article_id"')

    with caplog.at_level(logging.INFO, logger="curator.depot"):
        Depot(state_path=state)
    (message,) = [r.message for r in caplog.records if r.levelno == logging.INFO]
    assert message.startswith("loaded 2 article(s) from ")
    assert message.endswith(
        "3 line(s) replayed, 1 with unpublished changes, 13 torn byte(s) dropped"
    )


def stored_state(depot):
    """Everything a restart must restore: every article's whole stored state,
    and both id counters."""
    return depot.state.articles, depot.state.next_article_id, depot.state.next_file_id


def test_create_then_publish_writes_two_lines(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta()).article_id
    depot.publish_article(article_id)
    lines = [json.loads(line) for line in state.read_text().splitlines()]
    assert [(line["status"], line["doi"]) for line in lines] == [
        ("draft", None),
        ("published", f"{DOI_PREFIX}.{article_id}"),
    ]


# Create plus publish as earlier versions logged it: the first publish
# minted the DOI in a step of its own, which repeated the draft line.
OLD_CREATE_LINE = (
    '{"article_id": 1, "authors": [], "category": "", "description": "", "doi": null,'
    ' "files": [], "kind": "fileset", "status": "draft", "tags": ["x"], "title": "wave",'
    ' "version": 0}\n'
)
OLD_PUBLISH_LINE = (
    '{"article_id": 1, "authors": [], "category": "", "description": "",'
    ' "doi": "10.5072/mockdepot.1", "files": [], "kind": "fileset", "status": "published",'
    ' "tags": ["x"], "title": "wave", "version": 1}\n'
)


def test_log_with_a_repeated_draft_line_loads_as_the_two_line_log(tmp_path):
    old = tmp_path / "old.jsonl"
    old.write_text(OLD_CREATE_LINE + OLD_CREATE_LINE + OLD_PUBLISH_LINE)
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    depot.publish_article(depot.create_article(ArticleMeta(title="wave", tags=["x"])).article_id)
    assert state.read_text() == OLD_CREATE_LINE + OLD_PUBLISH_LINE

    reloaded = Depot(state_path=old)
    assert stored_state(reloaded) == stored_state(Depot(state_path=state))
    assert len(reloaded.state.articles[1].published_versions) == 1
    with pytest.raises(NothingToPublish):
        reloaded.publish_article(1)


def test_published_versions_equal_get_article_at_each_version(depot):
    article_id = depot.create_article(meta(tags=["x"])).article_id
    depot.upload_bytes(article_id, "a.dat", b"v1")
    depot.publish_article(article_id)
    first = depot.get_article(article_id)
    depot.upload_bytes(article_id, "b.dat", b"v2")
    depot.add_tag(article_id, "y")
    depot.add_authors(article_id, [5])
    depot.publish_article(article_id)
    second = depot.get_article(article_id)
    depot.upload_bytes(article_id, "a.dat", b"pending")

    assert depot.state.articles[article_id].published_versions == [first, second]


@pytest.mark.parametrize(
    "line",
    [
        b"not json",
        b'{"article_id": 1}',
        b"\xff\xfe",
        b"[1]",
        b'{"article_id": "1", "status": "draft", "version": 0}',
        b'{"article_id": 1, "status": "published", "version": 1, "files": [{"file_id": "9",'
        b' "name": "a", "size": 1, "md5": "x"}]}',
    ],
)
def test_corrupt_state_line_is_a_parse_error(tmp_path, line):
    state = tmp_path / "depot.jsonl"
    Depot(state_path=state).create_article(meta())
    state.write_bytes(state.read_bytes() + b"\n" + line + b"\n" + b'{"torn')
    before = state.read_bytes()

    with pytest.raises(ParseError) as info:
        Depot(state_path=state)
    assert str(info.value).startswith(f"{state}, line 3: not a depot record")
    assert state.read_bytes() == before


REPLAYED = {
    "article_id": 1, "title": "t", "description": "", "kind": "fileset", "category": "",
    "tags": [], "status": "draft", "version": 0, "doi": None, "files": [], "authors": [],
}


@pytest.mark.parametrize(
    "change",
    [
        {"tags": "abc"},
        {"authors": "12"},
        {"authors": [0]},
        {"status": "weird"},
        {"kind": "nope"},
        {"title": ""},
        {"doi": 7},
        {"files": [{"file_id": 1, "name": "../x", "size": 1, "md5": "0" * 32}]},
        {"version": 3},
        {"doi": "10.5072/x"},
        {"status": "published"},
        {"status": "published", "version": 1},
        {"status": "published", "version": 1, "doi": ""},
    ],
    ids=["text-tags", "text-authors", "zero-author", "status", "kind", "empty-title",
         "number-doi", "path-file-name", "draft-version", "draft-doi",
         "published-version-0", "published-without-doi", "published-empty-doi"],
)
def test_replayed_records_meet_the_live_checks(tmp_path, change):
    state = tmp_path / "depot.jsonl"
    state.write_text(json.dumps(REPLAYED) + "\n" + json.dumps({**REPLAYED, **change}) + "\n")
    before = state.read_bytes()

    with pytest.raises(ParseError) as info:
        Depot(state_path=state)
    assert str(info.value).startswith(f"{state}, line 2: not a depot record (InvalidMeta: ")
    assert state.read_bytes() == before


@pytest.mark.parametrize(
    "published",
    [
        [(1, f"{DOI_PREFIX}.1"), (2, "10.5072/other.9")],
        [(1, f"{DOI_PREFIX}.1"), (2, f"{DOI_PREFIX}.1"), (1, f"{DOI_PREFIX}.1")],
        [(2, f"{DOI_PREFIX}.1")],
    ],
    ids=["doi-change", "version-back", "version-skip"],
)
def test_replayed_line_follows_the_previous_head(tmp_path, published):
    lines = [REPLAYED] + [
        {**REPLAYED, "status": "published", "version": version, "doi": doi}
        for version, doi in published
    ]
    state = tmp_path / "depot.jsonl"
    state.write_text("".join(json.dumps(line) + "\n" for line in lines))

    with pytest.raises(ParseError) as info:
        Depot(state_path=state)
    assert str(info.value).startswith(
        f"{state}, line {len(lines)}: not a depot record (InvalidMeta: "
    )


def test_an_upload_logs_one_file_entry_whatever_the_fileset_size(tmp_path):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta()).article_id
    names = [f"part_{index}.vtu" for index in range(40)]
    for name in names:
        depot.upload_bytes(article_id, name, name.encode())
    lines = state.read_bytes().splitlines()[1:]
    assert len(lines) == 40
    assert len(lines[-1]) <= len(lines[0]) + len(names[-1])
    last = depot.get_article(article_id).files[-1]
    assert json.loads(lines[-1]) == {"article_id": article_id, "file": vars(last)}


def test_a_log_mixing_head_and_entry_upload_lines_replays_alike(tmp_path):
    # what earlier versions logged: the whole head after every upload
    model = Depot()
    article_id = model.create_article(meta(tags=["x"])).article_id
    heads = [model.get_article(article_id)]
    for name, body in (("a.dat", b"1"), ("b.dat", b"2"), ("a.dat", b"3")):
        model.upload_bytes(article_id, name, body)
        heads.append(model.get_article(article_id))
    model.publish_article(article_id)
    heads.append(model.get_article(article_id))
    state = tmp_path / "depot.jsonl"
    state.write_text("".join(json.dumps(record_to_wire(h), sort_keys=True) + "\n" for h in heads))

    depot = Depot(state_path=state)
    second = depot.create_article(meta(title="second")).article_id
    assert model.create_article(meta(title="second")).article_id == second
    for target, name, body in (
        (article_id, "b.dat", b"4"), (article_id, "c.dat", b"5"), (second, "z.dat", b"6"),
    ):
        assert depot.upload_bytes(target, name, body) == model.upload_bytes(target, name, body)
    depot.publish_article(article_id)
    model.publish_article(article_id)
    depot.upload_bytes(article_id, "a.dat", b"7")
    model.upload_bytes(article_id, "a.dat", b"7")

    forms = ["status" in json.loads(line) for line in state.read_text().splitlines()]
    assert forms == [True] * 5 + [True, False, False, False, True, False]
    reloaded = Depot(state_path=state)
    for target in (article_id, second):
        assert reloaded.get_article(target) == model.get_article(target)
    assert stored_state(reloaded) == stored_state(depot) == stored_state(model)


ENTRY = {"file_id": 5, "name": "a.dat", "size": 1, "md5": "0" * 32}


@pytest.mark.parametrize(
    "change",
    [
        {"article_id": 2, "file": ENTRY},
        {"article_id": "1", "file": ENTRY},
        {"article_id": 1, "file": {**ENTRY, "name": "a/b"}},
        {"article_id": 1, "file": {**ENTRY, "name": ""}},
        {"article_id": 1, "file": {**ENTRY, "file_id": 5}},
        {"article_id": 1, "file": {**ENTRY, "file_id": 4}},
        {"article_id": 1, "file": {**ENTRY, "file_id": "6"}},
        {"article_id": 1, "file": {**ENTRY, "file_id": True}},
        {"article_id": 1, "file": {**ENTRY, "file_id": 6.0}},
        {"article_id": 1},
        {"file": ENTRY},
        {"article_id": 1, "file": {key: ENTRY[key] for key in ("file_id", "name", "size")}},
        {"article_id": 1, "file": [ENTRY]},
    ],
    ids=["unknown-article", "text-article-id", "path-name", "empty-name", "reused-file-id",
         "lower-file-id", "text-file-id", "bool-file-id", "float-file-id", "no-file",
         "no-article-id", "no-md5", "file-list"],
)
def test_replayed_upload_lines_meet_the_live_checks(tmp_path, change):
    state = tmp_path / "depot.jsonl"
    lines = [REPLAYED, {"article_id": 1, "file": ENTRY}, change]
    state.write_text("".join(json.dumps(line) + "\n" for line in lines))
    before = state.read_bytes()

    with pytest.raises(ParseError) as info:
        Depot(state_path=state)
    assert str(info.value).startswith(f"{state}, line 3: not a depot record (")
    assert state.read_bytes() == before


def test_torn_upload_line_is_dropped_and_truncated(tmp_path, caplog):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta()).article_id
    depot.upload_bytes(article_id, "a.dat", b"one")
    intact = state.read_bytes()
    depot.upload_bytes(article_id, "b.dat", b"two")
    state.write_bytes(intact + state.read_bytes()[len(intact):][:-10])

    with caplog.at_level(logging.WARNING, logger="curator.depot"):
        reloaded = Depot(state_path=state)
    assert any("torn" in r.message and r.levelno == logging.WARNING for r in caplog.records)
    assert state.read_bytes() == intact
    assert [entry.name for entry in reloaded.get_article(article_id).files] == ["a.dat"]
    # the dropped upload never happened, and the next one starts a clean line
    assert reloaded.upload_bytes(article_id, "b.dat", b"two").file_id == 2
    assert Depot(state_path=state).get_article(article_id) == reloaded.get_article(article_id)


class ModelDepot:
    """Brute-force replay oracle: plain dicts, no shared production code."""

    def __init__(self):
        self.records = {}
        self.minted = {}
        self.dirty = {}
        self.next_article = 1
        self.next_file = 1

    @staticmethod
    def _text_ok(value):
        return isinstance(value, str) and value != ""

    def apply(self, op, args):
        return getattr(self, op)(*args)

    def create(self, title, kind, category, tags):
        if not self._text_ok(title):
            return ("err", "InvalidMeta")
        if kind not in ("code", "fileset"):
            return ("err", "InvalidMeta")
        if not isinstance(category, str):
            return ("err", "InvalidMeta")
        if not isinstance(tags, list):
            return ("err", "InvalidMeta")
        seen = []
        for tag in tags:
            if not self._text_ok(tag) or tag in seen:
                return ("err", "InvalidMeta")
            seen.append(tag)
        article_id = self.next_article
        self.next_article += 1
        self.records[article_id] = {
            "article_id": article_id,
            "title": title,
            "description": "",
            "kind": kind,
            "category": category,
            "tags": list(tags),
            "status": "draft",
            "version": 0,
            "doi": None,
            "files": [],
            "authors": [],
        }
        self.dirty[article_id] = True
        return ("ok", copy.deepcopy(self.records[article_id]))

    def upload(self, article_id, name, content):
        if article_id not in self.records:
            return ("err", "NotFound")
        if not self._text_ok(name) or name in (".", "..") or "/" in name or "\\" in name:
            return ("err", "InvalidMeta")
        entry = {
            "file_id": self.next_file,
            "name": name,
            "size": len(content),
            "md5": hashlib.md5(content).hexdigest(),
        }
        self.next_file += 1
        files = self.records[article_id]["files"]
        for i, existing in enumerate(files):
            if existing["name"] == name:
                files[i] = entry
                break
        else:
            files.append(entry)
        self.dirty[article_id] = True
        return ("ok", copy.deepcopy(entry))

    def add_tag(self, article_id, tag):
        if article_id not in self.records:
            return ("err", "NotFound")
        if not self._text_ok(tag):
            return ("err", "InvalidMeta")
        tags = self.records[article_id]["tags"]
        if tag not in tags:
            tags.append(tag)
            self.dirty[article_id] = True
        return ("ok", copy.deepcopy(self.records[article_id]))

    def add_authors(self, article_id, author_ids):
        if article_id not in self.records:
            return ("err", "NotFound")
        if not isinstance(author_ids, list):
            return ("err", "InvalidMeta")
        for value in author_ids:
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                return ("err", "InvalidMeta")
        authors = self.records[article_id]["authors"]
        changed = False
        for value in author_ids:
            if value not in authors:
                authors.append(value)
                changed = True
        if changed:
            self.dirty[article_id] = True
        return ("ok", copy.deepcopy(self.records[article_id]))

    def publish(self, article_id):
        if article_id not in self.records:
            return ("err", "NotFound")
        record = self.records[article_id]
        if record["status"] == "published" and not self.dirty[article_id]:
            return ("err", "NothingToPublish")
        if article_id not in self.minted:
            self.minted[article_id] = f"10.5072/mockdepot.{article_id}"
        record["doi"] = self.minted[article_id]
        record["version"] += 1
        record["status"] = "published"
        self.dirty[article_id] = False
        return ("ok", {"doi": record["doi"], "version": record["version"]})

    def get(self, article_id):
        if article_id not in self.records:
            return ("err", "NotFound")
        return ("ok", copy.deepcopy(self.records[article_id]))

    def search(self, tag):
        if not self._text_ok(tag):
            return ("err", "InvalidMeta")
        hits = [
            copy.deepcopy(record)
            for _, record in sorted(self.records.items())
            if tag in record["tags"]
        ]
        return ("ok", hits)


def _apply_to_depot(depot, op, args):
    try:
        if op == "create":
            title, kind, category, tags = args
            record = depot.create_article(
                ArticleMeta(title=title, kind=kind, category=category, tags=tags)
            )
            return ("ok", record_to_wire(record))
        if op == "upload":
            entry = depot.upload_bytes(*args)
            return (
                "ok",
                {
                    "file_id": entry.file_id,
                    "name": entry.name,
                    "size": entry.size,
                    "md5": entry.md5,
                },
            )
        if op == "add_tag":
            return ("ok", record_to_wire(depot.add_tag(*args)))
        if op == "add_authors":
            return ("ok", record_to_wire(depot.add_authors(*args)))
        if op == "publish":
            doi, version = depot.publish_article(*args)
            return ("ok", {"doi": doi, "version": version})
        if op == "get":
            return ("ok", record_to_wire(depot.get_article(*args)))
        if op == "search":
            return ("ok", [record_to_wire(r) for r in depot.search_by_tag(*args)])
        raise AssertionError(op)
    except CuratorError as exc:
        return ("err", exc.kind)


def _draw_op(rng, known_ids):
    def some_id():
        if known_ids and rng.random() < 0.8:
            return rng.choice(known_ids)
        return rng.choice([0, 99, 12345])

    choice = rng.randrange(7)
    if choice == 0:
        title = rng.choice(["wave", "tophat", "mesh", ""])
        kind = rng.choice(["code", "fileset", "fileset", "bogus"])
        tags = rng.choice([[], ["a"], ["a", "b"], ["a", "a"], ["a", ""]])
        return ("create", (title, kind, "Computational Physics", list(tags)))
    if choice == 1:
        name = rng.choice(["a.dat", "b.dat", "c.dat", "sub/d.dat", ""])
        content = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 64)))
        return ("upload", (some_id(), name, content))
    if choice == 2:
        return ("add_tag", (some_id(), rng.choice(["x", "y", "z", ""])))
    if choice == 3:
        ids = rng.choice([[], [7], [7, 7, 8], [0], [3, 4], ["x"]])
        return ("add_authors", (some_id(), list(ids)))
    if choice == 4:
        return ("publish", (some_id(),))
    if choice == 5:
        return ("get", (some_id(),))
    return ("search", (rng.choice(["x", "y", "a", "nope"]),))


def test_random_op_sequences_match_replay_model(tmp_path):
    rng = random.Random(20140523)
    for run in range(100):
        state = tmp_path / f"{run}.jsonl"
        depot = Depot()
        persisted = Depot(state_path=state)
        model = ModelDepot()
        known = []
        for _ in range(rng.randint(3, 20)):
            op, args = _draw_op(rng, known)
            expected = model.apply(op, args)
            actual = _apply_to_depot(depot, op, args)
            assert actual == expected
            assert _apply_to_depot(persisted, op, args) == expected
            if op == "create" and expected[0] == "ok":
                known.append(expected[1]["article_id"])
        for article_id in known:
            assert record_to_wire(depot.get_article(article_id)) == model.get(article_id)[1]
        assert stored_state(Depot(state_path=state)) == stored_state(persisted)


MUTATIONS = {
    "create_article": lambda depot, article_id: depot.create_article(meta(title="late")),
    "upload_bytes": lambda depot, article_id: depot.upload_bytes(article_id, "b.dat", b"new"),
    "add_tag": lambda depot, article_id: depot.add_tag(article_id, "late"),
    "add_authors": lambda depot, article_id: depot.add_authors(article_id, [7]),
    "publish_article": lambda depot, article_id: depot.publish_article(article_id),
}


@pytest.mark.parametrize("published", [False, True], ids=["draft", "published"])
@pytest.mark.parametrize("op", sorted(MUTATIONS))
def test_failed_append_leaves_the_depot_unchanged(tmp_path, op, published):
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta()).article_id
    depot.upload_bytes(article_id, "a.dat", b"one")
    if published:  # a published version, and a change pending since
        depot.publish_article(article_id)
        depot.upload_bytes(article_id, "a.dat", b"two")
    before = copy.deepcopy(depot.state.articles), list(depot.state.op_log)
    record = depot.get_article(article_id)
    state.unlink()
    state.mkdir()  # every append fails from here on
    with pytest.raises(IoError):
        MUTATIONS[op](depot, article_id)
    assert depot.get_article(article_id) == record
    assert (depot.state.articles, depot.state.op_log) == before


# -- compaction --------------------------------------------------------------


def compactable_log(directory):
    """A 72-line log whose one article holds a single live record: its
    published version, after 70 uploads of the same name."""
    state = directory / "depot.jsonl"
    depot = Depot(state_path=state)
    article_id = depot.create_article(meta(tags=["x"])).article_id
    for index in range(70):
        depot.upload_bytes(article_id, "a.dat", str(index).encode())
    depot.publish_article(article_id)
    return state


def line_count(path):
    return len(path.read_bytes().splitlines())


def _mutate(depot, rng):
    """One random mutation over up to four articles."""
    ids = sorted(depot.state.articles)
    choice = rng.randrange(6) if ids else 0
    if choice == 0 and len(ids) < 4:
        depot.create_article(meta(title=f"t{len(ids)}", kind=rng.choice(["code", "fileset"])))
    elif choice <= 2:
        depot.upload_bytes(rng.choice(ids), rng.choice(["a.dat", "b.dat", "c.dat"]), rng.randbytes(4))
    elif choice == 3:
        depot.add_authors(rng.choice(ids), [rng.randint(1, 9)])
    elif choice == 4:
        depot.add_tag(rng.choice(ids), rng.choice(["x", "y", "z"]))
    else:
        with contextlib.suppress(NothingToPublish):
            depot.publish_article(rng.choice(ids))


@pytest.mark.parametrize("seed", range(10))
def test_a_compacted_log_replays_to_the_state_of_the_full_log(tmp_path, seed):
    full, compacted = tmp_path / "full.jsonl", tmp_path / "compacted.jsonl"
    one_process = Depot(state_path=full)  # never loads, so it only appends
    rngs = random.Random(seed), random.Random(seed)
    for _ in range(5):
        restarted = Depot(state_path=compacted)
        for _ in range(60):
            _mutate(one_process, rngs[0])
            _mutate(restarted, rngs[1])
    assert line_count(compacted) < line_count(full)
    assert (
        stored_state(Depot(state_path=compacted))
        == stored_state(Depot(state_path=full))
        == stored_state(one_process)
    )


def test_a_marked_log_compacts_at_the_first_write_and_says_so(tmp_path, caplog):
    state = compactable_log(tmp_path)
    with caplog.at_level(logging.INFO, logger="curator.depot"):
        depot = Depot(state_path=state)
        assert caplog.messages[-1].endswith(
            "72 line(s) replayed, 0 with unpublished changes, 0 torn byte(s) dropped;"
            " 1 live record(s), so the next write compacts the log"
        )
        depot.add_tag(1, "late")
        assert re.fullmatch(
            rf"compacted {re.escape(str(state))}: 72 line\(s\) -> 2,"
            rf" {state.stat().st_size} byte\(s\) written in \d+\.\d ms",
            caplog.messages[-1],
        )
        depot.add_tag(1, "later")  # appends from here on
    lines = [json.loads(line) for line in state.read_text().splitlines()]
    assert [(line["version"], line["tags"]) for line in lines] == [
        (1, ["x"]), (1, ["x", "late"]), (1, ["x", "late", "later"]),
    ]
    reloaded = Depot(state_path=state)
    assert reloaded.publish_article(1) == (f"{DOI_PREFIX}.1", 2)
    assert reloaded.upload_bytes(1, "b.dat", b"b").file_id == 71


def test_a_failed_compaction_changes_nothing_and_the_next_write_retries(tmp_path, monkeypatch):
    state = compactable_log(tmp_path)
    before = state.read_bytes()
    depot = Depot(state_path=state)

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", no_space)
    with pytest.raises(IoError, match="No space left on device"):
        depot.add_tag(1, "late")
    monkeypatch.undo()
    assert state.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == ["depot.jsonl"]
    assert stored_state(depot) == stored_state(Depot(state_path=state))
    depot.add_tag(1, "late")
    assert line_count(state) == 2


def test_a_compaction_replaces_the_temp_file_a_killed_one_left(tmp_path):
    state = compactable_log(tmp_path)
    # a rewrite killed between its temp file's write and the replace leaves
    # the old log and a partial temp file, here longer than the new log
    stale = tmp_path / "depot.jsonl.tmp"
    stale.write_bytes(b'{"article_id": 1, "status": "publ' * 1000)
    depot = Depot(state_path=state)
    depot.add_tag(1, "late")
    assert line_count(state) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == ["depot.jsonl"]
    assert stored_state(Depot(state_path=state)) == stored_state(depot)


def test_a_read_only_load_never_rewrites_a_compactable_log(tmp_path):
    state = compactable_log(tmp_path)
    before, stamp = state.read_bytes(), state.stat().st_mtime_ns
    depot = Depot(state_path=state)
    assert depot.get_article(1).version == 1
    assert depot.search_by_tag("x") == [depot.get_article(1)]
    depot.add_tag(1, "x")  # already there, so nothing to write
    depot.add_authors(1, [])
    with pytest.raises(NothingToPublish):
        depot.publish_article(1)
    assert state.read_bytes() == before
    assert state.stat().st_mtime_ns == stamp


def test_a_snapshot_form_log_is_never_rewritten(tmp_path):
    # one published head per article, as a whole-state snapshot writes it
    source = Depot()
    for index in range(100):
        article_id = source.create_article(meta(title=f"t{index}")).article_id
        source.upload_bytes(article_id, "a.dat", str(index).encode())
        source.publish_article(article_id)
    state = tmp_path / "depot.jsonl"
    state.write_text(
        "".join(
            json.dumps(record_to_wire(article.head), sort_keys=True) + "\n"
            for article in source.state.articles.values()
        )
    )
    before = state.read_bytes()
    Depot(state_path=state).upload_bytes(1, "b.dat", b"b")
    after = state.read_bytes()
    assert after.startswith(before)
    assert after.count(b"\n") == 101


def test_compaction_writes_through_a_symlinked_log_and_keeps_its_mode(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    real = compactable_log(shared)
    real.chmod(0o600)
    link = tmp_path / "depot.jsonl"
    link.symlink_to(real)
    Depot(state_path=link).add_tag(1, "late")
    assert link.is_symlink() and link.resolve() == real
    assert line_count(real) == 2
    assert real.stat().st_mode & 0o7777 == 0o600
    assert sorted(path.name for path in shared.iterdir()) == ["depot.jsonl"]
