from __future__ import annotations

import array
import contextlib
import hashlib
import http.client
import json
import logging
import os
import re
import select
import socket
import statistics
import struct
import tempfile
import threading
import time
from dataclasses import replace
from unittest import mock

import pytest
import requests

from conftest import TOKEN, client_config, git, make_repo

import curator.client as client_mod
from curator import depot_http
from curator.client import (
    ROUTES,
    UPLOAD_CHUNK,
    ArticleMeta,
    ArticleRecord,
    DepotClient,
    FileBody,
    FileEntry,
    HttpDepotClient,
    file_entry_to_wire,
    read_local_file,
    record_to_wire,
)
from curator.depot import Depot
from curator.depot_http import DepotHttpServer, _Handler, _Server
from curator.errors import BindError, CuratorError, TransportError
from curator.gitrepo import export_archive
from curator.publish import Publisher, SoftwareIdentity


def meta(title="wave", kind="fileset", tags=None):
    return ArticleMeta(
        title=title, kind=kind, category="Computational Physics", tags=tags or []
    )


def _normalize(value):
    if isinstance(value, ArticleRecord):
        return record_to_wire(value)
    if isinstance(value, FileEntry):
        return file_entry_to_wire(value)
    if isinstance(value, list):
        return [_normalize(item) for item in value]
    return value


class Probe:
    """Runs contract calls against one backend, recording what happened."""

    def __init__(self, client, workdir):
        self.client = client
        self.workdir = workdir
        self.log = []
        self._count = 0

    def file(self, data: bytes, name=None):
        self._count += 1
        path = self.workdir / (name or f"f{self._count}.dat")
        path.write_bytes(data)
        return path

    def do(self, op, *args):
        try:
            result = getattr(self.client, op)(*args)
        except CuratorError as exc:
            self.log.append((op, "error", exc.kind))
            return None
        self.log.append((op, "ok", _normalize(result)))
        return result


# Each scenario drives the abstract client interface only, so the exact
# same code runs against the in-process depot and the HTTP facade.

def s_create_roundtrip(p):
    record = p.do("create_article", meta())
    p.do("get_article", record.article_id)


def s_create_empty_title(p):
    p.do("create_article", meta(title=""))


def s_create_bad_kind(p):
    p.do("create_article", meta(kind="dataset"))


def s_create_duplicate_tags(p):
    p.do("create_article", meta(tags=["a", "a"]))


def s_create_with_tags_and_description(p):
    m = meta(tags=["alpha", "beta"])
    m = replace(m, description="two-line\ndescription")
    record = p.do("create_article", m)
    p.do("get_article", record.article_id)


def s_upload_known_md5(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b"abc"))


def s_upload_empty_file(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b""))


def s_upload_replace_same_name(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b"one", "data.msh"))
    p.do("upload_file", record.article_id, p.file(b"one", "data.msh"))
    p.do("get_article", record.article_id)


def s_upload_two_names_ordered(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b"b", "b.dat"))
    p.do("upload_file", record.article_id, p.file(b"a", "a.dat"))
    p.do("get_article", record.article_id)


def s_upload_binary_payload(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(bytes(range(256)) * 11))


def s_upload_missing_article(p):
    p.do("upload_file", 999999, p.file(b"x"))


def s_upload_names_outside_latin1(p):
    # header values are Latin-1, and "%" must survive the name's encoding
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b"1", "数据.vtu"))
    p.do("upload_file", record.article_id, p.file(b"2", "100%.vtu"))
    p.do("get_article", record.article_id)


def s_upload_non_text_name(p):
    record = p.do("create_article", meta())
    p.do("upload_bytes", record.article_id, 5, b"x")
    p.do("upload_bytes", 999999, None, b"x")


def s_upload_name_not_utf8(p):
    # os.listdir hands back a name that is not UTF-8 with lone surrogates
    record = p.do("create_article", meta())
    p.do("upload_bytes", record.article_id, "caf\udce9.vtu", b"x")
    p.do("get_article", record.article_id)


def s_upload_typed_buffer(p):
    # two 4-byte items: the wire carries 8 bytes, and so does the size in process
    record = p.do("create_article", meta())
    p.do("upload_bytes", record.article_id, "a.dat", memoryview(array.array("i", [1, 2])))


def s_upload_file_grown_after_open(p):
    # the upload carries the bytes the file held when it was opened
    record = p.do("create_article", meta())
    path = p.file(b"first")
    with read_local_file(path) as body:
        with open(path, "ab") as handle:
            handle.write(b" and more")
        entry = p.do("upload_bytes", record.article_id, path.name, body)
    assert (entry.size, entry.md5) == (5, hashlib.md5(b"first").hexdigest())
    p.do("get_article", record.article_id)


def s_upload_file_shrunk_after_open(p):
    # a file that ends early is no upload, though a whole chunk of it went out
    record = p.do("create_article", meta())
    path = p.file(bytes(3 * UPLOAD_CHUNK))
    with read_local_file(path) as body:
        os.truncate(path, UPLOAD_CHUNK)
        p.do("upload_bytes", record.article_id, path.name, body)
    p.do("get_article", record.article_id)


def s_upload_file_shrunk_to_missing_article(p):
    # the body is read before the article is looked up, in process as over
    # HTTP, where the client sends it whole before the depot answers
    path = p.file(bytes(3 * UPLOAD_CHUNK))
    with read_local_file(path) as body:
        os.truncate(path, UPLOAD_CHUNK)
        p.do("upload_bytes", 999999, path.name, body)
    assert p.log[-1] == ("upload_bytes", "error", "IoError")


def s_upload_changed(p):
    # the file's own MD5 records nothing, even for an article the depot does
    # not hold; any other digest records what upload_file would
    record = p.do("create_article", meta())
    path = p.file(b"same bytes", "data.vtu")
    first = p.do("upload_file", record.article_id, path)
    for article_id in (record.article_id, 999999):
        assert p.do("upload_changed", article_id, path, first.md5) is None
    p.do("get_article", record.article_id)
    entry = p.do("upload_changed", record.article_id, path, "0" * 32)
    assert entry == replace(first, file_id=first.file_id + 1)
    p.do("upload_changed", 999999, path, "0" * 32)
    p.do("get_article", record.article_id)


def s_upload_changed_file_shrunk_after_open(p):
    # as for upload_file, a file that ends early is no upload, and no match either
    record = p.do("create_article", meta())
    path = p.file(bytes(3 * UPLOAD_CHUNK))
    md5 = hashlib.md5(path.read_bytes()).hexdigest()
    opened = FileBody.__init__

    def shrink_after_open(body, handle, local_path):
        opened(body, handle, local_path)
        os.truncate(local_path, UPLOAD_CHUNK)

    for recorded in (md5, "0" * 32):
        with mock.patch.object(FileBody, "__init__", shrink_after_open):
            p.do("upload_changed", record.article_id, path, recorded)
        assert p.log[-1] == ("upload_changed", "error", "IoError")
        path.write_bytes(bytes(3 * UPLOAD_CHUNK))
    p.do("get_article", record.article_id)


def s_upload_body_not_bytes(p):
    # a body is a FileBody or bytes-like; anything else is a TypeError before
    # a byte is sent or recorded, ahead of the check that the article exists
    record = p.do("create_article", meta())
    with open(p.file(b"abc"), "rb") as handle:
        for body in (5, "abc", [1, 2, 3], handle, memoryview(b"abcd")[::2]):
            for article_id in (record.article_id, 999999):
                with pytest.raises(TypeError):
                    p.client.upload_bytes(article_id, "a.dat", body)
    assert p.do("get_article", record.article_id).files == ()


def s_publish_software_writes_no_archive_file(p):
    # the archive goes from memory to the depot: the temporary directory is
    # empty at each depot call of the stage and after it
    repo = make_repo(p.workdir / "solver")
    scratch = p.workdir / "tmp"
    scratch.mkdir()
    seen = []

    class Watched:
        def __getattr__(self, op):
            seen.extend(scratch.iterdir())
            return getattr(p.client, op)

    saved, tempfile.tempdir = tempfile.tempdir, str(scratch)
    try:
        identity = SoftwareIdentity("solver", git(repo, "rev-parse", "HEAD"), repo)
        result = Publisher(Watched()).publish_software(identity)
    finally:
        tempfile.tempdir = saved
    assert seen == [] and list(scratch.iterdir()) == []
    archive = export_archive(repo, "HEAD", name="solver")
    (entry,) = p.do("get_article", result.article_id).files
    assert (entry.size, entry.md5) == (len(archive), hashlib.md5(archive).hexdigest())


def s_search_no_hits(p):
    p.do("search_by_tag", "no-such-tag")


def s_search_finds_draft(p):
    record = p.do("create_article", meta(tags=["needle"]))
    p.do("search_by_tag", "needle")
    assert record is not None


def s_search_multiple_sorted(p):
    p.do("create_article", meta(tags=["shared"]))
    record = p.do("create_article", meta())
    p.do("add_tag", record.article_id, "shared")
    p.do("search_by_tag", "shared")


def s_search_empty_tag(p):
    p.do("search_by_tag", "")


def s_search_urlencoded_tag(p):
    tag = "spaced tag/with?odd&chars=yes"
    record = p.do("create_article", meta())
    p.do("add_tag", record.article_id, tag)
    p.do("search_by_tag", tag)


def s_add_tag_idempotent(p):
    record = p.do("create_article", meta())
    p.do("add_tag", record.article_id, "a")
    p.do("add_tag", record.article_id, "b")
    p.do("add_tag", record.article_id, "a")


def s_add_tag_missing_article(p):
    p.do("add_tag", 424242, "a")


def s_add_tag_empty(p):
    record = p.do("create_article", meta())
    p.do("add_tag", record.article_id, "")


def s_add_authors_order_and_dedupe(p):
    record = p.do("create_article", meta())
    p.do("add_authors", record.article_id, [7, 7, 8])
    p.do("add_authors", record.article_id, [5, 8])
    p.do("add_authors", record.article_id, [])


def s_add_authors_bad_ids(p):
    record = p.do("create_article", meta())
    p.do("add_authors", record.article_id, [0])
    p.do("add_authors", record.article_id, [-2])
    p.do("add_authors", record.article_id, [10**5000])


def s_add_authors_missing_article(p):
    p.do("add_authors", 31337, [1])


def s_publish_first_version(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b"payload"))
    p.do("publish_article", record.article_id)
    p.do("get_article", record.article_id)


def s_publish_nothing_pending(p):
    record = p.do("create_article", meta())
    p.do("publish_article", record.article_id)
    p.do("publish_article", record.article_id)


def s_publish_interleaved_upload(p):
    record = p.do("create_article", meta())
    p.do("upload_file", record.article_id, p.file(b"v1", "out.vtu"))
    p.do("publish_article", record.article_id)
    p.do("upload_file", record.article_id, p.file(b"v2", "out.vtu"))
    p.do("publish_article", record.article_id)
    p.do("get_article", record.article_id)


def s_publish_missing_article(p):
    p.do("publish_article", 777777)


def s_get_missing_article(p):
    p.do("get_article", 999999)


def s_full_workflow(p):
    record = p.do("create_article", meta(title="solver (abc1234)", kind="code"))
    p.do("upload_file", record.article_id, p.file(b"zip bytes", "solver-abc1234.zip"))
    p.do("add_tag", record.article_id, "abc1234def" * 4)
    p.do("add_authors", record.article_id, [9001, 9002])
    p.do("publish_article", record.article_id)
    p.do("get_article", record.article_id)


def s_two_articles_distinct(p):
    a = p.do("create_article", meta(title="first"))
    b = p.do("create_article", meta(title="second"))
    p.do("publish_article", a.article_id)
    p.do("publish_article", b.article_id)


def s_create_non_list_tags(p):
    p.do("create_article", meta(tags="abc"))


def s_create_tuple_tags(p):
    record = p.do("create_article", meta(tags=("x", "y")))
    p.do("get_article", record.article_id)


def s_add_authors_non_list(p):
    record = p.do("create_article", meta())
    p.do("add_authors", record.article_id, 5)


def s_add_authors_not_json(p):
    record = p.do("create_article", meta())
    p.do("add_authors", record.article_id, {7})
    p.do("add_authors", record.article_id + 1, {7})
    p.do("create_article", meta(tags=["a", object()]))


def s_search_non_text_tag(p):
    p.do("search_by_tag", 5)
    p.do("search_by_tag", None)


def s_search_tag_not_utf8(p):
    # a tag built from a name os.listdir could not decode
    p.do("search_by_tag", "t\udce9")


def s_tag_change_reopens_published(p):
    record = p.do("create_article", meta())
    p.do("publish_article", record.article_id)
    p.do("add_tag", record.article_id, "later")
    p.do("publish_article", record.article_id)
    p.do("get_article", record.article_id)


def _ids_that_are_not_int(p, article_id):
    record = p.do("create_article", meta())
    p.do("get_article", article_id)
    p.do("add_tag", article_id, "t")
    p.do("add_authors", article_id, [7])
    p.do("upload_file", article_id, p.file(b"x"))
    p.do("publish_article", article_id)
    p.do("get_article", record.article_id)


def s_bool_article_id(p):
    _ids_that_are_not_int(p, True)


def s_float_article_id(p):
    _ids_that_are_not_int(p, 1.0)


def s_text_article_id(p):
    _ids_that_are_not_int(p, "1")


def s_article_id_past_the_digit_limit(p):
    # more digits than int() parses or str() prints (4300, from Python 3.11)
    _ids_that_are_not_int(p, 10**5000)


SCENARIOS = [
    s_create_roundtrip,
    s_create_empty_title,
    s_create_bad_kind,
    s_create_duplicate_tags,
    s_create_with_tags_and_description,
    s_upload_known_md5,
    s_upload_empty_file,
    s_upload_replace_same_name,
    s_upload_two_names_ordered,
    s_upload_binary_payload,
    s_upload_missing_article,
    s_upload_names_outside_latin1,
    s_upload_non_text_name,
    s_upload_name_not_utf8,
    s_upload_typed_buffer,
    s_upload_file_grown_after_open,
    s_upload_file_shrunk_after_open,
    s_upload_file_shrunk_to_missing_article,
    s_upload_changed,
    s_upload_changed_file_shrunk_after_open,
    s_upload_body_not_bytes,
    s_publish_software_writes_no_archive_file,
    s_search_no_hits,
    s_search_finds_draft,
    s_search_multiple_sorted,
    s_search_empty_tag,
    s_search_urlencoded_tag,
    s_add_tag_idempotent,
    s_add_tag_missing_article,
    s_add_tag_empty,
    s_add_authors_order_and_dedupe,
    s_add_authors_bad_ids,
    s_add_authors_missing_article,
    s_publish_first_version,
    s_publish_nothing_pending,
    s_publish_interleaved_upload,
    s_publish_missing_article,
    s_get_missing_article,
    s_full_workflow,
    s_two_articles_distinct,
    s_tag_change_reopens_published,
    s_create_non_list_tags,
    s_create_tuple_tags,
    s_add_authors_non_list,
    s_add_authors_not_json,
    s_search_non_text_tag,
    s_search_tag_not_utf8,
    s_bool_article_id,
    s_float_article_id,
    s_text_article_id,
    s_article_id_past_the_digit_limit,
]


def log_bytes(state_path):
    """What a depot's log holds: nothing before its first write."""
    return state_path.read_bytes() if state_path.exists() else b""


def run_scenario_both_ways(scenario, tmp_path):
    """Run ``scenario`` on a depot in process and on one behind the facade;
    return each side's probe, then the bytes each depot's log holds."""
    direct_state, facade_state = tmp_path / "direct.jsonl", tmp_path / "facade.jsonl"
    direct = Probe(Depot(state_path=direct_state), tmp_path / "direct")
    direct.workdir.mkdir()
    scenario(direct)

    server = DepotHttpServer("127.0.0.1:0", Depot(state_path=facade_state), TOKEN).start()
    try:
        with HttpDepotClient(client_config(server.base_url)) as client:
            remote = Probe(client, tmp_path / "remote")
            remote.workdir.mkdir()
            scenario(remote)
    finally:
        server.stop()
    return direct, remote, log_bytes(direct_state), log_bytes(facade_state)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__[2:])
def test_contract_parity(scenario, tmp_path):
    direct, remote, direct_log, facade_log = run_scenario_both_ways(scenario, tmp_path)
    assert direct.log == remote.log
    # the depots themselves went through the identical mutation history
    assert direct_log == facade_log


class RestartingDepot:
    """Serves every call from a depot freshly loaded from its state file,
    as if the process restarted between operations."""

    def __init__(self, state_path):
        self.state_path = state_path

    def __getattr__(self, op):
        return getattr(Depot(state_path=self.state_path), op)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__[2:])
def test_contract_holds_across_restarts(scenario, tmp_path):
    steady_depot = Depot(state_path=tmp_path / "steady.jsonl")
    steady = Probe(steady_depot, tmp_path / "steady")
    steady.workdir.mkdir()
    scenario(steady)

    state = tmp_path / "depot.jsonl"
    restarting = Probe(RestartingDepot(state), tmp_path / "restarting")
    restarting.workdir.mkdir()
    scenario(restarting)

    assert restarting.log == steady.log
    assert log_bytes(state) == log_bytes(tmp_path / "steady.jsonl")
    assert Depot(state_path=state).state == steady_depot.state


@pytest.mark.parametrize("transport", ["direct", "http"])
def test_upload_changed_with_the_files_own_md5_changes_nothing(tmp_path, monkeypatch, transport):
    depot = Depot(state_path=tmp_path / "depot.jsonl")
    article_id = depot.create_article(meta()).article_id
    path = tmp_path / "data.vtu"
    path.write_bytes(b"payload")
    entry = depot.upload_file(article_id, path)
    record = depot.get_article(article_id)
    log = (tmp_path / "depot.jsonl").read_bytes()
    requests_seen = []
    dispatch = _Handler._dispatch
    monkeypatch.setattr(
        _Handler,
        "_dispatch",
        lambda handler, method: requests_seen.append(method) or dispatch(handler, method),
    )
    if transport == "direct":
        assert depot.upload_changed(article_id, path, entry.md5) is None
    else:
        server = DepotHttpServer("127.0.0.1:0", depot, TOKEN).start()
        try:
            with HttpDepotClient(client_config(server.base_url)) as client:
                assert client.upload_changed(article_id, path, entry.md5) is None
        finally:
            server.stop()
    assert requests_seen == []
    assert depot.get_article(article_id) == record
    assert (tmp_path / "depot.jsonl").read_bytes() == log


def test_scenario_count_covers_contract():
    assert len(SCENARIOS) >= 20


# Facade-level behavior that the abstract interface cannot reach.


def test_missing_auth_header_is_401(http_server):
    response = requests.get(f"{http_server.base_url}/v1/articles/1", timeout=5)
    assert response.status_code == 401
    assert response.json() == {"error": "AuthFailure"}


def test_wrong_token_is_401(http_server):
    response = requests.post(
        f"{http_server.base_url}/v1/articles",
        json={"title": "x", "kind": "fileset", "category": "", "tags": []},
        headers={"Authorization": "token nope"},
        timeout=5,
    )
    assert response.status_code == 401
    assert response.json() == {"error": "AuthFailure"}


def test_wrong_scheme_is_401(http_server):
    response = requests.get(
        f"{http_server.base_url}/v1/articles/1",
        headers={"Authorization": f"Bearer {TOKEN}"},
        timeout=5,
    )
    assert response.status_code == 401


def test_non_ascii_authorization_is_401(http_server):
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"GET /v1/articles/1 HTTP/1.1\r\nHost: depot\r\n"
            b"Authorization: token \xe9\r\nConnection: close\r\n\r\n"
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 401 ")
    assert json.loads(body) == {"error": "AuthFailure"}


def test_wrong_token_is_401_before_the_body_is_read(http_server):
    # The body announced is never sent: a depot that read it before checking
    # the token would wait for it, and hold up to that many bytes.
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(
            b"POST /v1/articles/1/files HTTP/1.1\r\nHost: depot\r\n"
            b"Authorization: token nope\r\nX-File-Name: a.dat\r\n"
            b"Content-Length: 1073741824\r\n\r\n"
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 401 ")
    assert b"Connection: close" in head
    assert json.loads(body) == {"error": "AuthFailure"}


def test_netrc_entry_does_not_replace_the_token(http_client, tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login someone password other\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    record = http_client.create_article(meta())
    assert http_client.get_article(record.article_id) == record


def test_keepalive_calls_answer_without_a_delayed_ack_stall(http_client):
    # With Nagle's algorithm on the facade, each reply body waits for the
    # client's delayed ACK, about 40 ms a call. The median tolerates one
    # slow call on a busy machine.
    article_id = http_client.create_article(meta()).article_id
    durations = []
    for _ in range(20):
        start = time.perf_counter()
        http_client.get_article(article_id)
        durations.append(time.perf_counter() - start)
    assert statistics.median(durations) < 0.020


AUTH = {"Authorization": f"token {TOKEN}"}


def test_unknown_route_is_404(http_server):
    response = requests.get(f"{http_server.base_url}/v2/other", headers=AUTH, timeout=5)
    assert response.status_code == 404
    assert response.json() == {"error": "NotFound"}


def test_missing_article_error_body_is_exact(http_server):
    response = requests.get(
        f"{http_server.base_url}/v1/articles/999999", headers=AUTH, timeout=5
    )
    assert response.status_code == 404
    assert response.content == b'{"error": "NotFound"}'


def test_article_id_past_the_digit_limit_is_404(http_server, caplog):
    with caplog.at_level(logging.ERROR, logger="curator.depot_http"):
        response = requests.get(
            f"{http_server.base_url}/v1/articles/{'9' * 5000}", headers=AUTH, timeout=5
        )
    assert response.status_code == 404
    assert response.json() == {"error": "NotFound"}
    assert not [record for record in caplog.records if record.levelno >= logging.ERROR]


def test_create_returns_201_with_article_id_only(http_server):
    response = requests.post(
        f"{http_server.base_url}/v1/articles",
        json={"title": "t", "description": "", "kind": "code", "category": "c", "tags": []},
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 201
    assert response.json() == {"article_id": 1}


def test_failed_append_is_500_and_logged(tmp_path, caplog):
    server = DepotHttpServer("127.0.0.1:0", Depot(tmp_path / "gone" / "depot.jsonl"), TOKEN).start()
    try:
        with caplog.at_level(logging.ERROR, logger="curator.depot_http"):
            response = requests.post(
                f"{server.base_url}/v1/articles",
                json={"title": "t", "description": "", "kind": "code", "category": "c", "tags": []},
                headers=AUTH,
                timeout=5,
            )
    finally:
        server.stop()
    assert response.status_code == 500
    assert response.json() == {"error": "IoError"}
    (message,) = [r.message for r in caplog.records if r.levelno == logging.ERROR]
    assert message.startswith("POST /v1/articles failed: IoError: cannot write ")


def test_an_unexpected_depot_failure_is_500_and_the_connection_serves_on(
    http_server, monkeypatch, caplog
):
    article_id = http_server.depot.create_article(meta()).article_id
    get_article = http_server.depot.get_article

    def failing(article_id):
        raise RuntimeError("the depot broke")

    request = (
        f"GET /v1/articles/{article_id} HTTP/1.1\r\nHost: depot\r\n"
        f"Authorization: token {TOKEN}\r\n\r\n".encode()
    )
    host, port = http_server.address.rsplit(":", 1)
    monkeypatch.setattr(http_server.depot, "get_article", failing)
    with caplog.at_level(logging.INFO, logger="curator.depot_http"):
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(request)
            head, body = _read_reply(sock)
            assert head.startswith(b"HTTP/1.1 500 ")
            assert b"Connection: close" not in head
            assert json.loads(body) == {"error": "InternalError"}
            monkeypatch.setattr(http_server.depot, "get_article", get_article)
            sock.sendall(request)
            head, body = _read_reply(sock)
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)["article_id"] == article_id
    (record,) = caplog.records
    assert record.levelno == logging.ERROR
    assert record.getMessage() == f"unhandled facade failure on GET /v1/articles/{article_id}"


def test_an_unexpected_depot_failure_is_a_transport_error_at_once(
    http_server, http_client, monkeypatch
):
    def failing(article_id):
        raise RuntimeError("the depot broke")

    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    monkeypatch.setattr(http_server.depot, "get_article", failing)
    with pytest.raises(TransportError):
        http_client.get_article(1)
    assert delays == []


def test_a_connection_past_the_cap_is_closed_unanswered(http_server, monkeypatch, caplog):
    monkeypatch.setattr(depot_http, "MAX_CONNECTIONS", 2)
    monkeypatch.setattr(_Handler, "timeout", 5)
    article_id = http_server.depot.create_article(meta()).article_id
    host, port = http_server.address.rsplit(":", 1)
    idle = [socket.create_connection((host, int(port)), timeout=5) for _ in range(2)]
    try:
        with caplog.at_level(logging.WARNING, logger="curator.depot_http"):
            with socket.create_connection((host, int(port)), timeout=5) as refused:
                started = time.monotonic()
                assert refused.recv(4096) == b""
                assert time.monotonic() - started < 2
        (record,) = caplog.records
        assert record.getMessage() == "connection from 127.0.0.1 closed unanswered: 2 open"
        delays = []

        def sleep(delay):
            # the client's first attempt was closed unanswered; a slot frees during its back-off
            delays.append(delay)
            idle.pop().close()
            threading.Event().wait(delay)  # time.sleep is this function here

        with HttpDepotClient(client_config(http_server.base_url)) as client:
            monkeypatch.setattr(client_mod.time, "sleep", sleep)
            assert client.get_article(article_id).article_id == article_id
        assert delays == [0.5]
    finally:
        for sock in idle:
            sock.close()


def test_invalid_meta_is_422(http_server):
    response = requests.post(
        f"{http_server.base_url}/v1/articles",
        json={"title": "", "kind": "fileset", "category": "", "tags": []},
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 422
    assert response.json() == {"error": "InvalidMeta"}


def test_malformed_json_body_is_422(http_server):
    response = requests.post(
        f"{http_server.base_url}/v1/articles",
        data=b"{not json",
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 422
    assert response.json() == {"error": "InvalidMeta"}


def test_non_object_json_body_is_422(http_server):
    response = requests.post(
        f"{http_server.base_url}/v1/articles",
        data=b'["list"]',
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 422


def test_upload_endpoint_shapes(http_server, http_client):
    record = http_client.create_article(meta())
    url = f"{http_server.base_url}/v1/articles/{record.article_id}/files"

    response = requests.post(
        url, data=b"abc", headers={**AUTH, "X-File-Name": "a.dat"}, timeout=5
    )
    assert response.status_code == 201
    body = response.json()
    assert body["name"] == "a.dat"
    assert body["size"] == 3
    assert body["md5"] == "900150983cd24fb0d6963f7d28e17f72"

    # header missing and header naming a path are both invalid
    assert requests.post(url, data=b"x", headers=AUTH, timeout=5).status_code == 422
    response = requests.post(
        url, data=b"x", headers={**AUTH, "X-File-Name": "a/b.dat"}, timeout=5
    )
    assert response.status_code == 422


def test_publish_conflict_is_409(http_server, http_client):
    record = http_client.create_article(meta())
    http_client.publish_article(record.article_id)
    response = requests.post(
        f"{http_server.base_url}/v1/articles/{record.article_id}/publish",
        json={},
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 409
    assert response.json() == {"error": "NothingToPublish"}


def test_publish_accepts_empty_body(http_server, http_client):
    record = http_client.create_article(meta())
    response = requests.post(
        f"{http_server.base_url}/v1/articles/{record.article_id}/publish",
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 200
    assert response.json() == {"doi": record_doi(record.article_id), "version": 1}


def record_doi(article_id: int) -> str:
    return f"10.5072/mockdepot.{article_id}"


@pytest.mark.parametrize("name", ["a%2Fb.dat", "%FF.dat"])
def test_file_name_header_is_checked_after_decoding(http_server, http_client, name):
    # a slash may not hide behind its escape, and the escapes must be UTF-8
    record = http_client.create_article(meta())
    response = requests.post(
        f"{http_server.base_url}/v1/articles/{record.article_id}/files",
        data=b"x",
        headers={**AUTH, "X-File-Name": name},
        timeout=5,
    )
    assert response.status_code == 422
    assert response.json() == {"error": "InvalidMeta"}
    assert http_client.get_article(record.article_id).files == ()


def test_search_requires_tag_parameter(http_server):
    response = requests.get(
        f"{http_server.base_url}/v1/articles/search", headers=AUTH, timeout=5
    )
    assert response.status_code == 422


def test_keepalive_connection_survives_an_error(http_server):
    # one session, failing POST with a body, then a successful call
    session = requests.Session()
    session.headers.update(AUTH)
    bad = session.post(
        f"{http_server.base_url}/v1/articles",
        json={"title": "", "kind": "fileset", "category": "", "tags": []},
        timeout=5,
    )
    assert bad.status_code == 422
    good = session.post(
        f"{http_server.base_url}/v1/articles",
        json={"title": "ok", "kind": "fileset", "category": "", "tags": []},
        timeout=5,
    )
    assert good.status_code == 201


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_unreadable_content_length_is_422_and_closes(http_server, length):
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /v1/articles HTTP/1.1\r\nHost: depot\r\n"
            + f"Authorization: token {TOKEN}\r\nContent-Length: {length}\r\n\r\n".encode()
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 422 ")
    assert b"Connection: close" in head
    assert json.loads(body) == {"error": "InvalidMeta"}


def _exchange(http_server, request: bytes) -> tuple[bytes, float]:
    """Send ``request`` on a new connection, then read until the facade
    closes it: the reply and the seconds it took."""
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        started = time.monotonic()
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply, time.monotonic() - started


@pytest.mark.parametrize(
    "framing",
    [
        "Transfer-Encoding: chunked\r\nContent-Length: {n}",
        "Content-Length: {n}\r\nContent-Length: {more}",
    ],
    ids=["chunked-and-length", "two-lengths"],
)
def test_a_request_a_proxy_would_frame_otherwise_is_422_and_closes(http_server, framing):
    body = b'{"title": "t", "kind": "code", "category": "c", "tags": []}'
    headers = framing.format(n=len(body), more=len(body) + 5)
    reply, _ = _exchange(
        http_server,
        f"POST /v1/articles HTTP/1.1\r\nHost: depot\r\nAuthorization: token {TOKEN}\r\n"
        f"{headers}\r\n\r\n".encode() + body,
    )
    head, _, answer = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 422 ")
    assert b"Connection: close" in head
    assert json.loads(answer) == {"error": "InvalidMeta"}
    assert http_server.depot.state.articles == {}


def test_a_content_length_given_twice_is_422_and_closes_even_when_the_values_agree(http_server):
    # the facade reads one field given twice as one value, "n, n", which is no length
    test_a_request_a_proxy_would_frame_otherwise_is_422_and_closes(
        http_server, "Content-Length: {n}\r\nContent-Length: {n}"
    )


def _read_reply(sock) -> tuple[bytes, bytes]:
    """Read one reply with a Content-Length from ``sock``: its head and body."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        head += sock.recv(1)
    length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", head)[1])
    return head, sock.recv(length, socket.MSG_WAITALL)


# What a client saw of http.server, which the facade keeps. Each request
# below is sent whole and read in full, so no unread byte turns the close into
# a reset.


@pytest.mark.parametrize(
    "request_head, status",
    [
        (b"GET /v1/articles/1 extra HTTP/1.1\r\nHost: depot\r\n\r\n", 400),
        (b"GET /" + b"a" * (65537 - 5), 414),  # a request line of 64 KiB + 1
        (b"GET /v1/articles/1 HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8), 431),
        (b"GET /v1/articles/1 HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101, 431),
        (b"PUT /v1/articles HTTP/1.1\r\nHost: depot\r\n\r\n", 501),
    ],
    ids=["malformed-request-line", "long-request-line", "long-header-line", "101-headers", "put"],
)
def test_a_request_the_facade_cannot_serve_is_refused_and_closed(http_server, request_head, status):
    reply, took = _exchange(http_server, request_head)
    head = reply.partition(b"\r\n\r\n")[0] + b"\r\n"
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"\r\nConnection: close\r\n" in head
    assert took < 2


def test_an_http_version_above_1_1_is_505_and_closes(http_server):
    # http.server wrote this one without a status line, as if to HTTP/0.9
    reply, took = _exchange(http_server, b"GET /v1/articles/1 HTTP/2.0\r\nHost: depot\r\n\r\n")
    assert b"505" in reply
    assert took < 2


def test_http_1_0_closes_unless_asked_to_keep_alive(http_server):
    request = f"GET /v1/articles/search?tag=t HTTP/1.0\r\nAuthorization: token {TOKEN}\r\n"
    reply, _ = _exchange(http_server, f"{request}\r\n".encode())
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"\r\nConnection: close" in head
    assert json.loads(body) == {"items": []}
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        for _ in range(2):  # the connection carries a second request
            sock.sendall(f"{request}Connection: keep-alive\r\n\r\n".encode())
            head, body = _read_reply(sock)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"\r\nServer: curator-depot" in head
            assert json.loads(body) == {"items": []}


def test_expect_100_continue_with_the_token_is_answered_before_the_body(http_server):
    body = b'{"title": "t", "kind": "code", "category": "c", "tags": []}'
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /v1/articles HTTP/1.1\r\nHost: depot\r\nExpect: 100-continue\r\n"
            + f"Authorization: token {TOKEN}\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim.startswith(b"HTTP/1.1 100 ")
        sock.sendall(body)
        head, answer = _read_reply(sock)
    assert head.startswith(b"HTTP/1.1 201 ")
    assert json.loads(answer) == {"article_id": 1}


def test_requests_sent_in_one_write_are_answered_in_order(http_server):
    http_server.depot.create_article(meta(title="first"))
    get = f"GET /v1/articles/{{}} HTTP/1.1\r\nAuthorization: token {TOKEN}\r\n\r\n"
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall((get.format(1) + get.format(2)).encode())
        first, second = _read_reply(sock), _read_reply(sock)
    assert json.loads(first[1])["title"] == "first"
    assert second[0].startswith(b"HTTP/1.1 404 ")


# Where the facade is stricter than http.server was.


@pytest.mark.parametrize(
    "field",
    [
        b"Content-Length : 2",
        b"X-Pad: 1\r\n Content-Length: 2",
        b"X-Pad: 1\rContent-Length: 2",
        b"Content-Length 2",
        b": 2",
    ],
    ids=["space-before-colon", "folded", "bare-cr", "no-colon", "no-name"],
)
def test_a_malformed_header_line_is_400_and_closes(http_server, field):
    # a proxy in front could read such a line as another field, or as none
    reply, took = _exchange(
        http_server,
        f"POST /v1/articles HTTP/1.1\r\nAuthorization: token {TOKEN}\r\n".encode()
        + field
        + b"\r\n\r\n",
    )
    head = reply.partition(b"\r\n\r\n")[0] + b"\r\n"
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close\r\n" in head
    assert took < 2
    assert http_server.depot.state.articles == {}


def test_expect_100_continue_without_the_token_is_answered_401_at_once(http_server):
    reply, _ = _exchange(
        http_server,
        b"POST /v1/articles HTTP/1.1\r\nHost: depot\r\nExpect: 100-continue\r\n"
        b"Authorization: token nope\r\nContent-Length: 60\r\n\r\n",
    )
    assert reply.startswith(b"HTTP/1.1 401 ")
    assert b"Connection: close" in reply.partition(b"\r\n\r\n")[0]


def test_a_stalled_head_or_body_is_closed_quietly(http_server, monkeypatch, capfd):
    article_id = http_server.depot.create_article(meta()).article_id
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    # a partial head with no token yet, which http.server closes unanswered
    reply, took = _exchange(http_server, b"POST /v1/articles HTTP/1.1\r\nHost: depot\r\n")
    assert reply == b""
    assert took < 2
    # a whole head, then 3 of its 100 body bytes: answered as a short body
    reply, took = _exchange(
        http_server,
        f"POST /v1/articles/{article_id}/files HTTP/1.1\r\nHost: depot\r\n"
        f"Authorization: token {TOKEN}\r\nX-File-Name: a.dat\r\n"
        "Content-Length: 100\r\n\r\nabc".encode(),
    )
    head, _, answer = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 422 ")
    assert b"Connection: close" in head
    assert json.loads(answer) == {"error": "InvalidMeta"}
    assert took < 2
    assert http_server.depot.get_article(article_id).files == ()
    assert capfd.readouterr().err == ""


def test_a_head_sent_a_byte_at_a_time_is_closed_unanswered(http_server, monkeypatch):
    # each byte comes well within the timeout, but the whole head does not
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    head = f"GET /v1/articles/1 HTTP/1.1\r\nAuthorization: token {TOKEN}\r\n\r\n".encode()
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        started, reply = time.monotonic(), None
        for byte in head:
            with contextlib.suppress(ConnectionError):
                sock.sendall(bytes([byte]))
            if select.select([sock], [], [], 0.2)[0] or time.monotonic() - started > 3:
                break
        with contextlib.suppress(ConnectionError):
            reply = sock.recv(4096)
        took = time.monotonic() - started
    assert reply in (b"", None)
    assert took < 2


def test_a_get_with_a_body_is_422_and_closes(http_server):
    # The body is itself a whole request: left on the connection, it would be
    # served as the next one, which a proxy in front never saw.
    article_id = http_server.depot.create_article(meta()).article_id
    smuggled = b"GET /v1/articles/1 HTTP/1.1\r\nConnection: close\r\nX-Pad: %s\r\n\r\n"
    smuggled %= b"p" * (64 - len(smuggled % b""))
    assert len(smuggled) == 64
    reply, took = _exchange(
        http_server,
        f"GET /v1/articles/{article_id} HTTP/1.1\r\nHost: depot\r\n"
        f"Authorization: token {TOKEN}\r\nContent-Length: 64\r\n\r\n".encode() + smuggled,
    )
    assert reply.count(b"HTTP/1.1 ") == 1
    head, _, answer = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 422 ")
    assert b"Connection: close" in head
    assert json.loads(answer) == {"error": "InvalidMeta"}
    assert took < 2


def test_a_reply_the_client_stops_reading_is_one_info_line(
    http_server, monkeypatch, caplog, capfd
):
    finished = threading.Event()
    process_request, shutdown_request = _Server.process_request, _Server.shutdown_request

    def accepting(server, request, address):
        request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        process_request(server, request, address)

    def finishing(server, request):
        shutdown_request(server, request)
        finished.set()

    monkeypatch.setattr(_Server, "process_request", accepting)
    monkeypatch.setattr(_Server, "shutdown_request", finishing)
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    # about 2 MiB of reply, far more than both ends' socket buffers hold
    files = tuple(FileEntry(index, f"{index}.dat", 1, "0" * 32) for index in range(1, 20001))
    http_server.depot.create_article(meta())
    http_server.depot.state.articles[1].records[-1] = replace(
        http_server.depot.get_article(1), files=files
    )
    host, port = http_server.address.rsplit(":", 1)
    with caplog.at_level(logging.INFO, logger="curator.depot_http"):
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(5)
            sock.connect((host, int(port)))
            sock.sendall(
                f"GET /v1/articles/1 HTTP/1.1\r\nHost: depot\r\n"
                f"Authorization: token {TOKEN}\r\n\r\n".encode()
            )
            assert finished.wait(5)
    assert capfd.readouterr().err == ""
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert record.getMessage() == "client 127.0.0.1 gone: TimeoutError"


def test_short_body_is_422_and_records_nothing(http_server, http_client):
    article_id = http_client.create_article(meta()).article_id
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            f"POST /v1/articles/{article_id}/files HTTP/1.1\r\nHost: depot\r\n"
            f"Authorization: token {TOKEN}\r\nX-File-Name: a.dat\r\n"
            "Content-Length: 10\r\n\r\nabc".encode()
        )
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 422 ")
    assert b"Connection: close" in head
    assert json.loads(body) == {"error": "InvalidMeta"}
    assert http_client.get_article(article_id).files == ()


def test_client_gone_before_the_reply_is_one_info_line(http_server, monkeypatch, caplog, capfd):
    accepted, finished = [], threading.Event()
    process_request, shutdown_request = _Server.process_request, _Server.shutdown_request

    def accepting(server, request, address):
        accepted.append(request)
        process_request(server, request, address)

    def finishing(server, request):
        shutdown_request(server, request)
        finished.set()

    monkeypatch.setattr(_Server, "process_request", accepting)
    monkeypatch.setattr(_Server, "shutdown_request", finishing)
    handle, handling, gone = http_server.depot.handle, threading.Event(), threading.Event()

    def held(op, params):
        handling.set()
        gone.wait(5)
        return handle(op, params)

    monkeypatch.setattr(http_server.depot, "handle", held)
    host, port = http_server.address.rsplit(":", 1)
    body = b'{"title": "t", "kind": "code", "category": "c", "tags": []}'
    with caplog.at_level(logging.INFO, logger="curator.depot_http"):
        sock = socket.create_connection((host, int(port)), timeout=5)
        sock.sendall(
            b"POST /v1/articles HTTP/1.1\r\nHost: depot\r\n"
            + f"Authorization: token {TOKEN}\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert handling.wait(5)
        # a zero linger time makes close() reset the connection
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        # the reply is written only once the facade's end has seen the reset
        assert select.select(accepted, [], [], 5)[0] == accepted
        gone.set()
        assert finished.wait(5)
    assert capfd.readouterr().err == ""
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert record.getMessage().startswith("client 127.0.0.1 gone: ")


def test_route_table_covers_the_contract():
    served = {"upload_bytes" if op == "upload_file" else op for op in DepotClient.__abstractmethods__}
    assert set(ROUTES) == served


def test_each_route_answers_its_declared_status(http_server, http_client, tmp_path, monkeypatch):
    answered = []
    handle = HttpDepotClient._handle_response

    def record(method, path, response):
        answered.append((method, path.partition("?")[0], response.status_code))
        return handle(method, path, response)

    monkeypatch.setattr(HttpDepotClient, "_handle_response", staticmethod(record))
    article = http_client.create_article(meta(tags=["t"]))
    (tmp_path / "a.dat").write_bytes(b"a")
    http_client.upload_file(article.article_id, tmp_path / "a.dat")
    http_client.search_by_tag("t")
    http_client.add_tag(article.article_id, "u")
    http_client.add_authors(article.article_id, [1])
    http_client.publish_article(article.article_id)
    for op, route in ROUTES.items():
        statuses = {
            status
            for method, path, status in answered
            if method == route.method and route.pattern.fullmatch(path)
        }
        assert statuses == {route.status}, op


def test_bind_error_on_occupied_port():
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    try:
        with pytest.raises(BindError):
            DepotHttpServer(f"127.0.0.1:{port}", Depot(), TOKEN)
    finally:
        placeholder.close()


def test_bind_address_must_have_numeric_port():
    with pytest.raises(BindError):
        DepotHttpServer("127.0.0.1:http", Depot(), TOKEN)


def test_stop_is_idempotent_and_port_is_released():
    server = DepotHttpServer("127.0.0.1:0", Depot(), TOKEN).start()
    address = server.address
    server.stop()
    server.stop()
    reuse = DepotHttpServer(address, Depot(), TOKEN).start()
    try:
        assert reuse.address == address
    finally:
        reuse.stop()


def test_stop_closes_kept_alive_connections():
    server = DepotHttpServer("127.0.0.1:0", Depot(), TOKEN).start()
    host, port = server.address.rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        connection.request("GET", "/v1/articles/search?tag=t", headers=AUTH)
        first = connection.getresponse()
        assert (first.status, first.read()) == (200, b'{"items": []}')
        server.stop()
        with pytest.raises((http.client.HTTPException, OSError)):
            connection.request("GET", "/v1/articles/search?tag=t", headers=AUTH)
            connection.getresponse()
    finally:
        connection.close()
        server.stop()


def test_facade_state_persists_across_server_restarts(tmp_path):
    state = tmp_path / "depot.jsonl"
    first = DepotHttpServer("127.0.0.1:0", Depot(state_path=state), TOKEN).start()
    try:
        client = HttpDepotClient(client_config(first.base_url))
        record = client.create_article(meta(title="persisted"))
        client.publish_article(record.article_id)
    finally:
        client.close()
        first.stop()

    second = DepotHttpServer("127.0.0.1:0", Depot(state_path=state), TOKEN).start()
    try:
        client = HttpDepotClient(client_config(second.base_url))
        fetched = client.get_article(record.article_id)
        assert fetched.meta.title == "persisted"
        assert fetched.status == "published"
    finally:
        client.close()
        second.stop()


@pytest.mark.parametrize("length", ["1_2", "+12", "0_12"])
def test_content_length_of_other_than_ascii_digits_is_422_and_closes(
    http_server, http_client, length
):
    # int() reads each of these as 12, but a proxy in front of the facade
    # would frame the request differently; the body sent is 12 bytes
    article_id = http_client.create_article(meta()).article_id
    host, port = http_server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            f"POST /v1/articles/{article_id}/files HTTP/1.1\r\nHost: depot\r\n"
            f"Authorization: token {TOKEN}\r\nX-File-Name: a.dat\r\n"
            f"Content-Length: {length}\r\n\r\n0123456789ab".encode()
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 422 ")
    assert b"Connection: close" in head
    assert json.loads(body) == {"error": "InvalidMeta"}
    assert http_client.get_article(article_id).files == ()
