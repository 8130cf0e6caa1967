from __future__ import annotations

import json
import socket

import pytest
import requests

from conftest import TOKEN, client_config

from curator.client import (
    ROUTES,
    ArticleMeta,
    ArticleRecord,
    DepotClient,
    FileEntry,
    HttpDepotClient,
    file_entry_to_wire,
    record_to_wire,
)
from curator.depot import Depot
from curator.depot_http import DepotHttpServer
from curator.errors import BindError, CuratorError


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
    m.description = "two-line\ndescription"
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


def s_tag_change_reopens_published(p):
    record = p.do("create_article", meta())
    p.do("publish_article", record.article_id)
    p.do("add_tag", record.article_id, "later")
    p.do("publish_article", record.article_id)
    p.do("get_article", record.article_id)


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
]


def run_scenario_both_ways(scenario, tmp_path):
    direct_depot = Depot()
    direct = Probe(direct_depot, tmp_path / "direct")
    direct.workdir.mkdir()
    scenario(direct)

    facade_depot = Depot()
    server = DepotHttpServer("127.0.0.1:0", facade_depot, TOKEN).start()
    try:
        client = HttpDepotClient(client_config(server.base_url))
        remote = Probe(client, tmp_path / "remote")
        remote.workdir.mkdir()
        scenario(remote)
    finally:
        server.stop()
    return direct, remote, direct_depot, facade_depot


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__[2:])
def test_contract_parity(scenario, tmp_path):
    direct, remote, direct_depot, facade_depot = run_scenario_both_ways(scenario, tmp_path)
    assert direct.log == remote.log
    # the depots themselves went through the identical mutation history
    assert direct_depot.state.op_log == facade_depot.state.op_log


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


def test_create_returns_201_with_article_id_only(http_server):
    response = requests.post(
        f"{http_server.base_url}/v1/articles",
        json={"title": "t", "description": "", "kind": "code", "category": "c", "tags": []},
        headers=AUTH,
        timeout=5,
    )
    assert response.status_code == 201
    assert response.json() == {"article_id": 1}


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


def test_facade_state_persists_across_server_restarts(tmp_path):
    state = tmp_path / "depot.jsonl"
    first = DepotHttpServer("127.0.0.1:0", Depot(state_path=state), TOKEN).start()
    try:
        client = HttpDepotClient(client_config(first.base_url))
        record = client.create_article(meta(title="persisted"))
        client.publish_article(record.article_id)
    finally:
        first.stop()

    second = DepotHttpServer("127.0.0.1:0", Depot(state_path=state), TOKEN).start()
    try:
        client = HttpDepotClient(client_config(second.base_url))
        fetched = client.get_article(record.article_id)
        assert fetched.meta.title == "persisted"
        assert fetched.status == "published"
    finally:
        second.stop()


def test_op_log_json_roundtrip(tmp_path):
    # the parity comparison feeds on op logs; pin their shape
    depot = Depot()
    record = depot.create_article(meta())
    depot.add_tag(record.article_id, "x")
    assert depot.state.op_log == [
        ("create_article", 1, "wave"),
        ("add_tag", 1, "x"),
    ]
    assert json.loads(json.dumps(depot.state.op_log)) == [
        ["create_article", 1, "wave"],
        ["add_tag", 1, "x"],
    ]
