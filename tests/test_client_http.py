from __future__ import annotations

import json

import pytest
import requests

import curator.client as client_mod
from conftest import client_config

from curator.client import (
    DEFAULT_TIMEOUT,
    RETRY_BACKOFF,
    HttpDepotClient,
    read_local_file,
)
from curator.errors import (
    AuthFailure,
    Conflict,
    InvalidMeta,
    IoError,
    NotFound,
    NothingToPublish,
    TransportError,
    wire_error,
)


class FakeResponse:
    def __init__(self, status_code, payload=None, body=b""):
        self.status_code = status_code
        if payload is not None:
            body = json.dumps(payload).encode()
        self.content = body

    def json(self):
        return json.loads(self.content.decode())


def make_client(base_url="http://127.0.0.1:9"):
    return HttpDepotClient(client_config(base_url))


def test_retry_schedule_is_fixed():
    assert RETRY_BACKOFF == (0.5, 1.0, 2.0)
    assert DEFAULT_TIMEOUT == 30.0


def test_config_requires_http_scheme():
    with pytest.raises(ValueError):
        make_client("ftp://host")
    with pytest.raises(ValueError):
        make_client("host:8080")


def test_config_requires_all_credentials():
    config = client_config("http://h")
    config.token_secret = ""
    with pytest.raises(ValueError) as err:
        HttpDepotClient(config)
    assert "token_secret" in str(err.value)


def test_auth_header_shape():
    client = make_client()
    assert client._session.headers["Authorization"] == "token sekrit"


def test_connection_failures_retry_then_raise(monkeypatch):
    # port 9 (discard) refuses connections immediately
    client = make_client("http://127.0.0.1:9")
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    with pytest.raises(TransportError):
        client.get_article(1)
    assert delays == [0.5, 1.0, 2.0]


def test_transient_failure_then_success(monkeypatch):
    client = make_client()
    monkeypatch.setattr(client_mod.time, "sleep", lambda _: None)
    calls = {"n": 0}

    def flaky(method, url, **kwargs):
        calls["n"] += 1
        if calls["n"] < 3:
            raise requests.ConnectionError("boom")
        return FakeResponse(200, {"doi": "10.5072/mockdepot.1", "version": 1})

    monkeypatch.setattr(client_mod.requests.Session, "request", staticmethod(flaky))
    client = make_client()
    assert client.publish_article(1) == ("10.5072/mockdepot.1", 1)
    assert calls["n"] == 3


def read_timeout_counting(monkeypatch):
    """A client whose every request times out waiting for the reply."""
    calls, delays = [], []

    def timeout(method, url, **kwargs):
        calls.append(method)
        raise requests.ReadTimeout("no reply")

    client = make_client()
    monkeypatch.setattr(client._session, "request", timeout)
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    return client, calls, delays


def test_post_read_timeout_is_not_retried(monkeypatch):
    # the depot may have applied the POST already; sending it again would
    # create a second article or upload
    client, calls, delays = read_timeout_counting(monkeypatch)
    with pytest.raises(TransportError):
        client.publish_article(1)
    assert (calls, delays) == (["POST"], [])


def test_get_read_timeout_is_retried(monkeypatch):
    client, calls, delays = read_timeout_counting(monkeypatch)
    with pytest.raises(TransportError):
        client.get_article(1)
    assert (calls, delays) == (["GET"] * 4, [0.5, 1.0, 2.0])


def test_non_retryable_request_exception(monkeypatch):
    def broken(method, url, **kwargs):
        raise requests.TooManyRedirects("loop")

    client = make_client()
    monkeypatch.setattr(client._session, "request", broken)
    with pytest.raises(TransportError):
        client.get_article(1)


def test_timeout_passed_to_every_call(monkeypatch):
    seen = {}

    def capture(method, url, **kwargs):
        seen["timeout"] = kwargs["timeout"]
        return FakeResponse(
            200,
            {
                "article_id": 1,
                "title": "t",
                "description": "",
                "kind": "code",
                "category": "",
                "tags": [],
                "status": "draft",
                "version": 0,
                "doi": None,
                "files": [],
                "authors": [],
            },
        )

    client = HttpDepotClient(client_config("http://h"), timeout=7.5)
    monkeypatch.setattr(client._session, "request", capture)
    client.get_article(1)
    assert seen["timeout"] == 7.5


def test_error_kind_mapping_from_body():
    handle = HttpDepotClient._handle_response
    with pytest.raises(NotFound):
        handle("GET", "/x", FakeResponse(404, {"error": "NotFound"}))
    with pytest.raises(AuthFailure):
        handle("GET", "/x", FakeResponse(401, {"error": "AuthFailure"}))
    with pytest.raises(InvalidMeta):
        handle("POST", "/x", FakeResponse(422, {"error": "InvalidMeta"}))
    with pytest.raises(NothingToPublish):
        handle("POST", "/x", FakeResponse(409, {"error": "NothingToPublish"}))
    with pytest.raises(Conflict):
        handle("POST", "/x", FakeResponse(409, {"error": "Conflict"}))


def test_error_mapping_falls_back_to_status():
    handle = HttpDepotClient._handle_response
    with pytest.raises(NotFound):
        handle("GET", "/x", FakeResponse(404, body=b"<html>gone</html>"))
    with pytest.raises(AuthFailure):
        handle("GET", "/x", FakeResponse(401, body=b""))
    with pytest.raises(TransportError):
        handle("GET", "/x", FakeResponse(503, body=b"upstream sad"))


def test_non_json_success_body_is_transport_error():
    handle = HttpDepotClient._handle_response
    with pytest.raises(TransportError):
        handle("GET", "/x", FakeResponse(200, body=b"<html>proxy page</html>"))


def test_non_object_error_body_falls_back_to_status():
    handle = HttpDepotClient._handle_response
    with pytest.raises(NotFound):
        handle("GET", "/x", FakeResponse(404, [1]))
    with pytest.raises(NotFound):
        handle("GET", "/x", FakeResponse(404, {"error": ["NotFound"]}))
    with pytest.raises(Conflict):
        handle("POST", "/x", FakeResponse(409, "NothingToPublish"))
    with pytest.raises(TransportError):
        handle("GET", "/x", FakeResponse(502, [1]))


def test_malformed_success_reply_is_transport_error(monkeypatch):
    client = make_client()
    monkeypatch.setattr(client._session, "request", lambda *a, **k: FakeResponse(200, [1]))
    with pytest.raises(TransportError):
        client.get_article(1)
    with pytest.raises(TransportError):
        client.publish_article(1)


def test_wire_error_prefers_body_kind_over_status():
    assert wire_error("NothingToPublish", 409) is NothingToPublish
    assert wire_error("AlreadyMinted", 409).__name__ == "AlreadyMinted"
    assert wire_error(None, 409) is Conflict
    assert wire_error("SomethingNew", 500) is TransportError


def test_read_local_file_maps_oserror(tmp_path):
    with pytest.raises(IoError):
        read_local_file(tmp_path / "missing.bin")
    with pytest.raises(IoError):
        read_local_file(tmp_path)  # a directory is not uploadable


def test_trailing_slash_in_base_url_is_tolerated(http_server):
    client = HttpDepotClient(client_config(http_server.base_url + "/"))
    record = client.create_article(
        client_mod.ArticleMeta(title="t", kind="code", category="c")
    )
    assert record.article_id == 1
