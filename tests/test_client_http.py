from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import curator.client as client_mod
from conftest import TOKEN, client_config

from curator.client import (
    DEFAULT_TIMEOUT,
    RETRY_BACKOFF,
    UPLOAD_CHUNK,
    ArticleMeta,
    HttpDepotClient,
    read_local_file,
)
from curator.depot import Depot
from curator.depot_http import DepotHttpServer, _Handler
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


@pytest.fixture
def listener():
    """A loopback socket that listens but never accepts: the kernel completes
    each connect, and every request then waits for a reply that never comes."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock


def silent_client(listener, monkeypatch):
    """A client with a 0.2 s timeout on ``listener``, and its retry delays."""
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    host, port = listener.getsockname()[:2]
    return HttpDepotClient(client_config(f"http://{host}:{port}"), timeout=0.2), delays


def request_heads(listener) -> list[bytes]:
    """Accept every connection queued on ``listener`` and return its request head."""
    listener.setblocking(False)
    heads = []
    while True:
        try:
            connection, _ = listener.accept()
        except BlockingIOError:
            return heads
        with connection:
            connection.settimeout(5)
            heads.append(connection.recv(65536).partition(b"\r\n\r\n")[0])


def methods(heads) -> list[str]:
    return [head.split(b" ", 1)[0].decode() for head in heads]


def count_accepts(monkeypatch) -> list:
    """Record the server end of every connection the facade accepts."""
    accepted = []
    setup = _Handler.setup

    def counting(handler):
        accepted.append(handler.request)
        setup(handler)

    monkeypatch.setattr(_Handler, "setup", counting)
    return accepted


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


def test_auth_header_shape(listener, monkeypatch):
    client, _ = silent_client(listener, monkeypatch)
    with pytest.raises(TransportError):
        client.publish_article(1)
    [head] = request_heads(listener)
    assert b"\r\nAuthorization: token sekrit\r\n" in head


def test_connection_failures_retry_then_raise(monkeypatch):
    # port 9 (discard) refuses connections immediately
    client = make_client("http://127.0.0.1:9")
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    with pytest.raises(TransportError):
        client.get_article(1)
    assert delays == [0.5, 1.0, 2.0]


def test_transient_failure_then_success(monkeypatch):
    # the first two attempts are refused; the depot comes up during the second back-off
    with socket.create_server(("127.0.0.1", 0)) as placeholder:
        address = "127.0.0.1:%d" % placeholder.getsockname()[1]
    depot = Depot()
    depot.create_article(ArticleMeta(title="t", kind="code", category="c"))
    servers, delays = [], []

    def sleep(delay):
        delays.append(delay)
        if len(delays) == 2:
            servers.append(DepotHttpServer(address, depot, TOKEN).start())

    monkeypatch.setattr(client_mod.time, "sleep", sleep)
    client = make_client(f"http://{address}")
    try:
        assert client.publish_article(1) == ("10.5072/mockdepot.1", 1)
    finally:
        client.close()
        for server in servers:
            server.stop()
    assert delays == [0.5, 1.0]


def test_a_retried_upload_sends_the_file_from_its_start(tmp_path, monkeypatch):
    # the first depot reads part of the body and resets; the retry reaches a facade
    path = tmp_path / "big.vtu"
    path.write_bytes(os.urandom(8 << 20))
    depot = Depot()
    article_id = depot.create_article(ArticleMeta(title="t", kind="fileset", category="c")).article_id
    listener = socket.create_server(("127.0.0.1", 0))
    address = "127.0.0.1:%d" % listener.getsockname()[1]

    def read_some_then_reset():
        with listener:
            connection, _ = listener.accept()
            with connection:
                connection.recv(1 << 16)
                connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    resetter = threading.Thread(target=read_some_then_reset, daemon=True)
    resetter.start()
    servers, delays = [], []

    def sleep(delay):
        delays.append(delay)
        resetter.join(5)
        servers.append(DepotHttpServer(address, depot, TOKEN).start())

    monkeypatch.setattr(client_mod.time, "sleep", sleep)
    client = HttpDepotClient(client_config(f"http://{address}"), timeout=5)
    try:
        entry = client.upload_file(article_id, path)
    finally:
        client.close()
        for server in servers:
            server.stop()
    assert delays == [0.5]
    assert (entry.size, entry.md5) == (8 << 20, hashlib.md5(path.read_bytes()).hexdigest())
    assert depot.get_article(article_id).files == (entry,)


def test_wrong_token_upload_larger_than_the_socket_buffers_is_auth_failure(
    http_server, monkeypatch, caplog
):
    # the depot answers 401 before reading the body and closes, so sending the
    # rest of it breaks the pipe; the reply already there is the answer
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    client = HttpDepotClient(client_config(http_server.base_url, token="wrong"), timeout=5)
    with client, caplog.at_level(logging.WARNING, logger="curator.client"):
        with pytest.raises(AuthFailure):
            client.upload_bytes(1, "big.vtu", bytes(32 << 20))
    assert delays == []
    assert not [r for r in caplog.records if "retrying" in r.message]


def test_post_read_timeout_is_not_retried(listener, monkeypatch):
    # the depot may have applied the POST already; sending it again would
    # create a second article or upload
    client, delays = silent_client(listener, monkeypatch)
    with pytest.raises(TransportError):
        client.publish_article(1)
    assert (methods(request_heads(listener)), delays) == (["POST"], [])


def test_get_read_timeout_is_retried(listener, monkeypatch):
    client, delays = silent_client(listener, monkeypatch)
    with pytest.raises(TransportError):
        client.get_article(1)
    assert (methods(request_heads(listener)), delays) == (["GET"] * 4, [0.5, 1.0, 2.0])


def test_non_retryable_request_exception(listener, monkeypatch):
    # a reply that is not HTTP is no connection failure, so it is not sent again
    def answer_with_garbage():
        connection, _ = listener.accept()
        with connection:
            connection.recv(65536)
            connection.sendall(b"garbage\r\n\r\n")

    replier = threading.Thread(target=answer_with_garbage, daemon=True)
    replier.start()
    client, delays = silent_client(listener, monkeypatch)
    with pytest.raises(TransportError):
        client.get_article(1)
    replier.join(5)
    assert (request_heads(listener), delays) == ([], [])


def test_timeout_passed_to_every_call(listener, monkeypatch):
    # each attempt waits the client's 0.2 s, not the 30 s default
    client, _ = silent_client(listener, monkeypatch)
    for call, attempts in ((client.get_article, 4), (client.publish_article, 1)):
        start = time.monotonic()
        with pytest.raises(TransportError):
            call(1)
        assert 0.2 * attempts * 0.9 <= time.monotonic() - start < 5


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


def test_malformed_success_reply_is_transport_error(http_server, http_client, monkeypatch):
    monkeypatch.setattr(http_server.depot, "handle", lambda op, params: [1])
    with pytest.raises(TransportError):
        http_client.get_article(1)
    with pytest.raises(TransportError):
        http_client.publish_article(1)


def test_wire_error_prefers_body_kind_over_status():
    assert wire_error("NothingToPublish", 409) is NothingToPublish
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
    client.close()


def test_calls_share_one_connection(http_server, http_client, monkeypatch):
    accepted = count_accepts(monkeypatch)
    article_id = http_client.create_article(  # a POST and a GET
        ArticleMeta(title="t", kind="fileset", category="c")
    ).article_id
    for index in range(9):
        http_client.upload_bytes(article_id, f"f{index}.dat", b"x" * index)
        http_client.get_article(article_id)
    assert len(accepted) == 1
    http_client.close()
    http_client.get_article(article_id)
    assert len(accepted) == 2


def test_restarted_depot_is_reached_without_a_retry(tmp_path, monkeypatch):
    state = tmp_path / "depot.jsonl"
    accepted = count_accepts(monkeypatch)
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    first = DepotHttpServer("127.0.0.1:0", Depot(state_path=state), TOKEN).start()
    client = HttpDepotClient(client_config(first.base_url))
    article_id = client.create_article(
        ArticleMeta(title="t", kind="fileset", category="c")
    ).article_id
    # a restart closes the open connections, as the exit of serve-depot does
    first.stop()
    for connection in accepted:
        # stop() shuts them down too, and a finished handler has closed its socket
        with contextlib.suppress(OSError):
            connection.shutdown(socket.SHUT_RDWR)
    second = DepotHttpServer(first.address, Depot(state_path=state), TOKEN).start()
    try:
        assert client.get_article(article_id).article_id == article_id
    finally:
        client.close()
        second.stop()
    assert (len(accepted), delays) == (2, [])


def test_a_failed_call_leaves_the_client_usable(http_server, monkeypatch, tmp_path):
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    client = HttpDepotClient(client_config(http_server.base_url), timeout=0.5)
    article_id = client.create_article(
        ArticleMeta(title="t", kind="fileset", category="c")
    ).article_id
    # a file that shrinks after opening fails its upload once the request
    # line, headers and a first chunk went out, so the depot still waits
    # for the rest of that body on this connection
    path = tmp_path / "a.dat"
    path.write_bytes(bytes(3 * UPLOAD_CHUNK))
    with read_local_file(path) as body:
        os.truncate(path, UPLOAD_CHUNK)
        with pytest.raises(IoError):
            client.upload_bytes(article_id, "a.dat", body)
    assert client.get_article(article_id).article_id == article_id

    # the late reply to a timed-out POST must not answer the next call
    handle, release = http_server.depot.handle, threading.Event()

    def held(op, params):
        release.wait(5)
        return handle(op, params)

    monkeypatch.setattr(http_server.depot, "handle", held)
    with pytest.raises(TransportError):
        client.publish_article(article_id)
    monkeypatch.setattr(http_server.depot, "handle", handle)
    release.set()
    assert client.get_article(article_id).article_id == article_id
    assert delays == []
    client.close()


def test_cli_and_facade_do_not_import_requests():
    code = "import sys, curator.cli, curator.depot_http; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_and_facade_load_neither_http_server_nor_email():
    # the facade frames HTTP itself, and the provenance writer escapes attributes itself
    code = (
        "import sys, curator.cli, curator.depot_http; "
        "print(sorted({'http.server', 'email', 'urllib.request', 'http.client'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module, unloaded",
    [
        ("curator.cli", {"curator.depot_http", "socketserver", "ssl"}),
        (
            "curator.depot",
            {"curator.cli", "curator.gitrepo", "curator.publish", "curator.depot_http", "ssl"},
        ),
    ],
)
def test_a_module_loads_only_what_it_runs(module, unloaded):
    # only serve-depot imports the facade, and only an https depot imports ssl
    code = (
        f"import sys; bare = set(sys.modules); import {module}; "
        f"print(sorted({unloaded!r} & (set(sys.modules) - bare)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
