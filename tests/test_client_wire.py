"""How HttpDepotClient frames a request and reads a reply, checked on the bytes."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import socket
import ssl
import subprocess
import threading

import pytest

import curator.client as client_mod
from conftest import TOKEN, client_config

from curator.client import (
    MAX_HEADERS,
    MAX_LINE,
    ArticleMeta,
    ArticleRecord,
    HttpDepotClient,
    record_to_wire,
)
from curator.depot import Depot
from curator.depot_http import DepotHttpServer
from curator.errors import TransportError

RECORD = ArticleRecord(1, ArticleMeta(title="t", kind="fileset", category="c"))
BODY = json.dumps(record_to_wire(RECORD)).encode()
GOOD = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY)


@pytest.fixture
def raw(monkeypatch):
    """A loopback listener, a client on it with a 0.2 s timeout, and the
    client's retry delays."""
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()[:2]
        client = HttpDepotClient(client_config(f"http://{host}:{port}"), timeout=0.2)
        with client:
            yield listener, client, delays


def serve(listener, *replies, hold=False) -> tuple[threading.Thread, list]:
    """Accept one connection per reply, read its request and write the reply
    in pieces, pausing between them. Each connection is closed after its
    reply, or with ``hold`` only once every reply is written. Returns the
    serving thread and the list of accepted connections."""
    accepted = []

    def run():
        for pieces in replies:
            connection, _ = listener.accept()
            accepted.append(connection)
            with contextlib.suppress(OSError):  # the client may close first
                connection.settimeout(5)
                connection.recv(65536)
                for index, piece in enumerate([pieces] if isinstance(pieces, bytes) else pieces):
                    if index:
                        threading.Event().wait(0.05)  # time.sleep records retry delays here
                    connection.sendall(piece)
            if not hold:
                connection.close()
        for connection in accepted:
            connection.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, accepted


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/2 200 OK\r\n" + GOOD.partition(b"\r\n")[2],
        b"HTTP/1.1 200 OK\r\nContent-Length: 1_2\r\n\r\n" + BODY[:12],
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY) + 1, BODY),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
        % (len(BODY), BODY),
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * MAX_LINE + b"\r\n" + GOOD.partition(b"\r\n")[2],
        b"HTTP/1.1 200 OK\r\n" + b"X-Many: 1\r\n" * MAX_HEADERS + GOOD.partition(b"\r\n")[2],
    ],
    ids=[
        "bad-status-line",
        "non-digit-length",
        "short-body",
        "chunked",
        "long-header-line",
        "too-many-headers",
    ],
)
def test_a_reply_the_client_cannot_frame_fails_at_once(raw, reply):
    listener, client, delays = raw
    thread, accepted = serve(listener, reply, GOOD)
    with pytest.raises(TransportError):
        client.get_article(1)
    assert delays == []
    assert client.get_article(1) == RECORD
    thread.join(5)
    assert (len(accepted), delays, thread.is_alive()) == (2, [], False)


def test_a_reply_with_a_folded_header_line_fails_at_once(raw):
    # read_head refuses it for both ends, as a server must refuse it in a request
    listener, client, delays = raw
    folded = GOOD.replace(b"\r\n\r\n", b"\r\n X-Folded: 1\r\n\r\n", 1)
    thread, accepted = serve(listener, folded, GOOD)
    with pytest.raises(TransportError):
        client.get_article(1)
    assert client.get_article(1) == RECORD
    thread.join(5)
    assert (len(accepted), delays, thread.is_alive()) == (2, [], False)


def test_the_caps_on_a_reply_head_are_http_clients(raw):
    # the longest line and the most header lines a reply may have are read
    listener, client, delays = raw
    head = b"X-Long: " + b"a" * (MAX_LINE - 10) + b"\r\n" + b"X-Many: 1\r\n" * (MAX_HEADERS - 2)
    thread, _ = serve(listener, b"HTTP/1.1 200 OK\r\n" + head + GOOD.partition(b"\r\n")[2])
    assert client.get_article(1) == RECORD
    thread.join(5)
    assert delays == []


def test_connection_close_makes_the_next_call_reconnect(raw):
    listener, client, delays = raw
    closing = GOOD.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)
    thread, accepted = serve(listener, closing, GOOD, hold=True)
    assert client.get_article(1) == RECORD
    assert client.get_article(1) == RECORD
    thread.join(5)
    assert (len(accepted), delays, thread.is_alive()) == (2, [], False)


def test_a_reply_without_a_length_is_read_until_close(raw):
    listener, client, delays = raw
    half = len(BODY) // 2
    thread, accepted = serve(
        listener, [b"HTTP/1.1 200 OK\r\n\r\n" + BODY[:half], BODY[half:]], GOOD
    )
    assert client.get_article(1) == RECORD
    assert client.get_article(1) == RECORD
    thread.join(5)
    assert (len(accepted), delays, thread.is_alive()) == (2, [], False)


class CountingSocket:
    """A socket that records what each ``sendall`` call writes."""

    def __init__(self, sock):
        self.sock, self.writes = sock, []

    def sendall(self, data):
        self.writes.append(bytes(data))
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_each_request_leaves_in_one_write(http_server, http_client, monkeypatch):
    sockets = []
    create_connection = socket.create_connection

    def counting(*args, **kwargs):
        sockets.append(CountingSocket(create_connection(*args, **kwargs)))
        return sockets[-1]

    monkeypatch.setattr(client_mod.socket, "create_connection", counting)
    article_id = http_client.create_article(  # a JSON POST, then a GET
        ArticleMeta(title="t", kind="fileset", category="c")
    ).article_id
    data = os.urandom(4096)
    entry = http_client.upload_bytes(article_id, "a.dat", data)
    assert entry.size == 4096
    [sock] = sockets
    # each head with its last line ended, so every header line reads "\r\n...\r\n"
    post, get, upload = [
        (head + b"\r\n", body) for head, _, body in (w.partition(b"\r\n\r\n") for w in sock.writes)
    ]
    port = http_server.address.rsplit(":", 1)[1]
    for head, _ in (post, get, upload):
        assert f"\r\nHost: 127.0.0.1:{port}\r\n".encode() in head
        assert f"\r\nAuthorization: token {TOKEN}\r\n".encode() in head
    assert post[0].startswith(b"POST /v1/articles HTTP/1.1\r\n")
    assert json.loads(post[1])["title"] == "t"
    assert f"\r\nContent-Length: {len(post[1])}\r\n".encode() in post[0]
    assert get[0].startswith(f"GET /v1/articles/{article_id} HTTP/1.1\r\n".encode())
    assert b"Content-Length" not in get[0] and get[1] == b""
    assert upload[0].startswith(f"POST /v1/articles/{article_id}/files HTTP/1.1\r\n".encode())
    assert b"\r\nContent-Length: 4096\r\n" in upload[0] and upload[1] == data


def test_https_checks_the_depots_certificate(tmp_path, monkeypatch):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("the openssl command is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [
            openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
            "-nodes", "-keyout", key, "-out", cert, "-days", "1", "-subj", "/CN=127.0.0.1",
            "-addext", "subjectAltName=IP:127.0.0.1",
        ],
        check=True,
        capture_output=True,
    )
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    delays = []
    monkeypatch.setattr(client_mod.time, "sleep", delays.append)
    depot = Depot()
    depot.create_article(RECORD.meta)
    server = DepotHttpServer("127.0.0.1:0", depot, TOKEN)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server._httpd.socket = context.wrap_socket(server._httpd.socket, server_side=True)
    server.start()
    client = HttpDepotClient(client_config(f"https://{server.address}"), timeout=5)
    try:
        with pytest.raises(TransportError) as refused:
            client.get_article(1)
        assert isinstance(refused.value.__cause__, ssl.SSLCertVerificationError)
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        assert client.get_article(1) == depot.get_article(1)
    finally:
        client.close()
        server.stop()


@pytest.mark.parametrize(
    "base_url, token",
    [("http://127.0.0.1:9", "a\r\nX-Injected: 1"), ("http://127.0.0.1:9/a\x7fb", TOKEN)],
)
def test_a_control_character_in_the_head_is_refused_up_front(base_url, token):
    # the request head is framed by line breaks, so none may come from the config
    with pytest.raises(ValueError):
        HttpDepotClient(client_config(base_url, token=token))
