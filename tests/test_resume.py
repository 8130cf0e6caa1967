"""A stage that fails part-way converges on the next run.

Every article gets its lookup key when it is created (the commit tag of a
software article, the project-file slot of a fileset), so a re-run after a
failure at any depot call finishes the same articles instead of starting
new ones, and uploads only what was never confirmed.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

from conftest import TOKEN, client_config, make_repo, make_sim_dir, run_simulation

import curator.cli as cli
from curator.client import HttpDepotClient, record_to_wire
from curator.depot import Depot
from curator.depot_http import DepotHttpServer
from curator.errors import TransportError
from curator.provenance import expand_patterns, read_publish_options
from curator.publish import file_md5, sidecar_path, write_sidecar


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch, tmp_path):
    monkeypatch.setenv("CURATOR_CONFIG", str(tmp_path / "unset-config"))


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    return make_repo(tmp_path_factory.mktemp("resume") / "wavesolver")


def run_cli(capsys, argv) -> int:
    code = cli.run(argv)
    capsys.readouterr()
    return code


def slots(project) -> dict:
    options = read_publish_options(project)
    return {
        name: (options.slot(name).article_id, options.slot(name).doi)
        for name in ("software", "input", "output")
    }


def depot_contents(depot: Depot) -> dict:
    """Every article as clients see it, file ids aside (a re-upload renews them),
    with the number of versions it has published."""
    contents = {}
    for article_id, article in depot.state.articles.items():
        wire = record_to_wire(article.head)
        wire["files"] = [(entry["name"], entry["md5"]) for entry in wire["files"]]
        contents[article_id] = (wire, len(article.published_versions))
    return contents


# -- a failed first run, then a re-run (mock backend, state on disk) ----------


def test_software_upload_failure_then_rerun_leaves_one_published_article(
    tmp_path, capsys, monkeypatch, repo
):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    state = tmp_path / "depot.jsonl"
    argv = ["publish-software", "-p", str(project), "--backend", "mock", "--state", str(state)]
    argv += ["--repo", str(repo)]

    def lost_upload(self, article_id, name, body):
        raise TransportError("connection reset during upload")

    with monkeypatch.context() as patch:
        patch.setattr(Depot, "upload_bytes", lost_upload)
        assert run_cli(capsys, argv) == 1
    assert run_cli(capsys, argv) == 0

    depot = Depot(state_path=state)
    (article_id,) = depot.state.articles
    record = depot.get_article(article_id)
    assert (record.meta.kind, record.status, record.version) == ("code", "published", 1)
    assert slots(project)["software"] == (article_id, record.doi)


@pytest.mark.parametrize("fail_at", [0, 1, 2])
def test_fileset_upload_failure_then_rerun_resumes_the_draft(
    tmp_path, capsys, monkeypatch, fail_at
):
    sim = make_sim_dir(tmp_path / "sim")
    (sim / "wall.msh").write_text("wall vertices\n")
    project = sim / "top_hat.xml"
    paths = expand_patterns(["*.msh", "*.geo"], sim)
    # A sidecar left from some earlier publication: the file matches it,
    # but this article has never held the file.
    write_sidecar(paths[-1], file_md5(paths[-1]))
    state = tmp_path / "depot.jsonl"
    argv = ["publish-input", "-p", str(project), "--backend", "mock", "--state", str(state)]

    upload_file = Depot.upload_file
    uploads = []
    failing = [fail_at]

    def recording_upload(self, article_id, local_path):
        if len(uploads) == failing[0]:
            raise TransportError("connection reset during upload")
        uploads.append(local_path.name)
        return upload_file(self, article_id, local_path)

    monkeypatch.setattr(Depot, "upload_file", recording_upload)
    assert run_cli(capsys, argv) == 1
    assert uploads == [path.name for path in paths[:fail_at]]

    uploads.clear()
    failing[0] = None
    assert run_cli(capsys, argv) == 0
    assert uploads == [path.name for path in paths[fail_at:]]

    depot = Depot(state_path=state)
    (article_id,) = depot.state.articles
    record = depot.get_article(article_id)
    assert (record.meta.kind, record.status, record.version) == ("fileset", "published", 1)
    assert [entry.name for entry in record.files] == [path.name for path in paths]
    assert slots(project)["input"] == (article_id, record.doi)


# -- a fault at every depot call of publish-all, on both transports -----------

# The depot calls of a fault-free publish-all in a fresh project, in order.
PUBLISH_ALL_CALLS = (
    # software
    "search_by_tag", "create_article", "upload_bytes", "add_authors", "publish_article",
    # input: the new article's id is recorded before the get_article that resumes it
    "create_article", "get_article", "upload_file", "upload_file", "publish_article",
    # output: the software record for provenance, then as input
    "get_article", "create_article", "get_article", "upload_file", "upload_file",
    "upload_file", "publish_article",
)
SOFTWARE_CREATE = PUBLISH_ALL_CALLS.index("create_article")
LOST_CREATE_REPLY = pytest.mark.xfail(
    strict=True,
    reason="the fileset is created but its id never reaches the project file, so the "
    "re-run creates another; closing this needs an Idempotency-Key on create_article",
)


class FaultyClient:
    """Forwards depot calls to ``client`` and counts them. Call number
    ``fail_at`` raises TransportError: before it reaches ``client``, or, when
    ``applied``, after ``client`` has carried it out, as a lost reply does."""

    def __init__(self, client, fail_at=None, applied=False):
        self.client = client
        self.fail_at = fail_at
        self.applied = applied
        self.calls = []
        self.uploaded = []

    def __getattr__(self, op):
        method = getattr(self.client, op)

        def call(*args):
            index = len(self.calls)
            self.calls.append(op)
            if index == self.fail_at and not self.applied:
                raise TransportError(f"{op} failed before reaching the depot")
            result = method(*args)
            if op in ("upload_file", "upload_bytes"):
                self.uploaded.append(Path(args[1]).name)
            if index == self.fail_at:
                raise TransportError(f"the reply to {op} was lost")
            return result

        return call


@contextmanager
def mock_transport():
    depot = Depot()
    yield depot, depot


@contextmanager
def http_transport():
    depot = Depot()
    server = DepotHttpServer("127.0.0.1:0", depot, TOKEN).start()
    try:
        with HttpDepotClient(client_config(server.base_url)) as client:
            yield depot, client
    finally:
        server.stop()


TRANSPORTS = {"mock": mock_transport, "http": http_transport}


def publish_all(capsys, monkeypatch, sim, repo, client) -> int:
    monkeypatch.setattr(cli, "_open_client", lambda args: nullcontext((client, "Physics")))
    return run_cli(capsys, ["publish-all", "-p", str(sim / "top_hat.xml"), "--repo", str(repo)])


@pytest.fixture(scope="module")
def reference(repo, tmp_path_factory):
    """Calls, depot contents and project slots of a fault-free publish-all."""
    sim = make_sim_dir(tmp_path_factory.mktemp("reference") / "sim")
    run_simulation(sim)
    depot = Depot()
    client = FaultyClient(depot)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_open_client", lambda args: nullcontext((client, "Physics")))
        assert cli.run(["publish-all", "-p", str(sim / "top_hat.xml"), "--repo", str(repo)]) == 0
    return client.calls, depot_contents(depot), slots(sim / "top_hat.xml")


def test_fault_free_publish_all_makes_the_listed_calls(reference):
    calls, contents, _ = reference
    assert tuple(calls) == PUBLISH_ALL_CALLS
    assert [wire["kind"] for wire, _ in contents.values()] == ["code", "fileset", "fileset"]


FAULTS = [
    pytest.param(
        index,
        applied,
        id=f"{index:02d}-{op}-{'after' if applied else 'before'}",
        marks=LOST_CREATE_REPLY if op == "create_article" and applied and index != SOFTWARE_CREATE else (),
    )
    for index, op in enumerate(PUBLISH_ALL_CALLS)
    for applied in (False, True)
]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("fail_at,applied", FAULTS)
def test_rerun_after_a_fault_matches_the_fault_free_run(
    tmp_path, capsys, monkeypatch, repo, reference, transport, fail_at, applied
):
    _, expected_contents, expected_slots = reference
    sim = make_sim_dir(tmp_path / "sim")
    run_simulation(sim)
    data = expand_patterns(["*.msh", "*.geo", "*.vtu", "*.stat"], sim)
    (archive,) = [
        name for wire, _ in expected_contents.values() if wire["kind"] == "code"
        for name, _ in wire["files"]
    ]

    with TRANSPORTS[transport]() as (depot, client):
        faulty = FaultyClient(client, fail_at, applied)
        assert publish_all(capsys, monkeypatch, sim, repo, faulty) == 1
        assert len(faulty.calls) == fail_at + 1
        # A data file's upload is confirmed by its sidecar; the archive has
        # none, so a software article left unpublished gets it again.
        unconfirmed = [path.name for path in data if not sidecar_path(path).exists()]
        if not any(a.head.meta.kind == "code" and a.head.doi for a in depot.state.articles.values()):
            unconfirmed.append(archive)

        rerun = FaultyClient(client)
        assert publish_all(capsys, monkeypatch, sim, repo, rerun) == 0
        assert depot_contents(depot) == expected_contents
        assert slots(sim / "top_hat.xml") == expected_slots
        assert sorted(rerun.uploaded) == sorted(unconfirmed)
