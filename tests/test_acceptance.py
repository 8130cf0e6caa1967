"""End-to-end acceptance checks, one test per guaranteed behavior.

Each test name states the guarantee; the -v report line is the pass/fail
verdict for it. Everything runs against the in-process depot or a local
HTTP facade of it; no network access is needed.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
import subprocess
import zipfile

import pytest

from conftest import (
    GIT_ENV,
    TOKEN,
    client_config,
    git,
    make_repo,
    make_sim_dir,
    run_simulation,
)
from test_http_contract import SCENARIOS, run_scenario_both_ways

from curator.cli import run
from curator.client import HttpDepotClient
from curator.depot import Depot
from curator.depot_http import DepotHttpServer
from curator.errors import NothingToPublish
from curator.provenance import read_publish_options
from curator.publish import FilesetSpec, Publisher, sidecar_path


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch, tmp_path):
    monkeypatch.setenv("CURATOR_CONFIG", str(tmp_path / "no-such-config"))


def cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_line(out: str):
    match = re.search(r"^result: article_id=(\d+) doi=(\S+)$", out, re.M)
    assert match, out
    return int(match.group(1)), match.group(2)


def write_config(path, base_url, token=TOKEN):
    path.write_text(
        "[depot]\n"
        f"base_url = {base_url}\n"
        "client_key = ck\n"
        "client_secret = cs\n"
        f"token = {token}\n"
        "token_secret = ts\n"
    )
    return path


def test_republishing_software_reuses_the_article(tmp_path, capsys):
    # one live depot shared by both CLI runs, reached over HTTP
    state = tmp_path / "depot.jsonl"
    depot = Depot(state_path=state)
    server = DepotHttpServer("127.0.0.1:0", depot, TOKEN).start()
    try:
        config = write_config(tmp_path / "cfg", server.base_url)
        sim = make_sim_dir(tmp_path / "sim")
        repo = make_repo(tmp_path / "wavesolver")
        argv = [
            "publish-software",
            "-p",
            str(sim / "top_hat.xml"),
            "-c",
            str(config),
            "--repo",
            str(repo),
        ]

        code, out, err = cli(capsys, argv)
        assert code == 0, err
        first = result_line(out)
        log_after_first = state.read_bytes()

        code, out, err = cli(capsys, argv)
        assert code == 0, err
        assert result_line(out) == first
        assert f"reusing {first[1]}" in out
        assert state.read_bytes() == log_after_first
        assert len(depot.state.articles) == 1
    finally:
        server.stop()


def test_reupload_set_is_exactly_the_modified_files(tmp_path):
    rng = random.Random(170414)
    names = [f"field_{index}.vtu" for index in range(6)]
    paths = []
    for name in names:
        path = tmp_path / name
        path.write_text(f"initial {name}\n")
        paths.append(path)

    depot = Depot()
    publisher = Publisher(depot)
    first = publisher.publish_data(FilesetSpec(title="run", paths=paths))
    assert {p.name for p in first.uploaded} == set(names)
    version = depot.get_article(first.article_id).version
    assert version == 1

    for round_number in range(50):
        subset = {name for name in names if rng.random() < 0.4}
        for name in subset:
            (tmp_path / name).write_text(f"round {round_number} rewrote {name}\n")
        result = publisher.publish_data(
            FilesetSpec(title="run", paths=paths, existing_article_id=first.article_id)
        )
        assert {p.name for p in result.uploaded} == subset
        assert {p.name for p in result.skipped} == set(names) - subset
        assert result.doi == first.doi
        record = depot.get_article(first.article_id)
        assert record.version == version + (1 if subset else 0)
        version = record.version


def test_doi_is_minted_once_and_survives_versions(tmp_path):
    path = tmp_path / "series.dat"
    depot = Depot()
    publisher = Publisher(depot)
    seen = []
    article_id = None
    for round_number in range(5):
        path.write_text(f"measurement run {round_number}\n")
        result = publisher.publish_data(
            FilesetSpec(title="series", paths=[path], existing_article_id=article_id)
        )
        article_id = result.article_id
        record = depot.get_article(article_id)
        seen.append((record.doi, record.version))
    assert [version for _, version in seen] == [1, 2, 3, 4, 5]
    assert len({doi for doi, _ in seen}) == 1
    assert seen[0][0] == f"10.5072/mockdepot.{article_id}"


def test_staged_cli_run_records_consistent_identifiers(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_repo(tmp_path / "wavesolver", remote="https://example.org/wave.git")
    head = git(repo, "rev-parse", "HEAD")
    base = ["-p", str(project), "--backend", "mock"]

    code, out, err = cli(capsys, ["publish-software", *base, "--repo", str(repo)])
    assert code == 0, err
    _, software_doi = result_line(out)

    code, out, err = cli(capsys, ["publish-input", *base])
    assert code == 0, err
    _, input_doi = result_line(out)

    run_simulation(sim)

    code, out, err = cli(capsys, ["publish-output", *base])
    assert code == 0, err
    _, output_doi = result_line(out)

    assert len({software_doi, input_doi, output_doi}) == 3
    options = read_publish_options(project)
    assert options.slot("software").doi == software_doi
    assert options.slot("input").doi == input_doi
    assert options.slot("output").doi == output_doi

    stat = (sim / "top_hat.stat").read_text()
    assert f'<constant name="FluidityVersion" type="string" value="{head}"/>' in stat
    assert f'<constant name="SoftwareDOI" type="string" value="{software_doi}"/>' in stat
    assert f'<constant name="InputDataDOI" type="string" value="{input_doi}"/>' in stat


def test_sidecars_agree_with_reference_md5_tool(tmp_path):
    rng = random.Random(58147)
    paths = []
    for index in range(20):
        path = tmp_path / f"blob_{index:02d}.dat"
        path.write_bytes(rng.randbytes(rng.randint(0, 1 << 20)))
        paths.append(path)

    Publisher(Depot()).publish_data(FilesetSpec(title="blobs", paths=paths))

    for path in paths:
        reference = subprocess.run(
            ["md5sum", str(path)], capture_output=True, text=True, check=True
        )
        digest = reference.stdout.split()[0]
        assert sidecar_path(path).read_bytes() == digest.encode("ascii") + b"\n"


def test_author_ids_flow_from_authors_file_to_depot(tmp_path):
    authors_text = (
        "# project maintainers\n"
        "P. One <fs:501>\n"
        "Q. Two <fs:502>\n"
        "R. Three (no service account yet)\n"
        "S. Four <fs:503>\n"
        "P. One <fs:501>\n"
        "T. Five <fs:504>\n"
    )
    repo = make_repo(tmp_path / "repo", files={"main.c": "int main;\n", "AUTHORS": authors_text})
    head = git(repo, "rev-parse", "HEAD")

    from curator.publish import SoftwareIdentity, parse_authors_file

    parsed = parse_authors_file(repo / "AUTHORS")
    assert [entry.service_author_id for entry in parsed] == [501, 502, 503, 504]

    depot = Depot()
    result = Publisher(depot).publish_software(
        SoftwareIdentity(name="repo", commit=head, local_repo=repo)
    )
    assert depot.get_article(result.article_id).authors == (501, 502, 503, 504)


def test_every_client_scenario_agrees_across_transports(tmp_path):
    assert len(SCENARIOS) >= 20
    for index, scenario in enumerate(SCENARIOS):
        workdir = tmp_path / f"scenario_{index:02d}"
        workdir.mkdir()
        direct, remote, direct_log, facade_log = run_scenario_both_ways(scenario, workdir)
        assert direct.log == remote.log, scenario.__name__
        assert direct_log == facade_log, scenario.__name__


def test_archive_export_is_reproducible_and_faithful(tmp_path):
    from curator.gitrepo import export_archive

    repo = make_repo(
        tmp_path / "solver",
        files={
            "src/main.c": "int main(void) { return 0; }\n",
            "data/table.bin": bytes(range(256)).decode("latin-1"),
            "README": "solver\n",
        },
    )
    head = git(repo, "rev-parse", "HEAD")

    first = export_archive(repo, head)
    second = export_archive(repo, head)
    assert first == second

    unpacked = tmp_path / "unpacked"
    with zipfile.ZipFile(io.BytesIO(first)) as archive:
        archive.extractall(unpacked)

    checkout = tmp_path / "checkout"
    subprocess.run(
        ["git", "clone", "--quiet", "--no-checkout", str(repo), str(checkout)],
        check=True,
        env=GIT_ENV,
        capture_output=True,
    )
    subprocess.run(
        ["git", "checkout", "--quiet", head],
        check=True,
        cwd=checkout,
        env=GIT_ENV,
        capture_output=True,
    )

    prefix = f"solver-{head[:7]}"
    tracked = git(repo, "ls-tree", "-r", "--name-only", head).splitlines()
    assert tracked
    for relative in tracked:
        exported = (unpacked / prefix / relative).read_bytes()
        assert exported == (checkout / relative).read_bytes(), relative


def test_expected_failures_exit_with_one_diagnostic_line(tmp_path, capsys, http_server):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_repo(tmp_path / "repo")
    mock = ["-p", str(project), "--backend", "mock"]

    broken = tmp_path / "broken.xml"
    broken.write_text("<simulation><publish enabled=")

    unknown_article = tmp_path / "stale" / "top_hat.xml"
    make_sim_dir(unknown_article.parent)
    unknown_article.write_text(
        unknown_article.read_text().replace(
            '<input patterns="*.msh;*.geo"/>',
            '<input patterns="*.msh;*.geo" article_id="424242"/>',
        )
    )

    missing_commit_header = tmp_path / "version.h"
    missing_commit_header.write_text(f'#define BUILT_FROM "{"e" * 40}"\n')

    bad_credentials = write_config(tmp_path / "bad-creds", http_server.base_url, token="nope")

    cases = [
        ("unknown article", ["publish-input", "-p", str(unknown_article), "--backend", "mock"]),
        (
            "bad credentials",
            ["publish-input", "-p", str(project), "-c", str(bad_credentials)],
        ),
        (
            "missing commit",
            [
                "publish-software",
                *mock,
                "--repo",
                str(repo),
                "--version-header",
                str(missing_commit_header),
            ],
        ),
        ("malformed project file", ["publish-input", "-p", str(broken), "--backend", "mock"]),
        ("missing project file", ["status", "-p", str(tmp_path / "gone.xml")]),
        ("not a repository", ["publish-software", *mock, "--repo", str(tmp_path)]),
    ]
    for label, argv in cases:
        code, out, err = cli(capsys, argv)
        assert code == 1, (label, out, err)
        assert re.fullmatch(r"error: \w+: .+\n", err), (label, err)
