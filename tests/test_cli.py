from __future__ import annotations

import hashlib
import logging
import os
import re
import socket
import subprocess
import sys

import pytest

from conftest import (
    AUTHORS_TEXT,
    TOKEN,
    client_config,
    commit_all,
    git,
    make_repo,
    make_sim_dir,
    run_simulation,
    write_project,
)

import curator.cli as cli
from curator.cli import run, resolve_software_version
from curator.depot import Depot
from curator.errors import ParseError, TransportError, UnknownRef
from curator.gitrepo import export_archive
from curator.provenance import read_publish_options


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch, tmp_path):
    # keep any real ~/.curator out of these tests
    monkeypatch.setenv("CURATOR_CONFIG", str(tmp_path / "unset-config"))


def write_http_config(path, base_url, token=TOKEN):
    path.write_text(
        "[depot]\n"
        f"base_url = {base_url}\n"
        "client_key = ck\n"
        "client_secret = cs\n"
        f"token = {token}\n"
        "token_secret = ts\n"
    )
    return path


def mock_args(project, *extra):
    return ["-p", str(project), "--backend", "mock", *extra]


def read_error(capsys):
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: \w+: .+\n", captured.err), captured.err
    return captured.err


# -- choosing the revision to publish -----------------------------------


def test_version_header_beats_repo_head(tmp_path):
    repo = make_repo(tmp_path / "repo")
    built_from = git(repo, "rev-parse", "HEAD")
    (repo / "main.c").write_text("int main(void) { return 1; }\n")
    from conftest import commit_all

    commit_all(repo, "newer work")
    head = git(repo, "rev-parse", "HEAD")
    assert head != built_from

    header = tmp_path / "version.h"
    header.write_text(f'#define VERSION "4.1.12-{built_from.upper()}"\n')
    resolved = resolve_software_version(tmp_path, repo, header)
    assert resolved == built_from


def test_version_header_defaults_to_head(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    assert resolve_software_version(tmp_path, repo) == head


def test_version_header_relative_to_project_dir(tmp_path):
    repo = make_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    project_dir = tmp_path / "sim"
    project_dir.mkdir()
    (project_dir / "include" ).mkdir()
    (project_dir / "include" / "version.h").write_text(f"// built at {head}\n")
    assert resolve_software_version(project_dir, repo, "include/version.h") == head


def test_version_header_unknown_revision(tmp_path):
    repo = make_repo(tmp_path / "repo")
    header = tmp_path / "version.h"
    header.write_text(f'#define VERSION "{"d" * 40}"\n')
    with pytest.raises(UnknownRef) as info:
        resolve_software_version(tmp_path, repo, header)
    assert "fetch that revision" in str(info.value)


def test_version_header_without_token(tmp_path):
    repo = make_repo(tmp_path / "repo")
    header = tmp_path / "version.h"
    header.write_text('#define VERSION "4.1.12"\n')
    with pytest.raises(ParseError):
        resolve_software_version(tmp_path, repo, header)


def make_sha256_repo(root):
    """A one-commit repository whose commit ids are SHA-256: 64 hex digits."""
    root.mkdir(parents=True)
    git(root, "init", "-q", "-b", "main", "--object-format=sha256")
    (root / "main.c").write_text("int main(void) { return 0; }\n")
    (root / "AUTHORS").write_text(AUTHORS_TEXT)
    commit_all(root, "initial")
    return root


def test_version_header_finds_a_64_hex_token(tmp_path):
    repo = make_sha256_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    assert len(head) == 64
    header = tmp_path / "version.h"
    header.write_text(f'#define VERSION "4.1.12-{head.upper()}"\n')
    assert resolve_software_version(tmp_path, repo, header) == head


# -- usage errors --------------------------------------------------------


def test_no_verb_is_usage_error():
    assert run([]) == 2


def test_missing_required_flag_is_usage_error():
    assert run(["publish-software", "-p", "x.xml"]) == 2


def test_unknown_verb_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "publish-software" in capsys.readouterr().out


# -- diagnostics: exit 1 plus one stderr line -----------------------------


def test_missing_project_file(tmp_path, capsys):
    assert run(["publish-input", *mock_args(tmp_path / "none.xml")]) == 1
    assert read_error(capsys).startswith("error: IoError:")


def test_malformed_project_file(tmp_path, capsys):
    project = tmp_path / "broken.xml"
    project.write_text("<simulation><publish enabled=")
    assert run(["publish-input", *mock_args(project)]) == 1
    assert read_error(capsys).startswith("error: ParseError:")


@pytest.mark.parametrize("target", ["project", "stat", "config"])
def test_file_that_is_not_utf8_is_one_line_error(tmp_path, capsys, target):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    run_simulation(sim)
    config = write_http_config(tmp_path / "cfg", "http://127.0.0.1:9")
    latin1 = {"project": project, "stat": sim / "top_hat.stat", "config": config}[target]
    comment = b"# caf\xe9\n" if target == "config" else b"<!-- caf\xe9 -->\n"
    latin1.write_bytes(latin1.read_bytes() + comment)
    if target == "config":
        argv = ["publish-input", "-p", str(project), "-c", str(config)]
    else:
        argv = ["publish-all", *mock_args(project, "--repo", str(make_repo(tmp_path / "repo")))]
    assert run(argv) == 1
    assert read_error(capsys).startswith(f"error: ParseError: {latin1} is not UTF-8 text")


def test_publishing_disabled(tmp_path, capsys):
    project = write_project(tmp_path / "top_hat.xml", enabled="false")
    assert run(["publish-input", *mock_args(project)]) == 1
    assert read_error(capsys).startswith("error: SchemaError:")


def test_output_stage_requires_earlier_stages(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    run_simulation(sim)
    assert run(["publish-output", *mock_args(sim / "top_hat.xml")]) == 1
    error = read_error(capsys)
    assert error.startswith("error: MissingProvenance:")
    assert "software" in error


def test_unknown_recorded_article_id(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    project.write_text(
        project.read_text().replace(
            '<input patterns="*.msh;*.geo"/>',
            '<input patterns="*.msh;*.geo" article_id="99" doi="10.5072/mockdepot.99"/>',
        )
    )
    assert run(["publish-input", *mock_args(project)]) == 1
    assert read_error(capsys).startswith("error: NotFound:")


def test_repo_must_exist(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    args = mock_args(sim / "top_hat.xml", "--repo", str(tmp_path / "norepo"))
    assert run(["publish-software", *args]) == 1
    assert read_error(capsys).startswith("error: NotARepository:")


def test_http_backend_requires_config(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    assert run(["publish-input", "-p", str(sim / "top_hat.xml")]) == 1
    assert read_error(capsys).startswith("error: IoError:")


@pytest.mark.parametrize("base_url", ["ftp://x", "http://x:99999"])
def test_http_backend_bad_base_url(tmp_path, capsys, base_url):
    sim = make_sim_dir(tmp_path / "sim")
    config = write_http_config(tmp_path / "cfg", base_url)
    assert run(["publish-input", "-p", str(sim / "top_hat.xml"), "-c", str(config)]) == 1
    assert read_error(capsys).startswith(f"error: ParseError: {config}: ")


@pytest.mark.parametrize("state", ["a-directory", "missing/depot.jsonl"])
def test_unusable_state_path(tmp_path, capsys, state):
    sim = make_sim_dir(tmp_path / "sim")
    (tmp_path / "a-directory").mkdir()
    args = mock_args(sim / "top_hat.xml", "--state", str(tmp_path / state))
    assert run(["publish-input", *args]) == 1
    assert read_error(capsys).startswith("error: IoError: cannot ")


def test_http_backend_bad_credentials(tmp_path, capsys, http_server):
    sim = make_sim_dir(tmp_path / "sim")
    config = write_http_config(tmp_path / "cfg", http_server.base_url, token="wrong")
    args = ["publish-input", "-p", str(sim / "top_hat.xml"), "-c", str(config)]
    assert run(args) == 1
    assert read_error(capsys).startswith("error: AuthFailure:")


def test_serve_depot_occupied_port(tmp_path, capsys):
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    try:
        args = ["serve-depot", "--token", "t", "--bind", f"127.0.0.1:{port}"]
        assert run(args) == 1
        assert read_error(capsys).startswith("error: BindError:")
    finally:
        placeholder.close()


def test_serve_depot_bad_port(capsys):
    assert run(["serve-depot", "--token", "t", "--bind", "127.0.0.1:banana"]) == 1
    assert read_error(capsys).startswith("error: BindError:")


def test_serve_depot_needs_token(tmp_path, capsys):
    assert run(["serve-depot", "--bind", "127.0.0.1:0"]) == 1
    assert read_error(capsys).startswith("error: ParseError:")


@pytest.mark.parametrize("line", [b"not json", b'{"article_id": 1}', b"\xff\xfe"])
def test_corrupt_state_file_is_one_line_error(tmp_path, capsys, line):
    sim = make_sim_dir(tmp_path / "sim")
    state = tmp_path / "depot.jsonl"
    state.write_bytes(line + b"\n")
    assert run(["publish-input", *mock_args(sim / "top_hat.xml", "--state", str(state))]) == 1
    assert read_error(capsys).startswith(f"error: ParseError: {state}, line 1:")
    assert run(["serve-depot", "--token", "t", "--bind", "127.0.0.1:0", "--state", str(state)]) == 1
    assert read_error(capsys).startswith(f"error: ParseError: {state}, line 1:")


# -- the staged workflow (mock backend) -----------------------------------


def publish_stage(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    match = re.search(r"^result: article_id=(\d+) doi=(\S+)$", captured.out, re.M)
    assert match, captured.out
    return int(match.group(1)), match.group(2), captured.out


def test_staged_workflow(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_repo(tmp_path / "wavesolver", remote="https://example.org/wave.git")
    head = git(repo, "rev-parse", "HEAD")

    sw_id, sw_doi, out = publish_stage(
        capsys, ["publish-software", *mock_args(project, "--repo", str(repo))]
    )
    assert f"software wavesolver at revision {head}" in out

    in_id, in_doi, out = publish_stage(capsys, ["publish-input", *mock_args(project)])
    assert "uploaded 2, skipped 0 of 2 file(s)" in out

    run_simulation(sim)
    out_id, out_doi, out = publish_stage(capsys, ["publish-output", *mock_args(project)])
    assert "recorded provenance in 1 stat file(s)" in out
    assert "uploaded 3, skipped 0 of 3 file(s)" in out

    assert len({sw_doi, in_doi, out_doi}) == 3
    options = read_publish_options(project)
    assert options.slot("software").doi == sw_doi
    assert options.slot("input").doi == in_doi
    assert options.slot("output").doi == out_doi

    stat = (sim / "top_hat.stat").read_text()
    assert f'name="FluidityVersion" type="string" value="{head}"' in stat
    assert f'value="{sw_doi}"' in stat
    assert f'value="{in_doi}"' in stat

    # the stamped stat file is what got uploaded
    depot = Depot(state_path=sim / ".curator-depot.jsonl")
    record = depot.get_article(out_id)
    stat_entry = next(f for f in record.files if f.name == "top_hat.stat")
    import hashlib

    assert stat_entry.md5 == hashlib.md5((sim / "top_hat.stat").read_bytes()).hexdigest()


def test_rerun_is_idempotent(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_repo(tmp_path / "repo")
    run_simulation(sim)

    all_args = ["publish-all", *mock_args(project, "--repo", str(repo))]
    assert run(all_args) == 0
    capsys.readouterr()
    snapshot = project.read_bytes()
    state_snapshot = (sim / ".curator-depot.jsonl").read_bytes()

    assert run(all_args) == 0
    out = capsys.readouterr().out
    assert "reusing 10.5072/mockdepot.1" in out
    assert "uploaded 0" in out
    assert project.read_bytes() == snapshot
    assert (sim / ".curator-depot.jsonl").read_bytes() == state_snapshot


def test_publish_all_from_a_sha256_repository(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_sha256_repo(tmp_path / "repo")
    head = git(repo, "rev-parse", "HEAD")
    run_simulation(sim)

    assert run(["publish-all", *mock_args(project, "--repo", str(repo))]) == 0
    assert f"software repo at revision {head}" in capsys.readouterr().out
    software = read_publish_options(project).slot("software")
    depot = Depot(state_path=sim / ".curator-depot.jsonl")
    assert depot.get_article(software.article_id).meta.tags == (head,)
    stat = (sim / "top_hat.stat").read_text()
    assert f'name="FluidityVersion" type="string" value="{head}"' in stat


def test_sha256_software_rerun_reuses_and_next_revision_uses_the_export_cache(
    tmp_path, capsys, caplog
):
    sim = make_sim_dir(tmp_path / "sim")
    repo = make_sha256_repo(tmp_path / "repo")
    argv = ["publish-software", *mock_args(sim / "top_hat.xml", "--repo", str(repo))]
    assert run(argv) == 0
    assert run(argv) == 0
    assert "reusing 10.5072/mockdepot.1" in capsys.readouterr().out

    (repo / "main.c").write_text("int main(void) { return 1; }\n")
    head = commit_all(repo, "second")
    caplog.set_level(logging.INFO, logger="curator.publish")
    assert run(argv) == 0
    assert f"software repo at revision {head}" in capsys.readouterr().out
    assert "(1 entries from the export cache, 1 deflated)" in caplog.text


def test_publish_all_equals_three_verbs(tmp_path, capsys):
    repo = make_repo(tmp_path / "solver")
    staged = make_sim_dir(tmp_path / "staged")
    oneshot = make_sim_dir(tmp_path / "oneshot")
    run_simulation(staged)
    run_simulation(oneshot)

    for verb in ("publish-software", "publish-input", "publish-output"):
        extra = ("--repo", str(repo)) if verb == "publish-software" else ()
        assert run([verb, *mock_args(staged / "top_hat.xml", *extra)]) == 0
    assert run(["publish-all", *mock_args(oneshot / "top_hat.xml", "--repo", str(repo))]) == 0
    capsys.readouterr()

    assert (staged / "top_hat.xml").read_bytes() == (oneshot / "top_hat.xml").read_bytes()
    assert (staged / ".curator-depot.jsonl").read_bytes() == (
        oneshot / ".curator-depot.jsonl"
    ).read_bytes()
    assert (staged / "top_hat.stat").read_bytes() == (oneshot / "top_hat.stat").read_bytes()


def test_state_flag_overrides_default_location(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    state = tmp_path / "elsewhere" / "depot.jsonl"
    state.parent.mkdir()
    args = mock_args(sim / "top_hat.xml", "--state", str(state))
    assert run(["publish-input", *args]) == 0
    capsys.readouterr()
    assert state.is_file()
    assert not (sim / ".curator-depot.jsonl").exists()


def test_software_name_flag(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    repo = make_repo(tmp_path / "repo")
    args = mock_args(sim / "top_hat.xml", "--repo", str(repo), "--name", "navier")
    assert run(["publish-software", *args]) == 0
    assert "software navier at revision" in capsys.readouterr().out
    depot = Depot(state_path=sim / ".curator-depot.jsonl")
    assert depot.get_article(1).meta.title.startswith("navier (")


def test_constant_prefix_flag(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_repo(tmp_path / "repo")
    run_simulation(sim)
    assert run(["publish-software", *mock_args(project, "--repo", str(repo))]) == 0
    assert run(["publish-input", *mock_args(project)]) == 0
    args = mock_args(project, "--constant-prefix", "Navier")
    assert run(["publish-output", *args]) == 0
    capsys.readouterr()
    text = (sim / "top_hat.stat").read_text()
    assert 'name="NavierVersion"' in text
    assert 'name="FluidityVersion"' not in text


def test_status_reports_recorded_state(tmp_path, capsys):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    assert run(["status", "-p", str(project)]) == 0
    out = capsys.readouterr().out
    assert "publish enabled: true" in out
    assert "software: (not recorded)" in out
    assert "input: patterns=*.msh;*.geo" in out

    assert run(["publish-input", *mock_args(project)]) == 0
    capsys.readouterr()
    assert run(["status", "-p", str(project)]) == 0
    out = capsys.readouterr().out
    assert "input: patterns=*.msh;*.geo article_id=1 doi=10.5072/mockdepot.1" in out


def test_http_backend_via_env_config(tmp_path, capsys, monkeypatch, http_server):
    sim = make_sim_dir(tmp_path / "sim")
    config = write_http_config(tmp_path / "cfg", http_server.base_url)
    monkeypatch.setenv("CURATOR_CONFIG", str(config))
    assert run(["publish-input", "-p", str(sim / "top_hat.xml")]) == 0
    out = capsys.readouterr().out
    assert "result: article_id=1 doi=10.5072/mockdepot.1" in out
    record = http_server.depot.get_article(1)
    assert record.status == "published"
    assert [f.name for f in record.files] == ["box.msh", "domain.geo"]


def test_config_flag_beats_env(tmp_path, capsys, monkeypatch, http_server):
    sim = make_sim_dir(tmp_path / "sim")
    bad = write_http_config(tmp_path / "bad", http_server.base_url, token="wrong")
    good = write_http_config(tmp_path / "good", http_server.base_url)
    monkeypatch.setenv("CURATOR_CONFIG", str(bad))
    args = ["publish-input", "-p", str(sim / "top_hat.xml"), "-c", str(good)]
    assert run(args) == 0
    assert "result:" in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    sim = make_sim_dir(tmp_path / "sim")
    env = dict(os.environ, CURATOR_CONFIG=str(tmp_path / "unset"))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "curator",
            "publish-input",
            "-p",
            str(sim / "top_hat.xml"),
            "--backend",
            "mock",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "result: article_id=1 doi=10.5072/mockdepot.1" in result.stdout

    rerun = subprocess.run(
        [sys.executable, "-m", "curator", "status", "-p", str(sim / "top_hat.xml")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert rerun.returncode == 0
    assert "doi=10.5072/mockdepot.1" in rerun.stdout


def count_calls(monkeypatch, name):
    """Count calls to the function the CLI looks up as ``curator.cli.<name>``."""
    calls = []
    original = getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    return calls


def test_export_cache_carries_deflated_blobs_to_the_next_process(tmp_path):
    # Each CLI stage is a process of its own, so deflated blobs reach the
    # next revision's export only through the cache in the git directory.
    sim = make_sim_dir(tmp_path / "sim")
    files = {f"src/m{index:02d}.c": f"int m{index};\n" * 40 for index in range(20)}
    repo = make_repo(tmp_path / "solver", files=files)
    state = tmp_path / "depot.jsonl"
    argv = [sys.executable, "-m", "curator", "publish-software", "-p", str(sim / "top_hat.xml")]
    argv += ["--backend", "mock", "--state", str(state), "--repo", str(repo)]
    env = dict(os.environ, CURATOR_CONFIG=str(tmp_path / "unset"))

    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == 0, first.stderr
    assert "(0 entries from the export cache, 20 deflated)" in first.stderr
    (repo / "src/m07.c").write_text("int changed;\n")
    head = commit_all(repo, "one blob changed")
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert second.returncode == 0, second.stderr
    assert "(19 entries from the export cache, 1 deflated)" in second.stderr

    (repo / ".git" / "curator-deflate-cache").unlink()
    cold = export_archive(repo, head)
    assert cold.cached == 0
    records = Depot(state_path=state).search_by_tag(head)
    (entry,) = records[0].files
    assert entry.name == f"solver-{head[:7]}.zip"
    assert entry.md5 == hashlib.md5(cold).hexdigest()


def test_authors_ids_too_long_to_parse_or_not_ascii_do_not_count(tmp_path):
    sim = make_sim_dir(tmp_path / "sim")
    authors = f"Huge <fs:{'9' * 5000}>\nArabic <fs:\u0663>\nAlex Fixture <fs:9001>\n"
    repo = make_repo(tmp_path / "repo", files={"main.c": "int main;\n", "AUTHORS": authors})
    state = sim / ".curator-depot.jsonl"
    argv = [sys.executable, "-m", "curator", "publish-software", "-p", str(sim / "top_hat.xml")]
    argv += ["--backend", "mock", "--repo", str(repo)]
    env = dict(os.environ, CURATOR_CONFIG=str(tmp_path / "unset"))

    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    # int parses at most 4300 digits from Python 3.11; earlier, the huge id is an id
    huge = () if hasattr(sys, "get_int_max_str_digits") else (int("9" * 5000),)
    assert Depot(state_path=state).get_article(1).authors == (*huge, 9001)


def test_software_rerun_inspects_repo_once(tmp_path, capsys, monkeypatch):
    sim = make_sim_dir(tmp_path / "sim")
    repo = make_repo(tmp_path / "repo")
    argv = ["publish-software", *mock_args(sim / "top_hat.xml", "--repo", str(repo))]
    assert run(argv) == 0
    inspected = count_calls(monkeypatch, "inspect_repo")
    assert run(argv) == 0
    assert "reusing" in capsys.readouterr().out
    assert len(inspected) == 1


def test_software_rerun_after_failed_publish_is_not_reusing(tmp_path, capsys, monkeypatch):
    sim = make_sim_dir(tmp_path / "sim")
    repo = make_repo(tmp_path / "repo")
    argv = ["publish-software", *mock_args(sim / "top_hat.xml", "--repo", str(repo))]

    def lost_publish(self, article_id):
        raise TransportError("connection reset during publish")

    with monkeypatch.context() as patch:
        patch.setattr(Depot, "publish_article", lost_publish)
        assert run(argv) == 1
    capsys.readouterr()

    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "reusing" not in out
    assert "result: article_id=1 doi=10.5072/mockdepot.1" in out


def test_output_stage_expands_patterns_once(tmp_path, capsys, monkeypatch):
    sim = make_sim_dir(tmp_path / "sim")
    project = sim / "top_hat.xml"
    repo = make_repo(tmp_path / "repo")
    assert run(["publish-software", *mock_args(project, "--repo", str(repo))]) == 0
    assert run(["publish-input", *mock_args(project)]) == 0
    run_simulation(sim)
    expanded = count_calls(monkeypatch, "expand_patterns")
    assert run(["publish-output", *mock_args(project)]) == 0
    assert "recorded provenance in 1 stat file(s)" in capsys.readouterr().out
    assert len(expanded) == 1
