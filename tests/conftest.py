from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path

import pytest

from curator.client import ClientConfig, HttpDepotClient
from curator.depot import Depot
from curator.depot_http import DepotHttpServer

TOKEN = "sekrit"

# Fixed identity and dates keep commit hashes and archive bytes stable
# across runs, which the determinism tests rely on.
GIT_ENV = {
    "GIT_AUTHOR_NAME": "Alex Fixture",
    "GIT_AUTHOR_EMAIL": "alex@example.org",
    "GIT_COMMITTER_NAME": "Alex Fixture",
    "GIT_COMMITTER_EMAIL": "alex@example.org",
    "GIT_AUTHOR_DATE": "2014-05-23T15:22:23 +0100",
    "GIT_COMMITTER_DATE": "2014-05-23T15:22:23 +0100",
}

AUTHORS_TEXT = "# maintainers\nAlex Fixture <fs:9001>\nJ. Q. Sample <fs:9002>\n"


def git(repo, *args, extra_env=None) -> str:
    env = {**os.environ, **GIT_ENV, **(extra_env or {})}
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"git {args} failed: {proc.stderr}"
    return proc.stdout.strip()


def make_repo(root: Path, files: dict | None = None, remote: str | None = None) -> Path:
    """Create a one-commit repository under root and return its path."""
    root.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        ["git", "-C", str(root), "init", "-q", "-b", "main"], check=True
    )
    if files is None:
        files = {"main.c": "int main(void) { return 0; }\n", "AUTHORS": AUTHORS_TEXT}
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "initial")
    if remote:
        git(root, "remote", "add", "origin", remote)
    return root


def commit_all(repo: Path, message: str, date: str = "2014-06-01T09:00:00 +0100") -> str:
    git(repo, "add", "-A")
    git(
        repo,
        "commit",
        "-q",
        "-m",
        message,
        extra_env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date},
    )
    return git(repo, "rev-parse", "HEAD")


def client_config(base_url: str, token: str = TOKEN) -> ClientConfig:
    return ClientConfig(
        base_url=base_url,
        client_key="ck",
        client_secret="cs",
        token=token,
        token_secret="ts",
    )


PROJECT_TEMPLATE = """<simulation name="{name}">
  <publish enabled="{enabled}">
    <input patterns="{input_patterns}"/>
    <output patterns="{output_patterns}"/>
  </publish>
</simulation>
"""

STAT_HEADER = (
    '<constant name="CompileTime" type="string" value="May 23 2014 15:22:23"/>\n'
    '<constant name="StartTime" type="string" value="Fri May 23 16:02:11 2014"/>\n'
)


def write_project(
    path: Path,
    name: str = "top_hat",
    enabled: str = "true",
    input_patterns: str = "*.msh;*.geo",
    output_patterns: str = "*.vtu;*.stat",
) -> Path:
    path.write_text(
        PROJECT_TEMPLATE.format(
            name=name,
            enabled=enabled,
            input_patterns=input_patterns,
            output_patterns=output_patterns,
        )
    )
    return path


def write_stat(path: Path, rows: str = "0.0 1.5 2.5\n0.1 1.4 2.6\n") -> Path:
    path.write_text(STAT_HEADER + rows)
    return path


def make_sim_dir(root: Path) -> Path:
    """Project dir with input files present; outputs appear after the 'run'."""
    root.mkdir(parents=True, exist_ok=True)
    write_project(root / "top_hat.xml")
    (root / "box.msh").write_text("mesh vertices\n")
    (root / "domain.geo").write_text("geometry\n")
    return root


def run_simulation(root: Path) -> None:
    """Stand-in for the simulation run that produces the output files."""
    (root / "frame_0.vtu").write_text("field 0\n")
    (root / "frame_1.vtu").write_text("field 1\n")
    write_stat(root / "top_hat.stat")


def wait_for_clock(*paths: Path) -> None:
    """Return once the filesystem clock has passed the last change of every path.

    curator trusts a sidecar by stat only for a file last changed before the
    clock tick it was read in, and a kernel that timestamps files from a
    coarse clock makes one tick several milliseconds long.
    """
    latest = max(os.stat(path).st_ctime_ns for path in paths)
    probe = Path(paths[0]).parent / "clock-probe.md5"
    deadline = time.monotonic() + 5
    try:
        while True:
            probe.write_bytes(b"")
            if probe.stat().st_mtime_ns > latest:
                return
            assert time.monotonic() < deadline, "the filesystem clock did not advance"
            time.sleep(0.001)
    finally:
        probe.unlink(missing_ok=True)


@pytest.fixture
def depot() -> Depot:
    return Depot()


@pytest.fixture
def http_server():
    server = DepotHttpServer("127.0.0.1:0", Depot(), TOKEN).start()
    yield server
    server.stop()


@pytest.fixture
def http_client(http_server):
    with HttpDepotClient(client_config(http_server.base_url)) as client:
        yield client
