"""Deterministic inputs for the staged-publication benchmark.

Everything here is a pure function of the workload, the seed and the
campaign number: the same seed gives byte-identical files, repository
trees and depot state. File sizes, file counts and record shapes depend
only on the workload, never on the seed, so every seed does the same
amount of work (files uploaded, bytes hashed, HTTP requests).
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

MiB = 1 << 20
CHUNK = 1 << 20

SIM_NAME = "top_hat"
AUTHORS_TEXT = (
    "# maintainers\n"
    "A. Researcher <fs:554577>\n"
    "B. Collaborator <fs:554578>\n"
    "C. NoAccountYet\n"
)

# Fixed identity and clock, so commit hashes depend only on the tree and
# the campaign number.
BASE_EPOCH = 1400850143  # 2014-05-23T13:02:23Z
GIT_IDENTITY = {
    "GIT_AUTHOR_NAME": "Bench Author",
    "GIT_AUTHOR_EMAIL": "bench@example.org",
    "GIT_COMMITTER_NAME": "Bench Author",
    "GIT_COMMITTER_EMAIL": "bench@example.org",
}

PROJECT_TEMPLATE = """<simulation name="{name}">
  <!-- generated by the staged-publication benchmark -->
  <publish enabled="true">
    <input patterns="*.msh"/>
    <output patterns="*.vtu;*.stat"/>
  </publish>
</simulation>
"""

STAT_HEADER = (
    "<header>\n"
    '<constant name="CompileTime" type="string" value="May 23 2014 15:22:23"/>\n'
    '<constant name="StartTime" type="string" value="Fri May 23 16:02:11 2014"/>\n'
    '<field name="ElapsedTime" statistic="value" column="1"/>\n'
    '<field name="Velocity" statistic="max" column="2"/>\n'
    '<field name="Pressure" statistic="min" column="3"/>\n'
    "</header>\n"
)

# Printable alphabet for text files: 64 symbols, so each random byte maps
# to one symbol with no bias.
_ALPHABET = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \n"
_TEXT_TABLE = bytes(_ALPHABET[i % len(_ALPHABET)] for i in range(256))


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; every count and size is seed-independent."""

    name: str
    backend: str  # "mock" or "http"
    repo_files: int
    repo_file_bytes: int
    inputs: int
    input_bytes: int
    outputs: int  # data outputs (*.vtu); one .stat file comes on top
    output_bytes: int
    stat_rows: int
    state_articles: int = 0  # articles pre-populated into the depot state


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-files-http",
            backend="http",
            repo_files=2000,
            repo_file_bytes=1024,
            inputs=40,
            input_bytes=4096,
            outputs=39,
            output_bytes=4096,
            stat_rows=64,
        ),
        Workload(
            name="large-files-mock",
            backend="mock",
            repo_files=2000,
            repo_file_bytes=1024,
            inputs=4,
            input_bytes=4096,
            outputs=6,
            output_bytes=48 * MiB,
            stat_rows=1024,
        ),
        Workload(
            name="big-state-mock",
            backend="mock",
            repo_files=20,
            repo_file_bytes=1024,
            inputs=10,
            input_bytes=4096,
            outputs=9,
            output_bytes=4096,
            stat_rows=64,
            state_articles=2000,
        ),
    )
}


def rng_for(seed: int, *purpose) -> random.Random:
    """An independent generator per (seed, purpose); string seeds are stable."""
    return random.Random(":".join(str(part) for part in (seed, *purpose)))


def sized(base: int, index: int) -> int:
    """A size between 0.5x and 1.5x ``base`` that depends on ``index`` only."""
    return max(1, base // 2 + base * ((index * 7919) % 101) // 100)


def text_bytes(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size).translate(_TEXT_TABLE)


def write_text_file(path: Path, rng: random.Random, size: int) -> str:
    """Write ``size`` printable bytes and return their MD5."""
    body = text_bytes(rng, size)
    path.write_bytes(body)
    return hashlib.md5(body).hexdigest()


def write_binary_file(path: Path, rng: random.Random, size: int) -> str:
    """Write ``size`` pseudo-random bytes in bounded chunks; return their MD5.

    One random block is drawn per file and each chunk is stamped with its
    offset, so generating a large file costs little CPU or memory.
    """
    block = rng.randbytes(min(size, CHUNK))
    digest = hashlib.md5()
    with open(path, "wb") as handle:
        for offset in range(0, size, CHUNK):
            length = min(CHUNK, size - offset)
            stamp = offset.to_bytes(8, "little")[:length]
            piece = stamp + block[len(stamp) : length]
            handle.write(piece)
            digest.update(piece)
    return digest.hexdigest()


def write_data_file(path: Path, rng: random.Random, size: int) -> str:
    if size > CHUNK:
        return write_binary_file(path, rng, size)
    return write_text_file(path, rng, size)


# -- software repository ---------------------------------------------------


def repo_path(index: int) -> str:
    return f"src/mod{index // 100:02d}/unit{index:04d}.f90"


def repo_tree_bytes(workload: Workload) -> int:
    """Bytes of the files in every revision's tree (constant across revisions)."""
    return (
        sum(sized(workload.repo_file_bytes, i) for i in range(workload.repo_files))
        + len(AUTHORS_TEXT)
        + len(version_text(0))
    )


def version_text(campaign: int) -> str:
    return f"revision {campaign:06d}\n"


def git(repo: Path, *args: str, stdin: bytes | None = None) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], input=stdin, capture_output=True, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr.decode(errors='replace')}")
    return proc.stdout.decode().strip()


def _commit_stream(campaign: int, files: dict[str, bytes], parent: bool) -> bytes:
    """A ``git fast-import`` stream for one commit on main."""
    who = f"{GIT_IDENTITY['GIT_AUTHOR_NAME']} <{GIT_IDENTITY['GIT_AUTHOR_EMAIL']}>"
    when = f"{BASE_EPOCH + 3600 * campaign} +0000"
    message = f"revision {campaign}\n".encode()
    parts = [
        f"commit refs/heads/main\nauthor {who} {when}\ncommitter {who} {when}\n".encode(),
        b"data %d\n" % len(message),
        message,
    ]
    if parent:
        parts.append(b"from refs/heads/main^0\n")
    for path, body in files.items():
        parts.append(f"M 100644 inline {path}\n".encode())
        parts.append(b"data %d\n" % len(body))
        parts.append(body + b"\n")
    return b"".join(parts)


def _commit(repo: Path, campaign: int, files: dict[str, bytes], parent: bool) -> str:
    """Commit ``files`` straight into the object store; return the new head.

    curator reads revisions from the object store, except AUTHORS, which
    it reads from the working tree, so only AUTHORS and VERSION are also
    written there. This keeps set-up free of thousands of file creations.
    """
    git(repo, "fast-import", "--quiet", stdin=_commit_stream(campaign, files, parent))
    for name in ("AUTHORS", "VERSION"):
        if name in files:
            (repo / name).write_bytes(files[name])
    return git(repo, "rev-parse", "HEAD")


def make_repo(repo: Path, workload: Workload, seed: int) -> str:
    """Create the software repository with one commit; return its hash."""
    repo.mkdir(parents=True)
    rng = rng_for(seed, "repo")
    files = {
        repo_path(index): text_bytes(rng, sized(workload.repo_file_bytes, index))
        for index in range(workload.repo_files)
    }
    files["AUTHORS"] = AUTHORS_TEXT.encode()
    files["VERSION"] = version_text(0).encode()
    git(repo, "init", "-q", "-b", "main")
    return _commit(repo, 0, files, parent=False)


def commit_revision(repo: Path, workload: Workload, seed: int, campaign: int) -> str:
    """Commit a new revision: VERSION plus two rewritten sources, same sizes."""
    rng = rng_for(seed, "revision", campaign)
    files = {"VERSION": version_text(campaign).encode()}
    for index in rng.sample(range(workload.repo_files), min(2, workload.repo_files)):
        files[repo_path(index)] = text_bytes(rng, sized(workload.repo_file_bytes, index))
    return _commit(repo, campaign, files, parent=True)


# -- simulation directory ----------------------------------------------------


def input_name(index: int) -> str:
    return f"mesh_{index:03d}.msh"


def output_name(index: int) -> str:
    return f"frame_{index:03d}.vtu"


def stat_name() -> str:
    return f"{SIM_NAME}.stat"


def write_project(sim: Path) -> Path:
    project = sim / f"{SIM_NAME}.xml"
    project.write_text(PROJECT_TEMPLATE.format(name=SIM_NAME))
    return project


def write_inputs(sim: Path, workload: Workload, seed: int, campaign: int) -> dict[str, str]:
    """(Re)generate every input file; return name -> MD5."""
    rng = rng_for(seed, "inputs", campaign)
    digests = {}
    for index in range(workload.inputs):
        name = input_name(index)
        digests[name] = write_data_file(sim / name, rng, sized(workload.input_bytes, index))
    return digests


def write_outputs(
    sim: Path, workload: Workload, seed: int, campaign: int, indices=None, variant: str = "run"
) -> dict[str, str]:
    """Write data outputs (all, or ``indices``); return name -> MD5.

    ``variant`` tells apart the first write of a campaign from a rewrite.
    """
    if indices is None:
        indices = range(workload.outputs)
    digests = {}
    for index in indices:
        rng = rng_for(seed, "output", campaign, variant, index)
        name = output_name(index)
        digests[name] = write_data_file(sim / name, rng, sized(workload.output_bytes, index))
    return digests


def write_stat(sim: Path, workload: Workload, seed: int, campaign: int) -> None:
    """The simulation's stat file, header without provenance, fixed-width rows."""
    rng = rng_for(seed, "stat", campaign)
    rows = "".join(
        f"{step * 0.01: .6e} {rng.uniform(-1, 1): .6e} {rng.uniform(-1, 1): .6e}\n"
        for step in range(workload.stat_rows)
    )
    (sim / stat_name()).write_text(STAT_HEADER + rows)


def changed_output_indices(workload: Workload) -> list[int]:
    """The fixed 1 in 20 of data outputs that step 5 of every campaign rewrites.

    The set does not depend on the seed, so every seed uploads the same
    number of bytes in step 5.
    """
    return list(range(0, workload.outputs, 20))


# -- pre-populated depot state ----------------------------------------------


def write_state(path: Path, workload: Workload, seed: int) -> None:
    """Write ``state_articles`` published articles in the depot's JSONL format.

    Each line is one article record as the reference depot persists it
    (sorted keys). Every field has a seed-independent length, so the file
    size is the same for every seed.
    """
    rng = rng_for(seed, "state")
    file_id = 1
    with open(path, "w", encoding="utf-8") as handle:
        for article_id in range(1, workload.state_articles + 1):
            code = article_id % 3 == 0
            files = []
            for part in range(10):
                files.append(
                    {
                        "file_id": file_id,
                        "md5": rng.randbytes(16).hex(),
                        "name": f"part_{part:02d}.vtu",
                        "size": 1_000_000 + rng.randrange(9_000_000),
                    }
                )
                file_id += 1
            tag = rng.randbytes(20).hex() if code else f"campaign-{rng.randrange(10**6):06d}"
            record = {
                "article_id": article_id,
                "authors": [554577, 554578],
                "category": "Computational Physics",
                "description": text_bytes(rng, 240).decode("ascii").replace("\n", " "),
                "doi": f"10.5072/mockdepot.{article_id}",
                "files": files,
                "kind": "code" if code else "fileset",
                "status": "published",
                "tags": [tag],
                "title": f"archived run {article_id:06d} " + text_bytes(rng, 24).decode(
                    "ascii"
                ).replace("\n", " "),
                "version": 1 + rng.randrange(9),
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
