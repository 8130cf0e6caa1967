"""Tests of the benchmark itself: determinism, arithmetic and its checks.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(CHECKOUT / "src"))

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracing import Span  # noqa: E402

TINY = {
    name: replace(
        workload,
        name=f"tiny-{name}",
        repo_files=12,
        inputs=3,
        outputs=3,
        output_bytes=2 * gen.CHUNK + 123 if workload.output_bytes > gen.CHUNK else 1000,
        stat_rows=8,
        state_articles=min(workload.state_articles, 25),
    )
    for name, workload in gen.WORKLOADS.items()
}


def tree_bytes(root: Path) -> dict:
    """Every regular file under root outside .git, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and ".git" not in p.parts
    }


def build_site(tmp: Path, workload: gen.Workload, seed: int) -> dict:
    repo = tmp / "repo"
    head = gen.make_repo(repo, workload, seed)
    second = gen.commit_revision(repo, workload, seed, 1)
    sim = tmp / "sim"
    sim.mkdir()
    gen.write_project(sim)
    gen.write_inputs(sim, workload, seed, 1)
    gen.write_outputs(sim, workload, seed, 1)
    gen.write_outputs(sim, workload, seed, 1, gen.changed_output_indices(workload), "rerun")
    gen.write_stat(sim, workload, seed, 1)
    gen.write_state(tmp / "depot.jsonl", workload, seed)
    return {
        "commits": (head, second),
        "tree": gen.git(repo, "ls-tree", "-r", "-l", second),
        "files": {**tree_bytes(repo), **tree_bytes(sim)},
        "state": (tmp / "depot.jsonl").read_bytes(),
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_bytes_other_seed_same_sizes(tmp_path, name):
    workload = replace(TINY[name], state_articles=5)
    first = build_site(tmp_path / "a", workload, seed=7)
    again = build_site(tmp_path / "b", workload, seed=7)
    other = build_site(tmp_path / "c", workload, seed=8)

    assert first == again
    assert other["files"] != first["files"]
    assert other["state"] != first["state"]
    sizes = lambda site: {path: len(body) for path, body in site["files"].items()}  # noqa: E731
    assert sizes(other) == sizes(first)
    assert len(other["state"]) == len(first["state"])


def test_percentiles_and_tail_rule():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile([3, 1, 2], 100) == 3
    assert metrics.percentile([5], 1) == 5
    # A percentile needs ten samples beyond it.
    assert metrics.tail_percentile(19) is None
    assert metrics.tail_percentile(20) == 50
    assert metrics.tail_percentile(99) == 50
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(200) == 95
    assert metrics.tail_percentile(1000) == 99
    summary = metrics.summarize([4.0, 1.0, 3.0, 2.0])
    assert summary == {
        "median": 2.5,
        "tail_p": None,
        "tail": None,
        "max": 4.0,
        "n": 4,
        "samples": [4.0, 1.0, 3.0, 2.0],
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("cli.stage", 0, 100),
        Span("publish.a", 10, 40, 0),
        Span("publish.b", 30, 60, 0),  # overlaps a: 10..60 is covered once
        Span("depot.c", 15, 20, 1),
        Span("depot.d", 50, 120, 2),  # clipped to its parent
    ]
    assert metrics.covered([(10, 40), (30, 60)], 0, 100) == 50
    assert metrics.covered([(50, 120)], 30, 60) == 10
    assert metrics.self_times(spans) == [50, 25, 20, 5, 70]
    assert metrics.roots(spans) == [0, 0, 0, 0, 0]

    nested = [Span("cli.stage", 0, 100), Span("publish.x", 10, 90, 0), Span("depot.y", 20, 30, 1)]
    assert metrics.self_time_gaps(nested, {0: 100}) == [0]
    assert metrics.self_time_gaps(nested, {0: 103}) == [3]
    assert metrics.layer_self_ms(nested, campaigns=1) == {
        "cli": 20 / 1e6,
        "depot": 10 / 1e6,
        "publish": 70 / 1e6,
    }


def test_server_spans_pair_with_the_request_that_contains_them():
    client = [
        Span("cli.stage", 0, 100),
        Span("depot_http.request", 10, 20, 0),
        Span("depot_http.request", 30, 40, 0),
    ]
    server = [
        Span("depot.init", 1, 2),
        Span("depot_http.handle", 12, 18),
        Span("depot.get_article", 13, 14, 1),
        Span("depot_http.handle", 22, 24),  # no client request was recorded
        Span("depot.save", 22, 23, 3),
        Span("depot_http.handle", 31, 39),
    ]
    merged = metrics.attach_server_spans(client, server)
    assert [(s.name, s.parent) for s in merged[3:]] == [
        ("depot_http.handle", 1),
        ("depot_http.handle", 2),
        ("depot.get_article", 3),
    ]
    # transport is the request's self time once the handler is attached
    assert metrics.self_times(merged)[1:3] == [4, 2]


def run_tiny(name: str, seed: int, trace: bool, monkeypatch):
    monkeypatch.setattr(run, "MIN_CAMPAIGNS", 1)
    return run.run_bench(TINY[name], seed, 0.0, trace, CHECKOUT)


@pytest.mark.parametrize("name", ["small-files-http", "big-state-mock"])
def test_counts_repeat_for_every_seed(monkeypatch, name):
    counted = (
        "publish.files_uploaded",
        "publish.files_skipped",
        "publish.hash_MiB",
        "client.http_requests",
        "depot.save_calls",
        "gitrepo.git_calls",
    )
    results = []
    for seed in (1, 1, 2):
        bench, detail = run_tiny(name, seed, True, monkeypatch)
        assert run.is_correct(bench), bench.failures
        assert detail["campaigns"] == 1
        results.append({key: detail["per_layer"][key] for key in counted})
    assert results[0] == results[1] == results[2]
    assert results[0]["publish.files_uploaded"] > 0
    assert (results[0]["client.http_requests"] > 0) == (TINY[name].backend == "http")


def test_result_line_matches_benchmark_json(monkeypatch):
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in declared["workloads"]} <= set(gen.WORKLOADS)

    _, detail = run_tiny("small-files-http", 3, True, monkeypatch)
    emitted = {
        name: run.layer_unit(name)
        for name in detail["per_layer"]
        if name not in run.HTTP_ONLY_TIMES
    }
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == emitted


def test_checks_catch_a_rerun_that_uploads_everything(monkeypatch):
    import curator.publish

    monkeypatch.setattr(curator.publish, "needs_upload", lambda path: True)
    bench, detail = run_tiny("large-files-mock", 1, False, monkeypatch)
    assert not run.is_correct(bench)
    assert detail["excess_upload_bytes"] > 0
    assert any("uploaded" in failure for failure in bench.failures)


def test_checks_hold_under_another_state_format(monkeypatch):
    """The checks read the depot through ``get_article``, so a correct
    program that persists its state differently stays correct."""
    from curator.client import record_from_wire, record_to_wire
    from curator.depot import Depot, StoredArticle

    def save(self):
        if self._state_path is not None:
            articles = [record_to_wire(a.head) for _, a in sorted(self.state.articles.items())]
            self._state_path.write_text(json.dumps({"articles": articles, "next_file_id": self.state.next_file_id}))

    def load(self):
        document = json.loads(self._state_path.read_text())
        for payload in document["articles"]:
            record = record_from_wire(payload)
            self.state.articles[record.article_id] = StoredArticle(head=record, doi=record.doi, dirty=False)
        self.state.next_article_id = max(self.state.articles, default=0) + 1
        self.state.next_file_id = document["next_file_id"]

    monkeypatch.setattr(Depot, "_save", save)
    monkeypatch.setattr(Depot, "_load", load)
    bench, _ = run_tiny("large-files-mock", 1, False, monkeypatch)
    assert run.is_correct(bench), bench.failures


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "big-state-mock", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / run.WORK_DIR_NAME).exists()
