#!/usr/bin/env python3
"""Staged-publication benchmark for curator.

Drives the real staged CLI (``curator.cli.run``) through repeated
campaigns of ``publish-software -> publish-input -> run -> publish-output``,
checks every output, and prints one JSON result as the last line of
standard output.

    python3 bench/run.py --workload small-files-http --seed 1 --seconds 30 --trace 0

Run it from the repository root: ``curator`` is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the same campaigns run with spans recorded around each
layer's entry points and the result holds the per-layer metrics. See
``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from xml.etree import ElementTree

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402

MIN_CAMPAIGNS = 3  # measured campaigns, after one warm-up campaign
SERVER_READY_TIMEOUT = 30.0
SERVER_STOP_TIMEOUT = 10.0
TOKEN = "bench-token"
WORK_DIR_NAME = ".bench-work"

END_TO_END = {
    "setup_s": "s",
    "software_s": "s",
    "data_publish_s": "s",
    "rerun_noop_s": "s",
    "rerun_changed_s": "s",
    "peak_rss_MiB": "MiB",
}
STAGE_METRICS = ("software_s", "data_publish_s", "rerun_noop_s", "rerun_changed_s")
# Per-layer metrics that only the HTTP backend has; they go to the detail
# report but not to the result line, where a mock workload would read 0 ms.
HTTP_ONLY_TIMES = ("depot_http.handle_ms_p50", "depot_http.transport_ms_p50")

STAT_CONSTANT_RE = re.compile(r'<constant name="([^"]+)" type="string" value="([^"]*)"/>')


def layer_unit(name: str) -> str:
    if name.endswith("MiBps"):
        return "MiB/s"
    if name.endswith(("_ms", "ms_p50")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_MiB") or name.endswith("MiB_rewritten"):
        return "MiB"
    if name.endswith("_ratio") or name.endswith("_per_changed_byte"):
        return "ratio"
    if name.endswith("_per_mutation"):
        return "bytes"
    return "count"


class StageFailed(Exception):
    pass


def vm_hwm_MiB(pid) -> float:
    """Peak resident set size so far (VmHWM) of a live process, or 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def md5_of(path: Path) -> str:
    digest = hashlib.md5()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(gen.CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Site:
    """One set-up: repository, simulation directory, depot state and server."""

    def __init__(self, root: Path, checkout: Path, workload: gen.Workload, seed: int, trace: bool):
        self.root = root
        self.checkout = checkout
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.repo = root / "repo"
        self.sim = root / "sim"
        self.state = root / "depot.jsonl"
        self.config = root / "curator.ini"
        self.server_spans = root / "server-spans.json"
        self.server = None
        self.base_url = None
        self.project = None

    def build(self) -> None:
        self.root.mkdir()
        gen.make_repo(self.repo, self.workload, self.seed)
        self.sim.mkdir()
        self.project = gen.write_project(self.sim)
        gen.write_inputs(self.sim, self.workload, self.seed, campaign=0)
        if self.workload.state_articles:
            gen.write_state(self.state, self.workload, self.seed)
        config = "[general]\ndefault_category = Computational Physics\n"
        if self.workload.backend == "http":
            self.base_url = self._start_server()
            config += (
                f"\n[depot]\nbase_url = {self.base_url}\nclient_key = ck\n"
                f"client_secret = cs\ntoken = {TOKEN}\ntoken_secret = ts\n"
            )
        self.config.write_text(config)

    def _start_server(self) -> str:
        """Start serve-depot on a free loopback port; return its base URL."""
        serve = ["serve-depot", "--bind", "127.0.0.1:0", "--token", TOKEN, "--state", str(self.state)]
        if self.trace:
            command = [sys.executable, "-u", str(HERE / "depot_launcher.py"), str(self.server_spans), "--", *serve]
        else:
            command = [sys.executable, "-u", "-m", "curator", *serve]
        env = {**os.environ, "PYTHONPATH": str(self.checkout / "src")}
        with open(self.root / "server.log", "wb") as log:
            self.server = subprocess.Popen(
                command,
                cwd=self.checkout,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        line = self._read_line(SERVER_READY_TIMEOUT)
        match = re.search(r"depot listening on (http://\S+)", line)
        if match is None:
            raise RuntimeError(f"serve-depot did not start: {line!r}")
        return match.group(1)

    def _read_line(self, timeout: float) -> str:
        fd = self.server.stdout.fileno()
        deadline = time.monotonic() + timeout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("serve-depot did not report listening in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                log = (self.root / "server.log").read_text(errors="replace")
                raise RuntimeError(f"serve-depot exited: {log.strip()[-500:]}")
            buffer += chunk
        return buffer.decode(errors="replace").splitlines()[0]

    def depot(self):
        """A depot client for the checks: the run's server on ``http``; on
        ``mock`` a fresh ``Depot`` that loads the state the last stage left.
        """
        if self.base_url is None:
            from curator.depot import Depot

            return Depot(self.state)
        from curator.client import ClientConfig, HttpDepotClient

        return HttpDepotClient(ClientConfig(self.base_url, "ck", "cs", TOKEN, "ts"))

    def peak_rss_MiB(self) -> float:
        """Peak RSS so far of this process plus the live server, if any."""
        peak = vm_hwm_MiB("self")
        if self.server is not None:
            peak += vm_hwm_MiB(self.server.pid)
        return peak

    def stop(self) -> None:
        """Terminate and reap the server; idempotent."""
        if self.server is None:
            return
        server, self.server = self.server, None
        server.terminate()
        try:
            server.wait(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    def remove(self) -> None:
        self.stop()
        shutil.rmtree(self.root, ignore_errors=True)


class Bench:
    """Set-up, warm-up campaign, measured campaigns and output checks."""

    def __init__(self, workload: gen.Workload, seed: int, seconds: float, trace: bool, work: Path, checkout: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.checkout = checkout
        self.tracer = tracing.Tracer() if trace else None
        self.site: Site | None = None
        self.timings = {name: [] for name in STAGE_METRICS}
        self.setup_times: list[float] = []
        self.walls: dict[int, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.excess_upload_bytes = 0
        self.changed_bytes = 0
        self.measured = 0
        self.peak_rss: float | None = None
        self.first_dois: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.highest_id = workload.state_articles
        self.changed = gen.changed_output_indices(workload)

    # -- set-up ------------------------------------------------------------

    def build_site(self) -> Site:
        """Build and time one site."""
        site = Site(
            self.work / f"site{len(self.setup_times)}",
            self.checkout,
            self.workload,
            self.seed,
            self.tracer is not None,
        )
        start = time.perf_counter()
        try:
            site.build()
        except BaseException:
            site.remove()
            raise
        self.setup_times.append(time.perf_counter() - start)
        return site

    def time_setup(self) -> None:
        """Time one more set-up and throw it away.

        Set-up is repeated after every campaign rather than all at the
        start, so its median is sampled across the whole run like the
        stage timings are.
        """
        self.build_site().remove()

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def records(self) -> dict[int, dict]:
        """Wire records of the articles the checks follow, by ``get_article``.

        The followed articles are the ones the project file names plus
        every article created since the previous read, found by probing
        ids upward from the highest one seen until the depot reports
        NotFound. Reads go through the depot's public contract, between
        stages and with the tracer off, so they neither depend on how the
        depot persists its state nor fall inside a timed region.
        """
        from curator.client import record_to_wire
        from curator.errors import NotFound

        depot = self.site.depot()
        slots = self.project_slots().values()
        ids = sorted({int(slot["article_id"]) for slot in slots if "article_id" in slot})
        records = {i: record_to_wire(depot.get_article(i)) for i in ids}
        while True:
            try:
                record = depot.get_article(self.highest_id + 1)
            except NotFound:
                return records
            self.highest_id += 1
            records[self.highest_id] = record_to_wire(record)

    def project_slots(self) -> dict[str, dict]:
        publish = ElementTree.parse(self.site.project).getroot().find("publish")
        return {slot.tag: dict(slot.attrib) for slot in publish}

    @staticmethod
    def new_entries(before: dict | None, after: dict) -> dict[str, dict]:
        """Entries of one article that got a new file id, by name."""
        old = {entry["file_id"] for entry in (before or {}).get("files", [])}
        return {entry["name"]: entry for entry in after["files"] if entry["file_id"] not in old}

    def count_excess(self, before: dict, after: dict, expected: set) -> None:
        """Add the bytes uploaded to any article beyond the ``expected`` files."""
        for article_id, record in after.items():
            for name, entry in self.new_entries(before.get(article_id), record).items():
                if name not in expected:
                    self.excess_upload_bytes += entry["size"]

    def check_fileset(self, slot: str, before: dict, after: dict, expected: set, bump: int, label: str) -> None:
        slots = self.project_slots()
        article_id = int(slots[slot]["article_id"])
        doi = slots[slot]["doi"]
        self.first_dois.setdefault(slot, doi)
        self.check(doi == self.first_dois[slot], f"{label}: {slot} DOI changed from {self.first_dois[slot]} to {doi}")
        old_version = before.get(article_id, {}).get("version", 0)
        new_version = after[article_id]["version"]
        self.check(
            new_version == old_version + bump,
            f"{label}: {slot} version went {old_version} -> {new_version}, expected +{bump}",
        )
        uploaded = self.new_entries(before.get(article_id), after[article_id])
        self.check(
            set(uploaded) == expected,
            f"{label}: {slot} uploaded {sorted(uploaded)} but changed {sorted(expected)}",
        )
        for name, entry in uploaded.items():
            self.check(entry["md5"] == self.digests.get(name), f"{label}: depot md5 of {name} differs from the file")
        for entry in after[article_id]["files"]:
            name = entry["name"]
            sidecar = (self.site.sim / (name + ".md5")).read_text(encoding="ascii").strip()
            self.check(sidecar == self.digests[name], f"{label}: sidecar of {name} is not its MD5")

    def check_stat(self, commit: str, label: str) -> None:
        slots = self.project_slots()
        text = (self.site.sim / gen.stat_name()).read_text(encoding="utf-8")
        header = text.split("</header>", 1)[0]
        constants = dict(STAT_CONSTANT_RE.findall(header))
        expected = {
            "FluidityVersion": commit,
            "SoftwareDOI": slots["software"]["doi"],
            "InputDataDOI": slots["input"]["doi"],
        }
        for name, value in expected.items():
            self.check(constants.get(name) == value, f"{label}: stat {name}={constants.get(name)!r}, want {value!r}")

    # -- stages ------------------------------------------------------------

    def stage(self, verb: str, campaign: int, step: int, measured: bool) -> float:
        """Run one CLI stage in process; return its wall time in seconds."""
        import curator.cli as cli

        site = self.site
        argv = [verb, "-p", str(site.project), "--backend", self.workload.backend]
        if self.workload.backend == "mock":
            argv += ["--state", str(site.state)]
        if verb == "publish-software":
            argv += ["--repo", str(site.repo)]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer if measured else None
        code = None
        # Each CLI stage normally runs in a fresh process; start every stage
        # from an empty collector, so garbage left by the benchmark and by
        # earlier stages is not collected inside the timed region.
        gc.collect()
        start = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = True
            root = tracer.begin(f"cli.{verb}", {"campaign": campaign, "step": step, "stage": verb})
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:
            err.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.end(root)
                tracer.active = False
        wall = time.perf_counter_ns() - start
        if tracer is not None:
            self.walls[root] = wall
        self.check(code == 0, f"campaign {campaign} step {step} {verb}: exit {code}: {err.getvalue().strip()}")
        if code != 0:
            raise StageFailed(verb)
        return wall / 1e9

    def campaign(self, c: int, before: dict, measured: bool) -> dict:
        """One campaign; steps are numbered as in bench/README.md.

        ``before`` holds the depot records the previous campaign left;
        the records this one leaves are returned.
        """
        w, seed, sim = self.workload, self.seed, self.site.sim
        label = f"campaign {c}"

        # 1. a new software revision
        commit = gen.commit_revision(self.site.repo, w, seed, c)
        t_software = self.stage("publish-software", c, 1, measured)
        after = self.records()
        software = self.project_slots()["software"]
        article = after.get(int(software["article_id"]), {})
        self.check(int(software["article_id"]) not in before, f"{label}: software article reused for a new revision")
        self.check(
            article.get("version") == 1 and commit in article.get("tags", []) and article.get("doi") == software["doi"],
            f"{label}: software article {software['article_id']} is not version 1 of {commit}",
        )

        # 2. new inputs
        self.digests.update(gen.write_inputs(sim, w, seed, c))
        inputs = {gen.input_name(i) for i in range(w.inputs)}
        before = after
        t_input = self.stage("publish-input", c, 2, measured)
        after = self.records()
        self.check_fileset("input", before, after, inputs, 1, f"{label} step 2")

        # 3. the simulation writes every output, then they are published
        self.digests.update(gen.write_outputs(sim, w, seed, c))
        gen.write_stat(sim, w, seed, c)
        outputs = {gen.output_name(i) for i in range(w.outputs)} | {gen.stat_name()}
        before = after
        t_output = self.stage("publish-output", c, 3, measured)
        after = self.records()
        self.digests[gen.stat_name()] = md5_of(sim / gen.stat_name())
        self.check_fileset("output", before, after, outputs, 1, f"{label} step 3")
        self.check_stat(commit, f"{label} step 3")

        # 4. nothing changed: all three stages again
        before = after
        slots_before = self.project_slots()
        t_noop = sum(
            self.stage(verb, c, 4, measured)
            for verb in ("publish-software", "publish-input", "publish-output")
        )
        after = self.records()
        self.count_excess(before, after, set())
        self.check(self.project_slots() == slots_before, f"{label} step 4: project ids changed on a no-op re-run")
        self.check(after == before, f"{label} step 4: a no-op re-run changed the depot")
        self.check_fileset("input", before, after, set(), 0, f"{label} step 4")
        self.check_fileset("output", before, after, set(), 0, f"{label} step 4")

        # 5. a fixed 1-in-20 of the outputs change
        changed = gen.write_outputs(sim, w, seed, c, self.changed, variant="rerun")
        self.digests.update(changed)
        before = after
        t_changed = self.stage("publish-output", c, 5, measured)
        after = self.records()
        self.count_excess(before, after, set(changed))
        self.check_fileset("output", before, after, set(changed), 1, f"{label} step 5")

        if measured:
            self.measured += 1
            self.timings["software_s"].append(t_software)
            self.timings["data_publish_s"].append(t_input + t_output)
            self.timings["rerun_noop_s"].append(t_noop)
            self.timings["rerun_changed_s"].append(t_changed)
            self.changed_bytes += sum(
                (sim / name).stat().st_size for name in (*inputs, *outputs, *changed)
            )
        return after

    def run(self) -> None:
        start = time.monotonic()
        self.site = self.build_site()
        os.environ["CURATOR_CONFIG"] = str(self.site.config)
        try:
            records = self.campaign(1, self.records(), measured=False)
            self.time_setup()
            longest = 0.0
            c = 2
            while self.measured < MIN_CAMPAIGNS or time.monotonic() - start + longest <= self.seconds:
                began = time.monotonic()
                records = self.campaign(c, records, measured=True)
                if self.measured == MIN_CAMPAIGNS:
                    # The server keeps every uploaded body, so its RSS grows
                    # with each campaign; sampled after a fixed number of
                    # campaigns, the peak does not depend on how many fit
                    # in the run.
                    self.peak_rss = self.site.peak_rss_MiB()
                self.time_setup()
                longest = max(longest, time.monotonic() - began)
                c += 1
        except StageFailed:
            pass
        except Exception:
            # A program that leaves malformed state behind must not crash
            # the benchmark before it reports; the traceback is the failure.
            self.failures.append(f"campaign aborted:\n{traceback.format_exc()}")
        finally:
            if self.peak_rss is None:
                self.peak_rss = self.site.peak_rss_MiB()
            self.site.stop()

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        values = {name: self.timings[name] for name in STAGE_METRICS}
        values["setup_s"] = self.setup_times
        summary = {name: metrics.summarize(v) for name, v in values.items()}
        summary["peak_rss_MiB"] = {"median": self.peak_rss, "n": 1}
        return summary

    def layers(self) -> tuple[dict, dict, list]:
        """Per-layer metrics and the trace diagnostics behind them."""
        spans = self.tracer.spans
        load_spans = spans
        if self.workload.backend == "http":
            server_spans, _ = tracing.load_dump(self.site.server_spans)
            spans = metrics.attach_server_spans(spans, server_spans)
            load_spans = server_spans
        load_ns = [s.end - s.start for s in load_spans if s.name == "depot.init"]
        layer = metrics.layer_metrics(
            spans,
            self.tracer.counts,
            campaigns=self.measured,
            tree_bytes=gen.repo_tree_bytes(self.workload),
            changed_bytes=self.changed_bytes,
            state_bytes=self.site.state.stat().st_size,
            load_ns=load_ns,
        )
        gaps = metrics.self_time_gaps(spans, self.walls)
        diagnostics = {
            "layer_self_ms_per_campaign": metrics.layer_self_ms(spans, self.measured),
            "self_time_gap_ms": {"median": metrics.median(gaps) / 1e6, "max": max(gaps, default=0) / 1e6},
            "spans": len(spans),
        }
        return layer, diagnostics, spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="write every metric and check to this JSON file")
    parser.add_argument("--spans", help="with --trace 1, write the merged spans to this JSON file")
    return parser.parse_args(argv)


def _terminate(_signum, _frame):
    raise SystemExit(128 + signal.SIGTERM)


@contextlib.contextmanager
def isolated(work: Path):
    """Point HOME, TMPDIR and every config lookup into ``work`` for the duration.

    git, curator's scratch archives and config reads then stay inside the
    work dir: no ~/.curator, no ~/.gitconfig, no /tmp.
    """
    saved_env, saved_tempdir = dict(os.environ), tempfile.tempdir
    (work / "tmp").mkdir()
    os.environ.update(
        HOME=str(work),
        XDG_CONFIG_HOME=str(work),
        GIT_CONFIG_NOSYSTEM="1",
        TMPDIR=str(work / "tmp"),
        CURATOR_CONFIG=str(work / "curator.ini"),
    )
    tempfile.tempdir = str(work / "tmp")
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        tempfile.tempdir = saved_tempdir


def run_bench(workload: gen.Workload, seed: int, seconds: float, trace: bool, checkout: Path, spans_path=None):
    """One benchmark run in a temporary work dir under ``checkout``.

    Returns the finished ``Bench`` and its detail report. The work dir,
    the depot server and every patch are gone when this returns.
    """
    parent = checkout / WORK_DIR_NAME
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=parent))
    bench = Bench(workload, seed, seconds, trace, work, checkout)
    try:
        with isolated(work):
            if bench.tracer is not None:
                tracing.instrument_client_side(bench.tracer, workload.backend)
            bench.run()
        detail = {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "campaigns": bench.measured,
            "end_to_end": bench.end_to_end(),
            "excess_upload_bytes": bench.excess_upload_bytes,
            "failed_ops_ratio": len(bench.failures) / max(1, bench.attempted),
            "failures": bench.failures,
        }
        if bench.tracer is not None and bench.measured:
            layer, diagnostics, spans = bench.layers()
            detail["per_layer"] = layer
            detail["trace_diagnostics"] = diagnostics
            if spans_path:
                Path(spans_path).write_text(json.dumps([s.to_json() for s in spans]))
    finally:
        if bench.tracer is not None:
            bench.tracer.restore()
        if bench.site is not None:
            bench.site.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()
    return bench, detail


def is_correct(bench: Bench) -> bool:
    return not bench.failures and bench.excess_upload_bytes == 0 and bench.measured > 0


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "curator" / "__init__.py").is_file():
        print(f"bench: no src/curator under {checkout}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    bench, detail = run_bench(
        gen.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), checkout, args.spans
    )
    correct = is_correct(bench)
    for failure in bench.failures[:20]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1, sort_keys=True))
    e2e = detail["end_to_end"]
    for name, summary in e2e.items():
        if summary["n"] > 1:
            tail = f"p{summary['tail_p']} {summary['tail']:.4f}" if summary["tail_p"] else f"max {summary['max']:.4f}"
            print(f"bench: {name} median {summary['median']:.4f} {END_TO_END[name]}, {tail} (n={summary['n']})", file=sys.stderr)
    if args.trace and "per_layer" in detail:
        values = {k: (v, layer_unit(k)) for k, v in detail["per_layer"].items() if k not in HTTP_ONLY_TIMES}
    else:
        values = {k: (e2e[k]["median"], unit) for k, unit in END_TO_END.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": len(bench.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
