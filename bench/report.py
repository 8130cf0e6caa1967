#!/usr/bin/env python3
"""Run every workload untraced and traced and print the whole picture.

    python3 bench/report.py [--seed 1] [--seconds 55] [--json BENCH_label.json]

For each workload this prints every end-to-end metric by name with its
unit, the output checks (``excess_upload_bytes``, ``failed_ops_ratio``),
the tracing overhead (traced minus untraced), the per-layer breakdown and
the self-time check, then the ROADMAP baseline rows the workloads cover.
It exits non-zero if any run fails or any output check fails. Run it
from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

# (ROADMAP row, ROADMAP value, workload, per-layer metric, unit)
BASELINES = (
    ("in-process get_article", "0.005 ms", "large-files-mock", "depot.get_article.ms_p50", "ms"),
    ("get_article over HTTP", "44.2 ms", "small-files-http", "client.get_article.ms_p50", "ms"),
    ("add_tag over HTTP", "44.2 ms", "small-files-http", "client.add_tag.ms_p50", "ms"),
    ("64 MiB upload over HTTP", "0.31 s", None, None, None),
    ("file_md5", "439 MiB/s", "large-files-mock", "publish.hash_MiBps", "MiB/s"),
    ("export_archive, 2000 files", "0.31 s", "small-files-http", "gitrepo.export_archive_s", "s"),
)


def run_once(workload: str, seed: int, seconds: float, trace: int, detail: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, json.loads(detail.read_text()) if detail.exists() else None


def show_workload(name: str, plain: dict, traced: dict) -> None:
    e2e, e2e_traced = plain["end_to_end"], traced["end_to_end"]
    print(f"== {name}: seed {plain['seed']}, {plain['campaigns']} measured campaigns")
    for metric, unit in run.END_TO_END.items():
        summary = e2e[metric]
        line = f"  {metric:22s} {summary['median']:12.4f} {unit:5s}"
        if summary["n"] > 1:
            tail = (
                f"p{summary['tail_p']} {summary['tail']:.4f}"
                if summary["tail_p"]
                else f"max {summary['max']:.4f}, too few for a tail percentile"
            )
            line += f" median; {tail} (n={summary['n']})"
        delta = e2e_traced[metric]["median"] - summary["median"]
        line += f"; tracing overhead {delta:+.4f} {unit}"
        print(line)
    print(f"  {'excess_upload_bytes':22s} {plain['excess_upload_bytes']:12d} bytes")
    print(f"  {'failed_ops_ratio':22s} {plain['failed_ops_ratio']:12.4f} ratio")
    for failure in plain["failures"] + traced["failures"]:
        print(f"  check failed: {failure}")
    print("  per layer (traced run):")
    for metric, value in traced.get("per_layer", {}).items():
        print(f"    {metric:36s} {value:14.4f} {run.layer_unit(metric)}")
    diagnostics = traced.get("trace_diagnostics", {})
    for layer, ms in diagnostics.get("layer_self_ms_per_campaign", {}).items():
        print(f"    self time {layer:26s} {ms:14.2f} ms per campaign")
    gap = diagnostics.get("self_time_gap_ms", {})
    if gap:
        print(
            f"  stage wall time minus summed self times: median {gap['median']:.4f} ms, "
            f"max {gap['max']:.4f} ms"
        )


def bench_entries(details: dict) -> list[dict]:
    """Flatten results into {name, layer, unit, value, n, python, nproc} entries."""
    common = {"python": platform.python_version(), "nproc": os.cpu_count()}
    entries = []
    for name, (plain, traced) in details.items():
        for metric, unit in run.END_TO_END.items():
            summary = plain["end_to_end"][metric]
            entries.append({"name": f"{name}/{metric}", "layer": "end_to_end", "unit": unit,
                            "value": summary["median"], "n": summary["n"], **common})
        for metric, value in traced.get("per_layer", {}).items():
            entries.append({"name": f"{name}/{metric}", "layer": metric.partition(".")[0],
                            "unit": run.layer_unit(metric), "value": value,
                            "n": traced["campaigns"], **common})
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--json", help="also write the results as BENCH entries to this file")
    args = parser.parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "curator").is_dir():
        print("report: run from the repository root", file=sys.stderr)
        return 2

    parent = checkout / run.WORK_DIR_NAME
    parent.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="report-", dir=parent))
    ok = True
    details = {}
    try:
        for name in gen.WORKLOADS:
            pair = []
            for trace in (0, 1):
                code, detail = run_once(name, args.seed, args.seconds, trace, out_dir / f"{name}-{trace}.json")
                ok = ok and code == 0 and detail is not None
                pair.append(detail)
            if None in pair:
                print(f"== {name}: run failed")
                continue
            details[name] = tuple(pair)
            show_workload(name, *pair)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass

    print("== ROADMAP item-1 baselines")
    for row, roadmap, workload, metric, unit in BASELINES:
        if metric is None:
            print(f"  {row:28s} ROADMAP {roadmap:10s} no workload covers it")
        elif workload in details:
            value = details[workload][1]["per_layer"][metric]
            print(f"  {row:28s} ROADMAP {roadmap:10s} measured {value:.4f} {unit} ({metric}, {workload})")
    if args.json:
        Path(args.json).write_text(json.dumps(bench_entries(details), indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
