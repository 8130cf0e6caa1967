"""Percentiles, self time and the per-layer metrics derived from spans."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import CLIENT_OPS, Span

MiB = 1 << 20

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50, 90, 95, 99, 99.9)
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

DEPOT_OPS_REPORTED = ("create_article", "upload_bytes", "publish_article", "search_by_tag", "get_article")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int):
    """The highest ladder percentile with TAIL_SAMPLES samples beyond it, or None."""
    supported = [p for p in PERCENTILE_LADDER if n * (100 - p) / 100 >= TAIL_SAMPLES]
    return supported[-1] if supported else None


def summarize(values) -> dict:
    """Median, the highest supported percentile and the sample count."""
    values = list(values)
    tail = tail_percentile(len(values))
    return {
        "median": median(values),
        "tail_p": tail,
        "tail": percentile(values, tail) if tail is not None else None,
        "max": max(values) if values else None,
        "n": len(values),
        "samples": values,
    }


def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's root span."""
    result = []
    for span in spans:
        # parents always precede their children
        result.append(result[span.parent] if span.parent >= 0 else len(result))
    return result


def attach_server_spans(client: list[Span], server: list[Span]) -> list[Span]:
    """Merge server spans into the client's tree.

    Each server ``depot_http.handle`` span becomes a child of the client
    ``depot_http.request`` span whose interval contains it; with one
    sequential client the n-th request pairs with the n-th handled
    request. Server spans outside every recorded request (the tracer was
    off in the client, or they belong to start-up) are left out.
    """
    merged = list(client)
    requests = sorted(
        (s.start, s.end, i) for i, s in enumerate(client) if s.name == "depot_http.request"
    )
    server_roots = roots(server)
    handles = sorted(
        (s.start, s.end, i)
        for i, s in enumerate(server)
        if s.name == "depot_http.handle" and s.parent < 0
    )
    new_index = {}
    cursor = 0
    for start, end, index in handles:
        while cursor < len(requests) and requests[cursor][1] < end:
            cursor += 1
        if cursor < len(requests) and requests[cursor][0] <= start:
            new_index[index] = len(merged)
            span = server[index]
            merged.append(Span(span.name, span.start, span.end, requests[cursor][2], span.attrs))
            cursor += 1
    for index, span in enumerate(server):
        if index in new_index or server_roots[index] not in new_index:
            continue
        new_index[index] = len(merged)
        merged.append(Span(span.name, span.start, span.end, new_index[span.parent], span.attrs))
    return merged


def self_time_gaps(spans: list[Span], walls: dict[int, int]) -> list[int]:
    """For each stage root, its measured wall time minus the sum of self times."""
    selfs = self_times(spans)
    root_of = roots(spans)
    sums = defaultdict(int)
    for index, value in enumerate(selfs):
        sums[root_of[index]] += value
    return [walls[index] - sums[index] for index in walls]


def layer_self_ms(spans: list[Span], campaigns: int) -> dict:
    """Self time per layer, in ms per campaign."""
    totals = defaultdict(int)
    for span, value in zip(spans, self_times(spans)):
        totals[span.layer] += value
    return {layer: totals[layer] / 1e6 / campaigns for layer in sorted(totals)}


def layer_metrics(
    spans: list[Span],
    counts: dict,
    *,
    campaigns: int,
    tree_bytes: int,
    changed_bytes: int,
    state_bytes: int,
    load_ns: list[int],
) -> dict:
    """Per-layer metrics from merged spans of ``campaigns`` measured campaigns.

    Counts are per campaign, so they repeat exactly between runs whatever
    the number of campaigns; times are medians per call unless named
    otherwise.
    """
    root_of = roots(spans)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
    stages = [i for i, s in enumerate(spans) if s.parent < 0 and s.layer == "cli"]

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def attr_sum(name, key):
        return sum((spans[i].attrs or {}).get(key, 0) for i in by_name[name])

    def p50_ms(name):
        return median(durations(name)) / 1e6

    def per_campaign(names):
        sums = defaultdict(int)
        for name in names:
            for i in by_name[name]:
                sums[spans[root_of[i]].attrs["campaign"]] += spans[i].end - spans[i].start
        return list(sums.values())

    def per_stage(names, stage):
        sums = {i: 0 for i in stages if spans[i].attrs["stage"] == stage}
        for name in names:
            for i in by_name[name]:
                if root_of[i] in sums:
                    sums[root_of[i]] += spans[i].end - spans[i].start
        return list(sums.values())

    def rate(name):
        seconds = sum(durations(name)) / 1e9
        return attr_sum(name, "bytes") / MiB / seconds if seconds else 0.0

    m = {}
    m["cli.self_ms"] = median(selfs[i] for i in stages) / 1e6

    exports = durations("gitrepo.export_archive")
    m["gitrepo.export_archive_s"] = median(exports) / 1e9
    m["gitrepo.export_MiBps"] = (
        tree_bytes * len(exports) / MiB / (sum(exports) / 1e9) if exports else 0.0
    )
    m["gitrepo.resolve_ms"] = (
        median(per_stage(("gitrepo.inspect_repo", "gitrepo.resolve_commit"), "publish-software"))
        / 1e6
    )
    m["gitrepo.git_calls"] = counts.get("gitrepo.git_calls", 0) / campaigns

    for key in ("scanned", "uploaded", "skipped"):
        m[f"publish.files_{key}"] = attr_sum("publish.publish_data", key) / campaigns
    hashed = attr_sum("publish.file_md5", "bytes")
    m["publish.hash_MiB"] = hashed / MiB / campaigns
    m["publish.hash_s"] = median(per_campaign(("publish.file_md5",))) / 1e9
    m["publish.hash_MiBps"] = rate("publish.file_md5")
    m["publish.hashed_per_changed_byte"] = hashed / changed_bytes
    uploads = by_name["client.upload_file"]
    useful = sum(1 for i in uploads if spans[i].attrs and spans[i].attrs.get("useful"))
    m["publish.upload_useful_ratio"] = useful / len(uploads) if uploads else 0.0

    m["provenance.project_parses"] = counts.get("provenance.project_parses", 0) / len(stages)
    m["provenance.write_ids_ms"] = p50_ms("provenance.write_publication_ids")
    m["provenance.inject_ms"] = p50_ms("provenance.inject_provenance")
    m["provenance.expand_ms"] = p50_ms("provenance.expand_patterns")
    m["provenance.stat_MiB_rewritten"] = (
        attr_sum("provenance.inject_provenance", "rewritten") / MiB / campaigns
    )

    for op in CLIENT_OPS:
        m[f"client.{op}.calls"] = len(by_name[f"client.{op}"]) / campaigns
        m[f"client.{op}.ms_p50"] = p50_ms(f"client.{op}")
    m["client.http_requests"] = len(by_name["depot_http.request"]) / campaigns
    m["client.retries"] = counts.get("client.retries", 0) / campaigns
    m["client.upload_MiBps"] = rate("client.upload_file")

    handles = by_name["depot_http.handle"]
    m["depot_http.requests"] = len(handles) / campaigns
    m["depot_http.error_responses"] = (
        sum(1 for i in handles if (spans[i].attrs or {}).get("error")) / campaigns
    )
    m["depot_http.handle_ms_p50"] = p50_ms("depot_http.handle")
    paired = {spans[i].parent for i in handles}
    m["depot_http.transport_ms_p50"] = median(selfs[i] for i in paired) / 1e6

    for op in DEPOT_OPS_REPORTED:
        m[f"depot.{op}.ms_p50"] = p50_ms(f"depot.{op}")
    m["depot.upload_MiBps"] = rate("depot.upload_bytes")
    saves = by_name["depot.save"]
    m["depot.save_calls"] = len(saves) / campaigns
    m["depot.save_ms_p50"] = p50_ms("depot.save")
    m["depot.save_s"] = median(per_campaign(("depot.save",))) / 1e9
    m["depot.bytes_written_per_mutation"] = attr_sum("depot.save", "bytes") / len(saves) if saves else 0.0
    m["depot.load_ms"] = median(load_ns) / 1e6
    m["depot.state_MiB"] = state_bytes / MiB
    return m
