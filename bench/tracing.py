"""In-memory spans recorded by wrappers around curator's public entry points.

The wrappers are installed from outside the program: each replaces a name
where the program looks it up (``curator.cli.inspect_repo``,
``curator.publish.file_md5``, class methods of ``Depot`` and so on), so
nothing under ``src/`` changes. A span is (name, start, end, parent,
attrs); spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import subprocess
import threading
import time
from pathlib import Path

# Depot operations that the facade and the in-process backend both expose.
DEPOT_OPS = (
    "create_article",
    "upload_bytes",
    "search_by_tag",
    "add_tag",
    "add_authors",
    "publish_article",
    "get_article",
)
CLIENT_OPS = (
    "create_article",
    "upload_file",
    "search_by_tag",
    "add_tag",
    "add_authors",
    "publish_article",
    "get_article",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=0, parent=-1, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records spans and counts while ``active``; wrappers are free otherwise.

    Times come from ``time.perf_counter_ns``, which is the system-wide
    monotonic clock on Linux, so spans from the benchmark process and from
    the depot server process share one time base.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name: str, attrs=None) -> int:
        stack = self._stack()
        span = Span(name, 0, 0, stack[-1] if stack else -1, attrs)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack().pop()

    def on_restore(self, undo) -> None:
        self._undo.append(undo)

    def patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        self.on_restore(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``before(args, kwargs)`` runs ahead of the call and may return a
        state object; ``after(state, args, kwargs, result)`` returns the
        span's attrs. A raised exception is recorded as ``{"error": kind}``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            state = before(args, kwargs) if before else None
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self.end(index)
                self.spans[index].attrs = {"error": getattr(exc, "kind", type(exc).__name__)}
                raise
            self.end(index)
            if after is not None:
                self.spans[index].attrs = after(state, args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        payload = {"spans": [s.to_json() for s in self.spans], "counts": self.counts}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_dump(path) -> tuple[list[Span], dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span.from_json(row) for row in payload["spans"]], payload["counts"]


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _thread_wchar() -> int:
    """Bytes the calling thread has passed to write() so far (Linux).

    The depot saves under its lock in the thread that mutates it, so the
    difference across one ``_save`` is what that save wrote, whatever the
    file layout.
    """
    with open("/proc/thread-self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/thread-self/io")


def instrument_depot(tracer: Tracer, depot_cls) -> None:
    """Spans for the reference depot: contract ops, the facade seam, persistence."""
    for op in DEPOT_OPS:
        after = None
        if op == "upload_bytes":
            after = lambda _s, args, kwargs, _r: {"bytes": len(args[3])}
        tracer.wrap(depot_cls, op, f"depot.{op}", after=after)
    tracer.wrap(depot_cls, "__init__", "depot.init")
    tracer.wrap(
        depot_cls,
        "_save",
        "depot.save",
        before=lambda _a, _k: _thread_wchar(),
        after=lambda written, *_: {"bytes": _thread_wchar() - written},
    )
    tracer.wrap(
        depot_cls,
        "handle",
        "depot_http.handle",
        after=lambda _s, args, _k, _r: {"op": args[1]},
    )


class _CountingSubprocess:
    """Stands in for the ``subprocess`` module inside ``curator.gitrepo``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(subprocess, name)

    def run(self, *args, **kwargs):
        self._tracer.count("gitrepo.git_calls")
        return subprocess.run(*args, **kwargs)

    def Popen(self, *args, **kwargs):
        self._tracer.count("gitrepo.git_calls")
        return subprocess.Popen(*args, **kwargs)


class _RetryCounter(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self._tracer = tracer

    def emit(self, record):
        self._tracer.count("client.retries")


def instrument_client_side(tracer: Tracer, backend: str) -> None:
    """Spans for every layer the CLI process runs; the depot too on ``mock``."""
    import requests

    import curator.cli as cli
    import curator.client as client
    import curator.depot as depot
    import curator.gitrepo as gitrepo
    import curator.provenance as provenance
    import curator.publish as publish

    # gitrepo, looked up from cli and publish
    tracer.wrap(cli, "inspect_repo", "gitrepo.inspect_repo")
    tracer.wrap(cli, "resolve_commit", "gitrepo.resolve_commit")
    tracer.wrap(publish, "export_archive", "gitrepo.export_archive")
    tracer.patch(gitrepo, "subprocess", _CountingSubprocess(tracer))

    # provenance, looked up from cli
    for fn in ("read_publish_options", "read_simulation_name", "write_publication_ids", "expand_patterns"):
        tracer.wrap(cli, fn, f"provenance.{fn}")

    def stat_before(args, _kwargs):
        try:
            return os.stat(args[0]).st_ino
        except OSError:
            return None

    def stat_after(inode, args, _kwargs, _result):
        info = os.stat(args[0])
        return {"rewritten": info.st_size if info.st_ino != inode else 0}

    tracer.wrap(cli, "inject_provenance", "provenance.inject_provenance", stat_before, stat_after)
    original_parse = provenance._parse_project

    def counting_parse(*args, **kwargs):
        tracer.count("provenance.project_parses")
        return original_parse(*args, **kwargs)

    tracer.patch(provenance, "_parse_project", counting_parse)

    # publish
    tracer.wrap(publish, "needs_upload", "publish.needs_upload")
    tracer.wrap(
        publish,
        "file_md5",
        "publish.file_md5",
        before=lambda args, _k: _file_size(args[0]),
        after=lambda size, *_: {"bytes": size},
    )
    tracer.wrap(publish, "write_sidecar", "publish.write_sidecar")
    tracer.wrap(publish.Publisher, "publish_software", "publish.publish_software")
    tracer.wrap(
        publish.Publisher,
        "publish_data",
        "publish.publish_data",
        after=lambda _s, args, _k, result: {
            "scanned": len(args[1].paths),
            "uploaded": len(result.uploaded),
            "skipped": len(result.skipped),
        },
    )

    # the depot contract as the publisher sees it
    if backend == "mock":
        instrument_depot(tracer, depot.Depot)
        client_cls = depot.Depot
    else:
        client_cls = client.HttpDepotClient
    last_md5: dict[tuple[int, str], str] = {}

    def upload_after(size, args, _kwargs, entry):
        key = (args[1], entry.name)
        useful = last_md5.get(key) != entry.md5
        last_md5[key] = entry.md5
        return {"bytes": size, "useful": useful}

    for op in CLIENT_OPS:
        if op == "upload_file":
            tracer.wrap(
                client_cls, op, f"client.{op}",
                before=lambda args, _k: _file_size(args[2]), after=upload_after,
            )
        else:
            tracer.wrap(client_cls, op, f"client.{op}")
    tracer.wrap(
        requests.Session,
        "request",
        "depot_http.request",
        after=lambda _s, _a, _k, response: {"status": response.status_code},
    )
    retries = _RetryCounter(tracer)
    client_logger = logging.getLogger("curator.client")
    client_logger.addHandler(retries)
    tracer.on_restore(lambda: client_logger.removeHandler(retries))
