"""The ``curator`` command: staged publication of software and data.

Publication is staged: publish the software and the input data, run the
simulation, then publish the output data. Identifiers accumulate in the
project file between stages, and the output stage stamps the recorded
software revision and DOIs into the simulation's stat header before
uploading it.

Exit codes: 0 success, 1 domain error (one "error: <kind>: <detail>"
line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from .client import HttpDepotClient
from .config import DEFAULT_CATEGORY, load_config, resolve_config_path
from .depot import Depot
from .errors import (
    CuratorError, IoError, MissingProvenance, ParseError, SchemaError, UnknownRef, as_io_error,
)
from .gitrepo import COMMIT_HASH_RE, COMMIT_HEX, inspect_repo, resolve_commit
from .provenance import (
    ProvenanceConstants,
    expand_patterns,
    inject_provenance,
    read_publish_options,
    read_simulation_name,
    write_publication_ids,
)
from .publish import FilesetSpec, Publisher, SoftwareIdentity

logger = logging.getLogger(__name__)

REVISION_TOKEN_RE = re.compile(rf"\b(?:{COMMIT_HEX})\b", re.IGNORECASE)

DEFAULT_BIND = "127.0.0.1:8080"
DEFAULT_STATE_NAME = ".curator-depot.jsonl"


def resolve_software_version(project_dir, repo, version_header=None) -> str:
    """Decide which revision to publish.

    A version header file wins over the repository head: its first
    40- or 64-hex token names the revision the binary was actually built from.
    The token must exist in the repository.
    """
    if version_header:
        header = Path(version_header)
        if not header.is_absolute():
            header = Path(project_dir) / header
        with as_io_error("cannot read", header):
            text = header.read_text(encoding="utf-8", errors="replace")
        match = REVISION_TOKEN_RE.search(text)
        if match is None:
            raise ParseError(f"{header}: no 40- or 64-hex revision token found")
        token = match.group(0).lower()
        try:
            return resolve_commit(repo, token)
        except UnknownRef:
            raise UnknownRef(
                f"revision {token} from {header} is not in {repo}; "
                "fetch that revision or rebuild before publishing"
            )
    return inspect_repo(repo).head


@contextmanager
def _open_client(args):
    """Yield (client, default category) for the selected backend."""
    config_path = resolve_config_path(getattr(args, "config", None))
    if args.backend == "http":
        config = load_config(config_path)
        if config.depot is None:
            raise ParseError(f"{config_path}: missing [depot] section")
        try:
            client = HttpDepotClient(config.depot)
        except ValueError as exc:
            raise ParseError(f"{config_path}: {exc}") from exc
        with client:
            yield client, config.default_category
        return
    category = DEFAULT_CATEGORY
    if Path(config_path).is_file():
        category = load_config(config_path).default_category
    state = getattr(args, "state", None) or Path(args.project).parent / DEFAULT_STATE_NAME
    yield Depot(state_path=state), category


def _options_for_publish(project: Path):
    options = read_publish_options(project)
    if not options.enabled:
        raise SchemaError(f"{project}: publishing is disabled in the project file")
    return options


def _print_result(article_id: int, doi: str) -> None:
    print(f"result: article_id={article_id} doi={doi}")


def _stage_software(args, publisher: Publisher) -> None:
    project = Path(args.project)
    _options_for_publish(project)
    repo = Path(args.repo)
    info = inspect_repo(repo)
    commit = info.head
    if args.version_header:
        commit = resolve_software_version(project.parent, repo, args.version_header)
    name = args.name or repo.resolve().name
    result = publisher.publish_software(
        SoftwareIdentity(
            name=name,
            commit=commit,
            local_repo=repo,
            remote_url=info.remote_url,
        )
    )
    print(f"software {name} at revision {commit}")
    if result.reused:
        print(f"reusing {result.doi}")
    write_publication_ids(project, "software", result.article_id, result.doi)
    _print_result(result.article_id, result.doi)


def _stage_fileset(args, publisher: Publisher, slot: str) -> None:
    project = Path(args.project)
    options = _options_for_publish(project)
    state = options.slot(slot)
    name = read_simulation_name(project)
    paths = expand_patterns(state.patterns, project.parent)
    if slot == "output":
        stats = [path for path in paths if path.suffix == ".stat"]
        _inject_output_provenance(args, publisher, options, stats)
    if not paths:
        raise IoError(
            f"no files in {project.parent} match the {slot} patterns {';'.join(state.patterns)}"
        )
    spec = FilesetSpec(
        title=f"{name} {slot} data",
        description=f"{slot.capitalize()} data for the {name} simulation.",
        paths=paths,
        existing_article_id=state.article_id,
    )
    if spec.existing_article_id is None:
        # Recorded before the first upload, so a failed run's draft is resumed.
        spec.existing_article_id = publisher.create_fileset(spec).article_id
        write_publication_ids(project, slot, spec.existing_article_id, "")
    result = publisher.publish_data(spec)
    print(
        f"{slot} data: uploaded {len(result.uploaded)}, "
        f"skipped {len(result.skipped)} of {len(paths)} file(s)"
    )
    write_publication_ids(project, slot, result.article_id, result.doi)
    _print_result(result.article_id, result.doi)


def _inject_output_provenance(args, publisher: Publisher, options, stats: list[Path]) -> None:
    software = options.slot("software")
    if software.doi is None:
        raise MissingProvenance("software DOI not yet recorded")
    if options.slot("input").doi is None:
        raise MissingProvenance("input data DOI not yet recorded")

    record = publisher.client.get_article(software.article_id)
    revision = next((tag for tag in record.meta.tags if COMMIT_HASH_RE.match(tag)), None)
    if revision is None:
        raise MissingProvenance(
            f"software article {software.article_id} carries no revision tag"
        )
    constants = ProvenanceConstants(
        software_version=revision,
        software_doi=software.doi,
        input_doi=options.slot("input").doi,
        name_prefix=args.constant_prefix,
    )
    for path in stats:
        inject_provenance(path, constants)
    if stats:
        print(f"recorded provenance in {len(stats)} stat file(s)")


def _cmd_publish(args) -> int:
    with _open_client(args) as (client, category):
        publisher = Publisher(client, category)
        for slot in args.stages:
            if slot == "software":
                _stage_software(args, publisher)
            else:
                _stage_fileset(args, publisher, slot)
    return 0


def _cmd_status(args) -> int:
    project = Path(args.project)
    options = read_publish_options(project)
    print(f"project: {project}")
    print(f"simulation: {read_simulation_name(project)}")
    print(f"publish enabled: {'true' if options.enabled else 'false'}")
    for name in ("software", "input", "output"):
        state = options.slot(name)
        parts = []
        if state.patterns:
            parts.append(f"patterns={';'.join(state.patterns)}")
        if state.article_id is not None:
            parts.append(f"article_id={state.article_id}")
        if state.doi:
            parts.append(f"doi={state.doi}")
        print(f"{name}: {' '.join(parts) if parts else '(not recorded)'}")
    return 0


def _cmd_serve_depot(args) -> int:
    token = args.token
    if not token:
        config_path = resolve_config_path(args.config)
        if Path(config_path).is_file():
            config = load_config(config_path)
            if config.depot is not None:
                token = config.depot.token
    if not token:
        raise ParseError(
            "serve-depot needs an auth token: pass --token or configure [depot] token"
        )
    from .depot_http import DepotHttpServer  # only this verb serves

    depot = Depot(state_path=args.state)
    server = DepotHttpServer(args.bind, depot, token)
    print(f"depot listening on http://{server.address}")
    server.serve_until_interrupt()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curator",
        description="Publish scientific software and simulation data to a citable depot.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, project=True):
        sp.add_argument("-c", "--config", help="config file (default ~/.curator or $CURATOR_CONFIG)")
        if project:
            sp.add_argument("-p", "--project", required=True, help="simulation project file (XML)")
            sp.add_argument(
                "--backend",
                choices=("mock", "http"),
                default="http",
                help="depot backend (default http)",
            )
            sp.add_argument(
                "--state",
                help="JSONL log of the mock backend's depot state "
                f"(default <project dir>/{DEFAULT_STATE_NAME})",
            )

    def repo_args(sp):
        sp.add_argument("--repo", required=True, help="local software repository")
        sp.add_argument("--version-header", help="file whose first commit id names the revision")
        sp.add_argument("--name", help="software name (default: repository directory name)")

    def prefix_arg(sp):
        sp.add_argument(
            "--constant-prefix",
            default="Fluidity",
            help='prefix for the "<prefix>Version" stat constant (default Fluidity)',
        )

    sp = sub.add_parser("publish-software", help="publish the software revision")
    common(sp)
    repo_args(sp)
    sp.set_defaults(func=_cmd_publish, stages=("software",))

    sp = sub.add_parser("publish-input", help="publish input data files")
    common(sp)
    sp.set_defaults(func=_cmd_publish, stages=("input",))

    sp = sub.add_parser("publish-output", help="publish output data with provenance")
    common(sp)
    prefix_arg(sp)
    sp.set_defaults(func=_cmd_publish, stages=("output",))

    sp = sub.add_parser("publish-all", help="software, input and output in order")
    common(sp)
    repo_args(sp)
    prefix_arg(sp)
    sp.set_defaults(func=_cmd_publish, stages=("software", "input", "output"))

    sp = sub.add_parser("status", help="show recorded ids and DOIs")
    sp.add_argument("-p", "--project", required=True, help="simulation project file (XML)")
    sp.set_defaults(func=_cmd_status)

    sp = sub.add_parser("serve-depot", help="run the reference depot over HTTP")
    common(sp, project=False)
    sp.add_argument("--bind", default=DEFAULT_BIND, help=f"host:port (default {DEFAULT_BIND})")
    sp.add_argument("--state", help="persist depot state to this JSONL log")
    sp.add_argument("--token", help="auth token clients must present")
    sp.set_defaults(func=_cmd_serve_depot)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CuratorError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
