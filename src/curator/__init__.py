"""curator: citable publication of scientific software and simulation data.

The package splits into a depot service contract (`client`), a reference
depot implementation with an HTTP facade (`depot`, `depot_http`), git
interrogation and deterministic archiving (`gitrepo`), the publication
workflows (`publish`), project-file and stat-header handling
(`provenance`), and the staged command-line tool (`cli`).
"""

from .client import (
    ArticleMeta,
    ArticleRecord,
    ClientConfig,
    DepotClient,
    FileEntry,
    HttpDepotClient,
)
from .config import PublisherConfig, load_config, resolve_config_path
from .depot import Depot
from .depot_http import DepotHttpServer
from .errors import CuratorError
from .gitrepo import RepoInfo, export_archive, inspect_repo, resolve_commit
from .provenance import (
    ProvenanceConstants,
    PublishOptions,
    SlotState,
    expand_patterns,
    inject_provenance,
    read_publish_options,
    write_publication_ids,
)
from .publish import (
    AuthorEntry,
    DataResult,
    FilesetSpec,
    Publisher,
    SoftwareIdentity,
    SoftwareResult,
    file_md5,
    needs_upload,
    parse_authors_file,
)

__version__ = "0.1.0"

__all__ = [
    "ArticleMeta",
    "ArticleRecord",
    "AuthorEntry",
    "ClientConfig",
    "CuratorError",
    "DataResult",
    "Depot",
    "DepotClient",
    "DepotHttpServer",
    "FileEntry",
    "FilesetSpec",
    "HttpDepotClient",
    "ProvenanceConstants",
    "PublishOptions",
    "Publisher",
    "PublisherConfig",
    "RepoInfo",
    "SlotState",
    "SoftwareIdentity",
    "SoftwareResult",
    "expand_patterns",
    "export_archive",
    "file_md5",
    "inject_provenance",
    "inspect_repo",
    "load_config",
    "needs_upload",
    "parse_authors_file",
    "read_publish_options",
    "resolve_commit",
    "resolve_config_path",
    "write_publication_ids",
]
