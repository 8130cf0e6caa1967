"""Anticipated failure kinds, shared by every layer.

The CLI prints these as one-line diagnostics ("error: <kind>: <detail>")
and the HTTP layers translate them to and from wire status codes, so the
set below is closed: new failure modes get a class here, not ad-hoc
exceptions.
"""


class CuratorError(Exception):
    """Base class for every anticipated error."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class AuthFailure(CuratorError):
    """Credentials were missing or rejected by the depot."""


class InvalidMeta(CuratorError):
    """Malformed article metadata or request payload."""


class NotFound(CuratorError):
    """The referenced article does not exist."""


class TransportError(CuratorError):
    """Network-level failure, surfaced after retries were exhausted."""


class NothingToPublish(CuratorError):
    """Publish was requested but no draft changes are pending."""


class Conflict(CuratorError):
    """Depot-side state conflict not covered by a more specific kind."""


class KindMismatch(CuratorError):
    """An existing article has the wrong kind for the requested operation."""


class NotARepository(CuratorError):
    """The path does not contain a git repository."""


class NoCommits(CuratorError):
    """The repository has no commits to interrogate."""


class UnknownRef(CuratorError):
    """A commit or ref could not be resolved in the repository."""


class ParseError(CuratorError):
    """A project, config, header or stat file could not be parsed."""


class SchemaError(CuratorError):
    """A parsed project file violates the publish-options schema."""


class MissingProvenance(CuratorError):
    """A DOI required for provenance has not been recorded yet."""


class BindError(CuratorError):
    """The depot facade could not bind its address."""


class IoError(CuratorError):
    """A local file could not be read or written."""


class as_io_error:
    """``with as_io_error("cannot read", path):`` turns an OSError raised in the
    block into ``IoError("cannot read <path>: <strerror>")``, the one rule for
    an OS failure. A plain class, so entering costs little, and the message is
    built only when it raises; a handler for a narrower OSError goes inside."""

    __slots__ = ("action", "subject")

    def __init__(self, action: str, subject=None):
        self.action = action
        self.subject = subject

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, OSError):
            where = self.action if self.subject is None else f"{self.action} {self.subject}"
            raise IoError(f"{where}: {exc.strerror or exc}") from exc


# The error kinds that cross the wire, each with the status the facade
# answers it with. For a body without a known kind the client falls back
# to the first kind listed for the status, so Conflict leads the 409s.
STATUS_BY_KIND = {
    AuthFailure: 401,
    NotFound: 404,
    Conflict: 409,
    NothingToPublish: 409,
    InvalidMeta: 422,
}

_WIRE_KINDS = {cls.__name__: cls for cls in STATUS_BY_KIND}

_BY_STATUS = {status: cls for cls, status in reversed(STATUS_BY_KIND.items())}


def wire_error(kind: str | None, status: int) -> type[CuratorError]:
    """Map a wire-level error body/status to the matching exception class."""
    if isinstance(kind, str) and kind in _WIRE_KINDS:
        return _WIRE_KINDS[kind]
    return _BY_STATUS.get(status, TransportError)
