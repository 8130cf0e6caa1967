"""Project-file options and provenance metadata.

The project file is a small XML document:

    <simulation name="...">
      <publish enabled="true">
        <software article_id="" doi=""/>
        <input patterns="*.msh;*.xml" article_id="" doi=""/>
        <output patterns="*.vtu;*.stat" article_id="" doi=""/>
      </publish>
    </simulation>

Publication ids accumulate in the slot attributes between stages.
Writes are textual and atomic: only the mutated element changes, every
other byte of the file is preserved.
"""

from __future__ import annotations

import logging
import os
import re
import stat
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from xml.etree import ElementTree
from xml.parsers import expat
from xml.sax.saxutils import escape

from .errors import ParseError, SchemaError, as_io_error

logger = logging.getLogger(__name__)

SLOT_NAMES = ("software", "input", "output")

CONSTANT_RE = re.compile(r"<constant\b[^<>]*?/>")
# One attribute of a well-formed start tag: its name and its quoted value.
_ATTR_RE = re.compile(r"""\s+([^\s=]+)\s*=\s*("[^"]*"|'[^']*')""")
# A well-formed start tag and its attributes.
_START_TAG_RE = re.compile(rf"<[^\s/>]+(?P<attrs>(?:{_ATTR_RE.pattern})*)\s*/?>")


@dataclass
class SlotState:
    """Recorded publication state for one slot of the project file."""

    patterns: list[str] = field(default_factory=list)
    article_id: int | None = None
    doi: str | None = None


@dataclass
class PublishOptions:
    enabled: bool = False
    slots: dict[str, SlotState] = field(default_factory=dict)

    def slot(self, name: str) -> SlotState:
        return self.slots.setdefault(name, SlotState())


@dataclass
class ProvenanceConstants:
    """Values injected into an output file's stat header.

    ``name_prefix`` controls the "<prefix>Version" constant name; the
    default matches the originating toolchain's convention. The DOI
    constant names are fixed.
    """

    software_version: str
    software_doi: str
    input_doi: str
    name_prefix: str = "Fluidity"


def _read_text(path) -> str:
    try:
        with as_io_error("cannot read", path), open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def replace_file(path, data: bytes) -> None:
    """Replace the file ``path`` names with ``data`` in one rename. The temp
    file is written beside the file a symlink at ``path`` points to, given
    that file's permission bits and ``fsync``ed, so a link stays a link, the
    mode is kept, and a failure leaves the file as it was and no temp file."""
    target = Path(os.path.realpath(path))
    tmp = target.with_name(target.name + ".tmp")
    with as_io_error("cannot write", path):
        mode = stat.S_IMODE(os.stat(target).st_mode)
        try:
            with open(tmp, "wb") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _parse_project(text: str, path) -> ElementTree.Element:
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise ParseError(f"{path} is not well-formed XML: {exc}") from exc
    if root.tag != "simulation":
        raise SchemaError(f"{path}: root element must be <simulation>")
    return root


def read_simulation_name(project_path) -> str:
    """The simulation's display name; falls back to the file stem."""
    root = _parse_project(_read_text(project_path), project_path)
    return root.get("name") or Path(project_path).stem


def read_publish_options(project_path) -> PublishOptions:
    """Parse the publish options; a file without them is publish-disabled."""
    root = _parse_project(_read_text(project_path), project_path)
    publish = root.find("publish")
    options = PublishOptions()
    if publish is None:
        return options

    raw_enabled = publish.get("enabled", "false")
    if raw_enabled not in ("true", "false"):
        raise SchemaError(f'{project_path}: enabled must be "true" or "false"')
    options.enabled = raw_enabled == "true"

    for name in SLOT_NAMES:
        element = publish.find(name)
        state = options.slot(name)
        if element is None:
            continue
        raw_patterns = element.get("patterns") or ""
        state.patterns = [p.strip() for p in raw_patterns.split(";") if p.strip()]
        raw_id = element.get("article_id") or ""
        if raw_id:
            try:
                state.article_id = int(raw_id)
            except ValueError:
                raise SchemaError(f"{project_path}: bad article_id {raw_id!r} on <{name}>")
        state.doi = element.get("doi") or None
        if state.doi and state.article_id is None:
            raise SchemaError(f"{project_path}: <{name}> has a doi but no article_id")

    if options.enabled:
        for name in ("input", "output"):
            if not options.slot(name).patterns:
                raise SchemaError(
                    f"{project_path}: <{name}> needs a patterns attribute when publishing is enabled"
                )
    return options


def _set_attr(attrs: str, name: str, value: str) -> str:
    quoted = '"' + escape(value, {'"': "&quot;"}) + '"'
    for match in _ATTR_RE.finditer(attrs):
        if match.group(1) == name:
            return attrs[: match.start(2)] + quoted + attrs[match.end(2) :]
    return f"{attrs} {name}={quoted}"


def _slot_offsets(text: str, slot: str) -> tuple[int | None, int | None]:
    """Where the start tags of the root's first <publish> child and of that
    element's first <slot> child begin in ``text``, the elements
    ``read_publish_options`` reads; None for a missing one."""
    parser = expat.ParserCreate(namespace_separator="}")
    open_tags: list[tuple[str, int]] = []
    found: dict[str, tuple[str, int]] = {}

    def start(name, _attrs):
        open_tags.append((name, parser.CurrentByteIndex))
        if len(open_tags) == 2 and name == "publish":
            found.setdefault(name, open_tags[1])
        elif len(open_tags) == 3 and name == slot and open_tags[1] == found.get("publish"):
            found.setdefault(name, open_tags[2])

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda _name: open_tags.pop()
    parser.Parse(text, True)
    # expat gives offsets in bytes of the text's UTF-8 form
    data = text.encode("utf-8")
    return tuple(
        len(data[: found[name][1]].decode("utf-8")) if name in found else None
        for name in ("publish", slot)
    )


def write_publication_ids(project_path, slot: str, article_id: int, doi: str) -> None:
    """Record an article id and DOI on one slot element.

    The rewrite is textual: only the start tag of the slot that
    ``read_publish_options`` reads changes, so comments, CDATA and other
    elements named like a slot are left alone. Repeated writes with the
    same values leave the file byte-identical, and the replacement lands
    atomically via a temp file and rename.
    """
    if slot not in SLOT_NAMES:
        raise ValueError(f"unknown slot {slot!r}")
    path = Path(project_path)
    text = _read_text(path)
    _parse_project(text, path)

    publish, at = _slot_offsets(text, slot)
    if publish is None:
        raise SchemaError(f"{path}: no <publish> element to record ids in")
    edited = text
    if at is None:
        open_tag = _START_TAG_RE.match(text, publish)
        if open_tag is None or open_tag[0].endswith("/>"):
            raise SchemaError(f"{path}: <publish> is self-closing or an entity, cannot hold slots")
        before = text[:publish]
        indent = before[len(before.rstrip(" \t")) :] + "  "
        at = open_tag.end() + 1 + len(indent)
        edited = f"{text[: open_tag.end()]}\n{indent}<{slot}/>{text[open_tag.end() :]}"
    match = _START_TAG_RE.match(edited, at)
    if match is None:
        raise SchemaError(f"{path}: <{slot}> comes from an entity, cannot record ids in it")
    attrs = _set_attr(match["attrs"], "article_id", str(article_id))
    attrs = _set_attr(attrs, "doi", doi)
    updated = f"{edited[: match.start('attrs')]}{attrs}{edited[match.end('attrs') :]}"
    if updated != text:
        _parse_project(updated, path)
        replace_file(path, updated.encode("utf-8"))


def expand_patterns(patterns, base_dir) -> list[Path]:
    """All files in base_dir matching any pattern, sorted, sidecars dropped.

    Matching is non-recursive and literal-case; a pattern containing a
    path separator therefore never matches anything.
    """
    base = Path(base_dir)
    with as_io_error("cannot list", base):
        names = sorted(os.listdir(base))
    selected = []
    for name in names:
        if name.endswith(".md5"):
            continue
        full = base / name
        if not full.is_file():
            continue
        if any(fnmatchcase(name, pattern) for pattern in patterns):
            selected.append(full)
    return selected


def _upsert_constant(text: str, name: str, value: str, path) -> str:
    element = f'<constant name="{name}" type="string" value="{escape(value, {chr(34): "&quot;"})}"/>'
    named = re.compile(rf'\sname="{re.escape(name)}"')
    last = None
    for match in CONSTANT_RE.finditer(text):
        opened = text.rfind("<!--", 0, match.start())
        if opened >= 0 and text.find("-->", opened + 4, match.start()) < 0:
            continue  # inside a comment, closed or not
        if named.search(match.group()):
            return text[: match.start()] + element + text[match.end() :]
        last = match
    if last is None:
        raise ParseError(f"{path}: no <constant> header block found")
    line_start = text.rfind("\n", 0, last.start()) + 1
    indent = text[line_start : last.start()]
    if indent.strip():
        indent = ""
    return text[: last.end()] + "\n" + indent + element + text[last.end() :]


def inject_provenance(stat_path, constants: ProvenanceConstants) -> None:
    """Insert or replace the provenance constants in a stat header.

    Touches only the three owned constant elements; anything else in the
    header (for example CompileTime or StartTime) and all data rows stay
    byte-identical. Re-running with the same values is a no-op.
    """
    path = Path(stat_path)
    text = _read_text(path)
    updated = text
    for name, value in (
        (f"{constants.name_prefix}Version", constants.software_version),
        ("SoftwareDOI", constants.software_doi),
        ("InputDataDOI", constants.input_doi),
    ):
        updated = _upsert_constant(updated, name, value, path)
    if updated != text:
        replace_file(path, updated.encode("utf-8"))
