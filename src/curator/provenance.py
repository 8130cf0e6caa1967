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
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from xml.etree import ElementTree
from xml.sax.saxutils import escape

from .errors import IoError, ParseError, SchemaError

logger = logging.getLogger(__name__)

SLOT_NAMES = ("software", "input", "output")

CONSTANT_RE = re.compile(r"<constant\b[^<>]*?/>")


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
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_text_atomic(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    quoted = escape(value, {'"': "&quot;"})
    pattern = re.compile(rf'{name}="[^"]*"')
    if pattern.search(attrs):
        return pattern.sub(f'{name}="{quoted}"', attrs, count=1)
    base = attrs if attrs.strip() else ""
    return f'{base} {name}="{quoted}"'


def write_publication_ids(project_path, slot: str, article_id: int, doi: str) -> None:
    """Record an article id and DOI on one slot element.

    The rewrite is textual: unrelated bytes survive untouched, repeated
    writes with the same values leave the file byte-identical, and the
    replacement lands atomically via a temp file and rename.
    """
    if slot not in SLOT_NAMES:
        raise ValueError(f"unknown slot {slot!r}")
    path = Path(project_path)
    text = _read_text(path)
    _parse_project(text, path)

    slot_re = re.compile(rf"<{slot}(\s[^<>]*?)?(/?)>")
    edited = text
    match = slot_re.search(edited)
    if match is None:
        open_match = re.search(r"([ \t]*)<publish\b[^<>]*?(/?)>", text)
        if open_match is None:
            raise SchemaError(f"{path}: no <publish> element to record ids in")
        if open_match.group(2) == "/":
            raise SchemaError(f"{path}: <publish> is self-closing, cannot hold slots")
        indent = open_match.group(1) + "  "
        edited = f"{text[: open_match.end()]}\n{indent}<{slot}/>{text[open_match.end() :]}"
        match = slot_re.search(edited)
    attrs = _set_attr(match.group(1) or "", "article_id", str(article_id))
    attrs = _set_attr(attrs, "doi", doi)
    updated = f"{edited[: match.start()]}<{slot}{attrs}{match.group(2)}>{edited[match.end() :]}"
    if updated != text:
        _parse_project(updated, path)
        _write_text_atomic(path, updated)


def expand_patterns(patterns, base_dir) -> list[Path]:
    """All files in base_dir matching any pattern, sorted, sidecars dropped.

    Matching is non-recursive and literal-case; a pattern containing a
    path separator therefore never matches anything.
    """
    base = Path(base_dir)
    try:
        names = sorted(os.listdir(base))
    except OSError as exc:
        raise IoError(f"cannot list {base}: {exc.strerror or exc}") from exc
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
    pattern = re.compile(rf'<constant\b[^<>]*?\sname="{re.escape(name)}"[^<>]*?/>')
    match = pattern.search(text)
    if match:
        return text[: match.start()] + element + text[match.end() :]
    last = None
    for last in CONSTANT_RE.finditer(text):
        pass
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
        _write_text_atomic(path, updated)
