from __future__ import annotations

import errno
import glob
import os
import random
import re
from xml.etree import ElementTree

import pytest

from conftest import STAT_HEADER, write_project, write_stat

from curator import provenance
from curator.errors import IoError, ParseError, SchemaError
from curator.provenance import (
    ProvenanceConstants,
    expand_patterns,
    inject_provenance,
    read_publish_options,
    read_simulation_name,
    write_publication_ids,
)


# -- reading project files ---------------------------------------------


def test_read_simulation_name(tmp_path):
    path = write_project(tmp_path / "top_hat.xml")
    assert read_simulation_name(path) == "top_hat"


def test_simulation_name_falls_back_to_stem(tmp_path):
    path = tmp_path / "channel_run.xml"
    path.write_text("<simulation><publish enabled='false'/></simulation>")
    assert read_simulation_name(path) == "channel_run"


def test_read_options_roundtrip(tmp_path):
    path = write_project(tmp_path / "top_hat.xml", input_patterns="*.msh;*.geo", output_patterns="*.vtu")
    options = read_publish_options(path)
    assert options.enabled is True
    assert options.slot("input").patterns == ["*.msh", "*.geo"]
    assert options.slot("output").patterns == ["*.vtu"]
    assert options.slot("software").article_id is None
    assert options.slot("software").doi is None


def test_read_options_without_publish_element(tmp_path):
    path = tmp_path / "plain.xml"
    path.write_text("<simulation name='plain'/>")
    options = read_publish_options(path)
    assert options.enabled is False
    assert options.slot("input").patterns == []


def test_read_options_disabled(tmp_path):
    path = write_project(tmp_path / "top_hat.xml", enabled="false")
    assert read_publish_options(path).enabled is False


def test_read_options_recorded_ids(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text(
        "<simulation name='sim'>\n"
        "  <publish enabled='true'>\n"
        '    <software article_id="7" doi="10.5072/mockdepot.7"/>\n'
        '    <input patterns="*.msh" article_id="8"/>\n'
        '    <output patterns="*.vtu"/>\n'
        "  </publish>\n"
        "</simulation>\n"
    )
    options = read_publish_options(path)
    assert options.slot("software").article_id == 7
    assert options.slot("software").doi == "10.5072/mockdepot.7"
    assert options.slot("input").article_id == 8
    assert options.slot("input").doi is None


def test_pattern_whitespace_and_empty_segments(tmp_path):
    path = write_project(tmp_path / "top_hat.xml", input_patterns=" *.msh ; ;*.geo;", output_patterns="*.vtu")
    assert read_publish_options(path).slot("input").patterns == ["*.msh", "*.geo"]


@pytest.mark.parametrize(
    "mutation",
    [
        lambda text: text.replace('enabled="true"', 'enabled="yes"'),
        lambda text: text.replace('<input patterns="*.msh;*.geo"', "<input"),
        lambda text: text.replace('<output patterns="*.vtu;*.stat"', "<output"),
    ],
)
def test_read_options_schema_errors(tmp_path, mutation):
    path = write_project(tmp_path / "top_hat.xml")
    path.write_text(mutation(path.read_text()))
    with pytest.raises(SchemaError):
        read_publish_options(path)


def test_bad_article_id_rejected(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text(
        "<simulation><publish enabled='false'>"
        "<software article_id='seven'/>"
        "</publish></simulation>"
    )
    with pytest.raises(SchemaError):
        read_publish_options(path)


def test_doi_without_article_id_rejected(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text(
        "<simulation><publish enabled='false'>"
        "<software doi='10.5072/mockdepot.1'/>"
        "</publish></simulation>"
    )
    with pytest.raises(SchemaError):
        read_publish_options(path)


def test_wrong_root_element(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text("<experiment name='x'/>")
    with pytest.raises(SchemaError):
        read_publish_options(path)


def test_malformed_xml(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text("<simulation><publish enabled='true'>")
    with pytest.raises(ParseError):
        read_publish_options(path)


def test_missing_project_file(tmp_path):
    with pytest.raises(IoError):
        read_publish_options(tmp_path / "absent.xml")


# -- recording publication ids ------------------------------------------


def test_write_ids_roundtrip(tmp_path):
    path = write_project(tmp_path / "top_hat.xml")
    write_publication_ids(path, "software", 3, "10.5072/mockdepot.3")
    options = read_publish_options(path)
    assert options.slot("software").article_id == 3
    assert options.slot("software").doi == "10.5072/mockdepot.3"
    # the other slots are untouched
    assert options.slot("input").article_id is None


def test_write_ids_is_byte_idempotent(tmp_path):
    path = write_project(tmp_path / "top_hat.xml")
    write_publication_ids(path, "input", 5, "10.5072/mockdepot.5")
    first = path.read_bytes()
    stamp = path.stat().st_mtime_ns
    write_publication_ids(path, "input", 5, "10.5072/mockdepot.5")
    assert path.read_bytes() == first
    assert path.stat().st_mtime_ns == stamp


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_a_failed_write_leaves_the_project_and_no_temp_file(tmp_path, monkeypatch, failing):
    path = write_project(tmp_path / "s.xml")
    before = path.read_bytes()

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_on_a_full_disk(file, mode="r", **kwargs):
        handle = open(file, mode, **kwargs)
        if "w" in mode:
            handle.write = no_space
        return handle

    if failing == "replace":
        monkeypatch.setattr(os, "replace", no_space)
    else:
        monkeypatch.setattr(provenance, "open", open_on_a_full_disk, raising=False)
    with pytest.raises(IoError, match="No space left on device"):
        write_publication_ids(path, "input", 5, "10.5072/mockdepot.5")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.xml"]


def test_write_ids_writes_through_a_symlinked_project(tmp_path):
    (tmp_path / "shared").mkdir()
    shared = write_project(tmp_path / "shared" / "p.xml")
    link = tmp_path / "sim" / "p.xml"
    link.parent.mkdir()
    link.symlink_to(shared)
    write_publication_ids(link, "input", 5, "10.5072/mockdepot.5")
    assert link.is_symlink() and link.resolve() == shared
    assert read_publish_options(shared).slot("input").article_id == 5
    assert sorted(p.name for p in shared.parent.iterdir()) == ["p.xml"]
    assert sorted(p.name for p in link.parent.iterdir()) == ["p.xml"]


def test_write_ids_overwrites_previous_values(tmp_path):
    path = write_project(tmp_path / "top_hat.xml")
    write_publication_ids(path, "output", 5, "10.5072/mockdepot.5")
    write_publication_ids(path, "output", 5, "10.5072/mockdepot.5")
    write_publication_ids(path, "output", 9, "10.5072/mockdepot.9")
    options = read_publish_options(path)
    assert options.slot("output").article_id == 9
    assert options.slot("output").doi == "10.5072/mockdepot.9"
    assert path.read_text().count("article_id") == 1


def test_write_ids_preserves_unrelated_bytes(tmp_path):
    path = tmp_path / "fussy.xml"
    original = (
        "<?xml version='1.0'?>\n"
        "<!-- hand edited; keep my formatting -->\n"
        "<simulation   name=\"fussy\" >\n"
        "  <timestepping dt=\"0.1\"/>\n"
        "  <publish enabled=\"true\">\n"
        "      <software/>\n"
        "    <input patterns=\"*.msh\"/>\n"
        "    <output patterns=\"*.vtu\"    />\n"
        "  </publish>\n"
        "</simulation>\n"
    )
    path.write_text(original)
    write_publication_ids(path, "software", 2, "10.5072/mockdepot.2")
    updated = path.read_text()
    changed = [
        (a, b)
        for a, b in zip(original.splitlines(), updated.splitlines())
        if a != b
    ]
    assert changed == [
        (
            "      <software/>",
            '      <software article_id="2" doi="10.5072/mockdepot.2"/>',
        )
    ]


_SLOT_DOCUMENTS = {
    "comment": ("<!-- <output patterns='*.dat'/> -->\n", '<output patterns="*.vtu"/>'),
    "cdata": ("<![CDATA[ <output patterns='*.dat'/> ]]>\n", '<output patterns="*.vtu"/>'),
    "outside-publish": ("<archive><output/></archive>\n", '<output patterns="*.vtu"/>'),
    "suffix": ("", '<output patterns="*.vtu" olddoi="keep" xarticle_id="7"/>'),
    "single-quotes": ("", "<output patterns='*.vtu' article_id='3' doi = '10.5072/mockdepot.3'>"),
}


@pytest.mark.parametrize("case", sorted(_SLOT_DOCUMENTS))
def test_write_ids_edits_only_the_slot_that_is_read(tmp_path, case):
    decoy, tag = _SLOT_DOCUMENTS[case]
    before = (
        f"<simulation name='sim'>\n  {decoy}"
        "  <publish enabled='true'>\n    <input patterns='*.msh'/>\n    "
    )
    after = ("</output>" if tag.endswith("'>") else "") + "\n  </publish>\n</simulation>\n"
    path = tmp_path / "sim.xml"
    path.write_text(before + tag + after)
    old_attrib = ElementTree.fromstring(before + tag + after).find("publish/output").attrib
    write_publication_ids(path, "output", 9, "10.5072/mockdepot.9")
    text = path.read_text()
    assert text.startswith(before) and text.endswith(after)
    new_attrib = ElementTree.fromstring(text).find("publish/output").attrib
    assert new_attrib == {**old_attrib, "article_id": "9", "doi": "10.5072/mockdepot.9"}
    state = read_publish_options(path).slot("output")
    assert (state.article_id, state.doi) == (9, "10.5072/mockdepot.9")


@pytest.mark.parametrize(
    "entity", ["<output patterns='*.vtu'/>", "<publish enabled='true'></publish>"]
)
def test_write_ids_refuses_a_slot_from_an_entity(tmp_path, entity):
    # the element has no start tag of its own in the file to edit
    path = tmp_path / "sim.xml"
    original = (
        f'<!DOCTYPE simulation [<!ENTITY slot "{entity}">]>\n'
        "<simulation name='sim'>\n"
        + ("  <publish enabled='true'>&slot;</publish>\n" if "output" in entity else "  &slot;\n")
        + "</simulation>\n"
    )
    path.write_text(original)
    with pytest.raises(SchemaError):
        write_publication_ids(path, "output", 9, "10.5072/mockdepot.9")
    assert path.read_text() == original


def test_write_ids_inserts_missing_slot_element(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text(
        "<simulation name='sim'>\n"
        '  <publish enabled="true">\n'
        '    <input patterns="*.msh"/>\n'
        '    <output patterns="*.vtu"/>\n'
        "  </publish>\n"
        "</simulation>\n"
    )
    write_publication_ids(path, "software", 4, "10.5072/mockdepot.4")
    options = read_publish_options(path)
    assert options.slot("software").article_id == 4
    assert '<software article_id="4"' in path.read_text()


def test_write_ids_each_slot_independent(tmp_path):
    path = write_project(tmp_path / "top_hat.xml")
    write_publication_ids(path, "software", 1, "10.5072/mockdepot.1")
    write_publication_ids(path, "input", 2, "10.5072/mockdepot.2")
    write_publication_ids(path, "output", 3, "10.5072/mockdepot.3")
    options = read_publish_options(path)
    assert [options.slot(name).article_id for name in ("software", "input", "output")] == [1, 2, 3]
    assert [options.slot(name).doi for name in ("software", "input", "output")] == [
        "10.5072/mockdepot.1",
        "10.5072/mockdepot.2",
        "10.5072/mockdepot.3",
    ]


def test_write_ids_requires_publish_element(tmp_path):
    path = tmp_path / "sim.xml"
    path.write_text("<simulation name='sim'/>")
    with pytest.raises(SchemaError):
        write_publication_ids(path, "software", 1, "10.5072/mockdepot.1")


def test_write_ids_result_still_parses(tmp_path):
    path = write_project(tmp_path / "top_hat.xml")
    for slot, number in (("software", 11), ("input", 12), ("output", 13)):
        write_publication_ids(path, slot, number, f"10.5072/mockdepot.{number}")
    # a second full pass over already-written values changes nothing
    snapshot = path.read_bytes()
    for slot, number in (("software", 11), ("input", 12), ("output", 13)):
        write_publication_ids(path, slot, number, f"10.5072/mockdepot.{number}")
    assert path.read_bytes() == snapshot


# -- pattern expansion ---------------------------------------------------


def _touch(base, *names):
    for name in names:
        (base / name).write_text(name)


def test_expand_patterns_basic(tmp_path):
    _touch(tmp_path, "a.vtu", "b.vtu", "notes.txt", "a.vtu.md5")
    (tmp_path / "sub").mkdir()
    _touch(tmp_path / "sub", "c.vtu")
    found = expand_patterns(["*.vtu"], tmp_path)
    assert [p.name for p in found] == ["a.vtu", "b.vtu"]
    assert all(p.parent == tmp_path for p in found)


def test_expand_patterns_multiple_and_dedupe(tmp_path):
    _touch(tmp_path, "mesh.msh", "mesh.geo", "extra.geo")
    found = expand_patterns(["*.msh", "*.geo", "mesh.*"], tmp_path)
    assert [p.name for p in found] == ["extra.geo", "mesh.geo", "mesh.msh"]


def test_expand_patterns_skips_directories(tmp_path):
    (tmp_path / "frames.vtu").mkdir()
    _touch(tmp_path, "real.vtu")
    assert [p.name for p in expand_patterns(["*.vtu"], tmp_path)] == ["real.vtu"]


def test_expand_patterns_literal_case(tmp_path):
    _touch(tmp_path, "Run.VTU", "run.vtu")
    assert [p.name for p in expand_patterns(["*.vtu"], tmp_path)] == ["run.vtu"]


def test_expand_patterns_missing_dir(tmp_path):
    with pytest.raises(IoError):
        expand_patterns(["*.vtu"], tmp_path / "never")


def test_expand_patterns_against_glob_oracle(tmp_path):
    rng = random.Random(8254)
    stems = ["frame", "mesh", "steady", "Flow", "probe.point"]
    suffixes = [".vtu", ".msh", ".geo", ".stat", ".txt", ".VTU"]
    for index in range(60):
        name = f"{rng.choice(stems)}_{index}{rng.choice(suffixes)}"
        (tmp_path / name).write_text("x")
        if rng.random() < 0.3:
            (tmp_path / (name + ".md5")).write_text("y")
    (tmp_path / "subdir").mkdir()
    (tmp_path / "subdir" / "hidden.vtu").write_text("x")

    for patterns in (["*.vtu"], ["*.vtu", "*.msh"], ["frame_*"], ["*"], ["nomatch*"]):
        # independent route: glob the directory per-pattern, then de-dupe
        expected = set()
        for pattern in patterns:
            for hit in glob.glob(os.path.join(str(tmp_path), pattern)):
                if hit.endswith(".md5") or not os.path.isfile(hit):
                    continue
                expected.add(os.path.basename(hit))
        got = [p.name for p in expand_patterns(patterns, tmp_path)]
        assert got == sorted(expected), patterns
        assert len(got) == len(set(got))


# -- stat header injection ------------------------------------------------


CONSTANTS = ProvenanceConstants(
    software_version="a" * 40,
    software_doi="10.5072/mockdepot.1",
    input_doi="10.5072/mockdepot.2",
)


def test_inject_appends_three_constants(tmp_path):
    path = write_stat(tmp_path / "sim.stat")
    inject_provenance(path, CONSTANTS)
    text = path.read_text()
    assert f'<constant name="FluidityVersion" type="string" value="{"a" * 40}"/>' in text
    assert '<constant name="SoftwareDOI" type="string" value="10.5072/mockdepot.1"/>' in text
    assert '<constant name="InputDataDOI" type="string" value="10.5072/mockdepot.2"/>' in text
    order = [
        text.index('name="FluidityVersion"'),
        text.index('name="SoftwareDOI"'),
        text.index('name="InputDataDOI"'),
    ]
    assert order == sorted(order)


def test_inject_is_idempotent(tmp_path):
    path = write_stat(tmp_path / "sim.stat")
    inject_provenance(path, CONSTANTS)
    first = path.read_bytes()
    stamp = path.stat().st_mtime_ns
    inject_provenance(path, CONSTANTS)
    assert path.read_bytes() == first
    assert path.stat().st_mtime_ns == stamp


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755], ids=oct)
def test_rewrites_keep_the_file_mode(tmp_path, mode):
    project = write_project(tmp_path / "p.xml")
    stat_file = write_stat(tmp_path / "sim.stat")
    for path in (project, stat_file):
        path.chmod(mode)
    write_publication_ids(project, "input", 5, "10.5072/mockdepot.5")
    inject_provenance(stat_file, CONSTANTS)
    assert 'article_id="5"' in project.read_text()
    assert 'name="InputDataDOI"' in stat_file.read_text()
    for path in (project, stat_file):
        assert path.stat().st_mode & 0o7777 == mode


def test_inject_replaces_only_the_value(tmp_path):
    path = write_stat(tmp_path / "sim.stat")
    inject_provenance(path, CONSTANTS)
    updated = ProvenanceConstants(
        software_version="b" * 40,
        software_doi="10.5072/mockdepot.1",
        input_doi="10.5072/mockdepot.2",
    )
    inject_provenance(path, updated)
    text = path.read_text()
    assert text.count('name="FluidityVersion"') == 1
    assert ("b" * 40) in text
    assert ("a" * 40) not in text


def test_inject_changes_are_localized(tmp_path):
    path = write_stat(tmp_path / "sim.stat")
    before = path.read_text().splitlines()
    inject_provenance(path, CONSTANTS)
    after = path.read_text().splitlines()
    assert len(after) == len(before) + 3
    # every original line survives verbatim, in order
    iterator = iter(after)
    for line in before:
        for candidate in iterator:
            if candidate == line:
                break
        else:
            pytest.fail(f"original line lost: {line!r}")


def test_inject_preserves_data_rows(tmp_path):
    rows = "0.0 1.5 2.25\n0.1 1.6 2.26\n"
    path = write_stat(tmp_path / "sim.stat", rows=rows)
    inject_provenance(path, CONSTANTS)
    assert path.read_text().endswith(rows)


def test_inject_respects_name_prefix(tmp_path):
    path = write_stat(tmp_path / "sim.stat")
    constants = ProvenanceConstants(
        software_version="c" * 40,
        software_doi="10.5072/mockdepot.1",
        input_doi="10.5072/mockdepot.2",
        name_prefix="Xyz",
    )
    inject_provenance(path, constants)
    text = path.read_text()
    assert 'name="XyzVersion"' in text
    assert 'name="FluidityVersion"' not in text


def test_inject_does_not_touch_similar_names(tmp_path):
    path = tmp_path / "sim.stat"
    path.write_text(
        STAT_HEADER
        + '<constant name="NotSoftwareDOI" type="string" value="keep"/>\n'
    )
    inject_provenance(path, CONSTANTS)
    text = path.read_text()
    assert '<constant name="NotSoftwareDOI" type="string" value="keep"/>' in text
    assert text.count("SoftwareDOI") == 2  # NotSoftwareDOI + the new one
    assert len(re.findall(r'name="SoftwareDOI"', text)) == 1


@pytest.mark.parametrize(
    "comment",
    [
        '<!-- <constant name="SoftwareDOI" type="string" value="old"/> -->\n',
        '<!-- <constant name="Retired" type="string" value="old"/> -->\n',
    ],
    ids=["named-constant-in-comment", "comment-after-last-constant"],
)
def test_inject_ignores_constants_inside_comments(tmp_path, comment):
    path = tmp_path / "sim.stat"
    path.write_text(STAT_HEADER + comment + "0.0 1.5\n")
    inject_provenance(path, CONSTANTS)
    text = path.read_text()
    assert comment in text
    live = text.replace(comment, "")
    assert '<constant name="SoftwareDOI" type="string" value="10.5072/mockdepot.1"/>' in live
    assert '<constant name="InputDataDOI" type="string" value="10.5072/mockdepot.2"/>' in live
    assert f'<constant name="FluidityVersion" type="string" value="{"a" * 40}"/>' in live


def test_inject_requires_a_constant_block(tmp_path):
    path = tmp_path / "empty.stat"
    path.write_text("<header>\n</header>\n")
    with pytest.raises(ParseError):
        inject_provenance(path, CONSTANTS)


def test_inject_missing_file(tmp_path):
    with pytest.raises(IoError):
        inject_provenance(tmp_path / "none.stat", CONSTANTS)
