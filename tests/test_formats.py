"""Parsers, renderers, partitions, and DOT export."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from roughconcepts import (
    ApproximationSpace,
    ContextDocument,
    FormalContext,
    ParseError,
    derive_extent,
    enumerate_concepts,
    export_dot,
    guess_format,
    parse_context,
    parse_partition,
    render_context,
)

from conftest import LIVING_BLOCKS, oset

DATA = Path(__file__).parent / "data"


# ── context parsing ─────────────────────────────────────────────


@pytest.mark.parametrize("fmt,name", [("cxt", "living.cxt"), ("csv", "living.csv"), ("json", "living.json")])
def test_fixture_files_parse_to_living(fmt, name, living):
    doc = parse_context((DATA / name).read_bytes(), fmt)
    assert doc.context == living
    assert doc.format == fmt


def test_living_incidence_count(living):
    doc = parse_context((DATA / "living.csv").read_bytes(), "csv")
    assert len(doc.context.objects) == 8
    assert len(doc.context.attributes) == 9
    assert doc.context.incidence_count == 34


@pytest.mark.parametrize("fmt,name", [("cxt", "living.cxt"), ("csv", "living.csv"), ("json", "living.json")])
def test_round_trips(fmt, name):
    doc = parse_context((DATA / name).read_bytes(), fmt)
    rendered = render_context(doc)
    assert parse_context(rendered, fmt) == doc
    # renderers are deterministic
    assert render_context(doc) == rendered


def test_json_round_trip_preserves_partition(living):
    doc = parse_context((DATA / "living.json").read_bytes(), "json")
    assert doc.partition is not None
    assert doc.partition == ApproximationSpace.from_names(living.objects, LIVING_BLOCKS)
    assert parse_context(render_context(doc), "json") == doc


def test_json_keeps_names_as_written():
    doc = parse_context('{"objects": [" a"], "attributes": ["m "], "incidence": [[" a", "m "]]}', "json")
    assert (doc.context.objects, doc.context.attributes) == ((" a",), ("m ",))
    # .cxt and CSV strip names, so such a name does not survive rendering to them.
    for fmt in ("cxt", "csv"):
        rendered = render_context(ContextDocument(fmt, doc.context))
        assert parse_context(rendered, fmt).context.objects == ("a",)
    with pytest.raises(ParseError) as info:
        parse_context('{"objects": [""], "attributes": []}', "json")
    assert (info.value.line, info.value.column) == (None, None)


@pytest.mark.parametrize("name", ["b\nc", "b\rc"], ids=repr)
def test_cxt_rejects_a_name_it_cannot_write(name):
    for ctx in (FormalContext((name,), ("m",), (frozenset({0}),)), FormalContext(("g",), (name,), ((),))):
        with pytest.raises(ValueError, match=re.escape(f"name {name!r} contains a line break")):
            render_context(ContextDocument("cxt", ctx))


def test_empty_csv_header_only():
    doc = parse_context(",a,b,c\n", "csv")
    assert doc.context.objects == ()
    assert doc.context.attributes == ("a", "b", "c")
    assert doc.context.incidence_count == 0


def test_cxt_extra_row_is_parse_error():
    text = "B\n\n2\n2\n\no1\no2\nm1\nm2\nX.\n.X\nXX\n"
    with pytest.raises(ParseError) as info:
        parse_context(text, "cxt")
    assert info.value.line == 12
    assert "row 3" in str(info.value)


def test_cxt_missing_sizes():
    with pytest.raises(ParseError) as info:
        parse_context("B\n\n\n", "cxt")
    assert "count" in str(info.value)


def test_cxt_bad_cell_position():
    text = "B\n\n1\n2\n\no1\nm1\nm2\nX?\n"
    with pytest.raises(ParseError) as info:
        parse_context(text, "cxt")
    assert info.value.line == 9
    assert info.value.column == 2


def test_cxt_ragged_row():
    text = "B\n\n1\n2\n\no1\nm1\nm2\nX\n"
    with pytest.raises(ParseError):
        parse_context(text, "cxt")


def test_csv_errors():
    with pytest.raises(ParseError):
        parse_context(",a\no1,X,extra\n", "csv")  # ragged
    with pytest.raises(ParseError) as info:
        parse_context(",a\no1,?\n", "csv")  # unknown symbol
    assert info.value.line == 2 and info.value.column == 2
    with pytest.raises(ParseError):
        parse_context(",a,a\n", "csv")  # duplicate attribute
    with pytest.raises(ParseError):
        parse_context(",a\no1,\no1,X\n", "csv")  # duplicate object


def test_json_errors():
    with pytest.raises(ParseError):
        parse_context("{not json", "json")
    with pytest.raises(ParseError):
        parse_context('{"objects": ["a"], "attributes": [], "incidence": [["b", "m"]]}', "json")
    with pytest.raises(ParseError):
        parse_context('{"objects": ["a"], "attributes": [], "wat": 1}', "json")
    with pytest.raises(ParseError):
        parse_context('{"objects": ["a", "a"], "attributes": []}', "json")


# Each raise site in the parsers, by message and position (line, column).
PARSE_ERRORS = [
    ("cxt", "B\n\n2\n1\n\na", "unexpected end of file, expected object name", 6, None),
    ("cxt", "B\n\n2\n1\n\na\n\n", "empty object name", 7, None),
    ("cxt", "B\n\n2\n1\n\na\na\n", "duplicate object name 'a'", 7, None),
    ("csv", "\n", "missing header row", 1, None),
    ("csv", ",a\n ,X\n", "empty object name", 2, 1),
    ("csv", ",a, \n", "empty attribute name", 1, 3),
    ("json", "[]", "top level must be a JSON object", None, None),
    ("json", '{"objects": "a", "attributes": []}', "'objects' must be an array of strings", None, None),
    (
        "json",
        '{"objects": ["a"], "attributes": [], "incidence": {}}',
        "'incidence' must be an array of [object, attribute] pairs",
        None,
        None,
    ),
    (
        "json",
        '{"objects": ["a"], "attributes": ["m"], "incidence": [["a"]]}',
        "incidence[0] must be an [object, attribute] name pair",
        None,
        None,
    ),
    (
        "json",
        '{"objects": ["a"], "attributes": [], "partition": [["a", 1]]}',
        "'partition' must be an array of arrays of object names",
        None,
        None,
    ),
    (
        "json",
        '{"objects": ["a"], "attributes": [], "incidence": [["a", "m"]], "partition": [["a", 1]]}',
        "unknown attribute 'm'",
        None,
        None,
    ),
    ("json", '{"objects": ["a"], "attributes": [], "partition": [["b"]]}', "unknown object 'b'", None, None),
    ("cxt", "B\n\n\u00b2\n1\n\na\nm\nX\n", "missing or invalid object count", 3, None),
    ("cxt", "B\n\n1\n" + "9" * 4301 + "\n\na\nm\nX\n", "missing or invalid attribute count", 4, None),
    ("json", '{"objects": [' + "1" * 4301 + "]}", "invalid JSON: integer has too many digits", None, None),
    (
        "json",
        '{"objects": ["\\ud800"], "attributes": ["m"], "incidence": [["\\ud800", "m"]]}',
        "'objects' name '\\ud800' cannot be encoded as UTF-8",
        None,
        None,
    ),
    (
        "json",
        '{"objects": [], "attributes": ["\\udfff"]}',
        "'attributes' name '\\udfff' cannot be encoded as UTF-8",
        None,
        None,
    ),
    ("partition", "Le, Br\n,\n", "empty block", 2, None),
    ("partition", "{Le, Br", "unclosed '{' in block list", 1, None),
    ("partition", "x {Le}", "unexpected text outside braces", 1, None),
    ("partition", "{Le} x", "unexpected text outside braces", 1, None),
]


@pytest.mark.parametrize(
    "fmt, text, message, line, column", PARSE_ERRORS, ids=[f"{row[0]}-{row[2]}" for row in PARSE_ERRORS]
)
def test_parse_error_message_and_position(living, fmt, text, message, line, column):
    with pytest.raises(ParseError) as info:
        if fmt == "partition":
            parse_partition(text, living.objects)
        else:
            parse_context(text, fmt)
    where = "" if line is None else f" (line {line}" + ("" if column is None else f", column {column}") + ")"
    assert str(info.value) == message + where
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize(
    "fmt, name",
    [("cxt", "living.cxt"), ("csv", "living.csv"), ("json", "living.json"), ("partition", "living_partition.txt")],
)
def test_utf8_byte_order_mark_is_ignored(living, fmt, name):
    data = (DATA / name).read_bytes()
    for marked in (b"\xef\xbb\xbf" + data, "\ufeff" + data.decode()):
        if fmt == "partition":
            assert parse_partition(marked, living.objects) == parse_partition(data, living.objects)
        else:
            assert parse_context(marked, fmt) == parse_context(data, fmt)


def test_document_invariants(living, living_space):
    with pytest.raises(ValueError):
        ContextDocument("csv", living, living_space)
    with pytest.raises(ValueError):
        ContextDocument("tsv", living)


def test_guess_format():
    assert guess_format("x.cxt") == "cxt"
    assert guess_format("X.CSV") == "csv"
    assert guess_format("ctx.json") == "json"
    assert guess_format("mystery.dat") is None


# ── partitions ─────────────────────────────────────────────────────


def test_partition_file_fixture(living):
    space = parse_partition((DATA / "living_partition.txt").read_bytes(), living.objects)
    assert space == ApproximationSpace.from_names(living.objects, LIVING_BLOCKS)


def test_partition_brace_form(living):
    space = parse_partition("{Le,Br,Fr},{Dg},{SW,Rd},{Bn,Mz}", living.objects)
    assert len(space.blocks) == 4
    assert space == ApproximationSpace.from_names(living.objects, LIVING_BLOCKS)


def test_partition_identity(living):
    text = "\n".join(living.objects)
    assert parse_partition(text, living.objects) == ApproximationSpace.identity(living.objects)


def test_partition_missing_object(living):
    text = "Le, Br, Fr\nDg\nSW, Rd\nBn\n"
    with pytest.raises(ParseError) as info:
        parse_partition(text, living.objects)
    assert "not covered" in str(info.value) and "Mz" in str(info.value)


def test_partition_duplicate_and_unknown(living):
    with pytest.raises(ParseError):
        parse_partition("Le, Le\n", living.objects)
    with pytest.raises(ParseError):
        parse_partition("Le\nLe\n", living.objects)
    with pytest.raises(ParseError) as info:
        parse_partition("Le, Shark\n", living.objects)
    assert "Shark" in str(info.value)


# ── DOT export ─────────────────────────────────────────────────────


def test_dot_counts(living):
    lat = enumerate_concepts(living)
    dot = export_dot(lat)
    assert dot.count("label=") == 19
    assert dot.count(" -> ") == len(lat.covers)
    assert export_dot(lat) == dot  # deterministic


def test_dot_single_concept():
    from roughconcepts import FormalContext

    lat = enumerate_concepts(FormalContext((), (), ()))
    dot = export_dot(lat)
    assert dot.count("label=") == 1
    assert " -> " not in dot


def test_dot_reduced_places_each_name_once(living):
    lat = enumerate_concepts(living)
    dot = export_dot(lat, "reduced")
    for name in living.objects + living.attributes:
        assert sum(
            1
            for line in dot.splitlines()
            if "label=" in line and name in _label_names(line)
        ) == 1


def _label_names(line: str) -> list[str]:
    label = line.split('label="', 1)[1].rsplit('"', 1)[0]
    return [part for chunk in label.split("\\n") for part in chunk.split(", ") if part]


def test_dot_reduced_attribute_placement(living):
    lat = enumerate_concepts(living)
    dot = export_dot(lat, "reduced")
    sk_node = lat.concept_with_extent(derive_extent(living, living.attribute_set("sk")))
    assert sk_node.extent == oset(living, "Dg")
    line = next(l for l in dot.splitlines() if l.strip().startswith(f"c{sk_node.index} "))
    assert "sk" in _label_names(line)


def test_dot_unknown_labeling(living):
    with pytest.raises(ValueError):
        export_dot(enumerate_concepts(living), "fancy")
