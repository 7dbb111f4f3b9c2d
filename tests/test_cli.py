"""CLI surface: subcommands, flags, exit codes, output discipline."""

from __future__ import annotations

import io
import json
import operator
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from roughconcepts.cli import (
    _MAX_MESSAGE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_SEMANTIC,
    EXIT_USAGE,
    run_cli,
)

DATA = Path(__file__).parent / "data"
CONTEXT = ["--context", str(DATA / "living.cxt")]
PARTITION = ["--partition", str(DATA / "living_partition.txt")]


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_listing(capsys):
    code, out, _ = run(capsys, "lattice", *CONTEXT)
    assert code == 0
    assert out.startswith("concepts 19\n")
    assert "covers 32" in out


def test_report_concept_counts(capsys):
    code, out, _ = run(capsys, "report", *CONTEXT, *PARTITION)
    assert code == 0
    report = json.loads(out)
    sizes = [len(report["lattices"][k]["concepts"]) for k in ("base", "upper", "lower")]
    assert sizes == [19, 9, 10]
    assert report["definable_attributes"] == ["nw", "lw", "nc", "mo", "sk"]
    assert len(report["kernels"]["possibility"]) == 9
    assert len(report["kernels"]["necessity"]) == 10
    non_singleton = [c for c in report["rough_classes"] if len(c["members"]) > 1]
    assert len(non_singleton) == 2


def test_report_with_rules(capsys):
    code, out, _ = run(capsys, "report", *CONTEXT, *PARTITION, "--rule", "lb=>ll", "--rule", "lb=>sk")
    assert code == 0
    rules = json.loads(out)["rules"]
    assert rules[0]["measure"]["value"] == "2/3"
    assert rules[0]["holds"] is False
    assert rules[0]["possible"] is True
    assert rules[1]["measure"]["value"] == "1/3"
    assert rules[1]["certain"] is True


def test_rules_measure(capsys):
    code, out, _ = run(capsys, "rules", *CONTEXT, *PARTITION, "--premise", "lb", "--conclusion", "ll", "--measure")
    assert (code, out) == (0, "2/3\n")


def test_rules_measure_undefined(capsys):
    code, out, _ = run(capsys, "rules", *CONTEXT, "--premise", "2lg,1lg", "--conclusion", "nw", "--measure")
    assert (code, out) == (0, "undefined\n")


def test_rules_modalities(capsys):
    assert run(capsys, "rules", *CONTEXT, *PARTITION, "--premise", "lb", "--conclusion", "ll")[1] == "false\n"
    assert run(capsys, "rules", *CONTEXT, *PARTITION, "--premise", "lb", "--conclusion", "ll", "--possible")[1] == "true\n"
    assert run(capsys, "rules", *CONTEXT, *PARTITION, "--premise", "lb", "--conclusion", "sk", "--certain")[1] == "true\n"


def test_definable(capsys):
    code, out, _ = run(capsys, "definable", *CONTEXT, *PARTITION)
    assert (code, out) == (0, "nw,lw,nc,mo,sk\n")


def test_definable_via_partition_by(capsys):
    code, out, _ = run(capsys, "definable", *CONTEXT, "--partition-by", "lw,nc")
    assert (code, out) == (0, "nw,lw,nc,mo,sk\n")


def test_definable_via_embedded_partition(capsys):
    code, out, _ = run(capsys, "definable", "--context", str(DATA / "living.json"))
    assert (code, out) == (0, "nw,lw,nc,mo,sk\n")


def test_empty_partition_option_values_are_read(capsys):
    # An empty attribute list puts every object in one block; it does not fall back
    # to the embedded partition.
    json_context = ("--context", str(DATA / "living.json"))
    for names in ("", " , "):
        code, out, _ = run(capsys, "definable", *json_context, "--partition-by", names)
        assert (code, out) == (0, "nw\n")
    code, out, err = run(capsys, "definable", *json_context, "--partition", "")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: parse: cannot read input:") and err.count("\n") == 1


def test_approx_matches_expected_matrix(capsys, living_space, living_upper):
    from roughconcepts import parse_context

    code, out, _ = run(capsys, "approx", *CONTEXT, *PARTITION, "--mode", "upper")
    assert code == 0
    assert parse_context(out, "cxt").context == living_upper


@pytest.mark.parametrize("approx", [(), ("--approx", "base"), ("--approx", "lower")])
def test_strict_upper_needs_approx_upper(capsys, approx):
    code, out, err = run(capsys, "extent", *CONTEXT, *PARTITION, "--attrs", "lb", *approx, "--strict-upper")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: usage: argument --strict-upper: not allowed without --approx upper\n"


def test_extent_free_vs_strict(capsys):
    free = run(capsys, "extent", *CONTEXT, *PARTITION, "--attrs", "2lg,1lg", "--approx", "upper")
    assert free[0:2] == (0, "Bn,Mz\n")
    strict = run(capsys, "extent", *CONTEXT, *PARTITION, "--attrs", "2lg,1lg", "--approx", "upper", "--strict-upper")
    assert strict[0:2] == (0, "\n")
    base = run(capsys, "extent", *CONTEXT, "--attrs", "lb")
    assert base[0:2] == (0, "Br,Fr,Dg\n")
    lower = run(capsys, "extent", *CONTEXT, *PARTITION, "--attrs", "lb", "--approx", "lower")
    assert lower[0:2] == (0, "Dg\n")


def test_assignments(capsys):
    code, out, _ = run(capsys, "assignments", *CONTEXT, *PARTITION)
    assert code == 0
    data = json.loads(out)
    assert len(data["to_upper"]) == 19
    assert len(data["kernels"]["possibility"]) == 9
    assert len(data["kernels"]["necessity"]) == 10


def test_rough_classes(capsys):
    code, out, _ = run(capsys, "rough-classes", *CONTEXT, *PARTITION)
    assert code == 0
    classes = json.loads(out)
    members = sorted(i for cls in classes for i in cls["members"])
    assert members == list(range(19))


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", *CONTEXT, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("label=") == 19
    code, out, _ = run(capsys, "export", *CONTEXT, *PARTITION, "--dot", "--which", "upper", "--labeling", "reduced")
    assert code == 0
    assert out.count("label=") == 9


# ── errors and exit codes ───────────────────────────────────────────


def test_usage_errors(capsys):
    code, out, err = run(capsys, "definable", *CONTEXT)  # no partition
    assert code == 1 and out == "" and err.startswith("error: usage:")
    code, out, err = run(capsys, "lattice")  # missing --context
    assert code == 1 and out == ""
    code, out, err = run(capsys, "frobnicate", *CONTEXT)
    assert code == 1
    code, out, err = run(capsys, "definable", *CONTEXT, *PARTITION, "--partition-by", "lw")
    assert (code, out) == (1, "")
    assert err == "error: usage: argument --partition-by: not allowed with argument --partition\n"


# Arguments each subcommand runs with; a shared option it does not read is not declared.
COMMAND_ARGS = {
    "lattice": (),
    "approx": (*PARTITION, "--mode", "upper"),
    "definable": PARTITION,
    "extent": (*PARTITION, "--attrs", "lb"),
    "rules": (*PARTITION, "--premise", "lb", "--conclusion", "ll"),
    "assignments": PARTITION,
    "rough-classes": PARTITION,
    "report": PARTITION,
    "export": (*PARTITION, "--dot"),
}
STRICT = ("--strict-upper",)
CAP = ("--max-concepts", "50")
UNDECLARED_OPTIONS = [
    ("lattice", PARTITION),
    ("lattice", ("--partition-by", "lw")),
    ("lattice", STRICT),
    *((command, option) for command in ("approx", "definable", "rules") for option in (STRICT, CAP)),
    ("extent", CAP),
    *((command, STRICT) for command in ("assignments", "rough-classes", "report", "export")),
]


@pytest.mark.parametrize(
    "command, option", UNDECLARED_OPTIONS, ids=[f"{c} {o[0]}" for c, o in UNDECLARED_OPTIONS]
)
def test_undeclared_shared_option_is_usage_error(capsys, command, option):
    assert run(capsys, command, *CONTEXT, *COMMAND_ARGS[command])[0] == 0
    code, out, err = run(capsys, command, *CONTEXT, *COMMAND_ARGS[command], *option)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: usage: unrecognized arguments: {option[0]}")
    assert err.count("\n") == 1


def test_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cxt"
    bad.write_text("not a context\n")
    code, out, err = run(capsys, "lattice", "--context", str(bad))
    assert code == 2 and out == "" and err.startswith("error: parse:")
    code, out, err = run(capsys, "lattice", "--context", str(tmp_path / "missing.cxt"))
    assert code == 2 and out == ""


def test_format_inference_failure(capsys, tmp_path):
    mystery = tmp_path / "context.dat"
    mystery.write_text("B\n\n0\n0\n\n")
    code, _, err = run(capsys, "lattice", "--context", str(mystery))
    assert code == 1
    code, out, _ = run(capsys, "lattice", "--context", str(mystery), "--format", "cxt")
    assert code == 0 and out.startswith("concepts 1")


def test_semantic_errors(capsys):
    code, out, err = run(capsys, "definable", *CONTEXT, "--partition-by", "nope")
    assert code == 3 and out == "" and err.startswith("error: semantic:")
    code, out, err = run(capsys, "rules", *CONTEXT, "--premise", "bogus", "--conclusion", "ll")
    assert code == 3 and out == ""


def test_report_rule_without_arrow_is_usage_error(capsys):
    code, out, err = run(capsys, "report", *CONTEXT, *PARTITION, "--rule", "lb")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: usage: rule 'lb' must look like premise=>conclusion\n"


def test_resource_cap(capsys):
    code, out, err = run(capsys, "lattice", *CONTEXT, "--max-concepts", "3")
    assert code == 4 and out == "" and err.startswith("error: resource:")


def test_nul_in_a_path_is_unreadable_input(capsys):
    for argv in (
        ["lattice", "--context", "a\x00.cxt"],
        ["definable", *CONTEXT, "--partition", "a\x00"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: parse: cannot read input: embedded null byte\n"


def test_max_concepts_must_not_be_negative(capsys):
    code, out, err = run(capsys, "lattice", *CONTEXT, "--max-concepts", "-1")
    assert (code, out) == (1, "")
    assert err == "error: usage: argument --max-concepts: must not be negative, got -1\n"
    code, out, err = run(capsys, "lattice", *CONTEXT, "--max-concepts", "ten")
    assert (code, out) == (1, "")
    assert err == "error: usage: argument --max-concepts: invalid int value: 'ten'\n"
    code, out, err = run(capsys, "lattice", *CONTEXT, "--max-concepts", "0")
    assert code == 4 and out == "" and err.startswith("error: resource:")
    code, out, _ = run(capsys, "lattice", *CONTEXT, "--max-concepts", "19")
    assert code == 0 and out.startswith("concepts 19\n")


def test_deeply_nested_json_is_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "lattice", "--context", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith("error: parse:") and err.count("\n") == 1


def test_resource_error_names_the_lattice(capsys, tmp_path):
    # The base lattice has 4 concepts, the upper one 5 (see test_concepts).
    ctx = tmp_path / "merge.csv"
    ctx.write_text(",m0,m1,m2\ng0,X,,\ng1,,,X\ng2,,,X\ng3,X,,\n")
    part = tmp_path / "merge_partition.txt"
    part.write_text("g0\ng1, g3\ng2\n")
    for command in ("assignments", "report"):
        argv = [command, "--context", str(ctx), "--partition", str(part), "--max-concepts", "4"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: resource: upper lattice: ") and err.count("\n") == 1


def test_oversized_csv_field_is_parse_error(capsys, tmp_path):
    big = tmp_path / "big.csv"
    big.write_text(",a\n" + "g" * 200_000 + ",X\n")
    code, out, err = run(capsys, "lattice", "--context", str(big))
    assert (code, out) == (2, "")
    assert err.startswith("error: parse:") and err.count("\n") == 1


def _child(*argv, **env):
    """A ``python -m roughconcepts.cli`` process on pipes, with ``env`` over this one's
    environment; a variable given as None is removed."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.Popen(
        [sys.executable, "-m", "roughconcepts.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={name: value for name, value in env.items() if value is not None},
    )


@pytest.mark.parametrize(
    "command, first",
    [(["report"], b"{"), (["lattice"], b"c"), (["export", "--dot"], b"d")],
    ids=["report", "lattice", "export --dot"],
)
def test_reader_closing_stdout_early_ends_the_report_quietly(tmp_path, command, first):
    # The contranominal scale on 10 objects: lattices of 1024 concepts, so each
    # command writes more than a 64 KiB pipe holds (the report in many writes).
    names = [f"o{i}" for i in range(10)]
    doc = {
        "objects": names,
        "attributes": names,
        "incidence": [[g, m] for g in names for m in names if g != m],
        "partition": [[g] for g in names],
    }
    context = tmp_path / "nominal.json"
    context.write_text(json.dumps(doc))
    proc = _child(*command, "--context", str(context))
    try:
        assert proc.stdout.read(1) == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (EXIT_OK, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_output_is_utf8_whatever_the_locale_encoding(tmp_path):
    (tmp_path / "u.cxt").write_text("B\n\n1\n1\n\n\u00fc\nm\nX\n", encoding="utf-8")
    (tmp_path / "u.txt").write_text("\u00fc\n", encoding="utf-8")
    context = ["--context", str(tmp_path / "u.cxt")]
    space = ["--partition", str(tmp_path / "u.txt")]
    for command, expected in [
        (["lattice"], EXIT_OK),
        (["export", "--dot"], EXIT_OK),
        (["extent", "--attrs", "m"], EXIT_OK),
        (["approx", "--mode", "upper", *space], EXIT_OK),
        (["extent", "--attrs", "\u00fc"], EXIT_SEMANTIC),  # the error: line names it
    ]:
        runs = []
        for encoding in ("ascii", None):
            proc = _child(*command, *context, PYTHONIOENCODING=encoding)
            out, err = proc.communicate(timeout=60)
            runs.append((proc.returncode, err, out))
        code, err, out = runs[0]
        assert runs[0] == runs[1] and code == expected, command
        assert "\u00fc".encode() in (err if code else out) and not (out if code else err)


@pytest.mark.parametrize(
    "command",
    [["lattice"], ["export", "--dot"], ["extent", "--attrs", "m"], ["report"]],
    ids=" ".join,
)
def test_lone_surrogate_name_is_parse_error(capsys, tmp_path, command):
    doc = tmp_path / "s.json"
    doc.write_text('{"objects": ["\\ud800"], "attributes": ["m"], "incidence": [["\\ud800", "m"]]}')
    code, out, err = run(capsys, *command, "--context", str(doc))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: parse: 'objects' name") and err.count("\n") == 1


# Modes that compute nothing from the partition.
PARTITION_UNUSED = [
    ("rules", "--premise", "lb", "--conclusion", "ll"),
    ("rules", "--premise", "lb", "--conclusion", "ll", "--measure"),
    ("extent", "--attrs", "lb", "--approx", "base"),
    ("export", "--dot", "--which", "base"),
]


@pytest.mark.parametrize("mode", PARTITION_UNUSED, ids=" ".join)
def test_given_partition_is_read_by_every_mode(capsys, tmp_path, mode):
    assert run(capsys, *mode, *CONTEXT)[0] == 0
    missing = ("--partition", str(tmp_path / "missing.txt"))
    code, out, err = run(capsys, *mode, *CONTEXT, *missing)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: parse: cannot read input:") and err.count("\n") == 1
    code, out, err = run(capsys, *mode, *CONTEXT, "--partition-by", "nope")
    assert (code, out) == (EXIT_SEMANTIC, "")


def test_partition_file_error_is_parse_error(capsys, tmp_path):
    part = tmp_path / "bad_partition.txt"
    part.write_text("Le, Br\n")
    code, out, err = run(capsys, "definable", *CONTEXT, "--partition", str(part))
    assert code == 2 and out == ""


def test_uncovered_objects_error_is_one_line(capsys, tmp_path):
    # A name holding a newline, and more missing names than the message lists.
    objects = ["a\nb", "c"] + [f"o{i}" for i in range(20)]
    doc = {"objects": objects, "attributes": ["x"], "incidence": [["c", "x"]]}
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    embedded = tmp_path / "embedded.json"
    embedded.write_text(json.dumps({**doc, "partition": [["c"]]}))
    part = tmp_path / "partition.txt"
    part.write_text("c\n")
    for source in (["--context", str(embedded)], ["--context", str(plain), "--partition", str(part)]):
        code, out, err = run(capsys, "approx", "--mode", "upper", *source)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            "error: parse: objects not covered by any block: "
            "'a\\nb', 'o0', 'o1', 'o2', 'o3' and 16 more\n"
        )


def test_repeated_object_in_a_block_error_is_one_line(capsys, tmp_path):
    objects = [f"o{i}" for i in range(2000)]
    doc = {"objects": objects, "attributes": [], "partition": [objects + ["o0"]]}
    context = tmp_path / "repeated.json"
    context.write_text(json.dumps(doc))
    code, out, err = run(capsys, "definable", "--context", str(context))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: parse: object 'o0' listed twice within a block\n"


def test_failure_line_is_escaped_and_cut(capsys):
    nines = "9" * 5000
    code, out, err = run(capsys, "lattice", *CONTEXT, "--max-concepts", nines)
    message = f"argument --max-concepts: invalid int value: '{nines}'"
    cut = len(message) - _MAX_MESSAGE
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: usage: {message[:_MAX_MESSAGE]}... [{cut} more characters]\n"
    code, out, err = run(capsys, "lattice", *CONTEXT, "--bo\r\ngus")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: usage: unrecognized arguments: --bo\\r\\ngus\n"


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "roughconcepts" in out


# ── contract guard ──────────────────────────────────────────────────

EXIT_CODES = {
    "usage": EXIT_USAGE,
    "parse": EXIT_PARSE,
    "semantic": EXIT_SEMANTIC,
    "resource": EXIT_RESOURCE,
}
FIXTURES = ("living.cxt", "living.csv", "living.json", "living_partition.txt")
FILE_COMMANDS = (
    ("lattice",),
    ("approx", "--mode", "upper"),
    ("definable",),
    ("extent", "--attrs", "lb,ll", "--approx", "lower"),
    ("rules", "--premise", "lb", "--conclusion", "ll", "--possible"),
    ("report", "--rule", "lb=>ll"),
    ("assignments",),
    ("rough-classes",),
    ("export", "--dot", "--which", "upper"),
    ("rules", "--premise", "lb", "--conclusion", "ll", "--measure"),
    ("extent", "--attrs", "lb", "--approx", "base"),
    ("export", "--dot", "--which", "base"),
)
# Bytes that carry structure in one of the formats, besides any byte at all.
SIGNIFICANT = st.sampled_from(list(b'X.,\n\r{}[]":#0 '))


@st.composite
def mutated_fixture(draw):
    """A living fixture with one to four bytes replaced, inserted or deleted."""
    name = draw(st.sampled_from(FIXTURES))
    data = bytearray((DATA / name).read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.one_of(SIGNIFICANT, st.integers(0, 255)))
        if edit == "insert" or at == len(data):
            data.insert(at, byte)
        elif edit == "replace":
            data[at] = byte
        else:
            del data[at]
    return name, bytes(data)


@settings(max_examples=300, deadline=None)
@given(mutated_fixture(), st.sampled_from(FILE_COMMANDS))
# Numbers that int() rejects although str.isdigit() accepts them, or that exceed its digit limit.
@example(("living.cxt", "B\n\n\u00b2\n1\n\na\nm\nX\n".encode()), ("lattice",))
@example(("living.cxt", b"B\n\n1\n" + b"9" * 4301 + b"\n\na\nm\nX\n"), ("lattice",))
@example(("living.json", b'{"objects": [' + b"1" * 4301 + b"]}"), ("lattice",))
def test_contract_holds_on_mutated_fixtures(fixture, command):
    """Exit 0 with nothing on stderr, or one ``error:`` line with its exit code and no stdout."""
    name, data = fixture
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        partition = name == "living_partition.txt"
        context = DATA / "living.cxt" if partition else path
        argv = [*command, "--context", str(context)]
        # The JSON fixture embeds its partition, and lattice declares no --partition.
        if context.suffix != ".json" and command[0] != "lattice":
            argv += ["--partition", str(path if partition else DATA / "living_partition.txt")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    if code == 0:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    line = re.fullmatch(r"error: (\w+): [^\n]+\n", err.getvalue())
    assert line is not None, err.getvalue()
    assert EXIT_CODES.get(line[1]) == code, (code, err.getvalue())


# Any text, NUL included (run_cli runs in process), short or up to about 6,000 characters.
ARGUMENT_CHARS = st.characters()
ARGUMENT = st.one_of(
    st.text(ARGUMENT_CHARS),
    st.builds(operator.mul, st.text(ARGUMENT_CHARS, min_size=1, max_size=3), st.integers(1, 2000)),
)
LIVING = str(DATA / "living.cxt")


@st.composite
def mutated_argv(draw):
    """A valid command line with one argument replaced by, or followed by, arbitrary text."""
    command = draw(st.sampled_from(sorted(COMMAND_ARGS)))
    argv = [command, *CONTEXT, *COMMAND_ARGS[command]]
    at = draw(st.integers(0, len(argv)))
    argv[at : at + 1] = [draw(ARGUMENT)]
    return argv


@settings(max_examples=100, deadline=None)
@given(mutated_argv())
@example(["lattice", "--context", LIVING, "--max-concepts", "9" * 5000])
@example(["lattice", "--context", LIVING, "--format", "a" * 5000])
@example(["extent", "--context", LIVING, "--attrs", "a" * 5000])
@example(["lattice", "--context", "a" * 5000 + ".cxt"])
@example(["lattice", "--context", LIVING, "--bogus" + "a" * 5000])
@example(["lattice", "--context", LIVING, "--bo\ngus"])
@example(["lattice", "--context", "a\x00.cxt"])
@example(["definable", "--context", LIVING, "--partition", "a\x00"])
def test_contract_holds_on_mutated_arguments(argv):
    """Exit 0 with nothing on stderr, or one bounded ``error:`` line with its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    if code == 0:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    line = re.fullmatch(r"error: (\w+): [^\n]+\n", err.getvalue())
    assert line is not None, err.getvalue()
    assert EXIT_CODES.get(line[1]) == code, (code, err.getvalue())
    # The category and the count of characters cut add well under 80 characters.
    assert len(line[0]) < _MAX_MESSAGE + 80
