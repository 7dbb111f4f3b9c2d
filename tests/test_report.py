"""The analysis report: self-containment, determinism, and its streamed text."""

from __future__ import annotations

import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from roughconcepts import FormalContext, Implication, build_report, parse_context
from roughconcepts.cli import _CHUNK, run_cli
from roughconcepts.report import report_chunks

from conftest import aset, spaced_contexts


@pytest.fixture(scope="module")
def report(living, living_space):
    rules = [
        Implication(aset(living, "lb"), aset(living, "ll")),
        Implication(aset(living, "2lg 1lg"), aset(living, "nw")),
    ]
    return build_report(living_space, living, rules)


def test_required_top_level_keys(report):
    for key in ("context", "space", "lattices", "maps", "kernels", "rough_classes", "rules"):
        assert key in report


def test_every_concept_index_resolves(report):
    sizes = {k: len(report["lattices"][k]["concepts"]) for k in ("base", "upper", "lower")}
    assert sizes == {"base": 19, "upper": 9, "lower": 10}
    for k, lattice in report["lattices"].items():
        assert [c["index"] for c in lattice["concepts"]] == list(range(sizes[k]))
        for low, high in lattice["covers"]:
            assert 0 <= low < sizes[k] and 0 <= high < sizes[k]
    assert all(0 <= i < sizes["upper"] for i in report["maps"]["to_upper"])
    assert all(0 <= i < sizes["lower"] for i in report["maps"]["to_lower"])
    assert len(report["maps"]["to_upper"]) == sizes["base"]
    for cls in report["rough_classes"]:
        assert 0 <= cls["upper"] < sizes["upper"]
        assert 0 <= cls["lower"] < sizes["lower"]


def test_kernels_and_classes_partition_base(report):
    size = len(report["lattices"]["base"]["concepts"])
    for key in ("possibility", "necessity"):
        members = sorted(i for fiber in report["kernels"][key] for i in fiber)
        assert members == list(range(size))
    members = sorted(i for cls in report["rough_classes"] for i in cls["members"])
    assert members == list(range(size))


def test_sets_are_name_arrays_in_input_order(report, living):
    assert report["definable_attributes"] == ["nw", "lw", "nc", "mo", "sk"]
    for concept in report["lattices"]["base"]["concepts"]:
        indices = [living.attributes.index(name) for name in concept["intent"]]
        assert indices == sorted(indices)
        indices = [living.objects.index(name) for name in concept["extent"]]
        assert indices == sorted(indices)


def test_rule_entries(report):
    first, second = report["rules"]
    assert first["measure"] == {"numerator": 2, "denominator": 3, "value": "2/3"}
    assert first["holds"] is False and first["possible"] is True and first["certain"] is True
    assert second["measure"] is None  # empty premise extent: undefined, not 1


def test_report_is_deterministic_and_json_serializable(living, living_space):
    one = build_report(living_space, living)
    two = build_report(living_space, living)
    assert json.dumps(one) == json.dumps(two)


# Stems the JSON escaper rewrites: a quote, a backslash, control characters,
# non-ASCII text and an astral character.
AWKWARD = ('say "hi"', "back\\slash", "tab\there\x01", "naïve", "clef \U0001d11e")


def _json_document(ctx: FormalContext, blocks) -> tuple:
    """``ctx`` and its partition read back from a JSON document, under awkward names."""
    objects = [f"{AWKWARD[g % len(AWKWARD)]} g{g}" for g in range(len(ctx.objects))]
    attributes = [f"{AWKWARD[m % len(AWKWARD)]} m{m}" for m in range(len(ctx.attributes))]
    doc = {
        "objects": objects,
        "attributes": attributes,
        "incidence": [[objects[g], attributes[m]] for g, m in ctx.pairs()],
        "partition": [[objects[g] for g in sorted(block)] for block in blocks],
    }
    parsed = parse_context(json.dumps(doc), "json")
    assert parsed.context.objects == tuple(objects)  # names are kept as written
    return parsed.partition, parsed.context


@settings(max_examples=60, deadline=None)
@given(spaced_contexts(), st.data())
def test_report_text_is_the_dumped_report(drawn, data):
    ctx, space = drawn
    space, ctx = _json_document(ctx, space.blocks)
    attrs = st.frozensets(st.integers(0, len(ctx.attributes) - 1)) if ctx.attributes else st.just(frozenset())
    rules = data.draw(st.lists(st.builds(Implication, attrs, attrs), max_size=3))
    assert "".join(report_chunks(space, ctx, rules)) == json.dumps(build_report(space, ctx, rules), indent=2)


class _Recorder(io.StringIO):
    """A text stream that keeps each write apart."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def test_report_text_of_lattices_larger_than_a_chunk(tmp_path, monkeypatch):
    # The contranominal scale on 9 objects has 2**9 concepts; one block of two
    # objects makes the approximation lattices differ from it.
    n = 9
    names = [f"g{g}" for g in range(n)]
    doc = {
        "objects": names,
        "attributes": [f"m{m}" for m in range(n)],
        "incidence": [[f"g{g}", f"m{m}"] for g in range(n) for m in range(n) if g != m],
        "partition": [names[:2], *([g] for g in names[2:])],
    }
    path = tmp_path / "nominal.json"
    path.write_text(json.dumps(doc))
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert run_cli(["report", "--context", str(path), "--rule", "=>m0,m1"]) == 0
    parsed = parse_context(path.read_bytes(), "json")
    rules = [Implication(frozenset(), frozenset({0, 1}))]
    report = build_report(parsed.partition, parsed.context, rules)
    assert len(report["lattices"]["base"]["concepts"]) == 2**n
    assert recorder.getvalue() == json.dumps(report, indent=2) + "\n"
    listed = [text.count('"index": ') for text in recorder.writes]
    assert max(listed) == _CHUNK and sum(listed) > 2 * _CHUNK
