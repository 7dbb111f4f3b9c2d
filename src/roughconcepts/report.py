"""Assembly of the machine-readable analysis report.

:func:`build_report` gives the report as plain data, and
:func:`report_chunks` gives ``json.dumps`` of that data with ``indent=2``
as pieces of text, writing the lattice listings straight from the
concept masks.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

from .concepts import (
    ConceptApproximationMaps,
    _rough_class_members,
    approximation_maps,
    indiscernibility_kernels,
)
from .context import ApproximationSpace, FormalContext, _names, definable_attributes
from .errors import UndefinedMeasureError
from .formats import _blocks_data, _context_data
from .lattice import DEFAULT_MAX_CONCEPTS, ConceptLattice, _named_concepts
from .rules import Implication, certain_rule, implication_holds, possible_rule, rough_measure


def _lattice_dict(lat: ConceptLattice) -> dict:
    concepts = [
        {"index": k, "extent": extent, "intent": intent}
        for k, (extent, intent) in enumerate(_named_concepts(lat))
    ]
    return {"concepts": concepts, "covers": [[low, high] for low, high in lat.covers]}


# A lattice listing sits at one depth of the report: a concept's object opens
# 8 spaces in, its keys are 10 in and its member names 12.
def _name_item(name: str) -> str:
    return "\n            " + encode_basestring_ascii(name)


def _name_list(items: list[str]) -> str:
    return f"[{','.join(items)}\n          ]" if items else "[]"


def _lattice_chunks(lat: ConceptLattice) -> Iterator[str]:
    """The report text of ``_lattice_dict(lat)``, one concept or cover a piece."""
    yield '{\n      "concepts": ['
    for k, (extent, intent) in enumerate(_named_concepts(lat, _name_item)):
        yield (
            f'{"," if k else ""}\n        {{\n          "index": {k},'
            f'\n          "extent": {_name_list(extent)},'
            f'\n          "intent": {_name_list(intent)}\n        }}'
        )
    yield '\n      ],\n      "covers": ' + ("[" if lat.covers else "[]")
    for k, (low, high) in enumerate(lat.covers):
        yield f'{"," if k else ""}\n        [\n          {low},\n          {high}\n        ]'
    yield "\n      ]\n    }" if lat.covers else "\n    }"


def _rule_dict(
    space: ApproximationSpace, ctx: FormalContext, implication: Implication
) -> dict:
    try:
        measure = rough_measure(ctx, implication)
        measure_dict = {
            "numerator": measure.numerator,
            "denominator": measure.denominator,
            "value": str(measure.value),
        }
    except UndefinedMeasureError:
        measure_dict = None
    return {
        "premise": list(_names(ctx.attributes, implication.premise)),
        "conclusion": list(_names(ctx.attributes, implication.conclusion)),
        "holds": implication_holds(ctx, implication),
        "certain": certain_rule(space, ctx, implication),
        "possible": possible_rule(space, ctx, implication),
        "measure": measure_dict,
    }


def _maps_data(maps: ConceptApproximationMaps) -> dict:
    return {"to_upper": list(maps.to_upper), "to_lower": list(maps.to_lower)}


def _kernels_data(maps: ConceptApproximationMaps) -> dict:
    possibility, necessity = indiscernibility_kernels(maps)
    return {
        "possibility": [list(fiber) for fiber in possibility],
        "necessity": [list(fiber) for fiber in necessity],
    }


def _rough_classes_data(maps: ConceptApproximationMaps) -> list[dict]:
    return [
        {"members": list(c), "upper": maps.to_upper[c[0]], "lower": maps.to_lower[c[0]]}
        for c in _rough_class_members(maps)
    ]


def _sections(
    space: ApproximationSpace,
    ctx: FormalContext,
    rules: Sequence[Implication],
    maps: ConceptApproximationMaps,
) -> tuple[dict, dict]:
    """The report's fields before ``lattices`` and after it."""
    head = {
        "context": _context_data(ctx),
        "space": {"blocks": _blocks_data(space)},
        "definable_attributes": list(_names(ctx.attributes, definable_attributes(space, ctx))),
        "approximations": {
            "upper": _context_data(maps.upper.context),
            "lower": _context_data(maps.lower.context),
        },
    }
    tail = {
        "maps": _maps_data(maps),
        "kernels": _kernels_data(maps),
        "rough_classes": _rough_classes_data(maps),
        "rules": [_rule_dict(space, ctx, implication) for implication in rules],
    }
    return head, tail


def _lattices(maps: ConceptApproximationMaps) -> tuple[tuple[str, ConceptLattice], ...]:
    return ("base", maps.base), ("upper", maps.upper), ("lower", maps.lower)


def build_report(
    space: ApproximationSpace,
    ctx: FormalContext,
    rules: Sequence[Implication] = (),
    max_concepts: int = DEFAULT_MAX_CONCEPTS,
) -> dict:
    """Full analysis of a context under an approximation space, as plain data.

    The report is self-contained: sets appear as name arrays ordered by
    the input order, concepts are listed with their canonical index, and
    every index elsewhere in the report resolves into those listings.
    """
    maps = approximation_maps(space, ctx, max_concepts)
    head, tail = _sections(space, ctx, rules, maps)
    lattices = {name: _lattice_dict(lat) for name, lat in _lattices(maps)}
    return {**head, "lattices": lattices, **tail}


def report_chunks(
    space: ApproximationSpace,
    ctx: FormalContext,
    rules: Sequence[Implication] = (),
    max_concepts: int = DEFAULT_MAX_CONCEPTS,
) -> Iterator[str]:
    """``json.dumps(build_report(...), indent=2)``, as pieces of text to write in turn.

    Everything that can fail runs before this returns: the lattices under
    the cap, the rules and the small sections, which ``json.dumps`` renders.
    The lattice listings, nearly all of a large report, are then rendered
    from the concept masks one concept or cover a piece, with each name
    escaped once per lattice by the escaper ``json.dumps`` uses, so the
    text of a listing is never held whole.
    """
    maps = approximation_maps(space, ctx, max_concepts)
    # Each part is "{\n  ...\n}" at the report's own depth; the lattices go between them.
    head, tail = (json.dumps(part, indent=2) for part in _sections(space, ctx, rules, maps))
    return _report_text(head, maps, tail)


def _report_text(head: str, maps: ConceptApproximationMaps, tail: str) -> Iterator[str]:
    yield head[:-2] + ',\n  "lattices": {'
    comma = ""
    for name, lat in _lattices(maps):
        yield f'{comma}\n    "{name}": '
        yield from _lattice_chunks(lat)
        comma = ","
    yield "\n  }," + tail[1:]
