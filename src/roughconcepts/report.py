"""Assembly of the machine-readable analysis report."""

from __future__ import annotations

from typing import Sequence

from .concepts import (
    ConceptApproximationMaps,
    approximation_maps,
    indiscernibility_kernels,
    rough_concept_classes,
)
from .context import ApproximationSpace, FormalContext, _names, definable_attributes
from .errors import UndefinedMeasureError
from .formats import _blocks_data, _context_data
from .lattice import DEFAULT_MAX_CONCEPTS, ConceptLattice
from .rules import Implication, certain_rule, implication_holds, possible_rule, rough_measure


def _lattice_dict(lat: ConceptLattice) -> dict:
    concepts = []
    for k in range(len(lat)):
        extent, intent = lat._named(k)
        concepts.append({"index": k, "extent": list(extent), "intent": list(intent)})
    return {"concepts": concepts, "covers": [[low, high] for low, high in lat.covers]}


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
        {"members": list(c.members), "upper": c.upper_image.index, "lower": c.lower_image.index}
        for c in rough_concept_classes(maps)
    ]


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
    maps: ConceptApproximationMaps = approximation_maps(space, ctx, max_concepts)
    return {
        "context": _context_data(ctx),
        "space": {"blocks": _blocks_data(space)},
        "definable_attributes": list(_names(ctx.attributes, definable_attributes(space, ctx))),
        "approximations": {
            "upper": _context_data(maps.upper.context),
            "lower": _context_data(maps.lower.context),
        },
        "lattices": {
            "base": _lattice_dict(maps.base),
            "upper": _lattice_dict(maps.upper),
            "lower": _lattice_dict(maps.lower),
        },
        "maps": _maps_data(maps),
        "kernels": _kernels_data(maps),
        "rough_classes": _rough_classes_data(maps),
        "rules": [_rule_dict(space, ctx, implication) for implication in rules],
    }
