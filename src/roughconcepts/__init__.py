"""Concept lattices of formal contexts with indiscernibility-based approximation.

The package computes formal concept lattices, approximates whole
contexts and individual concepts relative to a partition of the objects
into indiscernibility blocks, quotients by rough equality, and measures
attribute implications exactly.

Public names are imported from their submodule on first use (PEP 562),
so ``import roughconcepts`` and a CLI command load only the modules
they use.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "approx": """
        RoughFormalContext certainly_has context_order contexts_roughly_equal
        extent_lower extent_upper_free extent_upper_strict lower_context
        possibly_has rough_context upper_context
    """,
    "concepts": """
        ConceptApproximationMaps RoughConceptClass approximation_maps
        concept_lower_approx concept_order concept_upper_approx
        indiscernibility_kernels lower_join rough_concept_classes upper_meet
    """,
    "context": """
        ApproximationSpace AttributeSet FormalContext ObjectSet
        definable_attributes derive_extent derive_intent is_definable_set
        lower_approx_set upper_approx_set
    """,
    "errors": """
        ConceptLimitError DuplicateNameError InvalidSetError
        LatticeMismatchError ParseError PartitionError RoughConceptsError
        ShapeMismatchError UndefinedMeasureError UniverseMismatchError
        UnknownNameError
    """,
    "formats": """
        ContextDocument export_dot guess_format parse_context parse_partition
        render_context
    """,
    "lattice": """
        ConceptLattice FormalConcept concept_leq enumerate_concepts
        lattice_join lattice_meet
    """,
    "report": "build_report",
    "rules": """
        Implication RoughMeasure certain_rule implication_holds possible_rule
        rough_measure
    """,
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _PUBLIC:  # submodules resolve too, imported on first access
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
