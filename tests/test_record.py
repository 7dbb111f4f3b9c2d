"""The immutable value classes: construction, validation, equality, hash and repr."""

from __future__ import annotations

import pytest

from roughconcepts import (
    ApproximationSpace,
    ContextDocument,
    FormalConcept,
    FormalContext,
    Implication,
    RoughMeasure,
    UndefinedMeasureError,
    approximation_maps,
    enumerate_concepts,
    rough_context,
)


def test_positional_keyword_and_default_construction():
    concept = FormalConcept(frozenset({0}), frozenset({1}), 2)
    assert concept == FormalConcept(index=2, intent=frozenset({1}), extent=frozenset({0}))
    assert concept.context is None
    doc = ContextDocument("cxt", FormalContext(("g",), ("m",), (frozenset({0}),)))
    assert doc.partition is None


def test_post_init_validates_and_normalises(living, living_space):
    assert Implication([1], {2}).premise == frozenset({1})
    assert isinstance(Implication([1], {2}).conclusion, frozenset)
    with pytest.raises(UndefinedMeasureError):
        RoughMeasure(0, 0)
    with pytest.raises(ValueError):
        RoughMeasure(4, 3)
    with pytest.raises(ValueError):
        ContextDocument("cxt", living, living_space)
    assert FormalContext(["g"], ["m"], [[0]]).rows == (frozenset({0}),)


def test_fields_cannot_be_assigned_or_deleted(living, living_space):
    maps = approximation_maps(living_space, living)
    for record, field in ((living, "rows"), (maps, "base"), (maps.base.top, "index")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_equality_hash_and_repr_cover_the_fields(living):
    first = enumerate_concepts(living).top
    bare = FormalConcept(first.extent, first.intent, first.index)
    # The lattice's context takes no part in equality, the hash or the repr.
    assert bare == first and hash(bare) == hash(first)
    assert repr(first) == (
        "FormalConcept(extent=frozenset({0, 1, 2, 3, 4, 5, 6, 7}), intent=frozenset({0}), index=0)"
    )
    assert FormalConcept(first.extent, first.intent, 1) != first
    assert RoughMeasure(1, 3) != (1, 3)
    assert repr(RoughMeasure(1, 3)) == "RoughMeasure(numerator=1, denominator=3)"
    assert hash(RoughMeasure(1, 3)) == hash(RoughMeasure(numerator=1, denominator=3))
    copy = FormalContext(living.objects, living.attributes, living.rows)
    assert copy == living and hash(copy) == hash(living) and repr(copy) == repr(living)


def test_maps_compare_by_identity(living, living_space):
    maps = approximation_maps(living_space, living)
    assert maps == maps and maps != approximation_maps(living_space, living)
    assert hash(maps) == object.__hash__(maps)


def test_rough_context_compares_its_approximations(living, living_space):
    # Le and Br share a block, so swapping their rows keeps both approximations.
    rows = living.rows
    swapped = FormalContext(living.objects, living.attributes, (rows[1], rows[0]) + rows[2:])
    first, second = rough_context(living_space, living), rough_context(living_space, swapped)
    assert first.representative != second.representative
    assert first == second and hash(first) == hash(second)


def test_cached_properties_still_cache(living):
    ctx = FormalContext(living.objects, living.attributes, living.rows)
    assert "columns" not in vars(ctx)
    assert ctx.columns is ctx.columns and "columns" in vars(ctx)
    space = ApproximationSpace.identity(ctx.objects)
    assert space.block_of(3) == frozenset({3}) and "_block_index" in vars(space)
