"""Derivation operators, set approximation, and definability."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from roughconcepts import (
    ApproximationSpace,
    DuplicateNameError,
    FormalContext,
    InvalidSetError,
    PartitionError,
    UniverseMismatchError,
    UnknownNameError,
    certainly_has,
    definable_attributes,
    derive_extent,
    derive_intent,
    is_definable_set,
    lower_approx_set,
    parse_context,
    possibly_has,
    upper_approx_set,
)
from roughconcepts.context import _bits

from conftest import aset, contexts, oset, random_context, random_space, spaced_contexts


# ── strategies ──────────────────────────────────────────────────────


def object_subsets(ctx):
    n = len(ctx.objects)
    return st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())


# ── derivations ─────────────────────────────────────────────────────


def test_derive_intent_examples(living):
    assert derive_intent(living, oset(living, "Fr Dg")) == aset(living, "nw mo lb ll")
    assert derive_intent(living, frozenset()) == frozenset(range(9))
    assert derive_intent(living, oset(living, "Le")) == aset(living, "nw lw mo")


def test_derive_extent_examples(living):
    assert derive_extent(living, aset(living, "lb")) == oset(living, "Br Fr Dg")
    assert derive_extent(living, frozenset()) == frozenset(range(8))
    assert derive_extent(living, aset(living, "nw mo lb ll")) == oset(living, "Fr Dg")


def test_derivation_rejects_out_of_range(living):
    with pytest.raises(InvalidSetError):
        derive_intent(living, frozenset({99}))
    with pytest.raises(InvalidSetError):
        derive_extent(living, frozenset({-1}))


def test_row_and_column_views_agree(living):
    for g in range(len(living.objects)):
        for m in range(len(living.attributes)):
            assert (m in living.rows[g]) == (g in living.columns[m])
            assert living.has(g, m) == (m in living.rows[g])


@pytest.mark.parametrize("index", [1.0, 0.5, None, True, False, -1, 9])
def test_scalar_index_must_be_an_int_in_range(living, living_space, index):
    lookups = (
        lambda: living.has(index, 0),
        lambda: living.has(0, index),
        lambda: living.object_names({index}),
        lambda: derive_extent(living, {index}),
        lambda: living_space.block_index_of(index),
        lambda: living_space.block_of(index),
        lambda: possibly_has(living_space, living, index, frozenset()),
        lambda: certainly_has(living_space, living, index, frozenset()),
    )
    fault = "out of range" if type(index) is int else "is not an int"
    for lookup in lookups:
        with pytest.raises(InvalidSetError, match=fault):
            lookup()


def test_names_round_trip_index_sets_in_input_order(living):
    assert living.object_names(living.object_set("Dg", "Le", "Fr")) == ("Le", "Fr", "Dg")
    assert living.object_names(living.object_set(*reversed(living.objects))) == living.objects
    assert living.attribute_names(living.attribute_set("sk", "nw", "lb")) == ("nw", "lb", "sk")
    assert living.attribute_names(living.attribute_set(*living.attributes)) == living.attributes
    assert living.object_names(frozenset()) == () == living.attribute_names(frozenset())
    with pytest.raises(InvalidSetError):
        living.object_names({len(living.objects)})
    with pytest.raises(InvalidSetError):
        living.attribute_names({0, len(living.attributes)})


def test_list_rows_match_parsed_context_and_columns_view_the_masks():
    data = Path(__file__).parent / "data" / "living.cxt"
    ctx = parse_context(data.read_bytes(), "cxt").context
    rows = [sorted(row) for row in ctx.rows]
    assert FormalContext(ctx.objects, list(ctx.attributes), rows) == ctx
    for m in range(len(ctx.attributes)):
        assert ctx.columns[m] == frozenset(_bits(ctx._col_masks[m]))


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateNameError):
        FormalContext(("a", "a"), ("m",), (frozenset(), frozenset()))
    with pytest.raises(DuplicateNameError):
        FormalContext(("a",), ("m", "m"), (frozenset(),))


CONSTRUCTOR_ERRORS = [
    (
        lambda: FormalContext(("a", "b"), ("m",), (frozenset(),)),
        InvalidSetError,
        "expected 2 incidence rows, got 1",
    ),
    (
        lambda: FormalContext.from_pairs(("a",), ("m",), [("a", "z")]),
        UnknownNameError,
        "unknown attribute 'z'",
    ),
    (
        lambda: ApproximationSpace.from_names(("a", "b"), [["a"], ["c"]]),
        UnknownNameError,
        "unknown object 'c'",
    ),
    (
        lambda: FormalContext(("a", ""), (), (frozenset(), frozenset())),
        InvalidSetError,
        "object names must be nonempty strings, got ''",
    ),
    (
        lambda: FormalContext(("a",), ("m", 7), (frozenset(),)),
        InvalidSetError,
        "attribute names must be nonempty strings, got 7",
    ),
    # When several faults are present, the one the constructor meets first wins.
    (
        lambda: FormalContext(("a", "b"), ("m",), (frozenset({5}),)),
        InvalidSetError,
        "attribute index 5 out of range for universe of size 1",
    ),
    (
        lambda: FormalContext(("a",), ("m", "n"), (frozenset({True}),)),
        InvalidSetError,
        "attribute index True is not an int",
    ),
    (
        lambda: ApproximationSpace(
            tuple("abcd"), (frozenset({2, 3}), frozenset({0, 3}), frozenset({1, 2}))
        ),
        PartitionError,
        "object 'd' appears in more than one block",
    ),
    (
        lambda: ApproximationSpace(("a", "b"), (frozenset({0, 7}), frozenset())),
        InvalidSetError,
        "object index 7 out of range for universe of size 2",
    ),
]


@pytest.mark.parametrize("build, error, message", CONSTRUCTOR_ERRORS)
def test_constructor_error_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_empty_context_is_legal():
    ctx = FormalContext((), (), ())
    assert derive_intent(ctx, frozenset()) == frozenset()
    assert derive_extent(ctx, frozenset()) == frozenset()


@given(spaced_contexts())
def test_galois_connection(data):
    ctx, _ = data
    n_g, n_m = len(ctx.objects), len(ctx.attributes)
    intents = {a: derive_intent(ctx, _unrank(a, n_g)) for a in range(1 << n_g)}
    extents = {b: derive_extent(ctx, _unrank(b, n_m)) for b in range(1 << n_m)}
    for a in range(1 << n_g):
        objects = _unrank(a, n_g)
        for b in range(1 << n_m):
            attrs = _unrank(b, n_m)
            assert (objects <= extents[b]) == (attrs <= intents[a])


def _unrank(mask: int, width: int) -> frozenset[int]:
    return frozenset(i for i in range(width) if mask >> i & 1)


@given(contexts())
def test_derivations_antitone_and_closing(ctx):
    n_g, n_m = len(ctx.objects), len(ctx.attributes)
    full_g = frozenset(range(n_g))
    rng = random.Random(n_g * 31 + n_m)
    for _ in range(10):
        a1 = frozenset(g for g in range(n_g) if rng.random() < 0.5)
        a2 = a1 | frozenset(g for g in range(n_g) if rng.random() < 0.3)
        assert derive_intent(ctx, a2) <= derive_intent(ctx, a1)
        assert a1 <= derive_extent(ctx, derive_intent(ctx, a1))
        b1 = frozenset(m for m in range(n_m) if rng.random() < 0.5)
        assert b1 <= derive_intent(ctx, derive_extent(ctx, b1))
    assert derive_intent(ctx, frozenset()) == frozenset(range(n_m))
    assert derive_extent(ctx, frozenset()) == full_g


# ── set approximation ───────────────────────────────────────────────────


def test_upper_approx_examples(living, living_space):
    assert upper_approx_set(living_space, oset(living, "Fr")) == oset(living, "Le Br Fr")
    assert upper_approx_set(living_space, frozenset()) == frozenset()
    assert upper_approx_set(living_space, oset(living, "Dg Bn")) == oset(living, "Dg Bn Mz")


def test_lower_approx_examples(living, living_space):
    assert lower_approx_set(living_space, oset(living, "Fr Dg")) == oset(living, "Dg")
    full = frozenset(range(8))
    assert lower_approx_set(living_space, full) == full
    stable = oset(living, "Le Br Fr SW Rd")
    assert lower_approx_set(living_space, stable) == stable


def test_is_definable_examples(living, living_space):
    assert is_definable_set(living_space, derive_extent(living, aset(living, "mo")))
    assert not is_definable_set(living_space, derive_extent(living, aset(living, "lb")))
    assert is_definable_set(living_space, frozenset())


def test_definable_attributes_living(living, living_space):
    expected = aset(living, "nw lw nc mo sk")
    assert definable_attributes(living_space, living) == expected


def test_definable_attributes_identity_partition(living):
    space = ApproximationSpace.identity(living.objects)
    assert definable_attributes(space, living) == frozenset(range(9))


def test_definable_attributes_random_against_block_union_oracle():
    rng = random.Random(5150)
    for _ in range(25):
        ctx = random_context(rng, 5, 5)
        space = random_space(rng, ctx.objects)
        got = definable_attributes(space, ctx)
        # oracle: an extent is definable iff it is literally a union of blocks
        unions = set()
        for mask in range(1 << len(space.blocks)):
            u: frozenset[int] = frozenset()
            for b in range(len(space.blocks)):
                if mask >> b & 1:
                    u |= space.blocks[b]
            unions.add(u)
        expected = frozenset(m for m, col in enumerate(ctx.columns) if col in unions)
        assert got == expected


def test_definable_attributes_universe_mismatch(living, living_space):
    other = FormalContext(("x", "y"), ("m",), (frozenset(), frozenset({0})))
    with pytest.raises(UniverseMismatchError):
        definable_attributes(living_space, other)


def test_partition_invariants_enforced():
    objs = ("a", "b", "c")
    with pytest.raises(PartitionError):
        ApproximationSpace(objs, (frozenset({0, 1}),))  # c missing
    with pytest.raises(PartitionError):
        ApproximationSpace(objs, (frozenset({0, 1}), frozenset({1, 2})))  # overlap
    with pytest.raises(PartitionError):
        ApproximationSpace(objs, (frozenset(), frozenset({0, 1, 2})))  # empty block


def test_repeated_object_in_a_block_names_only_that_object():
    objects = [f"o{i}" for i in range(2000)]
    with pytest.raises(PartitionError) as info:
        ApproximationSpace.from_names(objects, [objects + ["o0"]])
    assert str(info.value) == "object 'o0' listed twice within a block"


def test_block_lookup_realizes_equivalence(living_space):
    for g in range(8):
        for h in range(8):
            same = living_space.block_index_of(g) == living_space.block_index_of(h)
            assert same == (living_space.block_of(g) == living_space.block_of(h))
            assert same == (h in living_space.block_of(g))


def test_space_normalizes_block_order():
    a = ApproximationSpace(("x", "y", "z"), (frozenset({2}), frozenset({0, 1})))
    b = ApproximationSpace(("x", "y", "z"), (frozenset({0, 1}), frozenset({2})))
    assert a == b


@given(spaced_contexts())
def test_approximation_sandwich_and_fixpoints(data):
    ctx, space = data
    n_g = len(ctx.objects)
    rng = random.Random(n_g)
    for _ in range(10):
        a = frozenset(g for g in range(n_g) if rng.random() < 0.5)
        lower = lower_approx_set(space, a)
        upper = upper_approx_set(space, a)
        assert lower <= a <= upper
        assert upper_approx_set(space, upper) == upper
        assert lower_approx_set(space, lower) == lower
        assert is_definable_set(space, upper) and is_definable_set(space, lower)
        assert is_definable_set(space, a) == (lower == a == upper)


@given(spaced_contexts())
def test_approximation_monotone(data):
    ctx, space = data
    n_g = len(ctx.objects)
    rng = random.Random(n_g + 1)
    for _ in range(10):
        a1 = frozenset(g for g in range(n_g) if rng.random() < 0.4)
        a2 = a1 | frozenset(g for g in range(n_g) if rng.random() < 0.4)
        assert upper_approx_set(space, a1) <= upper_approx_set(space, a2)
        assert lower_approx_set(space, a1) <= lower_approx_set(space, a2)


@given(spaced_contexts(max_objects=5))
def test_least_superset_greatest_subset(data):
    """Check against every definable set, enumerated as unions of blocks."""
    ctx, space = data
    n_g = len(ctx.objects)
    definable_sets = []
    for mask in range(1 << len(space.blocks)):
        u: frozenset[int] = frozenset()
        for b in range(len(space.blocks)):
            if mask >> b & 1:
                u |= space.blocks[b]
        definable_sets.append(u)
    rng = random.Random(n_g + 2)
    for _ in range(5):
        a = frozenset(g for g in range(n_g) if rng.random() < 0.5)
        upper = upper_approx_set(space, a)
        lower = lower_approx_set(space, a)
        for d in definable_sets:
            if a <= d:
                assert upper <= d
            if d <= a:
                assert d <= lower
