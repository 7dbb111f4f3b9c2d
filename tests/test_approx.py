"""Context approximation: matrices, extents, orders, and rough equality."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughconcepts import (
    ApproximationSpace,
    FormalContext,
    ShapeMismatchError,
    UniverseMismatchError,
    certainly_has,
    context_order,
    contexts_roughly_equal,
    definable_attributes,
    derive_extent,
    extent_lower,
    extent_upper_free,
    extent_upper_strict,
    lower_context,
    possibly_has,
    rough_context,
    upper_context,
)

from conftest import aset, oset, random_space, spaced_contexts, spaced_contexts_of_shape


# ── approximation contexts ─────────────────────────────────────────────


def test_upper_context_matches_expected_matrix(living, living_space, living_upper):
    computed = upper_context(living_space, living)
    assert computed == living_upper
    # cell-for-cell, all 72 cells
    for g in range(8):
        for m in range(9):
            assert computed.has(g, m) == living_upper.has(g, m)


def test_lower_context_matches_expected_matrix(living, living_space, living_lower):
    computed = lower_context(living_space, living)
    assert computed == living_lower
    for g in range(8):
        for m in range(9):
            assert computed.has(g, m) == living_lower.has(g, m)


def test_upper_row_examples(living, living_space):
    upper = upper_context(living_space, living)
    assert upper.rows[living.object_index("Le")] == aset(living, "nw lw ll mo lb")
    assert upper.rows[living.object_index("Bn")] == aset(living, "nw ll nc 2lg 1lg")


def test_lower_row_examples(living, living_space):
    lower = lower_context(living_space, living)
    assert lower.rows[living.object_index("Br")] == aset(living, "nw lw mo")
    assert lower.rows[living.object_index("Bn")] == aset(living, "nw ll nc")


def test_identity_partition_fixes_context(living):
    space = ApproximationSpace.identity(living.objects)
    assert upper_context(space, living) == living
    assert lower_context(space, living) == living


def test_universe_mismatch(living_space):
    other = FormalContext(("x",), ("m",), (frozenset(),))
    with pytest.raises(UniverseMismatchError):
        upper_context(living_space, other)


@given(spaced_contexts())
def test_sandwich_and_idempotency(data):
    ctx, space = data
    upper = upper_context(space, ctx)
    lower = lower_context(space, ctx)
    for g, row in enumerate(ctx.rows):
        assert lower.rows[g] <= row <= upper.rows[g]
    assert upper_context(space, upper) == upper
    assert lower_context(space, lower) == lower
    assert upper_context(space, lower) == lower
    assert lower_context(space, upper) == upper


@given(spaced_contexts())
def test_context_approximation_monotone(data):
    ctx, space = data
    rng = random.Random(len(ctx.objects) * 7 + len(ctx.attributes))
    smaller_rows = tuple(
        frozenset(m for m in row if rng.random() < 0.6) for row in ctx.rows
    )
    smaller = FormalContext(ctx.objects, ctx.attributes, smaller_rows)
    for a, b in zip(upper_context(space, smaller).rows, upper_context(space, ctx).rows):
        assert a <= b
    for a, b in zip(lower_context(space, smaller).rows, lower_context(space, ctx).rows):
        assert a <= b


# ── attribute-set extents ────────────────────────────────────────────────


def test_extent_upper_free_examples(living, living_space):
    assert extent_upper_free(living_space, living, aset(living, "2lg 1lg")) == oset(living, "Bn Mz")
    assert extent_upper_free(living_space, living, frozenset()) == frozenset(range(8))
    assert extent_upper_free(living_space, living, aset(living, "lb")) == oset(living, "Le Br Fr Dg")


def test_extent_upper_strict_examples(living, living_space):
    assert extent_upper_strict(living_space, living, aset(living, "2lg 1lg")) == frozenset()
    assert extent_upper_strict(living_space, living, frozenset()) == frozenset(range(8))
    assert extent_upper_strict(living_space, living, aset(living, "lb")) == oset(living, "Le Br Fr Dg")


def test_extent_lower_examples(living, living_space):
    assert extent_lower(living_space, living, aset(living, "lb")) == oset(living, "Dg")
    assert extent_lower(living_space, living, frozenset()) == frozenset(range(8))
    assert extent_lower(living_space, living, aset(living, "nc 1lg")) == oset(living, "SW Rd")


@given(spaced_contexts())
def test_extent_variants_against_approximated_contexts(data):
    """Free/lower extents equal plain extents in the approximation contexts;
    the strict variant is always contained in the free one."""
    ctx, space = data
    upper = upper_context(space, ctx)
    lower = lower_context(space, ctx)
    n_m = len(ctx.attributes)
    rng = random.Random(n_m * 13 + len(ctx.objects))
    subsets = [frozenset(m for m in range(n_m) if rng.random() < 0.5) for _ in range(8)]
    subsets += [frozenset(), frozenset(range(n_m))]
    for attrs in subsets:
        free = extent_upper_free(space, ctx, attrs)
        strict = extent_upper_strict(space, ctx, attrs)
        assert free == derive_extent(upper, attrs)
        assert strict <= free
        if len(attrs) == 1:
            assert strict == free
        low = extent_lower(space, ctx, attrs)
        assert low == derive_extent(lower, attrs)
        # the equality chain: lowering the combined extent gives the same set
        from roughconcepts import lower_approx_set

        assert low == lower_approx_set(space, derive_extent(ctx, attrs))


def test_possibly_certainly_has(living, living_space):
    assert possibly_has(living_space, living, "Le", aset(living, "lb"))
    assert possibly_has(living_space, living, "Mz", aset(living, "2lg"))
    assert possibly_has(living_space, living, "Le", frozenset())
    assert not certainly_has(living_space, living, "Br", aset(living, "lb"))
    assert certainly_has(living_space, living, "Dg", aset(living, "sk"))
    assert certainly_has(living_space, living, "SW", frozenset())


# ── orders and rough equality ─────────────────────────────────────────────


def test_order_reflexive(living, living_space):
    for mode in ("upper", "lower", "rough"):
        assert context_order(living_space, living, living, mode)


def test_lower_context_below_in_rough_order(living, living_space):
    lower = lower_context(living_space, living)
    assert context_order(living_space, lower, living, "rough")


def test_upper_context_order_asymmetry(living, living_space):
    upper = upper_context(living_space, living)
    assert context_order(living_space, living, upper, "upper")
    assert not context_order(living_space, upper, living, "lower")


def test_order_shape_mismatch(living, living_space):
    other = FormalContext(living.objects, ("only",), tuple(frozenset() for _ in range(8)))
    with pytest.raises(ShapeMismatchError):
        context_order(living_space, living, other, "upper")
    with pytest.raises(ValueError):
        context_order(living_space, living, living, "sideways")


@given(spaced_contexts(max_objects=5, max_attributes=4))
def test_rough_order_is_conjunction(data):
    ctx, space = data
    rng = random.Random(len(ctx.objects) * 41 + len(ctx.attributes))
    other_rows = tuple(
        frozenset(m for m in range(len(ctx.attributes)) if rng.random() < 0.5)
        for _ in ctx.objects
    )
    other = FormalContext(ctx.objects, ctx.attributes, other_rows)
    both = context_order(space, ctx, other, "upper") and context_order(space, ctx, other, "lower")
    assert context_order(space, ctx, other, "rough") == both
    equal = context_order(space, ctx, other, "rough") and context_order(space, other, ctx, "rough")
    assert contexts_roughly_equal(space, ctx, other) == equal


def test_roughly_equal_examples(living, living_space):
    assert contexts_roughly_equal(living_space, living, living)
    assert not contexts_roughly_equal(living_space, living, upper_context(living_space, living))


def test_roughly_equal_distinct_context(living, living_space):
    """Swapping the rows of two indiscernible objects changes the context
    but not its approximations."""
    br, fr = living.object_index("Br"), living.object_index("Fr")
    rows = list(living.rows)
    rows[br], rows[fr] = rows[fr], rows[br]
    swapped = FormalContext(living.objects, living.attributes, tuple(rows))
    assert swapped != living
    assert contexts_roughly_equal(living_space, living, swapped)
    assert rough_context(living_space, living) == rough_context(living_space, swapped)


# ── rough formal contexts ────────────────────────────────────────────────


def test_rough_context_parts(living, living_space, living_upper, living_lower):
    rough = rough_context(living_space, living)
    assert rough.upper == living_upper
    assert rough.lower == living_lower
    assert rough.representative == living


def test_rough_context_definable_fixpoint(living, living_space):
    definable = upper_context(living_space, living)
    rough = rough_context(living_space, definable)
    assert rough.upper == definable and rough.lower == definable


def test_rough_context_equality_matches_rough_equality():
    rng = random.Random(2024)
    objects = tuple(f"g{i}" for i in range(5))
    attributes = tuple(f"m{j}" for j in range(4))
    space = random_space(rng, objects)
    for _ in range(40):
        rows_a = tuple(frozenset(m for m in range(4) if rng.random() < 0.5) for _ in objects)
        rows_b = tuple(frozenset(m for m in range(4) if rng.random() < 0.5) for _ in objects)
        a = FormalContext(objects, attributes, rows_a)
        b = FormalContext(objects, attributes, rows_b)
        assert (rough_context(space, a) == rough_context(space, b)) == contexts_roughly_equal(
            space, a, b
        )


def test_rough_context_rejects_bad_sandwich(living, living_space, living_upper):
    from roughconcepts import RoughFormalContext

    with pytest.raises(ValueError):
        RoughFormalContext(living_space, living_upper, living, living)


# ── block-row kernel against the set definitions ──────────────────────────


def oracle_columns(space, ctx):
    """Each attribute extent with its upper and lower approximation, from the set definitions."""
    out = []
    for m in range(len(ctx.attributes)):
        extent = {g for g, row in enumerate(ctx.rows) if m in row}
        upper = {g for block in space.blocks if block & extent for g in block}
        lower = {g for block in space.blocks if block <= extent for g in block}
        out.append((extent, upper, lower))
    return out


def oracle_context(ctx, columns, which):
    """The context whose columns are entry ``which`` of the oracle columns."""
    rows = tuple(
        frozenset(m for m, column in enumerate(columns) if g in column[which])
        for g in range(len(ctx.objects))
    )
    return FormalContext(ctx.objects, ctx.attributes, rows)


def assert_context_kernel_matches_oracle(space, ctx):
    columns = oracle_columns(space, ctx)
    assert upper_context(space, ctx) == oracle_context(ctx, columns, 1)
    assert lower_context(space, ctx) == oracle_context(ctx, columns, 2)
    definable = frozenset(m for m, column in enumerate(columns) if column[1] == column[0])
    assert definable_attributes(space, ctx) == definable


def assert_orders_match_oracle(space, first, second):
    pairs = list(zip(oracle_columns(space, first), oracle_columns(space, second)))
    upper = all(a[1] <= b[1] for a, b in pairs)
    lower = all(a[2] <= b[2] for a, b in pairs)
    assert context_order(space, first, second, "upper") == upper
    assert context_order(space, first, second, "lower") == lower
    assert context_order(space, first, second, "rough") == (upper and lower)
    assert contexts_roughly_equal(space, first, second) == all(a[1:] == b[1:] for a, b in pairs)


def test_context_approximation_matches_sets_on_every_context_up_to_3x3():
    n_pairs = 0
    for shape in itertools.product(range(4), repeat=2):
        contexts, spaces = spaced_contexts_of_shape(*shape)
        for ctx, space in itertools.product(contexts, spaces):
            assert_context_kernel_matches_oracle(space, ctx)
            n_pairs += 1
    # 689 contexts, with the 1, 1, 2 or 5 partitions of their 0-3 objects
    assert n_pairs == 4 + 15 + 85 * 2 + 585 * 5


def test_context_orders_match_sets_on_every_pair_up_to_2x2():
    n_triples = 0
    for shape in itertools.product(range(3), repeat=2):
        contexts, spaces = spaced_contexts_of_shape(*shape)
        for first, second, space in itertools.product(contexts, contexts, spaces):
            assert_orders_match_oracle(space, first, second)
            n_triples += 1
    # every context paired with each of its shape, under the 1, 1 or 2 partitions of 0-2 objects
    assert n_triples == 3 + (1 + 4 + 16) + (1 + 16 + 256) * 2


@given(st.data())
def test_context_kernel_matches_sets_on_random_pairs(data):
    n_objects, n_attributes = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 6))
    objects = tuple(f"g{g}" for g in range(n_objects))
    attributes = tuple(f"m{m}" for m in range(n_attributes))
    labels = data.draw(st.lists(st.integers(0, 11), min_size=n_objects, max_size=n_objects))
    blocks: dict[int, set[int]] = {}
    for g, label in enumerate(labels):
        blocks.setdefault(label, set()).add(g)
    space = ApproximationSpace(objects, tuple(map(frozenset, blocks.values())))
    masks = st.lists(st.integers(0, (1 << n_attributes) - 1),
                     min_size=n_objects, max_size=n_objects)
    first, second = (
        FormalContext(objects, attributes,
                      [frozenset(m for m in range(n_attributes) if row >> m & 1) for row in rows])
        for rows in (data.draw(masks), data.draw(masks))
    )
    assert_context_kernel_matches_oracle(space, first)
    assert_context_kernel_matches_oracle(space, second)
    assert_orders_match_oracle(space, first, second)
    assert_orders_match_oracle(space, second, first)
