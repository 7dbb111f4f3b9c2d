"""Closure shortcuts against the definitions they replace.

Meets, joins, the adjoint maps, modal rules and the context orders are
computed as closures of masks inside the package.  Here each one is
compared, on generated contexts and partitions, with its definition
written out through public frozenset calls: the meet or join of the
base concepts above or below, an implication checked in a built
approximation context, and incidence containment or equality of built
approximation contexts.  The set approximations and the approximated
extents, which the package builds from block masks, are compared with
unions of the blocks that meet or fit inside a set.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from roughconcepts import (
    FormalContext,
    Implication,
    approximation_maps,
    certain_rule,
    context_order,
    contexts_roughly_equal,
    derive_extent,
    derive_intent,
    extent_lower,
    extent_upper_free,
    extent_upper_strict,
    implication_holds,
    lattice_join,
    lattice_meet,
    lower_approx_set,
    lower_context,
    lower_join,
    possible_rule,
    upper_approx_set,
    upper_context,
    upper_meet,
)

from conftest import spaced_contexts


def meet_by_definition(lat, concepts):
    if not concepts:
        return lat.top
    shared = frozenset.intersection(*(c.extent for c in concepts))
    ctx = lat.context
    return lat.concept_with_extent(derive_extent(ctx, derive_intent(ctx, shared)))


def join_by_definition(lat, concepts):
    if not concepts:
        return lat.bottom
    shared = frozenset.intersection(*(c.intent for c in concepts))
    return lat.concept_with_extent(derive_extent(lat.context, shared))


def order_by_definition(space, first, second, mode):
    def contained(a, b):
        return all(x <= y for x, y in zip(a.rows, b.rows))

    upper = contained(upper_context(space, first), upper_context(space, second))
    lower = contained(lower_context(space, first), lower_context(space, second))
    return {"upper": upper, "lower": lower, "rough": upper and lower}[mode]


def blocks_meeting(space, objects):
    return frozenset().union(*(b for b in space.blocks if b & objects))


def blocks_inside(space, objects):
    return frozenset().union(*(b for b in space.blocks if b <= objects))


def attribute_sets(ctx):
    n = len(ctx.attributes)
    return st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())


@given(spaced_contexts(max_objects=6, max_attributes=5), st.data())
def test_closures_match_definitions(case, data):
    ctx, space = case
    maps = approximation_maps(space, ctx)
    base = maps.base

    for d in maps.lower:
        above = [c for c in base if c.extent >= d.extent]
        assert upper_meet(maps, d) == meet_by_definition(base, above)
    for u in maps.upper:
        below = [c for c in base if c.extent <= u.extent]
        assert lower_join(maps, u) == join_by_definition(base, below)
    for _ in range(4):
        members = data.draw(st.lists(st.sampled_from(base.concepts), max_size=3))
        assert lattice_meet(base, members) == meet_by_definition(base, members)
        assert lattice_join(base, members) == join_by_definition(base, members)

    lower, upper = lower_context(space, ctx), upper_context(space, ctx)
    for _ in range(4):
        rule = Implication(data.draw(attribute_sets(ctx)), data.draw(attribute_sets(ctx)))
        assert certain_rule(space, ctx, rule) == implication_holds(lower, rule)
        assert possible_rule(space, ctx, rule) == implication_holds(upper, rule)

    other = FormalContext(
        ctx.objects, ctx.attributes, tuple(data.draw(attribute_sets(ctx)) for _ in ctx.objects)
    )
    # Permuting rows inside blocks keeps both approximations.
    rows = list(ctx.rows)
    for block in space.blocks:
        for g, h in zip(sorted(block), data.draw(st.permutations(sorted(block)))):
            rows[g] = ctx.rows[h]
    shuffled = FormalContext(ctx.objects, ctx.attributes, tuple(rows))
    for first, second in [(ctx, other), (other, ctx), (ctx, shuffled), (lower, ctx)]:
        for mode in ("upper", "lower", "rough"):
            assert context_order(space, first, second, mode) == order_by_definition(
                space, first, second, mode
            )
        assert contexts_roughly_equal(space, first, second) == (
            upper_context(space, first) == upper_context(space, second)
            and lower_context(space, first) == lower_context(space, second)
        )


@given(spaced_contexts(max_objects=8, max_attributes=5), st.data())
def test_set_approximations_match_definitions(case, data):
    ctx, space = case
    n = len(ctx.objects)
    object_sets = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
    lower, upper = lower_context(space, ctx), upper_context(space, ctx)
    for _ in range(4):
        objects = data.draw(object_sets)
        assert upper_approx_set(space, objects) == blocks_meeting(space, objects)
        assert lower_approx_set(space, objects) == blocks_inside(space, objects)
        attrs = data.draw(attribute_sets(ctx))
        extent = derive_extent(ctx, attrs)
        assert extent_upper_strict(space, ctx, attrs) == blocks_meeting(space, extent)
        assert extent_upper_free(space, ctx, attrs) == derive_extent(upper, attrs)
        assert extent_lower(space, ctx, attrs) == derive_extent(lower, attrs)
