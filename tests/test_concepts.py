"""Conceptual approximation: assignments, adjoints, kernels, rough classes."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from roughconcepts import (
    ApproximationSpace,
    ConceptLimitError,
    FormalContext,
    LatticeMismatchError,
    approximation_maps,
    concept_leq,
    concept_lower_approx,
    concept_order,
    concept_upper_approx,
    enumerate_concepts,
    indiscernibility_kernels,
    is_definable_set,
    lattice_join,
    lattice_meet,
    lower_join,
    rough_concept_classes,
    upper_context,
    upper_meet,
)

from conftest import aset, oset, random_context, random_space


@pytest.fixture(scope="module")
def living_maps(living, living_space):
    return approximation_maps(living_space, living)


def fiber_extents(maps, fibers, target):
    """Each fiber as (set of member extents, image extent)."""
    out = set()
    for fiber in fibers:
        members = frozenset(maps.base[i].extent for i in fiber)
        image = target.concepts[
            (maps.to_upper if target is maps.upper else maps.to_lower)[fiber[0]]
        ].extent
        out.add((members, image))
    return out


# ── images ─────────────────────────────────────────────────────────────


def test_upper_image_of_limbed_animals(living, living_maps):
    b2 = living_maps.base.concept_with_extent(oset(living, "Br Fr Dg"))
    image = concept_upper_approx(living_maps, b2)
    assert image.extent == oset(living, "Le Br Fr Dg")
    assert image.intent == aset(living, "nw ll mo lb")


def test_lower_image_of_limbed_animals(living, living_maps):
    b2 = living_maps.base.concept_with_extent(oset(living, "Br Fr Dg"))
    image = concept_lower_approx(living_maps, b2)
    assert image.extent == oset(living, "Dg")
    assert image.intent == aset(living, "nw ll mo lb sk")


def test_top_maps_to_tops(living_maps):
    assert concept_upper_approx(living_maps, living_maps.base.top) == living_maps.upper.top
    assert concept_lower_approx(living_maps, living_maps.base.top) == living_maps.lower.top


def test_definable_context_images_are_identity(living, living_space):
    definable = upper_context(living_space, living)
    maps = approximation_maps(living_space, definable)
    for concept in maps.base:
        assert concept_upper_approx(maps, concept).extent == concept.extent
        assert concept_lower_approx(maps, concept).extent == concept.extent


def test_images_reject_foreign_concepts(living, living_maps):
    other = enumerate_concepts(upper_context(living_maps.space, living))
    with pytest.raises(LatticeMismatchError):
        concept_upper_approx(living_maps, other.bottom)
    with pytest.raises(LatticeMismatchError):
        lower_join(living_maps, living_maps.base.top)


def test_membership_needs_the_lattice_context():
    """A concept of another lattice is refused even when its record matches."""
    ctx = FormalContext(("a", "b", "c"), ("p", "q"), ({0}, {0, 1}, {0}))
    space = ApproximationSpace(ctx.objects, (frozenset({0, 1}), frozenset({2})))
    maps = approximation_maps(space, ctx)
    assert maps.upper.top == maps.base.top and maps.upper.context != ctx
    with pytest.raises(LatticeMismatchError):
        concept_upper_approx(maps, maps.upper.top)
    with pytest.raises(LatticeMismatchError):
        lattice_meet(maps.base, [maps.upper.top])
    with pytest.raises(LatticeMismatchError):
        concept_leq(maps.upper.top, maps.base.top)
    with pytest.raises(LatticeMismatchError):
        lower_join(maps, maps.base.top)


def test_in_index_and_count_follow_the_membership_rule():
    """``in``, ``index`` and ``count`` refuse exactly what ``require_member`` refuses."""
    ctx = FormalContext(("a", "b", "c"), ("p", "q"), ({0}, {0, 1}, {0}))
    space = ApproximationSpace(ctx.objects, (frozenset({0, 1}), frozenset({2})))
    maps = approximation_maps(space, ctx)
    assert maps.upper.top not in maps.base
    assert maps.base.count(maps.upper.top) == 0
    with pytest.raises(ValueError):
        maps.base.index(maps.upper.top)
    assert 5 not in maps.base and maps.base.count(5) == 0
    twin = enumerate_concepts(FormalContext(ctx.objects, ctx.attributes, ctx.rows))
    assert twin.top in maps.base and maps.base.index(twin.top) == 0
    assert maps.base.count(twin.top) == 1


def test_dropped_maps_are_freed_by_reference_counting(living, living_space):
    """Concepts hold their lattice's context, not the lattice: no cycle keeps a result alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        maps = approximation_maps(living_space, living)
        lattices = (maps.base, maps.upper, maps.lower)
        for lat in lattices:
            assert lat.covers
        refs = [weakref.ref(obj) for obj in (maps, *lattices, maps.upper.top)]
        del maps, lattices, lat
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


# ── adjoints ─────────────────────────────────────────────────────────


def test_lower_join_example(living, living_maps):
    upper_b1 = living_maps.upper.concept_with_extent(oset(living, "Le Br Fr Dg"))
    result = lower_join(living_maps, upper_b1)
    assert result.extent == oset(living, "Le Br Fr Dg")
    assert lower_join(living_maps, living_maps.upper.top) == living_maps.base.top


def test_upper_meet_example(living, living_maps):
    lower_b4 = living_maps.lower.concept_with_extent(oset(living, "Dg"))
    assert upper_meet(living_maps, lower_b4).extent == oset(living, "Dg")
    assert upper_meet(living_maps, living_maps.lower.bottom) == living_maps.base.bottom


def test_adjunction_units(living_maps):
    for concept in living_maps.base:
        assert concept_leq(concept, lower_join(living_maps, concept_upper_approx(living_maps, concept)))
    for concept in living_maps.lower:
        assert concept_leq(concept, concept_lower_approx(living_maps, upper_meet(living_maps, concept)))


def test_adjunction_equivalences_exhaustive(living_maps):
    joins = {d.index: lower_join(living_maps, d) for d in living_maps.upper}
    for c in living_maps.base:
        image = concept_upper_approx(living_maps, c)
        for d in living_maps.upper:
            assert concept_leq(image, d) == concept_leq(c, joins[d.index])
    meets = {d.index: upper_meet(living_maps, d) for d in living_maps.lower}
    for d in living_maps.lower:
        for c in living_maps.base:
            assert concept_leq(meets[d.index], c) == concept_leq(
                d, concept_lower_approx(living_maps, c)
            )


def test_assignments_monotone_and_preserving(living_maps):
    base = living_maps.base
    for x in base:
        for y in base:
            if concept_leq(x, y):
                assert concept_leq(
                    concept_upper_approx(living_maps, x), concept_upper_approx(living_maps, y)
                )
                assert concept_leq(
                    concept_lower_approx(living_maps, x), concept_lower_approx(living_maps, y)
                )
            join = lattice_join(base, [x, y])
            assert concept_upper_approx(living_maps, join) == lattice_join(
                living_maps.upper,
                [concept_upper_approx(living_maps, x), concept_upper_approx(living_maps, y)],
            )
            meet = lattice_meet(base, [x, y])
            assert concept_lower_approx(living_maps, meet) == lattice_meet(
                living_maps.lower,
                [concept_lower_approx(living_maps, x), concept_lower_approx(living_maps, y)],
            )


# ── concept orders ──────────────────────────────────────────────────────


def test_concept_order_examples(living, living_maps):
    b2 = living_maps.base.concept_with_extent(oset(living, "Br Fr Dg"))
    b6 = living_maps.base.concept_with_extent(oset(living, "Fr Dg"))
    for mode in ("upper", "lower", "rough"):
        assert concept_order(living_maps, b2, b2, mode)
    assert concept_order(living_maps, b2, b6, "rough")
    assert concept_order(living_maps, b6, b2, "rough")
    assert concept_leq(b6, b2)
    with pytest.raises(ValueError):
        concept_order(living_maps, b2, b6, "diagonal")


# ── kernels and rough classes ─────────────────────────────────────────────


def test_possibility_kernel_content(living, living_maps):
    possibility, _ = indiscernibility_kernels(living_maps)
    assert len(possibility) == 9
    got = fiber_extents(living_maps, possibility, living_maps.upper)
    G = "Le Br Fr Dg SW Rd Bn Mz"
    expected = {
        (frozenset({oset(living, G), oset(living, "Fr Dg Rd Bn Mz")}), oset(living, G)),
        (
            frozenset(
                {oset(living, "Le Br Fr Dg"), oset(living, "Br Fr Dg"), oset(living, "Fr Dg")}
            ),
            oset(living, "Le Br Fr Dg"),
        ),
        (frozenset({oset(living, "Dg")}), oset(living, "Dg")),
        (
            frozenset(
                {
                    oset(living, "SW Rd Bn Mz"),
                    oset(living, "SW Rd Mz"),
                    oset(living, "Rd Bn Mz"),
                    oset(living, "Rd Mz"),
                }
            ),
            oset(living, "SW Rd Bn Mz"),
        ),
        (frozenset({oset(living, "Bn")}), oset(living, "Bn Mz")),
        (
            frozenset({oset(living, "Le Br Fr SW Rd"), oset(living, "Fr Rd")}),
            oset(living, "Le Br Fr SW Rd"),
        ),
        (
            frozenset({oset(living, "Le Br Fr"), oset(living, "Br Fr"), oset(living, "Fr")}),
            oset(living, "Le Br Fr"),
        ),
        (frozenset({oset(living, "SW Rd"), oset(living, "Rd")}), oset(living, "SW Rd")),
        (frozenset({frozenset()}), frozenset()),
    }
    assert got == expected


def test_necessity_kernel_against_matrix_oracle(living, living_maps, living_lower):
    """Recompute every lower image directly from the expected lower matrix."""
    _, necessity = indiscernibility_kernels(living_maps)
    assert len(necessity) == 10
    oracle: dict[frozenset, set] = {}
    for concept in living_maps.base:
        image_extent = frozenset(
            g
            for g in range(len(living.objects))
            if concept.intent <= living_lower.rows[g]
        )
        oracle.setdefault(image_extent, set()).add(concept.index)
    got = {frozenset(fiber) for fiber in necessity}
    assert got == {frozenset(members) for members in oracle.values()}


def test_kernels_discrete_under_identity_partition(living):
    maps = approximation_maps(ApproximationSpace.identity(living.objects), living)
    possibility, necessity = indiscernibility_kernels(maps)
    assert all(len(fiber) == 1 for fiber in possibility)
    assert all(len(fiber) == 1 for fiber in necessity)


def test_rough_classes_living(living, living_maps):
    classes = rough_concept_classes(living_maps)
    assert sorted(len(c.members) for c in classes) == [1] * 15 + [2, 2]
    non_singleton = {
        frozenset(living_maps.base[i].extent for i in cls.members)
        for cls in classes
        if len(cls.members) > 1
    }
    assert non_singleton == {
        frozenset({oset(living, "Br Fr Dg"), oset(living, "Fr Dg")}),
        frozenset({oset(living, "Br Fr"), oset(living, "Fr")}),
    }


def test_rough_classes_partition_base(living_maps):
    classes = rough_concept_classes(living_maps)
    seen = [i for cls in classes for i in cls.members]
    assert sorted(seen) == list(range(len(living_maps.base)))
    for cls in classes:
        for i in cls.members:
            assert living_maps.to_upper[i] == cls.upper_image.index
            assert living_maps.to_lower[i] == cls.lower_image.index


def test_rough_classes_are_kernel_meet(living_maps):
    possibility, necessity = indiscernibility_kernels(living_maps)
    upper_of = {i: k for k, fiber in enumerate(possibility) for i in fiber}
    lower_of = {i: k for k, fiber in enumerate(necessity) for i in fiber}
    refined: dict[tuple[int, int], set[int]] = {}
    for i in range(len(living_maps.base)):
        refined.setdefault((upper_of[i], lower_of[i]), set()).add(i)
    got = {frozenset(cls.members) for cls in rough_concept_classes(living_maps)}
    assert got == {frozenset(v) for v in refined.values()}


def test_definable_context_is_crisp(living, living_space):
    definable = upper_context(living_space, living)
    maps = approximation_maps(living_space, definable)
    assert all(len(cls.members) == 1 for cls in rough_concept_classes(maps))
    # and both assignments are order isomorphisms onto their targets
    assert len(maps.base) == len(maps.upper) == len(maps.lower)
    for x in maps.base:
        for y in maps.base:
            assert concept_leq(x, y) == concept_leq(
                concept_upper_approx(maps, x), concept_upper_approx(maps, y)
            )
            assert concept_leq(x, y) == concept_leq(
                concept_lower_approx(maps, x), concept_lower_approx(maps, y)
            )


def test_definable_context_concepts_are_definable(living, living_space, living_maps):
    for lat in (living_maps.upper, living_maps.lower):
        for concept in lat:
            assert is_definable_set(living_space, concept.extent)


def test_random_definable_contexts_are_crisp():
    rng = random.Random(31337)
    for _ in range(15):
        ctx = random_context(rng, 5, 5)
        space = random_space(rng, ctx.objects)
        definable = upper_context(space, ctx)
        maps = approximation_maps(space, definable)
        assert all(len(cls.members) == 1 for cls in rough_concept_classes(maps))


def test_upper_adjunction_can_fail_while_lower_holds():
    """Pins the asymmetry between the two assignments.

    Merging two objects whose combined row pattern is not realized
    creates an upper-lattice extent that is not closed in the base
    context, so the base join overshoots it: the upper assignment is
    not join-preserving there and the upper adjunction equivalence
    breaks.  The lower adjunction holds for every context and
    partition.
    """
    from roughconcepts import ApproximationSpace, FormalContext

    ctx = FormalContext(
        ("a", "b", "c"), ("p", "q"), (frozenset(), frozenset({0}), frozenset({1}))
    )
    space = ApproximationSpace(ctx.objects, (frozenset({0}), frozenset({1, 2})))
    maps = approximation_maps(space, ctx)

    p_concept = maps.base.concept_with_extent(frozenset({1}))
    q_concept = maps.base.concept_with_extent(frozenset({2}))
    base_join = lattice_join(maps.base, [p_concept, q_concept])
    assert base_join == maps.base.top  # closure pulls in the bare object
    image_join = lattice_join(
        maps.upper,
        [concept_upper_approx(maps, p_concept), concept_upper_approx(maps, q_concept)],
    )
    assert image_join.extent == frozenset({1, 2})
    assert concept_upper_approx(maps, base_join) != image_join  # not join-preserving

    # one adjunction direction still holds: c <= lower_join(upper image)
    for c in maps.base:
        assert concept_leq(c, lower_join(maps, concept_upper_approx(maps, c)))
    # the converse breaks at the top / merged-block pair
    merged = maps.upper.concept_with_extent(frozenset({1, 2}))
    assert concept_leq(maps.base.top, lower_join(maps, merged))
    assert not concept_leq(concept_upper_approx(maps, maps.base.top), merged)

    # the lower adjunction equivalence is intact on the same input
    for d in maps.lower:
        meet = upper_meet(maps, d)
        for c in maps.base:
            assert concept_leq(meet, c) == concept_leq(d, concept_lower_approx(maps, c))


def test_concept_cap_names_the_lattice():
    # Merging g1 with g3 realises the row {m0, m2}, so the upper lattice
    # has 5 concepts against the base's 4.
    rows = (frozenset({0}), frozenset({2}), frozenset({2}), frozenset({0}))
    ctx = FormalContext(("g0", "g1", "g2", "g3"), ("m0", "m1", "m2"), rows)
    space = ApproximationSpace(ctx.objects, (frozenset({0}), frozenset({1, 3}), frozenset({2})))
    assert len(approximation_maps(space, ctx, max_concepts=5).base) == 4
    with pytest.raises(ConceptLimitError, match="^upper lattice: more than 4 concepts"):
        approximation_maps(space, ctx, max_concepts=4)
    with pytest.raises(ConceptLimitError, match="^base lattice: "):
        approximation_maps(space, ctx, max_concepts=3)
