"""Concept enumeration, order, meets/joins, and the covering relation."""

from __future__ import annotations

import collections.abc
import itertools
import random
import time

import pytest
from hypothesis import given

from roughconcepts import (
    ApproximationSpace,
    ConceptLimitError,
    FormalConcept,
    FormalContext,
    LatticeMismatchError,
    approximation_maps,
    build_report,
    concept_leq,
    concept_lower_approx,
    concept_order,
    concept_upper_approx,
    derive_extent,
    derive_intent,
    enumerate_concepts,
    export_dot,
    indiscernibility_kernels,
    lattice_join,
    lattice_meet,
    lower_context,
    lower_join,
    rough_concept_classes,
    upper_context,
    upper_meet,
)
from roughconcepts.cli import _format_lattice
from roughconcepts.context import _mask
from roughconcepts.report import _lattice_dict, _rough_classes_data

from conftest import aset, contexts, oset, random_context, spaced_contexts_of_shape


def brute_force_concept_count(ctx: FormalContext) -> int:
    """Closed attribute sets counted over all 2^|M| subsets."""
    n_m = len(ctx.attributes)
    count = 0
    for mask in range(1 << n_m):
        attrs = frozenset(m for m in range(n_m) if mask >> m & 1)
        closed = derive_intent(ctx, derive_extent(ctx, attrs))
        if closed == attrs:
            count += 1
    return count


def brute_force_covers(lat) -> set[tuple[int, int]]:
    """O(n^3) transitive reduction of the extent-inclusion order."""
    n = len(lat)
    less = [[lat[i].extent < lat[j].extent for j in range(n)] for i in range(n)]
    covers = set()
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                covers.add((i, j))
    return covers


# ── enumeration ───────────────────────────────────────────────────────


def test_living_has_19_concepts(living):
    assert len(enumerate_concepts(living)) == 19


def test_upper_and_lower_counts(living_upper, living_lower):
    assert len(enumerate_concepts(living_upper)) == 9
    assert len(enumerate_concepts(living_lower)) == 10


def test_empty_context_single_concept():
    lat = enumerate_concepts(FormalContext((), (), ()))
    assert len(lat) == 1
    assert lat.top.extent == frozenset() and lat.top.intent == frozenset()


def test_every_concept_is_closed(living):
    lat = enumerate_concepts(living)
    for concept in lat:
        assert derive_intent(living, concept.extent) == concept.intent
        assert derive_extent(living, concept.intent) == concept.extent


def test_count_matches_brute_force(living):
    assert len(enumerate_concepts(living)) == brute_force_concept_count(living)
    rng = random.Random(99)
    for _ in range(20):
        ctx = random_context(rng, 6, 8)
        assert len(enumerate_concepts(ctx)) == brute_force_concept_count(ctx)


def test_canonical_order(living):
    lat = enumerate_concepts(living)
    assert lat.top.extent == frozenset(range(8))
    assert lat.bottom.intent == frozenset(range(9))
    sizes = [len(c.extent) for c in lat]
    assert sizes == sorted(sizes, reverse=True)
    assert [c.index for c in lat] == list(range(19))


def test_attribute_and_object_concepts_present(living):
    lat = enumerate_concepts(living)
    for m in range(len(living.attributes)):
        extent = derive_extent(living, frozenset({m}))
        lat.concept_with_extent(extent)  # raises KeyError if missing
    for g in range(len(living.objects)):
        extent = derive_extent(living, derive_intent(living, frozenset({g})))
        lat.concept_with_extent(extent)


def test_concept_cap(living):
    with pytest.raises(ConceptLimitError):
        enumerate_concepts(living, max_concepts=3)


def brute_force_concepts(ctx: FormalContext) -> list[tuple[frozenset, frozenset]]:
    """Every closed (extent, intent) pair from all 2^|G| object sets, in canonical order."""
    found = set()
    for objects in itertools.product((False, True), repeat=len(ctx.objects)):
        intent = derive_intent(ctx, [g for g, kept in enumerate(objects) if kept])
        found.add((derive_extent(ctx, intent), intent))
    return sorted(found, key=lambda c: (-len(c[0]), sorted(c[0])))


def test_enumeration_matches_brute_force_on_every_context_up_to_3x3():
    n_contexts = 0
    for shape in itertools.product(range(4), repeat=2):
        for ctx in spaced_contexts_of_shape(*shape)[0]:
            lat = enumerate_concepts(ctx)
            assert [(c.extent, c.intent) for c in lat] == brute_force_concepts(ctx), ctx.rows
            n_contexts += 1
    assert n_contexts == 689


def test_covers_and_masks_match_brute_force_on_every_context_up_to_3x3():
    n_contexts = 0
    for shape in itertools.product(range(4), repeat=2):
        contexts, spaces = spaced_contexts_of_shape(*shape)
        for ctx in contexts:
            assert ctx._row_masks == tuple(map(_mask, ctx.rows))
            lat = enumerate_concepts(ctx)
            assert lat.covers == tuple(sorted(brute_force_covers(lat))), ctx.rows
            n_contexts += 1
        for space in spaces:
            assert space._block_masks == tuple(map(_mask, space.blocks))
    assert n_contexts == 689


def test_lattice_listing_names_the_records_on_every_context_up_to_3x3():
    for shape in itertools.product(range(4), repeat=2):
        for ctx in spaced_contexts_of_shape(*shape)[0]:
            lat = enumerate_concepts(ctx)
            lines = [f"concepts {len(lat)}"]
            for k, c in enumerate(lat):
                extent, intent = ctx.object_names(c.extent), ctx.attribute_names(c.intent)
                lines.append(f"{k} extent={{{','.join(extent)}}} intent={{{','.join(intent)}}}")
            lines.append(f"covers {len(lat.covers)}")
            lines.extend(f"{low} -> {high}" for low, high in lat.covers)
            assert "".join(_format_lattice(lat)) == "\n".join(lines) + "\n", ctx.rows


def test_cap_bounds_the_work(living):
    size = len(enumerate_concepts(living))
    assert len(enumerate_concepts(living, max_concepts=size)) == size
    with pytest.raises(ConceptLimitError, match=f"more than {size - 1} concepts"):
        enumerate_concepts(living, max_concepts=size - 1)
    with pytest.raises(ConceptLimitError, match="more than 0 concepts"):
        enumerate_concepts(FormalContext((), (), ()), max_concepts=0)
    # The contranominal scale on 20 objects has 2^20 concepts; the cap stops it early.
    names = tuple(f"x{i}" for i in range(20))
    scale = FormalContext(names, names, tuple(frozenset(range(20)) - {g} for g in range(20)))
    start = time.process_time()
    with pytest.raises(ConceptLimitError, match="more than 1000 concepts"):
        enumerate_concepts(scale, max_concepts=1000)
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("cap", [-1, True, 2.5], ids=repr)
def test_malformed_cap_is_rejected(living, living_space, cap):
    for build in (
        lambda: enumerate_concepts(living, cap),
        lambda: approximation_maps(living_space, living, cap),
        lambda: build_report(living_space, living, max_concepts=cap),
    ):
        with pytest.raises(ValueError, match=f"^max_concepts must be a nonnegative int, got {cap!r}$"):
            build()


# ── order ────────────────────────────────────────────────────────────


def test_concept_leq_examples(living):
    lat = enumerate_concepts(living)
    b2 = lat.concept_with_extent(oset(living, "Br Fr Dg"))
    b6 = lat.concept_with_extent(oset(living, "Fr Dg"))
    assert concept_leq(b6, b2)
    assert concept_leq(b2, b2)
    assert not concept_leq(b2, b6)
    assert concept_leq(b6, b2) == (b2.intent <= b6.intent)


def test_concept_leq_lattice_mismatch(living, living_upper):
    base = enumerate_concepts(living)
    other = enumerate_concepts(living_upper)
    with pytest.raises(LatticeMismatchError):
        concept_leq(base.top, other.top)


def test_concept_leq_lattice_membership_is_by_context(living):
    first = enumerate_concepts(living)
    second = enumerate_concepts(FormalContext(living.objects, living.attributes, living.rows))
    assert first.top.context is living
    assert concept_leq(first.bottom, second.top)
    bare = FormalConcept(first.top.extent, first.top.intent, 0)
    assert bare == first.top and bare.context is None
    with pytest.raises(LatticeMismatchError, match="does not belong to a lattice"):
        concept_leq(bare, first.top)


# ── meet and join ──────────────────────────────────────────────────────


def test_meet_join_extremes(living):
    lat = enumerate_concepts(living)
    assert lattice_meet(lat, lat.concepts) == lat.bottom
    assert lattice_join(lat, lat.concepts) == lat.top
    assert lattice_meet(lat, ()) == lat.top
    assert lattice_join(lat, ()) == lat.bottom
    for concept in lat:
        assert lattice_meet(lat, [concept]) == concept
        assert lattice_join(lat, [concept]) == concept


def test_meet_join_examples(living):
    lat = enumerate_concepts(living)
    b1 = lat.concept_with_extent(oset(living, "Le Br Fr Dg"))
    b5 = lat.concept_with_extent(oset(living, "Fr Dg Rd Bn Mz"))
    assert lattice_meet(lat, [b1, b5]).extent == oset(living, "Fr Dg")
    b7 = lat.concept_with_extent(oset(living, "Dg"))
    b16 = lat.concept_with_extent(oset(living, "Fr"))
    join = lattice_join(lat, [b7, b16])
    assert join.extent == oset(living, "Fr Dg")
    assert join.intent == aset(living, "nw ll mo lb")


def test_meet_join_laws_on_living(living):
    lat = enumerate_concepts(living)
    rng = random.Random(7)
    sample = rng.sample(list(lat.concepts), 8)
    for x, y in itertools.combinations(sample, 2):
        meet = lattice_meet(lat, [x, y])
        join = lattice_join(lat, [x, y])
        assert meet == lattice_meet(lat, [y, x])
        assert join == lattice_join(lat, [y, x])
        assert concept_leq(meet, x) and concept_leq(meet, y)
        assert concept_leq(x, join) and concept_leq(y, join)
        # absorption
        assert lattice_join(lat, [x, meet]) == x
        assert lattice_meet(lat, [x, join]) == x
        # greatest lower / least upper bound against all candidates
        for z in lat:
            if concept_leq(z, x) and concept_leq(z, y):
                assert concept_leq(z, meet)
            if concept_leq(x, z) and concept_leq(y, z):
                assert concept_leq(join, z)
    for x, y, z in itertools.combinations(sample, 3):
        assert lattice_meet(lat, [x, lattice_meet(lat, [y, z])]) == lattice_meet(lat, [x, y, z])
        assert lattice_join(lat, [x, lattice_join(lat, [y, z])]) == lattice_join(lat, [x, y, z])


def test_meet_rejects_foreign_concepts(living, living_upper):
    lat = enumerate_concepts(living)
    other = enumerate_concepts(living_upper)
    with pytest.raises(LatticeMismatchError):
        lattice_meet(lat, [other.top])


# ── covering relation ─────────────────────────────────────────────────────


def test_covers_of_limbed_land_organisms(living):
    lat = enumerate_concepts(living)
    b6 = lat.concept_with_extent(oset(living, "Fr Dg"))
    uppers = {lat[j].extent for i, j in lat.covers if i == b6.index}
    assert uppers == {oset(living, "Br Fr Dg"), oset(living, "Fr Dg Rd Bn Mz")}


def test_two_element_chain_single_cover():
    ctx = FormalContext(("a",), ("m",), (frozenset(),))
    lat = enumerate_concepts(ctx)
    assert len(lat) == 2
    assert lat.covers == ((1, 0),)


def test_covers_match_brute_force(living):
    lat = enumerate_concepts(living)
    assert set(lat.covers) == brute_force_covers(lat)
    rng = random.Random(123)
    for _ in range(10):
        ctx = random_context(rng, 5, 5)
        lat = enumerate_concepts(ctx)
        assert set(lat.covers) == brute_force_covers(lat)


@given(contexts())
def test_covers_equal_extent_reduction(ctx):
    lat = enumerate_concepts(ctx)
    assert lat.covers == tuple(sorted(brute_force_covers(lat)))


def canonical_key(extent):
    """Canonical order: larger extents first, then by the sorted member tuple."""
    return -len(extent), tuple(sorted(extent))


@given(contexts())
def test_canonical_order_puts_supersets_first(ctx):
    # The cover reduction looks for the strict supersets of extent i only among j < i.
    extents = [c.extent for c in enumerate_concepts(ctx)]
    assert not any(e < later for i, e in enumerate(extents) for later in extents[i + 1 :])
    assert extents == sorted(extents, key=canonical_key)


def coarse_case(seed: int, n: int = 30, m: int = 16, k: int = 10):
    """A seeded n×m context with k blocks of near-equal size."""
    rng = random.Random(seed)
    density = rng.uniform(0.25, 0.35)
    rows = tuple(frozenset(a for a in range(m) if rng.random() < density) for _ in range(n))
    objects = tuple(f"g{g}" for g in range(n))
    ctx = FormalContext(objects, tuple(f"m{a}" for a in range(m)), rows)
    order = list(range(n))
    rng.shuffle(order)
    return ctx, ApproximationSpace(objects, tuple(frozenset(order[b::k]) for b in range(k)))


def test_covers_on_coarse_approximation_lattices():
    # Thirty objects in ten blocks, the shape of the benchmark's coarse
    # partitions: the base and upper lattices have 94 to 253 concepts and
    # chains of 7 to 11, far beyond the 5×5 cases above.
    sizes = []
    for seed in range(12):
        ctx, space = coarse_case(seed)
        for approx in (ctx, upper_context(space, ctx), lower_context(space, ctx)):
            lat = enumerate_concepts(approx)
            assert lat.covers == tuple(sorted(brute_force_covers(lat)))
            extents = [c.extent for c in lat]
            assert extents == sorted(extents, key=canonical_key)
            sizes.append(len(lat))
    assert max(sizes) >= 200 and sum(sizes) >= 2000


def test_covers_built_once_and_only_when_read(living, living_space):
    maps = approximation_maps(living_space, living)
    indiscernibility_kernels(maps)
    _rough_classes_data(maps)
    lattices = (maps.base, maps.upper, maps.lower)
    assert all(c is None for lat in lattices for c in lat._built)
    rough_concept_classes(maps)
    for i in range(len(maps.base)):
        c = maps.base[i]
        up = concept_upper_approx(maps, c)
        low = concept_lower_approx(maps, c)
        lower_join(maps, up)
        upper_meet(maps, low)
        for mode in ("upper", "lower", "rough"):
            concept_order(maps, c, maps.base.top, mode)
        concept_leq(c, maps.base.top)
        lattice_meet(maps.base, [c, maps.base.bottom])
        lattice_join(maps.base, [c, maps.base.top])
    assert all("covers" not in vars(lat) for lat in lattices)
    for lat in lattices:
        covers = lat.covers
        assert lat.covers is covers and vars(lat)["covers"] is covers
    # The renderers name every concept from its masks, building no record.
    for ctx in (living, maps.upper.context, maps.lower.context):
        lat = enumerate_concepts(ctx)
        "".join(_format_lattice(lat))
        _lattice_dict(lat)
        export_dot(lat, "full")
        export_dot(lat, "reduced")
        assert all(c is None for c in lat._built)


def test_lattice_indexes_like_its_concept_tuple(living):
    lat = enumerate_concepts(living)
    for read_all in (False, True):
        if read_all:
            concepts = list(lat)
            assert len(concepts) == len(lat)
            assert all(concepts[i] is lat[i] for i in range(len(lat)))
        assert isinstance(lat, collections.abc.Sequence)
        assert lat.concepts is lat and "concepts" not in vars(lat)
        assert lat[1:3] == (lat[1], lat[2]) and lat[1:3][0] is lat[1]
        assert lat[::-1] == tuple(reversed(lat))
        assert lat[-1] is lat.bottom and lat[-1].index == len(lat) - 1
        assert lat[-len(lat)] is lat.top
        for outside in (len(lat), -len(lat) - 1):
            with pytest.raises(IndexError):
                lat[outside]
        assert lat[3] in lat and lat.index(lat[3]) == 3 and lat.count(lat[3]) == 1
        assert lat.index(lat[3], 2, 4) == 3 and lat.index(lat[3], -len(lat)) == 3
        for start, stop in ((4, None), (0, 3), (-2, None)):
            with pytest.raises(ValueError):
                lat.index(lat[3], start, stop)


def test_record_with_a_non_int_index_is_not_a_member(living):
    lat = enumerate_concepts(living)
    for index in (True, "x", 1.0, None):
        record = FormalConcept(lat[1].extent, lat[1].intent, index, living)
        with pytest.raises(LatticeMismatchError):
            lat.require_member(record)
        assert record not in lat and lat.count(record) == 0
        with pytest.raises(ValueError):
            lat.index(record)


def test_a_value_that_is_not_a_concept_is_not_a_member(living):
    lat = enumerate_concepts(living)
    for call in (
        lambda: lat.require_member(5),
        lambda: lattice_meet(lat, [5]),
        lambda: lattice_join(lat, [None]),
        lambda: concept_leq(lat[1], 5),
        lambda: concept_leq("top", lat[1]),
    ):
        with pytest.raises(LatticeMismatchError, match="is not a concept"):
            call()
    assert 5 not in lat and lat.count(None) == 0


def test_membership_builds_at_most_one_record(living):
    lat = enumerate_concepts(living)
    assert lat[-1] in lat
    assert sum(c is not None for c in lat._built) == 1
    other = enumerate_concepts(living)
    assert lat[-1] in other and other.count(lat[-1]) == 1
    assert other.index(lat[-1]) == len(lat) - 1
    assert sum(c is not None for c in other._built) == 1
