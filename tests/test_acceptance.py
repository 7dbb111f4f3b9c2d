"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success; without ``-s`` pytest still shows them for failures.
Criterion 9 draws 500 seeded random cases, so the whole suite is
deterministic.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from fractions import Fraction

from roughconcepts import (
    ApproximationSpace,
    Implication,
    UndefinedMeasureError,
    approximation_maps,
    concept_leq,
    concept_lower_approx,
    concept_upper_approx,
    definable_attributes,
    derive_extent,
    derive_intent,
    enumerate_concepts,
    implication_holds,
    indiscernibility_kernels,
    is_definable_set,
    lattice_join,
    lattice_meet,
    lower_context,
    lower_join,
    rough_concept_classes,
    rough_measure,
    upper_context,
    upper_meet,
)

from conftest import aset, oset, random_context, random_space, spaced_contexts_of_shape

SEED = 20260810
PROPERTY_CASES = 500


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL - {description}")
        raise
    print(f"criterion {number:02d} PASS - {description}")


def _unrank(mask: int, width: int) -> frozenset[int]:
    return frozenset(i for i in range(width) if mask >> i & 1)


def _mask(members: frozenset[int]) -> int:
    out = 0
    for i in members:
        out |= 1 << i
    return out


# ── criterion 1 ─────────────────────────────────────────────────────


def test_criterion_01_base_lattice(living):
    with criterion(1, "base lattice has the 19 expected concepts"):
        lat = enumerate_concepts(living)
        assert len(lat) == 19
        limbed_land = lat.concept_with_extent(oset(living, "Fr Dg"))
        assert limbed_land.intent == aset(living, "nw mo lb ll")
        limbed = lat.concept_with_extent(oset(living, "Br Fr Dg"))
        assert limbed.intent == aset(living, "nw mo lb")
        assert lat.top.extent == frozenset(range(len(living.objects)))
        assert lat.bottom.intent == frozenset(range(len(living.attributes)))


# ── criterion 2 ─────────────────────────────────────────────────────


def test_criterion_02_approximation_matrices(living, living_space, living_upper, living_lower):
    with criterion(2, "both approximation matrices match cell-for-cell"):
        upper = upper_context(living_space, living)
        lower = lower_context(living_space, living)
        cells = 0
        for g in range(len(living.objects)):
            for m in range(len(living.attributes)):
                assert upper.has(g, m) == living_upper.has(g, m)
                assert lower.has(g, m) == living_lower.has(g, m)
                cells += 1
        assert cells == 72


# ── criterion 3 ─────────────────────────────────────────────────────


def test_criterion_03_approximation_lattice_sizes(living, living_space):
    with criterion(3, "approximation lattices have 9 and 10 concepts"):
        assert len(enumerate_concepts(upper_context(living_space, living))) == 9
        assert len(enumerate_concepts(lower_context(living_space, living))) == 10


# ── criterion 4 ─────────────────────────────────────────────────────


def test_criterion_04_definable_attributes(living, living_space):
    with criterion(4, "definable attributes are exactly nw, lw, nc, mo, sk"):
        assert definable_attributes(living_space, living) == aset(living, "nw lw nc mo sk")


# ── criterion 5 ─────────────────────────────────────────────────────


def test_criterion_05_possibility_kernel(living, living_space):
    with criterion(5, "possibility kernel has the 9 expected fibers (by content)"):
        maps = approximation_maps(living_space, living)
        possibility, _ = indiscernibility_kernels(maps)
        assert len(possibility) == 9
        got = {
            frozenset(maps.base[i].extent for i in fiber): maps.upper[
                maps.to_upper[fiber[0]]
            ].extent
            for fiber in possibility
        }
        G = "Le Br Fr Dg SW Rd Bn Mz"
        expected = {
            frozenset({oset(living, G), oset(living, "Fr Dg Rd Bn Mz")}): oset(living, G),
            frozenset(
                {oset(living, "Le Br Fr Dg"), oset(living, "Br Fr Dg"), oset(living, "Fr Dg")}
            ): oset(living, "Le Br Fr Dg"),
            frozenset({oset(living, "Dg")}): oset(living, "Dg"),
            frozenset(
                {
                    oset(living, "SW Rd Bn Mz"),
                    oset(living, "SW Rd Mz"),
                    oset(living, "Rd Bn Mz"),
                    oset(living, "Rd Mz"),
                }
            ): oset(living, "SW Rd Bn Mz"),
            frozenset({oset(living, "Bn")}): oset(living, "Bn Mz"),
            frozenset({oset(living, "Le Br Fr SW Rd"), oset(living, "Fr Rd")}): oset(
                living, "Le Br Fr SW Rd"
            ),
            frozenset(
                {oset(living, "Le Br Fr"), oset(living, "Br Fr"), oset(living, "Fr")}
            ): oset(living, "Le Br Fr"),
            frozenset({oset(living, "SW Rd"), oset(living, "Rd")}): oset(living, "SW Rd"),
            frozenset({frozenset()}): frozenset(),
        }
        assert got == expected


# ── criterion 6 ─────────────────────────────────────────────────────


def test_criterion_06_necessity_kernel(living, living_space, living_lower):
    """Ground truth is the oracle: each concept's lower image recomputed
    directly from the frozen lower approximation matrix."""
    with criterion(6, "necessity kernel matches the matrix-scan oracle (10 fibers)"):
        maps = approximation_maps(living_space, living)
        _, necessity = indiscernibility_kernels(maps)
        assert len(necessity) == 10

        oracle: dict[frozenset[int], set[int]] = {}
        for concept in maps.base:
            image_extent = frozenset(
                g
                for g in range(len(living.objects))
                if concept.intent <= living_lower.rows[g]
            )
            oracle.setdefault(image_extent, set()).add(concept.index)
        assert {frozenset(f) for f in necessity} == {
            frozenset(v) for v in oracle.values()
        }

        # the same partition expressed by concept extents, frozen from the
        # oracle's output above
        by_extents = {
            frozenset(maps.base[i].extent for i in fiber) for fiber in necessity
        }
        expected = {
            frozenset({oset(living, "Le Br Fr Dg SW Rd Bn Mz")}),
            frozenset({oset(living, "Le Br Fr Dg")}),
            frozenset({oset(living, "SW Rd Bn Mz")}),
            frozenset({oset(living, "Fr Dg Rd Bn Mz")}),
            frozenset(
                {oset(living, "Br Fr Dg"), oset(living, "Fr Dg"), oset(living, "Dg")}
            ),
            frozenset({oset(living, "Rd Bn Mz")}),
            frozenset({oset(living, "Le Br Fr SW Rd")}),
            frozenset({oset(living, "Le Br Fr")}),
            frozenset({oset(living, "SW Rd Mz"), oset(living, "SW Rd")}),
            frozenset(
                {
                    oset(living, "Rd Mz"),
                    oset(living, "Bn"),
                    oset(living, "Br Fr"),
                    oset(living, "Fr Rd"),
                    oset(living, "Fr"),
                    oset(living, "Rd"),
                    frozenset(),
                }
            ),
        }
        assert by_extents == expected


# ── criterion 7 ─────────────────────────────────────────────────────


def test_criterion_07_rough_classes(living, living_space):
    with criterion(7, "exactly two non-singleton rough classes, by content"):
        maps = approximation_maps(living_space, living)
        classes = rough_concept_classes(maps)
        non_singleton = {
            frozenset(maps.base[i].extent for i in cls.members)
            for cls in classes
            if len(cls.members) > 1
        }
        assert non_singleton == {
            frozenset({oset(living, "Br Fr Dg"), oset(living, "Fr Dg")}),
            frozenset({oset(living, "Br Fr"), oset(living, "Fr")}),
        }
        assert sum(len(cls.members) for cls in classes) == 19


# ── criterion 8 ─────────────────────────────────────────────────────


def test_criterion_08_narrative_checks(living, living_space):
    with criterion(8, "narrative image and implication checks"):
        maps = approximation_maps(living_space, living)
        limbed = maps.base.concept_with_extent(oset(living, "Br Fr Dg"))
        upper_image = concept_upper_approx(maps, limbed)
        assert upper_image.extent == oset(living, "Le Br Fr Dg")
        assert upper_image.intent == aset(living, "nw ll mo lb")
        lower_image = concept_lower_approx(maps, limbed)
        assert lower_image.extent == oset(living, "Dg")
        assert lower_image.intent == aset(living, "nw ll mo lb sk")

        lb_ll = Implication(aset(living, "lb"), aset(living, "ll"))
        lb_sk = Implication(aset(living, "lb"), aset(living, "sk"))
        assert implication_holds(upper_context(living_space, living), lb_ll)
        assert implication_holds(lower_context(living_space, living), lb_sk)
        assert not implication_holds(living, lb_ll)


# ── criterion 9: oracle-based property suite ────────────────────────────


def _check_galois(ctx) -> None:
    n_g, n_m = len(ctx.objects), len(ctx.attributes)
    extent_mask = [
        _mask(derive_extent(ctx, _unrank(b, n_m))) for b in range(1 << n_m)
    ]
    intent_mask = [
        _mask(derive_intent(ctx, _unrank(a, n_g))) for a in range(1 << n_g)
    ]
    for a in range(1 << n_g):
        ia = intent_mask[a]
        for b in range(1 << n_m):
            assert (a & ~extent_mask[b] == 0) == (b & ~ia == 0)


def _check_context_approx_laws(space, ctx) -> None:
    upper = upper_context(space, ctx)
    lower = lower_context(space, ctx)
    for g in range(len(ctx.objects)):
        assert lower.rows[g] <= ctx.rows[g] <= upper.rows[g]
    assert upper_context(space, upper) == upper
    assert lower_context(space, lower) == lower
    assert upper_context(space, lower) == lower
    assert lower_context(space, upper) == upper


def _check_extremal_definable(space, ctx) -> None:
    """Exhaustive: upper/lower are the least/greatest definable contexts
    bracketing ctx, among all definable contexts over the same shape."""
    unions: list[frozenset[int]] = []
    for mask in range(1 << len(space.blocks)):
        u: frozenset[int] = frozenset()
        for b in range(len(space.blocks)):
            if mask >> b & 1:
                u |= space.blocks[b]
        unions.append(u)
    upper_cols = upper_context(space, ctx).columns
    lower_cols = lower_context(space, ctx).columns
    base_cols = ctx.columns
    for col in upper_cols + lower_cols:
        assert is_definable_set(space, col)
    for combo in itertools.product(unions, repeat=len(ctx.attributes)):
        if all(b <= j for b, j in zip(base_cols, combo)):
            assert all(u <= j for u, j in zip(upper_cols, combo))
        if all(j <= b for j, b in zip(combo, base_cols)):
            assert all(j <= l for j, l in zip(combo, lower_cols))


def _check_strict_free(rng, space, ctx) -> int:
    from roughconcepts import extent_upper_free, extent_upper_strict

    witnesses = 0
    n_m = len(ctx.attributes)
    for _ in range(4):
        attrs = frozenset(m for m in range(n_m) if rng.random() < 0.5)
        free = extent_upper_free(space, ctx, attrs)
        strict = extent_upper_strict(space, ctx, attrs)
        assert strict <= free
        if len(attrs) == 1:
            assert strict == free
        if strict < free:
            witnesses += 1
    return witnesses


def _check_upper_definition(maps, ups) -> None:
    """By construction: the image of (A, B) has extent B^{I*}, the base
    intent derived in the upper context."""
    upper = upper_context(maps.space, maps.context)
    for c in maps.base:
        assert ups[c.index].extent == derive_extent(upper, c.intent)


def _check_upper_inclusion(maps, ups) -> None:
    """A = B^I ⊆ B^{I*}, since I ⊆ I* and the image's extent is B^{I*}."""
    for c in maps.base:
        assert c.extent <= ups[c.index].extent


def _check_upper_monotone(maps, ups) -> None:
    """c ≤ c2 means B2 ⊆ B, so B^{I*} ⊆ B2^{I*}: derivation is antitone."""
    for c in maps.base:
        for c2 in maps.base:
            if concept_leq(c, c2):
                assert concept_leq(ups[c.index], ups[c2.index])


def _check_upper_unit(maps, ups, joins) -> None:
    """lower_join(up(c)) joins every base concept with extent inside
    up(c).extent, and c is one of them by upper-inclusion."""
    for c in maps.base:
        assert concept_leq(c, joins[ups[c.index].index])


def _check_upper_half_adjunction(maps, ups, joins) -> None:
    """up(c) ≤ d gives A ⊆ B^{I*} ⊆ D, so c is among the base concepts
    joined into lower_join(d)."""
    for c in maps.base:
        image = ups[c.index]
        for d in maps.upper:
            if concept_leq(image, d):
                assert concept_leq(c, joins[d.index])


def _check_adjunction_lower(maps, los, meets) -> None:
    for c in maps.base:
        image = los[c.index]
        for d in maps.lower:
            assert concept_leq(meets[d.index], c) == concept_leq(d, image)


def _check_upper_subjoin(maps, ups) -> None:
    """c1, c2 ≤ c1 ∨ c2 and up is monotone, so up(c1) ∨ up(c2) ≤ up(c1 ∨ c2)."""
    base = maps.base
    for i in range(len(base)):
        for j in range(i, len(base)):
            join = lattice_join(base, [base[i], base[j]])
            assert concept_leq(lattice_join(maps.upper, [ups[i], ups[j]]), ups[join.index])


def _check_meet_preservation(maps, los) -> None:
    base = maps.base
    for i in range(len(base)):
        for j in range(i, len(base)):
            meet = lattice_meet(base, [base[i], base[j]])
            assert los[meet.index] == lattice_meet(maps.lower, [los[i], los[j]])


def _check_crispness(space, ctx) -> None:
    definable = upper_context(space, ctx)
    maps = approximation_maps(space, definable)
    assert all(len(cls.members) == 1 for cls in rough_concept_classes(maps))
    identity_maps = approximation_maps(ApproximationSpace.identity(ctx.objects), ctx)
    assert all(len(cls.members) == 1 for cls in rough_concept_classes(identity_maps))


def test_criterion_09_property_suite():
    """Every clause runs on every case; zero failures tolerated.

    Clauses: galois-connection, context-approx-laws, strict/free
    extents, upper-definition, upper-inclusion, upper-monotone,
    upper-unit, upper-half-adjunction, adjunction-lower, upper-subjoin,
    meet-preservation, crispness and extremal-definable.  The lower
    assignment is checked for the full adjunction and meet preservation;
    the upper one only for the halves that hold, because the full
    adjunction and join preservation fail on the README's 3-object
    witness (see "Verification status" there, and
    tests/test_concepts.py::test_upper_adjunction_can_fail_while_lower_holds).

    Failures are aggregated per clause so the final report shows exactly
    which law broke, how often, and on which first case.
    """
    with criterion(9, f"property suite over {PROPERTY_CASES} random cases"):
        rng = random.Random(SEED)
        strict_witnesses = 0
        failures: dict[str, int] = {}
        first_case: dict[str, str] = {}

        def run(clause: str, case_ctx, case_space, check, *args) -> None:
            try:
                check(*args)
            except AssertionError:
                failures[clause] = failures.get(clause, 0) + 1
                first_case.setdefault(
                    clause,
                    f"rows={[sorted(r) for r in case_ctx.rows]} "
                    f"blocks={[sorted(b) for b in case_space.blocks]}",
                )

        for _ in range(PROPERTY_CASES):
            ctx = random_context(rng, 6, 6)
            space = random_space(rng, ctx.objects)

            run("galois-connection", ctx, space, _check_galois, ctx)
            run("context-approx-laws", ctx, space, _check_context_approx_laws, space, ctx)
            strict_witnesses += _check_strict_free(rng, space, ctx)

            maps = approximation_maps(space, ctx)
            ups = [concept_upper_approx(maps, c) for c in maps.base]
            los = [concept_lower_approx(maps, c) for c in maps.base]
            joins = [lower_join(maps, d) for d in maps.upper]
            meets = [upper_meet(maps, d) for d in maps.lower]
            run("upper-definition", ctx, space, _check_upper_definition, maps, ups)
            run("upper-inclusion", ctx, space, _check_upper_inclusion, maps, ups)
            run("upper-monotone", ctx, space, _check_upper_monotone, maps, ups)
            run("upper-unit", ctx, space, _check_upper_unit, maps, ups, joins)
            run("upper-half-adjunction", ctx, space, _check_upper_half_adjunction,
                maps, ups, joins)
            run("adjunction-lower", ctx, space, _check_adjunction_lower, maps, los, meets)
            run("upper-subjoin", ctx, space, _check_upper_subjoin, maps, ups)
            run("meet-preservation", ctx, space, _check_meet_preservation, maps, los)
            run("crispness", ctx, space, _check_crispness, space, ctx)

            small = random_context(rng, 4, 3)
            small_space = random_space(rng, small.objects)
            run("extremal-definable", small, small_space, _check_extremal_definable,
                small_space, small)

        assert strict_witnesses >= 1
        if failures:
            breakdown = "; ".join(
                f"{clause}: {count}/{PROPERTY_CASES} cases "
                f"(first: {first_case[clause]})"
                for clause, count in sorted(failures.items())
            )
            raise AssertionError(f"property failures - {breakdown}")


def test_criterion_09_laws_on_every_small_context():
    """Every criterion 09 clause on every context of shape up to 3×2 and 2×3,
    under every partition of its objects (3×3 would take about 4 s).

    At 3×3 the upper counit up(lower_join(d)) ≤ d, the half of the upper
    adjunction that is not a theorem, fails for some upper concept d on
    exactly 108 of the 2,560 pairs.
    """
    rng = random.Random(SEED)
    strict_witnesses = counit_failures = 0
    for shape in itertools.product(range(4), repeat=2):
        contexts, spaces = spaced_contexts_of_shape(*shape)
        for ctx, space in itertools.product(contexts, spaces):
            maps = approximation_maps(space, ctx)
            ups = [concept_upper_approx(maps, c) for c in maps.base]
            joins = [lower_join(maps, d) for d in maps.upper]
            if shape == (3, 3):
                counit_failures += any(
                    not concept_leq(ups[joins[d.index].index], d) for d in maps.upper
                )
                continue
            _check_galois(ctx)
            _check_context_approx_laws(space, ctx)
            _check_extremal_definable(space, ctx)
            strict_witnesses += _check_strict_free(rng, space, ctx)
            los = [concept_lower_approx(maps, c) for c in maps.base]
            meets = [upper_meet(maps, d) for d in maps.lower]
            _check_upper_definition(maps, ups)
            _check_upper_inclusion(maps, ups)
            _check_upper_monotone(maps, ups)
            _check_upper_unit(maps, ups, joins)
            _check_upper_half_adjunction(maps, ups, joins)
            _check_adjunction_lower(maps, los, meets)
            _check_upper_subjoin(maps, ups)
            _check_meet_preservation(maps, los)
            _check_crispness(space, ctx)
    assert strict_witnesses >= 1
    assert counit_failures == 108


# ── criterion 10 ────────────────────────────────────────────────────


def test_criterion_10_rough_measures(living):
    with criterion(10, "frozen measures plus k=1 agreement on 1000 implications"):
        lb_ll = Implication(aset(living, "lb"), aset(living, "ll"))
        measure = rough_measure(living, lb_ll)
        assert (measure.numerator, measure.denominator) == (2, 3)
        assert measure.value == Fraction(2, 3)
        lb_sk = Implication(aset(living, "lb"), aset(living, "sk"))
        assert rough_measure(living, lb_sk).value == Fraction(1, 3)

        rng = random.Random(SEED + 1)
        checked = 0
        while checked < 1000:
            ctx = random_context(rng, 6, 6)
            n_m = len(ctx.attributes)
            for _ in range(5):
                premise = frozenset(m for m in range(n_m) if rng.random() < 0.4)
                conclusion = frozenset(m for m in range(n_m) if rng.random() < 0.4)
                rule = Implication(premise, conclusion)
                if not derive_extent(ctx, premise):
                    try:
                        rough_measure(ctx, rule)
                    except UndefinedMeasureError:
                        continue
                    raise AssertionError("empty premise extent must be undefined")
                assert (rough_measure(ctx, rule).value == 1) == implication_holds(ctx, rule)
                checked += 1
