"""Concept-level approximation between the base and approximation lattices.

A base concept is approximated externally: its intent is re-derived
inside the upper (or lower) approximation context and closed there.
Both assignments are monotone.  The lower assignment preserves meets
and forms a Galois adjunction with :func:`upper_meet`; on the upper
side the unit inclusion ``c <= lower_join(upper image of c)`` always
holds, but the full adjunction with :func:`lower_join` (and with it
join preservation) can fail for partitions that merge objects whose
combined row pattern is not realized, so it is a property of the
(context, partition) pair rather than of the construction.
"""

from __future__ import annotations

from ._record import Record
from .approx import _MODES, OrderMode, lower_context, upper_context
from .context import ApproximationSpace, FormalContext, _bits, require_same_universe
from .errors import ConceptLimitError
from .lattice import DEFAULT_MAX_CONCEPTS, ConceptLattice, FormalConcept, enumerate_concepts


class RoughConceptClass(Record):
    """Base concepts sharing both conceptual approximations.

    ``members`` holds base-lattice concept indices in ascending order.
    """

    members: tuple[int, ...]
    upper_image: FormalConcept
    lower_image: FormalConcept


class ConceptApproximationMaps(Record, eq=False):
    """The three lattices plus both assignment maps between them.

    ``to_upper[i]`` (resp. ``to_lower[i]``) is the index, in the upper
    (resp. lower) approximation lattice, of the image of base concept
    ``i``.  Built once by :func:`approximation_maps`; immutable after.
    """

    space: ApproximationSpace
    base: ConceptLattice
    upper: ConceptLattice
    lower: ConceptLattice
    to_upper: tuple[int, ...]
    to_lower: tuple[int, ...]

    @property
    def context(self) -> FormalContext:
        return self.base.context


def approximation_maps(
    space: ApproximationSpace,
    ctx: FormalContext,
    max_concepts: int = DEFAULT_MAX_CONCEPTS,
) -> ConceptApproximationMaps:
    """Enumerate the base and both approximation lattices and map into them."""
    require_same_universe(space, ctx)
    base = _enumerate("base", ctx, max_concepts)
    upper = _enumerate("upper", upper_context(space, ctx), max_concepts)
    lower = _enumerate("lower", lower_context(space, ctx), max_concepts)
    # Intent-first: the extent of a base intent in the approximation
    # context is closed there by construction.
    to_upper = tuple(upper._extent_index[upper.context._extent(i)] for i in base._intents)
    to_lower = tuple(lower._extent_index[lower.context._extent(i)] for i in base._intents)
    return ConceptApproximationMaps(space, base, upper, lower, to_upper, to_lower)


def _enumerate(name: str, ctx: FormalContext, max_concepts: int) -> ConceptLattice:
    """:func:`enumerate_concepts`, naming the lattice in a :class:`ConceptLimitError`."""
    try:
        return enumerate_concepts(ctx, max_concepts)
    except ConceptLimitError as exc:
        raise ConceptLimitError(f"{name} lattice: {exc}") from None


def concept_upper_approx(
    maps: ConceptApproximationMaps, concept: FormalConcept
) -> FormalConcept:
    """Image of a base concept in the upper approximation lattice."""
    maps.base.require_member(concept)
    return maps.upper[maps.to_upper[concept.index]]


def concept_lower_approx(
    maps: ConceptApproximationMaps, concept: FormalConcept
) -> FormalConcept:
    """Image of a base concept in the lower approximation lattice."""
    maps.base.require_member(concept)
    return maps.lower[maps.to_lower[concept.index]]


def lower_join(maps: ConceptApproximationMaps, concept: FormalConcept) -> FormalConcept:
    """Join of all base concepts whose extent fits inside the given upper concept.

    The unit inclusion ``c <= lower_join(upper image of c)`` holds for
    every base concept; the converse direction of the would-be
    adjunction depends on the partition (see the module docstring).

    The closed subsets of the extent U are the unions of object
    closures g'' inside U, so the join is the base closure of
    the union of {g'' : g in U, g'' ⊆ U}.
    """
    upper = maps.upper._extents[maps.upper.require_member(concept).index]
    ctx = maps.base.context
    closures = ctx._object_closures
    union = 0
    for g in _bits(upper):
        closure = closures[g]
        if not closure & ~upper:
            union |= closure
    return maps.base[maps.base._extent_index[ctx._extent(ctx._intent(union))]]


def upper_meet(maps: ConceptApproximationMaps, concept: FormalConcept) -> FormalConcept:
    """Meet of all base concepts whose extent covers the given lower concept.

    Left adjoint to the lower assignment: ``upper_meet(d) <= c`` iff
    ``d <= lower image of c``, for every context and partition.

    The meet of the closed supersets of the extent D is the base concept
    whose extent is the base closure D''.
    """
    lower = maps.lower._extents[maps.lower.require_member(concept).index]
    ctx = maps.base.context
    return maps.base[maps.base._extent_index[ctx._extent(ctx._intent(lower))]]


def concept_order(
    maps: ConceptApproximationMaps,
    first: FormalConcept,
    second: FormalConcept,
    mode: OrderMode,
) -> bool:
    """Preorder base concepts through their images (upper, lower, or both)."""
    if mode not in _MODES:
        raise ValueError(f"unknown order mode {mode!r}")
    i = maps.base.require_member(first).index
    j = maps.base.require_member(second).index
    ups, lows = maps.upper._extents, maps.lower._extents
    ok = True
    if mode in ("upper", "rough"):
        ok = not ups[maps.to_upper[i]] & ~ups[maps.to_upper[j]]
    if ok and mode in ("lower", "rough"):
        ok = not lows[maps.to_lower[i]] & ~lows[maps.to_lower[j]]
    return ok


def rough_concept_classes(maps: ConceptApproximationMaps) -> tuple[RoughConceptClass, ...]:
    """Partition of the base concepts by their pair of image concepts.

    This is the common refinement of the two kernels; classes are listed
    by their smallest member index.
    """
    return tuple(
        RoughConceptClass(
            members,
            maps.upper[maps.to_upper[members[0]]],
            maps.lower[maps.to_lower[members[0]]],
        )
        for members in _rough_class_members(maps)
    )


def _rough_class_members(maps: ConceptApproximationMaps) -> list[tuple[int, ...]]:
    """Each rough class's base concept indices, classes by their smallest member."""
    return sorted(_fibers(tuple(zip(maps.to_upper, maps.to_lower))))


def _fibers(assignment: tuple[int | tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """The indices grouped by their image, in ascending order of image."""
    groups: dict[int | tuple[int, int], list[int]] = {}
    for i, target in enumerate(assignment):
        groups.setdefault(target, []).append(i)
    return tuple(tuple(groups[t]) for t in sorted(groups))


def indiscernibility_kernels(
    maps: ConceptApproximationMaps,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Fibers of both assignments, ordered by image index.

    Returns the indiscernibility of possibility (fibers of the upper
    assignment) and of necessity (fibers of the lower assignment); both
    partition the base concept indices.
    """
    return _fibers(maps.to_upper), _fibers(maps.to_lower)
