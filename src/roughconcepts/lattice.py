"""Concept enumeration and the lattice structure on the result."""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import Callable, Iterable, Iterator

from ._record import Record
from .context import AttributeSet, FormalContext, ObjectSet, _bits, _mask
from .errors import ConceptLimitError, InvalidSetError, LatticeMismatchError

DEFAULT_MAX_CONCEPTS = 100_000
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # byte b, bits reversed


class FormalConcept(Record, hidden=("context",)):
    """An extent/intent pair closed under both derivation operators.

    ``context`` is the context of the lattice that enumerated the
    concept, which tells lattices apart in :func:`concept_leq`; it takes
    no part in equality, hashing or the repr.  Holding the context rather
    than the lattice keeps concepts and lattice free of reference cycles,
    so reference counting frees a dropped lattice.
    """

    extent: ObjectSet
    intent: AttributeSet
    index: int
    context: FormalContext | None = None


class ConceptLattice(Sequence):
    """All concepts of a context, in canonical order, and their Hasse covers.

    Canonical order is descending extent size with ties broken by the
    sorted extent index tuple; the top concept is always first and the
    bottom always last.  A concept is stored only as its extent and
    intent masks, from which every analysis and renderer computes.  The
    lattice is the read-only sequence of its concepts; ``lat[i]`` builds
    concept i's :class:`FormalConcept` record on its first read, and
    ``covers`` (the transitive reduction of extent inclusion, as (lower,
    upper) index pairs) is built when first read.  ``in``, ``index`` and
    ``count`` answer by :meth:`require_member`, the one membership rule,
    so they build at most the one record they compare.  Instances are
    immutable once built; use :func:`enumerate_concepts` to build one.
    """

    def __init__(self, context: FormalContext, closed: list[tuple[int, int]]):
        """``closed`` holds (extent mask, intent mask) pairs in canonical order."""
        self.context = context
        self._extents, self._intents = zip(*closed)
        self._extent_index = {e: index for index, e in enumerate(self._extents)}
        self._built: list[FormalConcept | None] = [None] * len(self._extents)

    @property
    def concepts(self) -> ConceptLattice:
        """The lattice itself, the read-only sequence of its concepts."""
        return self

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse diagram as sorted (lower, upper) index pairs."""
        return tuple(_covering_pairs(self._extents))

    def __len__(self) -> int:
        return len(self._extents)

    def __getitem__(self, index: int) -> FormalConcept:
        concept = self._built[index]
        if isinstance(concept, FormalConcept):
            return concept
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        index = range(len(self))[index]
        concept = self._built[index] = FormalConcept(
            frozenset(_bits(self._extents[index])),
            frozenset(_bits(self._intents[index])),
            index,
            self.context,
        )
        return concept

    @property
    def top(self) -> FormalConcept:
        return self[0]

    @property
    def bottom(self) -> FormalConcept:
        return self[-1]

    def concept_with_extent(self, extent: Iterable[int]) -> FormalConcept:
        """The unique concept with this extent; KeyError if the set is not closed."""
        try:
            mask = _mask(self.context.check_object_set(extent))
        except InvalidSetError:
            raise KeyError(extent) from None
        return self[self._extent_index[mask]]

    def require_member(self, concept: FormalConcept) -> FormalConcept:
        """The lattice's own instance of ``concept``.

        Membership is structural: a concept of a separately built lattice
        is accepted when its context and its record equal this lattice's.
        A value that is not a :class:`FormalConcept`, or a record whose
        index is not a plain ``int``, is refused.
        """
        context = _context_of(concept)
        if context is not self.context:
            _require_same_context(context, self.context)
        if type(concept.index) is int and 0 <= concept.index < len(self):
            own = self[concept.index]
            if own == concept:
                return own
        raise LatticeMismatchError("concept does not belong to this lattice")

    def _position(self, value: object) -> int:
        """The index :meth:`require_member` accepts ``value`` at, or -1 if it refuses it."""
        try:
            return self.require_member(value).index
        except LatticeMismatchError:
            return -1

    def __contains__(self, value: object) -> bool:
        return self._position(value) >= 0

    def count(self, value: object) -> int:
        return int(value in self)

    def index(self, value: object, start: int = 0, stop: int | None = None) -> int:
        position = self._position(value)
        if position not in range(len(self))[start:stop]:
            raise ValueError("concept is not in this lattice")
        return position


def enumerate_concepts(
    ctx: FormalContext, max_concepts: int = DEFAULT_MAX_CONCEPTS
) -> ConceptLattice:
    """All formal concepts of ``ctx`` as a :class:`ConceptLattice`, in canonical order.

    Close-by-One (Kuznetsov & Obiedkov 2002) on column masks, depth first on a stack:
    concept (A, B) hands A ∩ j' down to its child for attribute j, and a child whose
    intent gains an attribute below j outside B is dropped, so each concept is found once.
    """
    if type(max_concepts) is not int or max_concepts < 0:
        raise ValueError(f"max_concepts must be a nonnegative int, got {max_concepts!r}")
    columns = ctx._col_masks
    attributes = [(m, 1 << m, ~c) for m, c in enumerate(columns)]  # (m, bit, objects lacking m)
    extent = (1 << len(ctx.objects)) - 1
    closed: list[tuple[int, int]] = []
    stack = [(extent, ctx._intent(extent), 0)]
    while stack:
        extent, intent, start = stack.pop()
        closed.append((extent, intent))
        if len(closed) > max_concepts:
            raise ConceptLimitError(f"more than {max_concepts} concepts; raise the limit to proceed")
        outside = [a for a in attributes if not intent & a[1]]
        for j, _, _ in outside:
            if j < start:
                continue
            child, grown = extent & columns[j], intent
            for m, bit, lacking in outside:
                if not child & lacking:
                    if m < j:
                        break
                    grown |= bit
            else:
                stack.append((child, grown, j + 1))
    # Among equal sizes the lowest member of e ^ f decides, as between sorted member tuples;
    # with each byte's bits reversed and read big-endian, that member is the highest bit.
    size = (len(ctx.objects) + 7) // 8
    closed.sort(key=lambda c: (
        -c[0].bit_count(),
        -int.from_bytes(c[0].to_bytes(size, "little").translate(_REVERSED), "big"),
    ))
    return ConceptLattice(ctx, closed)


def _named_concepts(
    lat: ConceptLattice, encode: Callable[[str], str] = str
) -> Iterator[tuple[list[str], list[str]]]:
    """Each concept's object and attribute names in input order, read from its masks.

    Every renderer names members through this one table: each name of the
    context is passed through ``encode`` once per lattice, not once per concept.
    """
    objects = [encode(name) for name in lat.context.objects]
    attributes = [encode(name) for name in lat.context.attributes]
    for extent, intent in zip(lat._extents, lat._intents):
        yield [objects[g] for g in _bits(extent)], [attributes[m] for m in _bits(intent)]


def _covering_pairs(extents: Sequence[int]) -> list[tuple[int, int]]:
    """Transitive reduction of extent inclusion, as (lower, upper) index pairs.

    ``extents`` is in canonical order, so every strict superset of
    extent i comes before it and i's up-set lies among the j < i.  The
    highest index in that set is a cover of i, since anything between
    the two would come after it; taking covers nearest first and
    striking each cover's own up-set visits only i's covers.
    """
    above: list[int] = []
    covers: list[tuple[int, int]] = []
    for i, ei in enumerate(extents):
        up = 0
        for j in range(i):
            if not ei & ~extents[j]:
                up |= 1 << j
        above.append(up)
        while up:
            j = up.bit_length() - 1
            covers.append((i, j))
            up &= ~(above[j] | (1 << j))
    covers.sort()
    return covers


def _context_of(value: object) -> FormalContext | None:
    """The context of a concept record; any other value is refused as a non-member."""
    if not isinstance(value, FormalConcept):
        raise LatticeMismatchError(f"a value of type {type(value).__name__} is not a concept")
    return value.context


def _require_same_context(first: FormalContext | None, second: FormalContext | None) -> None:
    """Concepts share a lattice when their contexts are one object, or else equal."""
    if first is None or second is None:
        raise LatticeMismatchError("concept does not belong to a lattice")
    if first is not second and first != second:
        raise LatticeMismatchError("concepts come from different lattices")


def concept_leq(first: FormalConcept, second: FormalConcept) -> bool:
    """Generalization order: ``first <= second`` iff its extent is contained."""
    _require_same_context(_context_of(first), _context_of(second))
    return first.extent <= second.extent


def lattice_meet(lat: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Greatest lower bound; the empty collection meets to the top."""
    # The top's extent holds every object, and extents are closed under intersection.
    extent = lat._extents[0]
    for concept in concepts:
        extent &= lat._extents[lat.require_member(concept).index]
    return lat[lat._extent_index[extent]]


def lattice_join(lat: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Least upper bound; the empty collection joins to the bottom."""
    intent = lat._intents[-1]  # the bottom's intent: every attribute
    for concept in concepts:
        intent &= lat._intents[lat.require_member(concept).index]
    return lat[lat._extent_index[lat.context._extent(intent)]]
