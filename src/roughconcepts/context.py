"""Formal contexts, approximation spaces, and set-level primitives.

Objects and attributes are addressed by their position in the input
order, which fixes index assignment for everything downstream.  Public
functions take and return ``frozenset``s of such indices and check them
once, on entry.  Inside the package a set is an int bitmask (bit ``i``
for index ``i``); this module alone builds the row, column and block
masks, the mask operations extent, intent, upper and lower, and the
block rows (each block's union and meet of rows) that fix a whole
context's approximations.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import (
    DuplicateNameError,
    InvalidSetError,
    PartitionError,
    UniverseMismatchError,
    UnknownNameError,
)

ObjectSet = frozenset[int]
AttributeSet = frozenset[int]


def _mask(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _names(names: tuple[str, ...], indices: Iterable[int]) -> tuple[str, ...]:
    """Names of checked indices, in input order."""
    return tuple(names[i] for i in sorted(indices))


def _name_index(names: Iterable[str], kind: str) -> dict[str, int]:
    """Each name's position, built in the walk that checks names are nonempty and distinct."""
    index: dict[str, int] = {}
    for name in names:
        if not isinstance(name, str) or not name:
            raise InvalidSetError(f"{kind} names must be nonempty strings, got {name!r}")
        if name in index:
            raise DuplicateNameError(f"duplicate {kind} name {name!r}")
        index[name] = len(index)
    return index


def _keep_names(record: Record, field: str, kind: str) -> None:
    """Check the names of ``record.<field>`` and keep their index as ``_<kind>_index``."""
    index = _name_index(getattr(record, field), kind)
    object.__setattr__(record, field, tuple(index))
    object.__setattr__(record, f"_{kind}_index", index)


def _lookup(index: dict[str, int], name: str, kind: str) -> int:
    """The position of a name: the one place an unknown name is rejected."""
    try:
        return index[name]
    except KeyError:
        raise UnknownNameError(f"unknown {kind} {name!r}") from None


def _uncovered_message(names: Sequence[str]) -> str:
    """One line naming the objects no block covers: the first five, quoted, and a count."""
    more = f" and {len(names) - 5} more" if len(names) > 5 else ""
    return "objects not covered by any block: " + ", ".join(map(repr, names[:5])) + more


def _checked_index(i: int, size: int, kind: str) -> int:
    if not isinstance(i, int) or isinstance(i, bool):
        raise InvalidSetError(f"{kind} index {i!r} is not an int")
    if not 0 <= i < size:
        raise InvalidSetError(f"{kind} index {i!r} out of range for universe of size {size}")
    return i


def _checked_indices(values: Iterable[int], size: int, kind: str) -> frozenset[int]:
    out = frozenset(values)
    for i in out:
        _checked_index(i, size, kind)
    return out


def _checked_mask(values: Iterable[int], size: int, kind: str) -> tuple[frozenset[int], int]:
    """The index set and its mask, built in the walk that checks each index."""
    out = frozenset(values)
    mask = 0
    for i in out:
        mask |= 1 << _checked_index(i, size, kind)
    return out, mask


class _ObjectIndex:
    """Name and index helpers for a class with an ``objects`` name tuple."""

    objects: tuple[str, ...]
    _object_index: dict[str, int]

    def object_index(self, name: str) -> int:
        return _lookup(self._object_index, name, "object")

    def object_set(self, *names: str) -> ObjectSet:
        return frozenset(self.object_index(name) for name in names)

    def check_object_set(self, objects: Iterable[int]) -> ObjectSet:
        return _checked_indices(objects, len(self.objects), "object")


class FormalContext(Record, _ObjectIndex):
    """A binary incidence table between named objects and attributes.

    ``rows[g]`` holds the attribute indices object ``g`` has; the rows are
    the one way the incidence enters, and the walk that checks them builds
    ``_row_masks``.  The column masks are the row masks transposed and
    ``columns`` views them, so no two views can disagree.  Immutable, hashable.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[AttributeSet, ...]

    def __post_init__(self) -> None:
        _keep_names(self, "objects", "object")
        _keep_names(self, "attributes", "attribute")
        checked = [_checked_mask(row, len(self.attributes), "attribute") for row in self.rows]
        if len(checked) != len(self.objects):
            raise InvalidSetError(f"expected {len(self.objects)} incidence rows, got {len(checked)}")
        object.__setattr__(self, "rows", tuple(row for row, _ in checked))
        object.__setattr__(self, "_row_masks", tuple(mask for _, mask in checked))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        objects: Sequence[str],
        attributes: Sequence[str],
        pairs: Iterable[tuple[str, str]],
    ) -> "FormalContext":
        """Build a context from (object name, attribute name) pairs."""
        obj_index = _name_index(objects, "object")
        attr_index = _name_index(attributes, "attribute")
        rows: list[set[int]] = [set() for _ in obj_index]
        for obj, attr in pairs:
            rows[_lookup(obj_index, obj, "object")].add(_lookup(attr_index, attr, "attribute"))
        return cls(tuple(obj_index), tuple(attr_index), tuple(frozenset(r) for r in rows))

    # -- name/index helpers --------------------------------------------------

    def attribute_index(self, name: str) -> int:
        return _lookup(self._attribute_index, name, "attribute")

    def attribute_set(self, *names: str) -> AttributeSet:
        return frozenset(self.attribute_index(name) for name in names)

    def object_names(self, objects: Iterable[int]) -> tuple[str, ...]:
        """Names of the given object indices, in input order."""
        return _names(self.objects, self.check_object_set(objects))

    def attribute_names(self, attributes: Iterable[int]) -> tuple[str, ...]:
        """Names of the given attribute indices, in input order."""
        return _names(self.attributes, self.check_attribute_set(attributes))

    # -- incidence views -------------------------------------------------------

    @cached_property
    def columns(self) -> tuple[ObjectSet, ...]:
        """Per-attribute extents, a view of the column masks."""
        return tuple(frozenset(_bits(column)) for column in self._col_masks)

    @cached_property
    def _col_masks(self) -> tuple[int, ...]:
        cols = [0] * len(self.attributes)
        for g, row in enumerate(self._row_masks):
            for m in _bits(row):
                cols[m] |= 1 << g
        return tuple(cols)

    def _extent(self, attributes: int) -> int:
        """Mask of the objects having every attribute in the mask."""
        out = (1 << len(self.objects)) - 1
        columns = self._col_masks
        for m in _bits(attributes):
            out &= columns[m]
        return out

    @cached_property
    def _object_closures(self) -> tuple[int, ...]:
        """Each object's closure g'' as a mask: the objects having every attribute g has."""
        return tuple(self._extent(row) for row in self._row_masks)

    def _intent(self, objects: int) -> int:
        """Mask of the attributes shared by every object in the mask."""
        out = (1 << len(self.attributes)) - 1
        rows = self._row_masks
        for g in _bits(objects):
            out &= rows[g]
        return out

    def has(self, g: int, m: int) -> bool:
        """Whether object ``g`` has attribute ``m`` (by index)."""
        row = self.rows[_checked_index(g, len(self.objects), "object")]
        return _checked_index(m, len(self.attributes), "attribute") in row

    @property
    def incidence_count(self) -> int:
        return sum(len(row) for row in self.rows)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All incidence pairs, ordered by object then attribute index."""
        for g, row in enumerate(self.rows):
            for m in sorted(row):
                yield g, m

    def check_attribute_set(self, attributes: Iterable[int]) -> AttributeSet:
        return _checked_indices(attributes, len(self.attributes), "attribute")


class ApproximationSpace(Record, _ObjectIndex):
    """A partition of the object universe into indiscernibility blocks.

    Two objects are indiscernible exactly when they share a block, which
    realizes the underlying equivalence relation with O(1) lookup.  Blocks
    are sorted by their smallest member, so equal partitions compare equal
    whatever the input order; the walk that checks them builds ``_block_masks``.
    """

    objects: tuple[str, ...]
    blocks: tuple[ObjectSet, ...]

    def __post_init__(self) -> None:
        _keep_names(self, "objects", "object")
        checked = []
        covered = 0
        for block in [frozenset(block) for block in self.blocks]:  # each a set before any check
            if not block:
                raise PartitionError("blocks must be nonempty")
            block, mask = _checked_mask(block, len(self.objects), "object")
            if covered & mask:
                name = self.objects[next(_bits(covered & mask))]
                raise PartitionError(f"object {name!r} appears in more than one block")
            covered |= mask
            checked.append((block, mask))
        missing = ((1 << len(self.objects)) - 1) & ~covered
        if missing:
            raise PartitionError(_uncovered_message([self.objects[g] for g in _bits(missing)]))
        checked.sort(key=lambda pair: pair[1] & -pair[1])  # by smallest member
        object.__setattr__(self, "blocks", tuple(block for block, _ in checked))
        object.__setattr__(self, "_block_masks", tuple(mask for _, mask in checked))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_names(
        cls, objects: Sequence[str], named_blocks: Iterable[Sequence[str]]
    ) -> "ApproximationSpace":
        """Build a space from blocks given as lists of object names."""
        index = _name_index(objects, "object")
        blocks: list[frozenset[int]] = []
        for block in named_blocks:
            ids = set()
            for name in block:
                g = _lookup(index, name, "object")
                if g in ids:
                    raise PartitionError(f"object {name!r} listed twice within a block")
                ids.add(g)
            blocks.append(frozenset(ids))
        return cls(tuple(index), tuple(blocks))

    @classmethod
    def identity(cls, objects: Sequence[str]) -> "ApproximationSpace":
        """The finest partition: every object alone in its block."""
        objects = tuple(objects)
        return cls(objects, tuple(frozenset({i}) for i in range(len(objects))))

    @classmethod
    def from_attribute_classes(
        cls, ctx: FormalContext, attributes: Iterable[int]
    ) -> "ApproximationSpace":
        """Partition objects by equality of their rows restricted to ``attributes``."""
        members = ctx.check_attribute_set(attributes)
        groups: dict[frozenset[int], set[int]] = {}
        for g in range(len(ctx.objects)):
            groups.setdefault(ctx.rows[g] & members, set()).add(g)
        return cls(ctx.objects, tuple(frozenset(v) for v in groups.values()))

    # -- lookup ------------------------------------------------------------

    @cached_property
    def _block_index(self) -> tuple[int, ...]:
        out = [0] * len(self.objects)
        for b, block in enumerate(self.blocks):
            for g in block:
                out[g] = b
        return tuple(out)

    def block_index_of(self, g: int) -> int:
        return self._block_index[_checked_index(g, len(self.objects), "object")]

    def block_of(self, g: int) -> ObjectSet:
        """The indiscernibility block containing object ``g``."""
        return self.blocks[self.block_index_of(g)]

    def _upper(self, objects: int) -> int:
        """Union of the blocks meeting the object mask."""
        out = 0
        for block in self._block_masks:
            if block & objects:
                out |= block
        return out

    def _lower(self, objects: int) -> int:
        """Union of the blocks inside the mask: the complement of ``_upper`` of its complement."""
        full = (1 << len(self.objects)) - 1
        return full & ~self._upper(full & ~objects)

    def _block_rows(self, ctx: FormalContext) -> tuple[list[int], list[int]]:
        """The union and the meet of each block's row masks in ``ctx``, indexed by block.

        Blocks are never empty, so each meet is inside its union.
        """
        unions = [0] * len(self.blocks)
        meets = [(1 << len(ctx.attributes)) - 1] * len(self.blocks)
        for b, row in zip(self._block_index, ctx._row_masks):
            unions[b] |= row
            meets[b] &= row
        return unions, meets

    def _blocks_meeting(self, objects: int) -> ObjectSet:
        """Frozenset union of the blocks meeting the mask (the mask's own set if definable)."""
        out: set[int] = set()
        while objects:
            b = self._block_index[(objects & -objects).bit_length() - 1]
            out |= self.blocks[b]
            objects &= ~self._block_masks[b]
        return frozenset(out)


def require_same_universe(space: ApproximationSpace, ctx: FormalContext) -> None:
    if space.objects != ctx.objects:
        raise UniverseMismatchError(
            "context and approximation space name different object universes"
        )


# -- derivation operators ------------------------------------------------------
# Frozensets here: a mask result converted back through ``_bits`` costs about twice as much.


def derive_intent(ctx: FormalContext, objects: Iterable[int]) -> AttributeSet:
    """Attributes shared by every object in the set.

    The empty set derives to all of the attributes (empty-intersection
    convention), making this one half of a Galois connection with
    :func:`derive_extent`.
    """
    members = ctx.check_object_set(objects)
    if not members:
        return frozenset(range(len(ctx.attributes)))
    return frozenset.intersection(*(ctx.rows[g] for g in members))


def derive_extent(ctx: FormalContext, attributes: Iterable[int]) -> ObjectSet:
    """Objects having every attribute in the set (all objects for the empty set)."""
    members = ctx.check_attribute_set(attributes)
    if not members:
        return frozenset(range(len(ctx.objects)))
    return frozenset.intersection(*(ctx.columns[m] for m in members))


# -- set approximation -----------------------------------------------------


def upper_approx_set(space: ApproximationSpace, objects: Iterable[int]) -> ObjectSet:
    """Union of all blocks meeting the set: its least definable superset."""
    return space._blocks_meeting(_mask(space.check_object_set(objects)))


def lower_approx_set(space: ApproximationSpace, objects: Iterable[int]) -> ObjectSet:
    """Union of all blocks contained in the set: its greatest definable subset."""
    return space._blocks_meeting(space._lower(_mask(space.check_object_set(objects))))


def is_definable_set(space: ApproximationSpace, objects: Iterable[int]) -> bool:
    """Whether the set is exactly a union of indiscernibility blocks."""
    members = _mask(space.check_object_set(objects))
    return space._upper(members) == members


def definable_attributes(space: ApproximationSpace, ctx: FormalContext) -> AttributeSet:
    """Attributes whose extent is definable; all of them iff the context is definable.

    An extent is definable when each block lies inside it or misses it,
    that is when every block's row union and row meet agree on the attribute.
    """
    require_same_universe(space, ctx)
    unions, meets = space._block_rows(ctx)
    mixed = 0
    for union, meet in zip(unions, meets):
        mixed |= union ^ meet
    return frozenset(_bits(((1 << len(ctx.attributes)) - 1) & ~mixed))
