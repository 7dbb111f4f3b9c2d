"""Context-level approximation relative to an indiscernibility partition.

Approximating a whole context is columnwise: each attribute extent is
replaced by its upper or lower approximation.  Both results are
definable contexts and bracket the original one.  Row g of the upper
context is the union of the rows of g's block, and of the lower context
their meet, since g is in the upper approximation of m' iff its block
meets m', and in the lower iff its block lies inside m'.  So the block
rows of :meth:`ApproximationSpace._block_rows` fix both contexts, and
every context-level function here reads them alone.
"""

from __future__ import annotations

from typing import Callable, Iterable, Literal

from ._record import Record
from .context import (
    ApproximationSpace,
    FormalContext,
    ObjectSet,
    _bits,
    _checked_index,
    _mask,
    require_same_universe,
)
from .errors import ShapeMismatchError

OrderMode = Literal["upper", "lower", "rough"]
_MODES = ("upper", "lower", "rough")


def _from_block_rows(
    space: ApproximationSpace, ctx: FormalContext, block_rows: list[int]
) -> FormalContext:
    """The context whose row g is the row of g's block, one frozenset per block."""
    rows = [frozenset(_bits(row)) for row in block_rows]
    return FormalContext(ctx.objects, ctx.attributes, [rows[b] for b in space._block_index])


def upper_context(space: ApproximationSpace, ctx: FormalContext) -> FormalContext:
    """Columnwise upper approximation: the least definable context containing ``ctx``.

    Row g is the union of the rows of g's block: g possibly has m iff
    some object indiscernible from g has m.
    """
    require_same_universe(space, ctx)
    return _from_block_rows(space, ctx, space._block_rows(ctx)[0])


def lower_context(space: ApproximationSpace, ctx: FormalContext) -> FormalContext:
    """Columnwise lower approximation: the greatest definable context inside ``ctx``.

    Row g is the meet of the rows of g's block: g certainly has m iff
    every object indiscernible from g has m.
    """
    require_same_universe(space, ctx)
    return _from_block_rows(space, ctx, space._block_rows(ctx)[1])


def _extent_mask(
    space: ApproximationSpace, ctx: FormalContext, attrs: Iterable[int], approx: Callable[[int], int]
) -> int:
    """Extent of ``attrs`` in the ``approx``-approximated context, without building it."""
    require_same_universe(space, ctx)
    out = (1 << len(ctx.objects)) - 1
    for m in ctx.check_attribute_set(attrs):
        out &= approx(ctx._col_masks[m])
    return out


def extent_upper_free(
    space: ApproximationSpace, ctx: FormalContext, attributes: Iterable[int]
) -> ObjectSet:
    """Intersection of the upper-approximated attribute extents.

    This is the official attribute-set extent under the upper
    approximation (it equals the plain extent taken in the upper
    context); an object belongs iff it possibly carries every listed
    attribute individually.
    """
    return space._blocks_meeting(_extent_mask(space, ctx, attributes, space._upper))


def extent_upper_strict(
    space: ApproximationSpace, ctx: FormalContext, attributes: Iterable[int]
) -> ObjectSet:
    """Upper approximation of the plain attribute-set extent.

    Always contained in :func:`extent_upper_free`: it only keeps blocks
    that meet the combined extent, not blocks meeting each individual
    extent.
    """
    require_same_universe(space, ctx)
    return space._blocks_meeting(ctx._extent(_mask(ctx.check_attribute_set(attributes))))


def extent_lower(
    space: ApproximationSpace, ctx: FormalContext, attributes: Iterable[int]
) -> ObjectSet:
    """Attribute-set extent under the lower approximation.

    Intersecting the lowered columns and lowering the intersected extent
    coincide, so there is a single lower variant.
    """
    return space._blocks_meeting(_extent_mask(space, ctx, attributes, space._lower))


def _resolve_object(ctx: FormalContext, obj: int | str) -> int:
    if isinstance(obj, str):
        return ctx.object_index(obj)
    return _checked_index(obj, len(ctx.objects), "object")


def possibly_has(
    space: ApproximationSpace,
    ctx: FormalContext,
    obj: int | str,
    attributes: Iterable[int],
) -> bool:
    """Whether the object possibly has every attribute in the set."""
    g = _resolve_object(ctx, obj)
    return bool(_extent_mask(space, ctx, attributes, space._upper) >> g & 1)


def certainly_has(
    space: ApproximationSpace,
    ctx: FormalContext,
    obj: int | str,
    attributes: Iterable[int],
) -> bool:
    """Whether the object certainly has every attribute in the set."""
    g = _resolve_object(ctx, obj)
    return bool(_extent_mask(space, ctx, attributes, space._lower) >> g & 1)


def _require_same_shape(first: FormalContext, second: FormalContext) -> None:
    if first.objects != second.objects or first.attributes != second.attributes:
        raise ShapeMismatchError("contexts must share both object and attribute lists")


def relation_subset(first: FormalContext, second: FormalContext) -> bool:
    """Incidence-wise containment of two same-shape contexts."""
    _require_same_shape(first, second)
    return all(a <= b for a, b in zip(first.rows, second.rows))


def context_order(
    space: ApproximationSpace,
    first: FormalContext,
    second: FormalContext,
    mode: OrderMode,
) -> bool:
    """Preorder contexts through their approximations.

    ``upper`` compares upper approximations (Smyth), ``lower`` compares
    lower approximations (Hoare), and ``rough`` requires both (Milner).
    All three are relative to the fixed partition ``space``.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown order mode {mode!r}")
    _require_same_shape(first, second)
    require_same_universe(space, first)
    first_rows, second_rows = space._block_rows(first), space._block_rows(second)
    ok = True
    if mode in ("upper", "rough"):
        ok = all(not a & ~b for a, b in zip(first_rows[0], second_rows[0]))
    if ok and mode in ("lower", "rough"):
        ok = all(not a & ~b for a, b in zip(first_rows[1], second_rows[1]))
    return ok


def contexts_roughly_equal(
    space: ApproximationSpace, first: FormalContext, second: FormalContext
) -> bool:
    """Whether both approximations of the two contexts coincide exactly."""
    _require_same_shape(first, second)
    require_same_universe(space, first)
    return space._block_rows(first) == space._block_rows(second)


class RoughFormalContext(Record, hidden=("space", "representative")):
    """A context bundled with its two definable approximations.

    All contexts sharing both approximations form one rough context, so
    the (lower, upper) pair is the canonical representative of the whole
    class and equality compares exactly that pair.
    """

    space: ApproximationSpace
    representative: FormalContext
    upper: FormalContext
    lower: FormalContext

    def __post_init__(self) -> None:
        require_same_universe(self.space, self.representative)
        if not (
            relation_subset(self.lower, self.representative)
            and relation_subset(self.representative, self.upper)
        ):
            raise ValueError("approximations do not sandwich the representative context")


def rough_context(space: ApproximationSpace, ctx: FormalContext) -> RoughFormalContext:
    """Canonical representation of the class of contexts roughly equal to ``ctx``."""
    return RoughFormalContext(
        space, ctx, upper_context(space, ctx), lower_context(space, ctx)
    )
