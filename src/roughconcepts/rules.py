"""Attribute implications, their exact rough measures, and modal rules."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ._record import Record
from .approx import _extent_mask
from .context import ApproximationSpace, AttributeSet, FormalContext, derive_extent
from .errors import UndefinedMeasureError

if TYPE_CHECKING:
    from fractions import Fraction


class Implication(Record):
    """``premise -> conclusion`` over the attributes of some context."""

    premise: AttributeSet
    conclusion: AttributeSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "premise", frozenset(self.premise))
        object.__setattr__(self, "conclusion", frozenset(self.conclusion))

    @classmethod
    def of(
        cls,
        ctx: FormalContext,
        premise_names: Sequence[str],
        conclusion_names: Sequence[str],
    ) -> "Implication":
        return cls(ctx.attribute_set(*premise_names), ctx.attribute_set(*conclusion_names))


class RoughMeasure(Record):
    """Exact fraction of premise-carrying objects that also carry the conclusion.

    Kept as raw counts; ``value`` reduces to a :class:`Fraction` so the
    result is bit-stable, never a float.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise UndefinedMeasureError("empty premise extent leaves the measure undefined")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("numerator must lie between 0 and the denominator")

    @property
    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)


def implication_holds(ctx: FormalContext, implication: Implication) -> bool:
    """Whether every object with all premise attributes has all conclusion attributes."""
    return derive_extent(ctx, implication.premise) <= derive_extent(
        ctx, implication.conclusion
    )


def rough_measure(ctx: FormalContext, implication: Implication) -> RoughMeasure:
    """|premise extent ∩ conclusion extent| / |premise extent| as an exact ratio.

    Raises :class:`UndefinedMeasureError` when the premise extent is
    empty; that case is never reported as 1.
    """
    premise = derive_extent(ctx, implication.premise)
    conclusion = derive_extent(ctx, implication.conclusion)
    return RoughMeasure(len(premise & conclusion), len(premise))


def certain_rule(
    space: ApproximationSpace, ctx: FormalContext, implication: Implication
) -> bool:
    """Whether the implication holds in the lower approximation context."""
    premise = _extent_mask(space, ctx, implication.premise, space._lower)
    return not premise & ~_extent_mask(space, ctx, implication.conclusion, space._lower)


def possible_rule(
    space: ApproximationSpace, ctx: FormalContext, implication: Implication
) -> bool:
    """Whether the implication holds in the upper approximation context."""
    premise = _extent_mask(space, ctx, implication.premise, space._upper)
    return not premise & ~_extent_mask(space, ctx, implication.conclusion, space._upper)
