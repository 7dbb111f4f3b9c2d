"""Naive reference computations and the checks built on them.

Everything here works on Python ints used as bitmasks (bit ``g`` of an
object set is object ``g``) and never calls into ``roughconcepts``.  The
checks compare a neutral description of the program's results (lists of
extent/intent masks, index pairs, plain values) against these
computations or against properties the method must have, and raise
:class:`CheckError` on the first disagreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class CheckError(Exception):
    """A result of the program disagrees with the reference."""


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def to_mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def concept_key(extent: int) -> tuple:
    """Canonical concept order: larger extents first, ties by sorted members."""
    return (-extent.bit_count(), tuple(bits(extent)))


@dataclass(frozen=True)
class Table:
    """A formal context as row masks (attributes per object)."""

    rows: tuple[int, ...]
    n_attributes: int

    @property
    def n_objects(self) -> int:
        return len(self.rows)

    @property
    def all_objects(self) -> int:
        return (1 << len(self.rows)) - 1

    @property
    def all_attributes(self) -> int:
        return (1 << self.n_attributes) - 1

    @cached_property
    def cols(self) -> tuple[int, ...]:
        return tuple(
            to_mask(g for g, row in enumerate(self.rows) if row >> m & 1)
            for m in range(self.n_attributes)
        )

    @classmethod
    def from_cols(cls, cols, n_objects: int) -> "Table":
        rows = tuple(
            to_mask(m for m, col in enumerate(cols) if col >> g & 1) for g in range(n_objects)
        )
        return cls(rows, len(cols))

    def extent(self, attrs: int) -> int:
        out = self.all_objects
        for m in bits(attrs):
            out &= self.cols[m]
        return out

    def intent(self, objs: int) -> int:
        out = self.all_attributes
        for g in bits(objs):
            out &= self.rows[g]
        return out

    def closure(self, objs: int) -> int:
        return self.extent(self.intent(objs))


def upper_set(blocks, objs: int) -> int:
    """Union of the blocks that meet ``objs``."""
    out = 0
    for block in blocks:
        if block & objs:
            out |= block
    return out


def lower_set(blocks, objs: int) -> int:
    """Union of the blocks contained in ``objs``."""
    out = 0
    for block in blocks:
        if block & objs == block:
            out |= block
    return out


def upper_table(table: Table, blocks) -> Table:
    return Table.from_cols([upper_set(blocks, c) for c in table.cols], table.n_objects)


def lower_table(table: Table, blocks) -> Table:
    return Table.from_cols([lower_set(blocks, c) for c in table.cols], table.n_objects)


def closure_system(table: Table) -> set[int]:
    """Every intersection of column extents, the empty intersection included."""
    extents = {table.all_objects}
    for col in table.cols:
        extents |= {e & col for e in extents}
    return extents


def lattice(table: Table) -> list[tuple[int, int]]:
    """All concepts as (extent, intent) masks, in canonical order."""
    extents = sorted(closure_system(table), key=concept_key)
    return [(e, table.intent(e)) for e in extents]


def all_pairs_covers(extents: list[int]) -> list[tuple[int, int]]:
    """Transitive reduction of extent inclusion, by testing every pair."""
    above = [
        to_mask(j for j, high in enumerate(extents) if high != low and low & ~high == 0)
        for low in extents
    ]
    covers = []
    for i, up in enumerate(above):
        reachable = 0
        for j in bits(up):
            reachable |= above[j]
        covers.extend((i, j) for j in bits(up & ~reachable))
    return sorted(covers)


def fibers(assignment) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for i, target in enumerate(assignment):
        groups.setdefault(target, []).append(i)
    return [groups[t] for t in sorted(groups)]


def measure(table: Table, premise: int, conclusion: int) -> Fraction | None:
    """Exact share of premise objects that carry the conclusion; None when undefined."""
    prem = table.extent(premise)
    if not prem:
        return None
    return Fraction((prem & table.extent(conclusion)).bit_count(), prem.bit_count())


def holds(table: Table, premise: int, conclusion: int) -> bool:
    return table.extent(premise) & ~table.extent(conclusion) == 0


# -- checks -------------------------------------------------------------------


def _fail(label: str, message: str) -> None:
    raise CheckError(f"{label}: {message}")


def check_table(label: str, got: Table, expected: Table) -> None:
    if got != expected:
        diff = [g for g, (a, b) in enumerate(zip(got.rows, expected.rows)) if a != b]
        _fail(label, f"incidence differs on objects {diff[:5]} (shape {got.n_objects}x{got.n_attributes})")


def check_lattice(
    label: str,
    table: Table,
    concepts: list[tuple[int, int]],
    covers: list[tuple[int, int]],
    cover_sample: int | None = None,
    rnd: random.Random | None = None,
) -> None:
    """Check concepts against the closure oracle and covers against the order.

    With ``cover_sample`` unset the covers are compared with an all-pairs
    reduction.  Otherwise every listed pair is checked to be a cover, with
    no concept between its ends, and for a seeded sample of concepts the
    listed upper covers are checked to be exactly the minimal closures of
    ``A ∪ {g}``.
    """
    extents = [e for e, _ in concepts]
    if len(set(extents)) != len(extents):
        _fail(label, "duplicate extents")
    expected = closure_system(table)
    if set(extents) != expected:
        missing = len(expected - set(extents))
        extra = len(set(extents) - expected)
        _fail(label, f"{missing} closed extents missing, {extra} listed extents not closed")
    for i, (extent, intent) in enumerate(concepts):
        if intent != table.intent(extent):
            _fail(label, f"concept {i} intent is not the common attributes of its extent")
    keys = [concept_key(e) for e in extents]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        _fail(label, "concepts are not in canonical order")
    if cover_sample is None:
        if sorted(covers) != all_pairs_covers(extents) or len(covers) != len(set(covers)):
            _fail(label, "covers differ from the all-pairs reduction")
        return
    _check_cover_pairs(label, table, concepts, covers)
    up: dict[int, set[int]] = {}
    for low, high in covers:
        up.setdefault(low, set()).add(extents[high])
    rnd = rnd or random.Random(0)
    for i in rnd.sample(range(len(concepts)), min(cover_sample, len(concepts))):
        extent, intent = concepts[i]
        candidates = {
            table.extent(intent & table.rows[g]) for g in bits(table.all_objects & ~extent)
        }
        minimal = {c for c in candidates if not any(d != c and d & ~c == 0 for d in candidates)}
        if up.get(i, set()) != minimal:
            _fail(label, f"upper covers of concept {i} are not the minimal closures of A+g")


def _check_cover_pairs(label, table, concepts, covers) -> None:
    if len(covers) != len(set(covers)):
        _fail(label, "duplicate cover pairs")
    closed: dict[int, int] = {}  # intent mask -> its extent
    for low, high in covers:
        if not (0 <= low < len(concepts) and 0 <= high < len(concepts)):
            _fail(label, f"cover pair {(low, high)} out of range")
        e_low, i_low = concepts[low]
        e_high = concepts[high][0]
        if e_low == e_high or e_low & ~e_high:
            _fail(label, f"cover pair {(low, high)} is not a strict inclusion")
        # (A, B) is a cover iff closing A ∪ {g} gives B for every g in B \ A: for
        # g in C \ A, an intermediate concept C holds that closure below B.
        for g in bits(e_high & ~e_low):
            intent = i_low & table.rows[g]
            if intent not in closed:
                closed[intent] = table.extent(intent)
            if closed[intent] != e_high:
                _fail(label, f"cover pair {(low, high)} skips an intermediate concept")


@dataclass
class MapsResult:
    """Neutral form of an approximation-maps result."""

    base: list[tuple[int, int]]
    upper: list[tuple[int, int]]
    lower: list[tuple[int, int]]
    covers: dict[str, list[tuple[int, int]]]
    upper_table: Table
    lower_table: Table
    to_upper: list[int]
    to_lower: list[int]
    kernels: tuple[list[list[int]], list[list[int]]]
    classes: list[tuple[list[int], int, int]]


def check_maps(
    label: str,
    table: Table,
    blocks,
    got: MapsResult,
    cover_sample: int | None = None,
    adjunction_sample: int = 0,
    rnd: random.Random | None = None,
) -> None:
    """Check all three lattices, both assignments, kernels and rough classes."""
    rnd = rnd or random.Random(0)
    up_table = upper_table(table, blocks)
    low_table = lower_table(table, blocks)
    check_table(f"{label} upper context", got.upper_table, up_table)
    check_table(f"{label} lower context", got.lower_table, low_table)
    for name, lat, tab in (
        ("base", got.base, table),
        ("upper", got.upper, up_table),
        ("lower", got.lower, low_table),
    ):
        check_lattice(f"{label} {name}", tab, lat, got.covers[name], cover_sample, rnd)
    for name, lat, tab, assignment in (
        ("to_upper", got.upper, up_table, got.to_upper),
        ("to_lower", got.lower, low_table, got.to_lower),
    ):
        index = {e: k for k, (e, _) in enumerate(lat)}
        expected = [index[tab.extent(intent)] for _, intent in got.base]
        if list(assignment) != expected:
            _fail(label, f"{name} differs from the naive images of the base intents")
    if [list(f) for f in got.kernels[0]] != fibers(got.to_upper):
        _fail(label, "possibility kernel is not the fibers of to_upper")
    if [list(f) for f in got.kernels[1]] != fibers(got.to_lower):
        _fail(label, "necessity kernel is not the fibers of to_lower")
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pair in enumerate(zip(got.to_upper, got.to_lower)):
        groups.setdefault(pair, []).append(i)
    expected = sorted((members, *key) for key, members in groups.items())
    if [(list(m), u, lo) for m, u, lo in got.classes] != expected:
        _fail(label, "rough classes are not the common refinement of the two kernels")
    # Lower-side adjunction (a theorem): upper_meet(d) <= c iff d <= lower image of c,
    # where upper_meet(d) is the base closure of the lower extent d.
    for _ in range(adjunction_sample):
        c = rnd.randrange(len(got.base))
        d = got.lower[rnd.randrange(len(got.lower))][0]
        left = table.closure(d) & ~got.base[c][0] == 0
        right = d & ~got.lower[got.to_lower[c]][0] == 0
        if left != right:
            _fail(label, f"lower adjunction fails for base concept {c}")
