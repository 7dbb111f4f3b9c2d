"""Seeded input generation, and conversion of inputs for the program.

Inputs are made here as bitmask tables and block lists; the program
receives them either as ``roughconcepts`` objects built through its
public constructors or as files in its input formats, written by this
module rather than by the program's own renderers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import Table, bits, closure_system, to_mask, upper_table


@dataclass(frozen=True)
class Case:
    """A context with a partition of its objects, plus names for both sides."""

    name: str
    table: Table
    blocks: tuple[int, ...]
    objects: tuple[str, ...] = ()  # default names g0, g1, ... and m0, m1, ...
    attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.objects:
            object.__setattr__(self, "objects", tuple(f"g{g}" for g in range(self.table.n_objects)))
        if not self.attributes:
            names = tuple(f"m{m}" for m in range(self.table.n_attributes))
            object.__setattr__(self, "attributes", names)

    def program_objects(self, rc):
        """The case as a ``FormalContext`` and an ``ApproximationSpace``."""
        ctx = rc.FormalContext(
            self.objects, self.attributes, tuple(frozenset(bits(r)) for r in self.table.rows)
        )
        space = rc.ApproximationSpace(self.objects, tuple(frozenset(bits(b)) for b in self.blocks))
        return ctx, space


def random_table(rnd: random.Random, n: int, m: int, density: float) -> Table:
    """Exactly ``round(density * n * m)`` crosses placed uniformly at random."""
    rows = [0] * n
    for cell in rnd.sample(range(n * m), round(density * n * m)):
        g, a = divmod(cell, m)
        rows[g] |= 1 << a
    return Table(tuple(rows), m)


def random_blocks(rnd: random.Random, n: int, k: int) -> tuple[int, ...]:
    """A random partition of ``n`` objects into ``k`` blocks of near-equal size."""
    order = list(range(n))
    rnd.shuffle(order)
    return tuple(to_mask(order[i::k]) for i in range(k))


def random_case(rnd: random.Random, name: str, n: int, m: int, density: float, k: int) -> Case:
    return Case(name, random_table(rnd, n, m, density), random_blocks(rnd, n, k))


def sized_case(
    rnd: random.Random, name: str, n: int, m: int, density: float, k: int,
    target_upper: int, candidates: int,
) -> Case:
    """Of ``candidates`` random cases, the one whose upper lattice size is nearest the target.

    Drawing a fixed number of candidates keeps set-up work independent of
    the seed, and pinning the upper lattice size keeps the work of one
    operation nearly the same from seed to seed.
    """
    best = None
    for _ in range(candidates):
        case = random_case(rnd, name, n, m, density, k)
        size = len(closure_system(upper_table(case.table, case.blocks)))
        if best is None or abs(size - target_upper) < best[0]:
            best = (abs(size - target_upper), case)
    return best[1]


# -- files in the program's input formats ---------------------------------------


def cxt_text(case: Case) -> str:
    lines = ["B", "", str(case.table.n_objects), str(case.table.n_attributes), ""]
    lines += case.objects
    lines += case.attributes
    for row in case.table.rows:
        lines.append("".join("X" if row >> m & 1 else "." for m in range(case.table.n_attributes)))
    return "\n".join(lines) + "\n"


def csv_text(case: Case) -> str:
    lines = ["," + ",".join(case.attributes)]
    for name, row in zip(case.objects, case.table.rows):
        marks = ["X" if row >> m & 1 else "" for m in range(case.table.n_attributes)]
        lines.append(name + "," + ",".join(marks))
    return "\n".join(lines) + "\n"


def json_text(case: Case) -> str:
    """The JSON format, with the partition embedded."""
    doc = {
        "objects": list(case.objects),
        "attributes": list(case.attributes),
        "incidence": [
            [case.objects[g], case.attributes[m]]
            for g, row in enumerate(case.table.rows)
            for m in bits(row)
        ],
        "partition": [[case.objects[g] for g in bits(b)] for b in case.blocks],
    }
    return json.dumps(doc)


def partition_text(case: Case) -> str:
    return "".join(", ".join(case.objects[g] for g in bits(b)) + "\n" for b in case.blocks)


# -- the paper's example, read from the repository's fixtures -------------------


def read_living(data_dir: Path) -> Case:
    """The living-organisms example from its .cxt and partition files, by a minimal reader."""
    lines = (data_dir / "living.cxt").read_text().split("\n")
    n, m = int(lines[2]), int(lines[3])
    objects = tuple(x.strip() for x in lines[5 : 5 + n])
    attributes = tuple(x.strip() for x in lines[5 + n : 5 + n + m])
    start = 5 + n + m
    rows = tuple(
        to_mask(a for a, ch in enumerate(lines[start + g].strip()) if ch == "X") for g in range(n)
    )
    index = {name: g for g, name in enumerate(objects)}
    blocks = []
    for line in (data_dir / "living_partition.txt").read_text().split("\n"):
        line = line.split("#", 1)[0].strip()
        if line:
            blocks.append(to_mask(index[x.strip()] for x in line.split(",") if x.strip()))
    return Case("living", Table(rows, m), tuple(blocks), objects, attributes)
