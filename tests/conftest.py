"""Shared fixtures: the living-organisms context, its partition, and generators."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from roughconcepts import ApproximationSpace, FormalContext

LIVING_OBJECTS = ("Le", "Br", "Fr", "Dg", "SW", "Rd", "Bn", "Mz")
LIVING_ATTRIBUTES = ("nw", "lw", "ll", "nc", "2lg", "1lg", "mo", "lb", "sk")

LIVING_ROWS = {
    "Le": "nw lw mo",
    "Br": "nw lw mo lb",
    "Fr": "nw lw ll mo lb",
    "Dg": "nw ll mo lb sk",
    "SW": "nw lw nc 1lg",
    "Rd": "nw lw ll nc 1lg",
    "Bn": "nw ll nc 2lg",
    "Mz": "nw ll nc 1lg",
}

LIVING_BLOCKS = (("Le", "Br", "Fr"), ("Dg",), ("SW", "Rd"), ("Bn", "Mz"))

# Columnwise upper approximation of the living context (each attribute
# extent widened to the blocks it meets).
LIVING_UPPER_ROWS = {
    "Le": "nw lw ll mo lb",
    "Br": "nw lw ll mo lb",
    "Fr": "nw lw ll mo lb",
    "Dg": "nw ll mo lb sk",
    "SW": "nw lw ll nc 1lg",
    "Rd": "nw lw ll nc 1lg",
    "Bn": "nw ll nc 2lg 1lg",
    "Mz": "nw ll nc 2lg 1lg",
}

# Columnwise lower approximation (each attribute extent shrunk to the
# blocks it contains).
LIVING_LOWER_ROWS = {
    "Le": "nw lw mo",
    "Br": "nw lw mo",
    "Fr": "nw lw mo",
    "Dg": "nw ll mo lb sk",
    "SW": "nw lw nc 1lg",
    "Rd": "nw lw nc 1lg",
    "Bn": "nw ll nc",
    "Mz": "nw ll nc",
}


def context_from_rows(rows: dict[str, str], attributes=LIVING_ATTRIBUTES) -> FormalContext:
    objects = tuple(rows)
    pairs = [(obj, attr) for obj, marks in rows.items() for attr in marks.split()]
    return FormalContext.from_pairs(objects, attributes, pairs)


@pytest.fixture(scope="session")
def living() -> FormalContext:
    return context_from_rows(LIVING_ROWS)


@pytest.fixture(scope="session")
def living_space(living) -> ApproximationSpace:
    return ApproximationSpace.from_names(living.objects, LIVING_BLOCKS)


@pytest.fixture(scope="session")
def living_upper() -> FormalContext:
    return context_from_rows(LIVING_UPPER_ROWS)


@pytest.fixture(scope="session")
def living_lower() -> FormalContext:
    return context_from_rows(LIVING_LOWER_ROWS)


def oset(ctx: FormalContext, names: str) -> frozenset[int]:
    """Object set from a space-separated name string."""
    return ctx.object_set(*names.split())


def aset(ctx: FormalContext, names: str) -> frozenset[int]:
    """Attribute set from a space-separated name string."""
    return ctx.attribute_set(*names.split())


@st.composite
def contexts(draw, max_objects=6, max_attributes=6):
    n_g = draw(st.integers(0, max_objects))
    n_m = draw(st.integers(0, max_attributes))
    rows = tuple(
        draw(st.frozensets(st.integers(0, n_m - 1))) if n_m else frozenset()
        for _ in range(n_g)
    )
    return FormalContext(
        tuple(f"g{i}" for i in range(n_g)),
        tuple(f"m{j}" for j in range(n_m)),
        rows,
    )


@st.composite
def spaced_contexts(draw, max_objects=6, max_attributes=6):
    ctx = draw(contexts(max_objects, max_attributes))
    n_g = len(ctx.objects)
    labels = [draw(st.integers(0, max(n_g - 1, 0))) for _ in range(n_g)]
    groups: dict[int, set[int]] = {}
    for g, label in enumerate(labels):
        groups.setdefault(label, set()).add(g)
    space = ApproximationSpace(ctx.objects, tuple(frozenset(v) for v in groups.values()))
    return ctx, space


def random_context(rng: random.Random, max_objects=6, max_attributes=6) -> FormalContext:
    n_g = rng.randint(1, max_objects)
    n_m = rng.randint(1, max_attributes)
    density = rng.uniform(0.2, 0.8)
    rows = tuple(
        frozenset(m for m in range(n_m) if rng.random() < density) for _ in range(n_g)
    )
    objects = tuple(f"g{i}" for i in range(n_g))
    attributes = tuple(f"m{j}" for j in range(n_m))
    return FormalContext(objects, attributes, rows)


def random_space(rng: random.Random, objects: tuple[str, ...]) -> ApproximationSpace:
    labels = [rng.randrange(len(objects)) for _ in objects]
    groups: dict[int, set[int]] = {}
    for g, label in enumerate(labels):
        groups.setdefault(label, set()).add(g)
    return ApproximationSpace(objects, tuple(frozenset(v) for v in groups.values()))


def set_partitions(items):
    """Every partition of the list ``items``, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1:]]


def spaced_contexts_of_shape(n_objects, n_attributes):
    """Every context of the shape, as (contexts, spaces): every partition of its objects."""
    objects = tuple(f"g{g}" for g in range(n_objects))
    attributes = tuple(f"m{m}" for m in range(n_attributes))
    rows = [frozenset(r) for k in range(n_attributes + 1)
            for r in itertools.combinations(range(n_attributes), k)]
    contexts = [FormalContext(objects, attributes, table)
                for table in itertools.product(rows, repeat=n_objects)]
    spaces = [ApproximationSpace(objects, tuple(map(frozenset, blocks)))
              for blocks in set_partitions(list(range(n_objects)))]
    return contexts, spaces
