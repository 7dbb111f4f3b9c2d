"""Workload ``coarse-maps``: the full in-process analysis of coarse-partition contexts.

One operation is one context: ``approximation_maps``, both kernels, the
rough concept classes and the Hasse covers of all three lattices.  With
about n/3 blocks the upper lattice is several times the base lattice, so
enumeration, the cover reduction and the image maps do nearly all the
work, and parsing and rendering do none.
"""

from __future__ import annotations

import contextlib
import gc
import random

import inputs
from measure import (
    Outcome, end_round, host_figures, latency_metrics, peak_rss_mb, phases, sampling_speed,
    timed_setup,
)
from oracle import CheckError, MapsResult, Table, check_maps, to_mask

# name, objects, attributes, density, blocks, target upper-lattice size
SLOTS = (
    ("c120", 120, 16, 0.265, 40, 2700),
    ("c135", 135, 16, 0.25, 45, 2700),
    ("c150", 150, 16, 0.24, 50, 2700),
)
CANDIDATES = 40
COVER_SAMPLE = 60
ADJUNCTION_SAMPLE = 200
SAMPLE_INTERVAL = 0.2  # seconds between reference tasks inside an operation


def make_cases(seed: int) -> list[inputs.Case]:
    rnd = random.Random(f"coarse-maps:{seed}")
    return [
        inputs.sized_case(rnd, name, n, m, d, k, target, CANDIDATES)
        for name, n, m, d, k, target in SLOTS
    ]


def analyse(rc, ctx, space):
    """The operation: every in-process analysis a report needs, covers included."""
    maps = rc.approximation_maps(space, ctx)
    kernels = rc.indiscernibility_kernels(maps)
    classes = rc.rough_concept_classes(maps)
    for lat in (maps.base, maps.upper, maps.lower):
        lat.covers
    return maps, kernels, classes


def neutral(maps, kernels, classes) -> MapsResult:
    """The program's result in the checker's terms."""

    def concepts(lat):
        out = []
        for i, c in enumerate(lat.concepts):
            if c.index != i:
                raise CheckError(f"concept at position {i} carries index {c.index}")
            out.append((to_mask(c.extent), to_mask(c.intent)))
        return out

    def table(ctx):
        return Table(tuple(to_mask(r) for r in ctx.rows), len(ctx.attributes))

    return MapsResult(
        base=concepts(maps.base),
        upper=concepts(maps.upper),
        lower=concepts(maps.lower),
        covers={k: list(getattr(maps, k).covers) for k in ("base", "upper", "lower")},
        upper_table=table(maps.upper.context),
        lower_table=table(maps.lower.context),
        to_upper=list(maps.to_upper),
        to_lower=list(maps.to_lower),
        kernels=kernels,
        classes=[(list(c.members), c.upper_image.index, c.lower_image.index) for c in classes],
    )


def run(rc, root, seed: int, seconds: float, trace: bool) -> dict:
    def build():
        cases = make_cases(seed)
        return [(case, *case.program_objects(rc)) for case in cases]

    prepared, setup_s = timed_setup(build)

    def run_phase(budget: float, tracer) -> Outcome:
        outcome = Outcome()
        # A traced run's spans would count the samples, so only an untraced run takes them.
        sampler = sampling_speed(outcome, SAMPLE_INTERVAL) if tracer is None else contextlib.nullcontext()
        with sampler:
            while True:
                outcome.new_round()
                for k, (case, ctx, space) in enumerate(prepared):
                    outcome.take_speed()
                    if tracer is not None:
                        tracer.op = outcome.attempted
                    outcome.attempted += 1
                    marks = outcome.start()
                    try:
                        result = analyse(rc, ctx, space)
                    except Exception as exc:  # an operation that raises counts as failed
                        outcome.fail(f"{case.name}: {type(exc).__name__}")
                        continue
                    outcome.record(k, marks)
                    check = random.Random(f"check:{seed}:{case.name}")
                    try:
                        check_maps(
                            case.name, case.table, case.blocks, neutral(*result),
                            COVER_SAMPLE, ADJUNCTION_SAMPLE, check,
                        )
                    except CheckError as exc:
                        outcome.problem(str(exc))
                    del result
                    # The lattices hold cycles, so without this an operation's
                    # garbage would linger into a later one for as long as the
                    # collector's schedule says, and the peak memory would vary.
                    gc.collect()
                if end_round(outcome, budget):
                    outcome.take_speed()
                    return outcome

    measured, total, tracer, layers = phases(seconds, trace, run_phase)
    metrics = {"setup_s": (setup_s, "s"), **latency_metrics(measured)}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {"outcome": total, "metrics": metrics, "layers": layers, "tracer": tracer,
            "host": host_figures(measured)}
