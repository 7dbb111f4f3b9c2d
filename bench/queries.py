"""Workload ``queries``: a seeded stream of read-only queries against one context.

The context's approximation maps are built during set-up, so no
enumeration happens in the timed phase.  What dominates instead is
per-call validation, frozenset arithmetic and approximating whole
contexts again on each call (``certain_rule``, ``context_order``).
Every round replays the same shuffled mix of queries; the answers are
compared with naive set computations after the timed phase.
"""

from __future__ import annotations

import random
from fractions import Fraction

import inputs
import oracle
from measure import (
    Outcome, end_round, host_figures, latency_metrics, peak_rss_mb, phases, timed_setup,
)
from oracle import Table, bits, to_mask

N_OBJECTS, N_ATTRIBUTES, DENSITY, N_BLOCKS = 100, 16, 0.25, 33
TARGET_UPPER, CANDIDATES = 1700, 12

# Query kind -> occurrences in one round of 1000.  The context-level kinds
# are the costliest, so they make up the tail the p99 looks at.  Ten
# occurrences of each draw keep a seed's particular arguments from
# setting a whole percentile.
MIX = {
    "derive_extent": 120,
    "derive_intent": 120,
    "extent_upper_free": 50,
    "extent_upper_strict": 50,
    "extent_lower": 50,
    "possibly_has": 50,
    "certainly_has": 50,
    "implication_holds": 50,
    "rough_measure": 50,
    "certain_rule": 30,
    "possible_rule": 30,
    "concept_upper_approx": 40,
    "concept_lower_approx": 40,
    "concept_order:upper": 20,
    "concept_order:lower": 20,
    "concept_order:rough": 20,
    "lattice_meet": 50,
    "lattice_join": 50,
    "lower_join": 30,
    "upper_meet": 30,
    "context_order:upper": 10,
    "context_order:lower": 10,
    "context_order:rough": 10,
    "contexts_roughly_equal": 20,
}


def _subset(rnd: random.Random, size: int, low: int, high: int) -> int:
    return to_mask(rnd.sample(range(size), rnd.randint(low, high)))


def variants(rnd: random.Random, table: Table, blocks) -> list[Table]:
    """Same-shape contexts to compare with: a copy, an in-block change that
    keeps both approximations, a few random flips, and a superset."""
    rows = list(table.rows)
    same_approx = list(rows)
    for m in range(table.n_attributes):
        col = table.cols[m]
        block = next((b for b in blocks if (b & col).bit_count() >= 2 and b & ~col), None)
        if block is not None:
            g = bits(block & col)[0]
            same_approx[g] &= ~(1 << m)
            break
    out = [Table(tuple(rows), table.n_attributes), Table(tuple(same_approx), table.n_attributes)]
    for flips in (1, 3):
        changed = list(rows)
        for _ in range(flips):
            g, m = rnd.randrange(table.n_objects), rnd.randrange(table.n_attributes)
            changed[g] ^= 1 << m
        out.append(Table(tuple(changed), table.n_attributes))
    grown = list(rows)
    for _ in range(4):
        grown[rnd.randrange(table.n_objects)] |= 1 << rnd.randrange(table.n_attributes)
    out.append(Table(tuple(grown), table.n_attributes))
    return out


def make_stream(rnd: random.Random, table: Table, n_base: int, n_upper: int, n_lower: int,
                n_variants: int):
    """One round: (kind, spec) pairs in a seeded order; specs are plain ints."""
    n_objects, n_attributes = table.n_objects, table.n_attributes
    items = []
    for kind, count in MIX.items():
        for _ in range(count):
            name = kind.split(":")[0]
            if name in ("derive_extent", "extent_upper_free", "extent_upper_strict", "extent_lower"):
                spec = (_subset(rnd, n_attributes, 1, 3),)
            elif name == "derive_intent":
                spec = (_subset(rnd, n_objects, 1, 4),)
            elif name in ("possibly_has", "certainly_has"):
                spec = (rnd.randrange(n_objects), _subset(rnd, n_attributes, 1, 3))
            elif name in ("implication_holds", "rough_measure", "certain_rule", "possible_rule"):
                spec = (_subset(rnd, n_attributes, 1, 2), _subset(rnd, n_attributes, 1, 2))
            elif name in ("concept_upper_approx", "concept_lower_approx"):
                spec = (rnd.randrange(n_base),)
            elif name in ("concept_order", "lattice_meet", "lattice_join"):
                spec = (rnd.randrange(n_base), rnd.randrange(n_base))
            elif name == "lower_join":
                spec = (rnd.randrange(n_upper),)
            elif name == "upper_meet":
                spec = (rnd.randrange(n_lower),)
            else:  # context_order, contexts_roughly_equal
                spec = (rnd.randrange(n_variants),)
            items.append((kind, spec))
    rnd.shuffle(items)
    return items


def bind(rc, kind: str, spec, ctx, space, maps, contexts):
    """The call for one query: (function name, arguments)."""
    name, _, mode = kind.partition(":")
    fs = lambda mask: frozenset(bits(mask))
    if name in ("derive_extent", "derive_intent"):
        return name, (ctx, fs(spec[0]))
    if name.startswith("extent_"):
        return name, (space, ctx, fs(spec[0]))
    if name in ("possibly_has", "certainly_has"):
        return name, (space, ctx, spec[0], fs(spec[1]))
    if name in ("implication_holds", "rough_measure", "certain_rule", "possible_rule"):
        implication = rc.Implication(fs(spec[0]), fs(spec[1]))
        if name in ("certain_rule", "possible_rule"):
            return name, (space, ctx, implication)
        return name, (ctx, implication)
    if name in ("concept_upper_approx", "concept_lower_approx"):
        return name, (maps, maps.base[spec[0]])
    if name == "concept_order":
        return name, (maps, maps.base[spec[0]], maps.base[spec[1]], mode)
    if name in ("lattice_meet", "lattice_join"):
        return name, (maps.base, [maps.base[spec[0]], maps.base[spec[1]]])
    if name == "lower_join":
        return name, (maps, maps.upper[spec[0]])
    if name == "upper_meet":
        return name, (maps, maps.lower[spec[0]])
    if name == "context_order":
        return name, (space, ctx, contexts[spec[0]], mode)
    return name, (space, ctx, contexts[spec[0]])


def normalise(rc, answer):
    if isinstance(answer, frozenset):
        return to_mask(answer)
    if isinstance(answer, rc.RoughMeasure):
        return Fraction(answer.numerator, answer.denominator)
    if isinstance(answer, rc.FormalConcept):
        return (answer.index, to_mask(answer.extent))
    return answer


class Reference:
    """Naive approximations and lattices of the query context and its variants."""

    def __init__(self, table: Table, blocks, others: list[Table]):
        self.table, self.blocks = table, blocks
        self.up = oracle.upper_table(table, blocks)
        self.low = oracle.lower_table(table, blocks)
        self.lattices = [oracle.lattice(t) for t in (table, self.up, self.low)]
        self.others = [(oracle.upper_table(t, blocks), oracle.lower_table(t, blocks)) for t in others]


def expected(kind: str, spec, ref: Reference):
    """The naive answer, from the raw rows and blocks only."""
    name, _, mode = kind.partition(":")
    table, blocks, up, low = ref.table, ref.blocks, ref.up, ref.low
    base, upper, lower = ref.lattices

    def concept(lat, extent):
        return (next(i for i, (e, _) in enumerate(lat) if e == extent), extent)

    def meet_cols(tab, attrs, approx):
        out = table.all_objects
        for m in bits(attrs):
            out &= approx(blocks, tab.cols[m])
        return out

    if name == "derive_extent":
        return table.extent(spec[0])
    if name == "derive_intent":
        return table.intent(spec[0])
    if name == "extent_upper_free":
        return meet_cols(table, spec[0], oracle.upper_set)
    if name == "extent_upper_strict":
        return oracle.upper_set(blocks, table.extent(spec[0]))
    if name == "extent_lower":
        return meet_cols(table, spec[0], oracle.lower_set)
    if name == "possibly_has":
        return bool(meet_cols(table, spec[1], oracle.upper_set) >> spec[0] & 1)
    if name == "certainly_has":
        return bool(meet_cols(table, spec[1], oracle.lower_set) >> spec[0] & 1)
    if name == "implication_holds":
        return oracle.holds(table, *spec)
    if name == "rough_measure":
        return oracle.measure(table, *spec)
    if name == "certain_rule":
        return oracle.holds(low, *spec)
    if name == "possible_rule":
        return oracle.holds(up, *spec)
    if name == "concept_upper_approx":
        return concept(upper, up.extent(base[spec[0]][1]))
    if name == "concept_lower_approx":
        return concept(lower, low.extent(base[spec[0]][1]))
    if name == "concept_order":
        i, j = (base[k][1] for k in spec)
        ok_up = up.extent(i) & ~up.extent(j) == 0
        ok_low = low.extent(i) & ~low.extent(j) == 0
        return {"upper": ok_up, "lower": ok_low, "rough": ok_up and ok_low}[mode]
    if name == "lattice_meet":
        return concept(base, base[spec[0]][0] & base[spec[1]][0])
    if name == "lattice_join":
        return concept(base, table.extent(base[spec[0]][1] & base[spec[1]][1]))
    if name == "lower_join":
        bound = upper[spec[0]][0]
        intent = table.all_attributes
        for e, i in base:
            if e & ~bound == 0:
                intent &= i
        return concept(base, table.extent(intent))
    if name == "upper_meet":
        bound = lower[spec[0]][0]
        extent = table.all_objects
        for e, _ in base:
            if bound & ~e == 0:
                extent &= e
        return concept(base, extent)
    o_up, o_low = ref.others[spec[0]]
    if name == "context_order":
        ok_up = all(a & ~b == 0 for a, b in zip(up.rows, o_up.rows))
        ok_low = all(a & ~b == 0 for a, b in zip(low.rows, o_low.rows))
        return {"upper": ok_up, "lower": ok_low, "rough": ok_up and ok_low}[mode]
    return up == o_up and low == o_low


def check_answers(answers: dict, stream, case, others: list[Table]) -> list[str]:
    """Problems found comparing each recorded answer with its naive value."""
    ref = Reference(case.table, case.blocks, others)
    problems = []
    for k, answer in answers.items():
        kind, spec = stream[k]
        want = expected(kind, spec, ref)
        if answer != want:
            problems.append(f"query {k} ({kind} {spec}): got {answer!r}, expected {want!r}")
    return problems


def run(rc, root, seed: int, seconds: float, trace: bool) -> dict:
    def build():
        rnd = random.Random(f"queries:{seed}")
        case = inputs.sized_case(rnd, "q100", N_OBJECTS, N_ATTRIBUTES, DENSITY, N_BLOCKS,
                                 TARGET_UPPER, CANDIDATES)
        ctx, space = case.program_objects(rc)
        maps = rc.approximation_maps(space, ctx)
        others = variants(rnd, case.table, case.blocks)
        contexts = [
            rc.FormalContext(ctx.objects, ctx.attributes, tuple(frozenset(bits(r)) for r in t.rows))
            for t in others
        ]
        stream = make_stream(rnd, case.table, len(maps.base), len(maps.upper), len(maps.lower),
                             len(others))
        calls = [bind(rc, kind, spec, ctx, space, maps, contexts) for kind, spec in stream]
        return case, ctx, space, maps, others, stream, calls

    (case, ctx, space, maps, others, stream, calls), setup_s = timed_setup(build)
    answers: dict[int, object] = {}  # query position -> normalised answer of its first run

    def run_phase(budget: float, tracer) -> Outcome:
        outcome = Outcome()
        while True:
            outcome.new_round()
            outcome.take_speed()  # once a round: a round takes about 0.1 s
            for k, (name, args) in enumerate(calls):
                function = getattr(rc, name)
                if tracer is not None:
                    tracer.op = outcome.attempted
                outcome.attempted += 1
                marks = outcome.start()
                try:
                    answer = function(*args)
                except rc.UndefinedMeasureError:
                    answer = None
                except Exception as exc:  # an operation that raises counts as failed
                    outcome.fail(f"{stream[k][0]}: {type(exc).__name__}")
                    continue
                outcome.record(k, marks)
                answer = normalise(rc, answer)
                if answers.setdefault(k, answer) != answer:
                    outcome.problem(f"query {k} ({stream[k][0]}) answered differently on a repeat")
            if end_round(outcome, budget):
                outcome.take_speed()
                return outcome

    measured, total, tracer, layers = phases(
        seconds, trace, run_phase, traced_setup=lambda: rc.approximation_maps(space, ctx)
    )
    rss = peak_rss_mb()
    for problem in check_answers(answers, stream, case, others):
        total.problem(problem)
    metrics = {"setup_s": (setup_s, "s"), **latency_metrics(measured), "peak_rss_mb": (rss, "MB")}
    return {"outcome": total, "metrics": metrics, "layers": layers, "tracer": tracer,
            "host": host_figures(measured)}
