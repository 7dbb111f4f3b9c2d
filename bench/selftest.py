"""Show that the benchmark's checks reject wrong results.

Run from the root of a checkout:

    python3 bench/selftest.py

Each check is first given the program's genuine result, which it must
accept, and then deliberately corrupted copies, each of which it must
reject.  Exits 0 only when every genuine result passes and every
corruption is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import cli_report
import coarse_maps
import inputs
import oracle
import queries
from oracle import CheckError
from run import OUT_DIR, ROOT, import_program


class SelfTest:
    def __init__(self) -> None:
        self.bad = 0
        self.count = 0

    def expect(self, name: str, accepted: bool, should_accept: bool) -> None:
        self.count += 1
        ok = accepted == should_accept
        self.bad += not ok
        verdict = "accepted" if accepted else "rejected"
        print(f"{'ok ' if ok else 'BAD'} {verdict:<8} {name}")

    def raises(self, name: str, check, should_accept: bool = False) -> None:
        try:
            check()
        except CheckError:
            self.expect(name, False, should_accept)
        else:
            self.expect(name, True, should_accept)


def _non_cover(result, kind):
    """A (low, high) pair with low strictly below high that is not a cover."""
    lat, covers = getattr(result, kind), set(result.covers[kind])
    for low, (e_low, _) in enumerate(lat):
        for high, (e_high, _) in enumerate(lat):
            if e_low != e_high and e_low & ~e_high == 0 and (low, high) not in covers:
                return low, high
    raise AssertionError("lattice is a chain")


def _transitive_pair(result, kind):
    """A non-cover (A, B) whose first object of B \\ A lies in no concept between them.

    Closing A with that one object gives B, so only a check of every
    object of B \\ A shows the concepts between.
    """
    extents = [e for e, _ in getattr(result, kind)]
    for low, e_low in enumerate(extents):
        for high, e_high in enumerate(extents):
            if e_low == e_high or e_low & ~e_high:
                continue
            between = [e for e in extents
                       if e not in (e_low, e_high) and e_low & ~e == 0 and e & ~e_high == 0]
            first = oracle.bits(e_high & ~e_low)[0]
            if between and not any(e >> first & 1 for e in between):
                return low, high
    raise AssertionError("no such pair")


def maps_checks(t: SelfTest, rc) -> None:
    case = inputs.random_case(random.Random("selftest"), "s40", 40, 8, 0.35, 13)
    ctx, space = case.program_objects(rc)
    genuine = coarse_maps.neutral(*coarse_maps.analyse(rc, ctx, space))

    def check(result, sample):
        return lambda: oracle.check_maps("s40", case.table, case.blocks, result, sample, 50,
                                         random.Random(1))

    def corrupt(**changes):
        return dataclasses.replace(copy.deepcopy(genuine), **changes)

    base, upper = genuine.base, genuine.upper
    swapped = list(genuine.covers["upper"])
    swapped[0] = _non_cover(genuine, "upper")
    transitive = list(genuine.covers["upper"]) + [_transitive_pair(genuine, "upper")]
    wrong_up = list(genuine.to_upper)
    wrong_up[3] = (wrong_up[3] + 1) % len(upper)
    wrong_intent = list(base)
    wrong_intent[2] = (base[2][0], base[2][1] ^ 1)
    reordered = list(base)
    reordered[1], reordered[2] = reordered[2], reordered[1]
    kernels = [[list(fiber) for fiber in kernel] for kernel in genuine.kernels]
    kernels[0][0].append(kernels[0][1].pop())
    classes = copy.deepcopy(genuine.classes)
    classes[0] = (classes[0][0], classes[0][1], (classes[0][2] + 1) % len(genuine.lower))
    rows = list(genuine.upper_table.rows)
    rows[0] ^= 1
    for sample in (None, 20):
        mode = "all-pairs covers" if sample is None else "sampled covers"
        t.raises(f"maps ({mode}): genuine result", check(genuine, sample), should_accept=True)
        t.raises(f"maps ({mode}): dropped concept", check(corrupt(base=base[:5] + base[6:]), sample))
        t.raises(f"maps ({mode}): cover swapped for a non-cover",
                 check(corrupt(covers={**genuine.covers, "upper": swapped}), sample))
        t.raises(f"maps ({mode}, every concept sampled): dropped cover pair",
                 check(corrupt(covers={**genuine.covers, "base": genuine.covers["base"][1:]}),
                       None if sample is None else len(base)))
        t.raises(f"maps ({mode}, no concept sampled): transitive pair added",
                 check(corrupt(covers={**genuine.covers, "upper": transitive}),
                       None if sample is None else 0))
        t.raises(f"maps ({mode}): altered to_upper entry", check(corrupt(to_upper=wrong_up), sample))
        t.raises(f"maps ({mode}): wrong intent", check(corrupt(base=wrong_intent), sample))
        t.raises(f"maps ({mode}): concepts out of order", check(corrupt(base=reordered), sample))
        t.raises(f"maps ({mode}): kernel fiber moved", check(corrupt(kernels=kernels), sample))
        t.raises(f"maps ({mode}): rough class image moved", check(corrupt(classes=classes), sample))
        t.raises(f"maps ({mode}): upper context incidence flipped",
                 check(corrupt(upper_table=oracle.Table(tuple(rows), 8)), sample))


def cli_checks(t: SelfTest, rc) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR)
    try:
        ops = cli_report.make_ops(random.Random("selftest"), Path(work),
                                  ROOT / "tests" / "data")
        run = cli_report._in_process_runner(rc)
        by_label = {op.label: op for op in ops}
        outputs = {}
        for op in ops:
            code, out, err = run(op.argv)
            outputs[op.label] = out
            if op.check.startswith("error:"):
                continue
            t.expect(f"cli: genuine {op.label}",
                     cli_report.contract_met(op, code, out, err) and _passes(op, out), True)

        def reject(name, label, mutate):
            op = by_label[label]
            t.expect(f"cli: {name}", _passes(op, mutate(outputs[label])), False)

        def edit_json(change):
            def mutate(out):
                doc = json.loads(out)
                change(doc)
                return json.dumps(doc)
            return mutate

        def wrong_measure(doc):
            doc["rules"][0]["measure"] = {"numerator": 1, "denominator": 2, "value": "1/2"}

        def drop_concept(doc):
            doc["lattices"]["base"]["concepts"].pop(3)
            for i, c in enumerate(doc["lattices"]["base"]["concepts"]):
                c["index"] = i

        def swap_cover(doc):
            lattice = doc["lattices"]["upper"]
            extents = [set(c["extent"]) for c in lattice["concepts"]]
            covers = lattice["covers"]
            covers[0] = next(
                [low, high]
                for low, e_low in enumerate(extents)
                for high, e_high in enumerate(extents)
                if e_low < e_high and [low, high] not in covers
            )

        def wrong_image(doc):
            doc["to_upper"][1] += 1

        reject("report with a wrong measure", "living report", edit_json(wrong_measure))
        reject("report with a dropped concept", "g1 report 0", edit_json(drop_concept))
        reject("report with a cover swapped for a non-cover", "g3 report 0", edit_json(swap_cover))
        reject("assignments with an altered to_upper entry", "g2 assignments", edit_json(wrong_image))
        reject("measure 1/3 instead of 2/3", "living measure", lambda out: "1/3\n")
        reject("lattice text without its last cover", "g2 lattice", _drop_last_cover)
        reject("DOT without its first edge", "g1 export base",
               lambda out: out.replace(next(l for l in out.split("\n") if "->" in l) + "\n", "", 1))
        reject("DOT with an attribute label moved", "g3 export upper", _move_m0)

        hostile = by_label["hostile bad cxt header"]
        line = "error: parse: expected header 'B' (line 1)\n"
        t.expect("cli: hostile run as specified", cli_report.contract_met(hostile, 2, "", line), True)
        t.expect("cli: hostile run with a wrong exit code",
                 cli_report.contract_met(hostile, 3, "", line), False)
        t.expect("cli: hostile run that also prints to stdout",
                 cli_report.contract_met(hostile, 2, "x\n", line), False)
        t.expect("cli: hostile run with a traceback",
                 cli_report.contract_met(hostile, 2, "", "Traceback (most recent call last):\n" + line),
                 False)
        valid = by_label["g1 lattice"]
        t.expect("cli: valid run with a nonzero exit code",
                 cli_report.contract_met(valid, 1, outputs["g1 lattice"], ""), False)
        t.expect("cli: valid run that writes to stderr",
                 cli_report.contract_met(valid, 0, outputs["g1 lattice"], "warning\n"), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _passes(op, out) -> bool:
    try:
        cli_report.check_output(op, out)
    except CheckError:
        return False
    return True


def _drop_last_cover(out: str) -> str:
    lines = out.rstrip("\n").split("\n")
    head = next(i for i, l in enumerate(lines) if l.startswith("covers "))
    lines[head] = f"covers {int(lines[head].split()[1]) - 1}"
    return "\n".join(lines[:-1]) + "\n"


def _move_m0(out: str) -> str:
    """Move attribute ``m0`` from its node's label to the next node's."""
    lines = out.split("\n")
    nodes = [i for i, l in enumerate(lines) if "[label=" in l]
    home = next(i for i in nodes if "m0" in lines[i].split('"')[1].replace("\\n", ", ").split(", "))
    label = lines[home].split('"')[1]
    parts = [", ".join(n for n in part.split(", ") if n != "m0") for part in label.split("\\n")]
    lines[home] = lines[home].replace(f'"{label}"', '"' + "\\n".join(p for p in parts if p) + '"')
    other = nodes[(nodes.index(home) + 1) % len(nodes)]
    lines[other] = lines[other].replace('"];', ', m0"];')
    return "\n".join(lines)


def query_checks(t: SelfTest, rc) -> None:
    rnd = random.Random("selftest")
    case = inputs.random_case(rnd, "q30", 30, 8, 0.3, 10)
    ctx, space = case.program_objects(rc)
    maps = rc.approximation_maps(space, ctx)
    others = queries.variants(rnd, case.table, case.blocks)
    contexts = [
        rc.FormalContext(ctx.objects, ctx.attributes,
                         tuple(frozenset(oracle.bits(r)) for r in table.rows))
        for table in others
    ]
    stream = queries.make_stream(rnd, case.table, len(maps.base), len(maps.upper),
                                 len(maps.lower), len(others))
    answers = {}
    for k, (kind, spec) in enumerate(stream):
        name, args = queries.bind(rc, kind, spec, ctx, space, maps, contexts)
        try:
            answers[k] = queries.normalise(rc, getattr(rc, name)(*args))
        except rc.UndefinedMeasureError:
            answers[k] = None
    problems = queries.check_answers(answers, stream, case, others)
    t.expect(f"queries: genuine answers to {len(stream)} queries", not problems, True)
    wrong = {k: _corrupt(answer) for k, answer in answers.items()}
    missed = len(answers) - len(queries.check_answers(wrong, stream, case, others))
    t.expect(f"queries: {missed} of {len(answers)} corrupted answers accepted", missed > 0, False)


def _corrupt(answer):
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer ^ 1
    if isinstance(answer, tuple):
        return (answer[0] + 1, answer[1])
    if isinstance(answer, Fraction):
        return answer + Fraction(1, 7)
    return Fraction(1)  # an undefined measure reported as 1


def main() -> int:
    rc = import_program()
    t = SelfTest()
    maps_checks(t, rc)
    cli_checks(t, rc)
    query_checks(t, rc)
    print(f"{t.count - t.bad} of {t.count} self-test cases behaved as expected")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
