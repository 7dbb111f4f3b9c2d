"""Workload ``cli-report``: the command-line tool run as a user runs it.

Each operation is one ``python -m roughconcepts.cli`` subprocess, started
only after the previous one has exited.  Interpreter start-up, import,
parsing, name translation and JSON/DOT rendering dominate; the contexts
are small and the partitions fine, so enumeration and covers are a minor
share.  A fixed share of each round are hostile inputs that must end in
exactly one ``error: <category>: <message>`` line and a documented exit
code.

A traced run replays the same argument lists in-process through
``run_cli`` (untraced, then traced) and measures the import cost of the
CLI module in child interpreters.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
import oracle
from measure import (
    OUT_DIR_NAME, Outcome, end_round, family_clock, host_figures, latency_metrics,
    peak_rss_mb, phases, timed_setup,
)
from oracle import CheckError, MapsResult, Table, bits, to_mask

# name, objects, attributes, density, blocks, target upper-lattice size, file format
GENERATED = (
    ("g1", 80, 14, 0.30, 56, 600, "cxt"),
    ("g2", 60, 12, 0.30, 42, 260, "csv"),
    ("g3", 70, 13, 0.30, 49, 400, "json"),
)
CANDIDATES = 12
EXIT_CODES = {"usage": 1, "parse": 2, "semantic": 3, "resource": 4}
NESTING = 200_000
IMPORT_PROBES = 5
TIMEOUT_S = 60
# While a CLI child runs, the reference task is timed every SAMPLE_GAP seconds
# on the same processor (see run): the host's speed changes within the
# quarter of a second an invocation can take.
SAMPLE_GAP = 0.04


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: str  # "report", "lattice", "dot", "assignments", "measure" or "error:<category>"
    case: inputs.Case | None = None
    detail: tuple = ()  # rules of a report, (premise, conclusion) of a measure, (which,) of a dot


def _rule_text(case, premise: int, conclusion: int) -> str:
    names = lambda mask, pool: ",".join(pool[i] for i in bits(mask))
    return f"{names(premise, case.attributes)}=>{names(conclusion, case.attributes)}"


def _random_rules(rnd, case, count):
    m = case.table.n_attributes
    return tuple(
        (to_mask(rnd.sample(range(m), rnd.randint(1, 2))), to_mask(rnd.sample(range(m), rnd.randint(1, 2))))
        for _ in range(count)
    )


def make_ops(rnd: random.Random, work: Path, data_dir: Path) -> list[Op]:
    """Write the input files and list one round of operations."""
    living = inputs.read_living(data_dir)
    lcxt, lcsv, ljson = (str(data_dir / f"living.{ext}") for ext in ("cxt", "csv", "json"))
    lpart = str(data_dir / "living_partition.txt")
    at = lambda name: 1 << living.attributes.index(name)
    living_rules = ((at("lb"), at("ll")), (at("nw"), at("lw")), (at("ll") | at("mo"), at("lb")))
    ops = [
        Op("living report", ("report", "--context", lcxt, "--partition", lpart,
                             *(a for r in living_rules for a in ("--rule", _rule_text(living, *r)))),
           "report", living, living_rules),
        Op("living measure", ("rules", "--context", lcsv, "--premise", "lb", "--conclusion", "ll",
                              "--measure"), "measure", living, (at("lb"), at("ll"))),
        Op("living export", ("export", "--context", ljson, "--dot", "--labeling", "reduced"),
           "dot", living, ("base",)),
        Op("living assignments", ("assignments", "--context", lcxt, "--partition", lpart),
           "assignments", living),
    ]
    files = {}
    for name, n, m, density, k, target, fmt in GENERATED:
        case = inputs.sized_case(rnd, name, n, m, density, k, target, CANDIDATES)
        path = work / f"{name}.{fmt}"
        text = {"cxt": inputs.cxt_text, "csv": inputs.csv_text}.get(fmt)
        path.write_text(text(case) if text else inputs.json_text(case))
        part = work / f"{name}.partition"
        part.write_text(inputs.partition_text(case))
        ctx = ["--context", str(path)] + ([] if fmt == "json" else ["--partition", str(part)])
        files[name] = (case, path, part)
        for r in range(2 if name != "g2" else 1):
            rules = _random_rules(rnd, case, 3)
            ops.append(Op(f"{name} report {r}", ("report", *ctx,
                          *(a for rule in rules for a in ("--rule", _rule_text(case, *rule)))),
                          "report", case, rules))
        ops.append(Op(f"{name} lattice", ("lattice", "--context", str(path)), "lattice", case))
        which = {"g1": "base", "g2": "lower", "g3": "upper"}[name]
        ops.append(Op(f"{name} export {which}", ("export", *ctx, "--dot", "--labeling", "reduced",
                                                 "--which", which), "dot", case, (which,)))
        if name == "g1":
            ops.append(Op("g1 export upper", ("export", *ctx, "--dot", "--labeling", "reduced",
                                              "--which", "upper"), "dot", case, ("upper",)))
        ops.append(Op(f"{name} assignments", ("assignments", *ctx), "assignments", case))
        for r, rule in enumerate(_random_rules(rnd, case, 2)):
            ops.append(Op(f"{name} measure {r}", ("rules", "--context", str(path), "--premise",
                          ",".join(case.attributes[i] for i in bits(rule[0])), "--conclusion",
                          ",".join(case.attributes[i] for i in bits(rule[1])), "--measure"),
                          "measure", case, rule))

    g1, g1_path, _ = files["g1"]
    g2_path = files["g2"][1]
    bad_header = work / "bad_header.cxt"
    bad_header.write_text("A" + inputs.cxt_text(g1)[1:])
    bad_partition = work / "bad.partition"
    bad_partition.write_text(inputs.partition_text(g1) + "nosuch\n")
    deep = work / "deep.json"
    deep.write_text("[" * NESTING + "]" * NESTING)
    ops += [
        Op("hostile bad cxt header", ("lattice", "--context", str(bad_header)), "error:parse"),
        Op("hostile unknown partition name", ("report", "--context", str(g1_path), "--partition",
                                              str(bad_partition)), "error:parse"),
        Op("hostile unknown premise attribute", ("rules", "--context", str(g2_path), "--premise",
                                                 "nosuch", "--conclusion", "m0", "--measure"),
           "error:semantic"),
        Op("hostile missing partition", ("report", "--context", str(g1_path)), "error:usage"),
        Op(f"hostile JSON nested {NESTING} deep", ("lattice", "--context", str(deep)), "error:parse"),
        Op("hostile --max-concepts -1", ("lattice", "--context", str(g1_path), "--max-concepts", "-1"),
           "error:usage"),
    ]
    return ops


# -- checks -----------------------------------------------------------------------


def contract_met(op: Op, code: int, out: str, err: str) -> bool:
    """Whether the run ended as the CLI contract says, whatever its output."""
    if not op.check.startswith("error:"):
        return code == 0 and err == ""
    category = op.check.split(":", 1)[1]
    return (
        code == EXIT_CODES[category]
        and out == ""
        and re.fullmatch(rf"error: {category}: [^\n]+\n", err) is not None
    )


def check_output(op: Op, out: str) -> None:
    """Check the standard output of a successful valid run against the oracle."""
    try:
        _check_output(op, out)
    except (KeyError, ValueError, AttributeError, IndexError, TypeError) as exc:
        raise CheckError(f"{op.label}: malformed output ({exc!r})") from None


def _check_output(op: Op, out: str) -> None:
    case = op.case
    if op.check == "report":
        _check_report(op, json.loads(out))
    elif op.check == "lattice":
        _check_lattice_text(op.label, case, out)
    elif op.check == "dot":
        _check_dot(op.label, case, op.detail[0], out)
    elif op.check == "assignments":
        _check_assignments(op.label, case, json.loads(out))
    elif op.check == "measure":
        value = oracle.measure(case.table, *op.detail)
        want = "undefined" if value is None else str(value)
        if out != want + "\n":
            raise CheckError(f"{op.label}: printed {out.strip()!r}, expected {want!r}")
        if case.name == "living" and value != Fraction(2, 3):
            raise CheckError(f"{op.label}: lb=>ll must measure 2/3 on the paper's example")


def _names(case):
    return ({n: i for i, n in enumerate(case.objects)}, {n: i for i, n in enumerate(case.attributes)})


def _table_from_incidence(case, pairs) -> Table:
    objs, attrs = _names(case)
    rows = [0] * len(case.objects)
    for g, m in pairs:
        rows[objs[g]] |= 1 << attrs[m]
    return Table(tuple(rows), len(case.attributes))


def _check_report(op: Op, doc: dict) -> None:
    case, label = op.case, op.label
    objs, attrs = _names(case)
    omask = lambda names: to_mask(objs[n] for n in names)
    amask = lambda names: to_mask(attrs[n] for n in names)
    context = doc["context"]
    if (tuple(context["objects"]), tuple(context["attributes"])) != (case.objects, case.attributes):
        raise CheckError(f"{label}: object or attribute list differs from the input")
    oracle.check_table(f"{label} context", _table_from_incidence(case, context["incidence"]), case.table)
    blocks = [omask(b) for b in doc["space"]["blocks"]]
    if blocks != sorted(case.blocks, key=lambda b: b & -b):
        raise CheckError(f"{label}: partition blocks differ from the input")
    definable = to_mask(m for m, col in enumerate(case.table.cols)
                        if oracle.upper_set(case.blocks, col) == col)
    if amask(doc["definable_attributes"]) != definable:
        raise CheckError(f"{label}: definable attributes differ from the naive ones")
    lattices = {}
    for kind in ("base", "upper", "lower"):
        entries = doc["lattices"][kind]["concepts"]
        if [c["index"] for c in entries] != list(range(len(entries))):
            raise CheckError(f"{label}: {kind} concept indices are not 0..n-1")
        lattices[kind] = [(omask(c["extent"]), amask(c["intent"])) for c in entries]
    result = MapsResult(
        base=lattices["base"], upper=lattices["upper"], lower=lattices["lower"],
        covers={k: [tuple(p) for p in doc["lattices"][k]["covers"]] for k in lattices},
        upper_table=_table_from_incidence(case, doc["approximations"]["upper"]["incidence"]),
        lower_table=_table_from_incidence(case, doc["approximations"]["lower"]["incidence"]),
        to_upper=doc["maps"]["to_upper"], to_lower=doc["maps"]["to_lower"],
        kernels=(doc["kernels"]["possibility"], doc["kernels"]["necessity"]),
        classes=[(c["members"], c["upper"], c["lower"]) for c in doc["rough_classes"]],
    )
    oracle.check_maps(label, case.table, case.blocks, result, adjunction_sample=50)
    up = oracle.upper_table(case.table, case.blocks)
    low = oracle.lower_table(case.table, case.blocks)
    if len(doc["rules"]) != len(op.detail):
        raise CheckError(f"{label}: {len(doc['rules'])} rules reported, {len(op.detail)} asked")
    for entry, (premise, conclusion) in zip(doc["rules"], op.detail):
        covered = case.table.extent(premise)
        both = (covered & case.table.extent(conclusion)).bit_count()
        want = {
            "premise": [case.attributes[i] for i in bits(premise)],
            "conclusion": [case.attributes[i] for i in bits(conclusion)],
            "holds": oracle.holds(case.table, premise, conclusion),
            "certain": oracle.holds(low, premise, conclusion),
            "possible": oracle.holds(up, premise, conclusion),
            "measure": {
                "numerator": both,
                "denominator": covered.bit_count(),
                "value": str(Fraction(both, covered.bit_count())),
            } if covered else None,
        }
        if entry != want:
            raise CheckError(f"{label}: rule {_rule_text(case, premise, conclusion)} reported as {entry}")
    if case.name == "living":
        if len(lattices["base"]) != 19:
            raise CheckError(f"{label}: the paper's example has 19 base concepts, got {len(lattices['base'])}")
        if doc["rules"][0]["measure"]["value"] != "2/3":
            raise CheckError(f"{label}: lb=>ll must measure 2/3 on the paper's example")


def _check_lattice_text(label: str, case, out: str) -> None:
    objs, attrs = _names(case)
    lines = out.split("\n")
    n = int(re.fullmatch(r"concepts (\d+)", lines[0]).group(1))
    concepts = []
    for i, line in enumerate(lines[1 : n + 1]):
        match = re.fullmatch(r"(\d+) extent=\{(.*)\} intent=\{(.*)\}", line)
        if match is None or int(match.group(1)) != i:
            raise CheckError(f"{label}: malformed concept line {line!r}")
        extent = to_mask(objs[x] for x in match.group(2).split(",") if x)
        intent = to_mask(attrs[x] for x in match.group(3).split(",") if x)
        concepts.append((extent, intent))
    k = int(re.fullmatch(r"covers (\d+)", lines[n + 1]).group(1))
    covers = [tuple(map(int, line.split(" -> "))) for line in lines[n + 2 : n + 2 + k]]
    if lines[n + 2 + k :] != [""]:
        raise CheckError(f"{label}: unexpected trailing output")
    oracle.check_lattice(label, case.table, concepts, covers)


def _target_table(case, which: str) -> Table:
    if which == "upper":
        return oracle.upper_table(case.table, case.blocks)
    if which == "lower":
        return oracle.lower_table(case.table, case.blocks)
    return case.table


def _check_dot(label: str, case, which: str, out: str) -> None:
    table = _target_table(case, which)
    lattice = oracle.lattice(table)
    extents = [e for e, _ in lattice]
    nodes = re.findall(r'^  c(\d+) \[label="(.*)"\];$', out, re.M)
    edges = [tuple(map(int, e)) for e in re.findall(r"^  c(\d+) -> c(\d+);$", out, re.M)]
    if len(nodes) != len(lattice):
        raise CheckError(f"{label}: {len(nodes)} DOT nodes for {len(lattice)} concepts")
    covers = oracle.all_pairs_covers(extents)
    if len(edges) != len(covers) or sorted(edges) != covers:
        raise CheckError(f"{label}: {len(edges)} DOT edges, expected the {len(covers)} covers")
    index = {e: i for i, e in enumerate(extents)}
    home = {}
    for m, name in enumerate(case.attributes):
        home[name] = index[table.cols[m]]
    for g, name in enumerate(case.objects):
        home[name] = index[table.closure(1 << g)]
    placed = {}
    for number, text in nodes:
        for part in text.split("\\n"):
            for name in filter(None, part.split(", ")):
                placed.setdefault(name, []).append(int(number))
    if placed != {name: [i] for name, i in home.items()}:
        raise CheckError(f"{label}: reduced labels are not at the attribute and object concepts")


def _check_assignments(label: str, case, doc: dict) -> None:
    base = oracle.lattice(case.table)
    expected = {}
    for name, table in (("to_upper", oracle.upper_table(case.table, case.blocks)),
                        ("to_lower", oracle.lower_table(case.table, case.blocks))):
        index = {e: i for i, (e, _) in enumerate(oracle.lattice(table))}
        expected[name] = [index[table.extent(intent)] for _, intent in base]
    want = {
        "to_upper": expected["to_upper"],
        "to_lower": expected["to_lower"],
        "kernels": {"possibility": oracle.fibers(expected["to_upper"]),
                    "necessity": oracle.fibers(expected["to_lower"])},
    }
    if doc != want:
        raise CheckError(f"{label}: assignments differ from the naive images and their fibers")


# -- running -----------------------------------------------------------------------


def _subprocess_runner(root: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out_dir = root / OUT_DIR_NAME

    def run(argv, while_waiting=None):
        """Run the CLI once; call ``while_waiting`` every SAMPLE_GAP seconds until it exits.

        Its output goes to files, so that nothing has to drain a pipe meanwhile.
        """
        with tempfile.TemporaryFile("w+", dir=out_dir) as out, \
                tempfile.TemporaryFile("w+", dir=out_dir) as err:
            proc = subprocess.Popen([sys.executable, "-m", "roughconcepts.cli", *argv], cwd=root,
                                    env=env, stdout=out, stderr=err)
            deadline = time.monotonic() + TIMEOUT_S
            try:
                while True:
                    try:
                        proc.wait(timeout=SAMPLE_GAP)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() > deadline:
                            return None, "", f"no exit within {TIMEOUT_S} s\n"
                        if while_waiting is not None:
                            while_waiting()
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    return run, env


def _in_process_runner(rc):
    def run(argv, while_waiting=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = rc.cli.run_cli(list(argv))
            except Exception as exc:  # the interpreter would print a traceback and exit 1
                print(f"Traceback (most recent call last):\n{type(exc).__name__}", file=sys.stderr)
                code = 1
        return code, out.getvalue(), err.getvalue()

    return run


def import_cost(root: Path, env) -> float:
    """Median over interleaved pairs of (import roughconcepts.cli) minus (bare start)."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        times = []
        for code in ("import roughconcepts.cli", "pass"):
            start = family_clock()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                           timeout=TIMEOUT_S)
            times.append(family_clock() - start)
        diffs.append(times[0] - times[1])
    return statistics.median(diffs)


def run(rc, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = root / OUT_DIR_NAME
    out_dir.mkdir(exist_ok=True)
    work_dirs: list[Path] = []
    run_sub, env = _subprocess_runner(root)
    # Keep this process, and so the CLI children, on one processor: the
    # reference tasks timed here while a child runs then share its processor,
    # and their times describe that processor's speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def build():
        work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        work_dirs.append(work)
        ops = make_ops(random.Random(f"cli-report:{seed}"), work, root / "tests" / "data")
        run_sub(("lattice", "--context", str(root / "tests" / "data" / "living.cxt")))  # warm caches
        return ops

    try:
        ops, setup_s = timed_setup(build, family_clock)
        verdicts: dict = {}  # (op position, exit code, stdout, stderr) -> problem or None

        def run_phase(budget: float, tracer, runner) -> Outcome:
            outcome = Outcome(clock=family_clock)
            while True:
                outcome.new_round()
                for k, op in enumerate(ops):
                    outcome.take_speed()
                    if tracer is not None:
                        tracer.op = outcome.attempted
                    outcome.attempted += 1
                    marks = outcome.start()
                    code, out, err = runner(op.argv, outcome.take_speed)
                    outcome.record(k, marks)
                    if not contract_met(op, code, out, err):
                        outcome.fail(f"{op.label}: exit {code}, stderr {err.strip()[-80:]!r}")
                        continue
                    key = (k, code, out, err)
                    if key not in verdicts:
                        verdicts[key] = None
                        if code == 0:
                            try:
                                check_output(op, out)
                            except CheckError as exc:
                                verdicts[key] = str(exc)
                    if verdicts[key]:
                        outcome.problem(verdicts[key])
                if end_round(outcome, budget):
                    outcome.take_speed()
                    return outcome

        runner = _in_process_runner(rc) if trace else run_sub
        measured, total, tracer, layers = phases(
            seconds, trace, lambda budget, tracer: run_phase(budget, tracer, runner)
        )
        if trace:
            layers["cli.import_s"] = import_cost(root, env)
        metrics = {"setup_s": (setup_s, "s"), **latency_metrics(measured),
                   "peak_rss_mb": (peak_rss_mb(children=True), "MB")}
        return {"outcome": total, "metrics": metrics, "layers": layers, "tracer": tracer,
                "host": host_figures(measured)}
    finally:
        for work in work_dirs:
            shutil.rmtree(work, ignore_errors=True)
