"""Seeded benchmark of roughconcepts: end-to-end figures, or per-layer figures when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload coarse-maps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py              # every workload, each in its own process

Each run prints one line per metric and, as its last line, a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` the metrics are the per-layer figures and the spans
are written to ``.bench-out/`` under the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

from measure import OUT_DIR_NAME
from spans import LAYER_UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {"coarse-maps": "coarse_maps", "cli-report": "cli_report", "queries": "queries"}
OUT_DIR = ROOT / OUT_DIR_NAME


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time to measure, in whole rounds "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def import_program():
    """Import roughconcepts from this checkout's sources, and nowhere else."""
    if not (SRC / "roughconcepts" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import roughconcepts

    if Path(roughconcepts.__file__).resolve().parent != SRC / "roughconcepts":
        raise SystemExit(f"error: imported roughconcepts from {roughconcepts.__file__}")
    for name in ("cli", "report"):
        importlib.import_module(f"roughconcepts.{name}")
    return roughconcepts


def _result_line(workload: str, seed: int, result: dict, trace: bool) -> dict:
    outcome = result["outcome"]
    correct = not outcome.problems and bool(outcome.attempted)
    if trace:
        metrics = {name: {"value": result["layers"].get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    print(f"{workload} seed={seed} trace={int(trace)}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}, correct {str(correct).lower()}")
    for label, count in sorted(outcome.failures.items()):
        print(f"  failed {count}x: {label}")
    for problem in outcome.problems:
        print(f"  check failed: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    for name, value in result["host"].items():
        print(f"  ({name}: {value:.3f})")
    return {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def _run_all(args) -> int:
    """Each workload in its own process, one after the other, so peaks stay apart."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    rc = import_program()
    if args.workload == "all":
        return _run_all(args)
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(rc, ROOT, args.seed, args.seconds, bool(args.trace))
    if result["tracer"] is not None:
        result["tracer"].write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(json.dumps(_result_line(args.workload, args.seed, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
