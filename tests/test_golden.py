"""Whole-output bytes of the CLI on the living fixtures.

Each command's exit code and stdout are compared with a file under
``tests/data/golden/``; stderr must stay empty.  The files pin every
byte the commands print, so a refactor that keeps them passing keeps
the CLI output unchanged.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from roughconcepts.cli import run_cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

CXT = ["--context", str(DATA / "living.cxt")]
CSV = ["--context", str(DATA / "living.csv")]
JSON = ["--context", str(DATA / "living.json")]
PART = ["--partition", str(DATA / "living_partition.txt")]
BOTH = CXT + PART

COMMANDS = {
    "lattice-cxt": ["lattice", *CXT],
    "lattice-csv": ["lattice", *CSV],
    "lattice-json": ["lattice", *JSON],
    "approx-upper": ["approx", *BOTH, "--mode", "upper"],
    "approx-lower": ["approx", *BOTH, "--mode", "lower"],
    "approx-upper-json": ["approx", *JSON, "--mode", "upper"],
    "approx-lower-csv": ["approx", *CSV, *PART, "--mode", "lower"],
    "definable-partition": ["definable", *BOTH],
    "definable-partition-by": ["definable", *CXT, "--partition-by", "lw,nc"],
    "extent-base": ["extent", *CXT, "--attrs", "lb,mo"],
    "extent-upper": ["extent", *BOTH, "--attrs", "2lg,1lg", "--approx", "upper"],
    "extent-strict-upper": [
        "extent", *BOTH, "--attrs", "lw,ll", "--approx", "upper", "--strict-upper",
    ],
    "extent-lower": ["extent", *BOTH, "--attrs", "lb", "--approx", "lower"],
    "assignments": ["assignments", *BOTH],
    "rough-classes": ["rough-classes", *BOTH],
    "rules": ["rules", *CXT, "--premise", "lb", "--conclusion", "ll"],
    "rules-measure": ["rules", *CXT, "--premise", "lb", "--conclusion", "ll", "--measure"],
    "rules-certain": ["rules", *BOTH, "--premise", "lb", "--conclusion", "sk", "--certain"],
    "rules-possible": ["rules", *BOTH, "--premise", "lb", "--conclusion", "ll", "--possible"],
    "report": [
        "report", *BOTH, "--rule", "lb=>ll", "--rule", "lb=>sk", "--rule", "2lg,1lg=>nw",
    ],
    **{
        f"export-{which}-{labeling}": [
            "export", *BOTH, "--dot", "--which", which, "--labeling", labeling,
        ]
        for which in ("base", "upper", "lower")
        for labeling in ("full", "reduced")
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsysbinary, name):
    code = run_cli(COMMANDS[name])
    captured = capsysbinary.readouterr()
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert (code, captured.err) == (0, b"")
    assert captured.out == expected
