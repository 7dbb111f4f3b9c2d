"""What a fresh interpreter loads: the lazy package namespace and cold CLI starts.

The other tests run with every module already imported, so they cannot
see a lazy import that is missing, circular or loads too much; these
start a new interpreter for each check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import COMMANDS, GOLDEN

SRC = Path(__file__).parent.parent / "src"

# Modules that no command needs before it knows which one it runs.
NOT_AT_START = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "roughconcepts.approx",
    "roughconcepts.concepts",
    "roughconcepts.report",
    "roughconcepts.rules",
)

# One golden command per subcommand.
COLD = (
    "lattice-cxt",
    "approx-upper",
    "definable-partition",
    "extent-upper",
    "assignments",
    "rough-classes",
    "rules-measure",
    "report",
    "export-upper-reduced",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=60, check=False
    )


def _loaded_after(statement: str) -> list[str]:
    probe = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode().split()


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import roughconcepts")
    assert [m for m in loaded if m.startswith("roughconcepts.")] == []


def test_cli_import_leaves_out_what_commands_load_on_demand():
    loaded = set(_loaded_after("import roughconcepts.cli"))
    assert [m for m in NOT_AT_START if m in loaded] == []


def test_every_public_name_resolves_and_is_listed():
    probe = (
        "import roughconcepts as rc\n"
        "unlisted = sorted(set(rc.__all__) - set(dir(rc)))\n"
        "values = [getattr(rc, name) for name in rc.__all__]\n"
        "print(len(values), unlisted)"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().split(" ", 1) == ["61", "[]\n"]


def test_submodules_resolve_and_unknown_names_raise():
    probe = (
        "import roughconcepts as rc\n"
        "print(rc.lattice.DEFAULT_MAX_CONCEPTS, rc.rules.__name__)\n"
        "rc.no_such_name"
    )
    result = _python("-c", probe)
    assert result.stdout == b"100000 roughconcepts.rules\n"
    assert b"AttributeError: module 'roughconcepts' has no attribute 'no_such_name'" in result.stderr


def test_cold_start_covers_every_subcommand():
    assert sorted({COMMANDS[name][0] for name in COLD}) == sorted(
        {argv[0] for argv in COMMANDS.values()}
    )


@pytest.mark.parametrize("name", COLD)
def test_cold_cli_output_matches_golden(name):
    result = _python("-m", "roughconcepts.cli", *COMMANDS[name])
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()
