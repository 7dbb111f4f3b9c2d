"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).parent.parent / "src" / "roughconcepts"


def test_package_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"roughconcepts"}
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in allowed]
    assert not outside, outside
