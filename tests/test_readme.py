"""The README's results, run as written: the quickstart and each CLI line that states its output."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from roughconcepts.cli import run_cli

ROOT = Path(__file__).parent.parent


def test_readme_results_hold(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    namespace: dict = {}
    exec(re.search(r"^```python\n(.*?)^```", readme, re.M | re.S).group(1), namespace)
    assert len(namespace["lattice"]) == 19

    # A stated result ends its line: "# -> 2/3" or "# free semantics: Bn,Mz".
    lines = readme.replace("\\\n", " ")
    stated = re.findall(r"^roughconcepts (.*?)#.*?(?:-> |semantics: )(\S+)$", lines, re.M)
    assert [result for _, result in stated] == ["2/3", "true", "Bn,Mz", "empty"]
    monkeypatch.chdir(ROOT)  # the lines name their files from the repository root
    for command, result in stated:
        assert run_cli(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == ("" if result == "empty" else result) + "\n", command
