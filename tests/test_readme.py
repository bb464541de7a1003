import ast
import importlib
import os
import pkgutil
import re
import shlex

import mullineux
from mullineux.cli import main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
MODULES = {info.name for info in pkgutil.iter_modules(mullineux.__path__)}


def design_note_names():
    """Every backticked `module.name` (a call's arguments may follow the name)
    in the README's design notes whose module is one of the package's."""
    with open(README, encoding="utf-8") as handle:
        sections = re.split(r"(?m)^(?=## )", handle.read())
    notes = "".join(section for section in sections if section.startswith("## Design note"))
    return sorted({(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)[`(]", notes)
                   if module in MODULES})


def test_design_notes_name_only_code_that_exists():
    names = design_note_names()
    assert ("typea", "_cogood_rows") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"mullineux.{module}"), name)]
    assert not missing, missing


def readme_block(heading, language):
    """The first ```language block under the README section `## heading`."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_quick_tour_values_hold():
    # Each expression line's `# value` comment is the repr of its value.
    block, scope, checked = readme_block("Library quick tour", "python"), {}, 0
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            assert repr(eval(code, scope)) == comment, code
            checked += 1
        else:
            exec(code, scope)
    assert checked >= 5


def test_cli_examples_print_what_they_claim(capsys, tmp_path, monkeypatch):
    # Each `mull ... # ... -> x` line prints x, run in process.
    monkeypatch.setenv("MULLINEUX_CACHE_DIR", str(tmp_path / "cache"))
    checked = 0
    for line in readme_block("CLI", "sh").splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("mull ") and "->" in comment:
            assert main(shlex.split(command)[1:]) == 0, line
            assert capsys.readouterr().out == comment.split("->")[1].split()[0] + "\n", line
            checked += 1
    assert checked >= 6
