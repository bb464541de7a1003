import importlib
import os
import pkgutil
import re

import mullineux

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
