"""The mutants of tools/mutants.py still fit the code and name tests that exist, and applying one changes only
a copy of the tree. (Running them is tools/mutants.py's job: it takes about a minute.)"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules.setdefault("mutants", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_fits_the_code_and_names_existing_tests(mutant):
    assert mutants.occurrences(mutant) == 1
    for node in mutant.tests:
        path, *scopes, name = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert all(f"\nclass {scope}:" in text for scope in scopes), node
        assert f" def {name}(" in text or f"\ndef {name}(" in text, node


def test_a_mutant_changes_only_its_copy(tmp_path):
    mutant = mutants.MUTANTS[0]
    before = (ROOT / mutant.path).read_text(encoding="utf-8")
    mutants.copy_tree(tmp_path)
    assert mutants.applied(mutant, tmp_path) == before == (ROOT / mutant.path).read_text(encoding="utf-8")
    assert (tmp_path / mutant.path).read_text(encoding="utf-8") == before.replace(mutant.old, mutant.new)
