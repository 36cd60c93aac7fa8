"""tools/reach.py: which source lines count as statements, and its EXPECTED table still fits the code. (Running
the traced suite is the tool's own job: it takes a few minutes.)"""

import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = sys.modules.setdefault("reach", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(reach)


def test_each_expected_entry_names_one_statement_and_gives_a_reason():
    for (name, text), reason in reach.EXPECTED.items():
        assert [t for _, _, t in reach.statements(reach.PACKAGE / name)].count(text) == 1, (name, text)
        assert reason.strip()


def test_statements_leave_out_definitions_imports_docstrings_and_try(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(textwrap.dedent('''\
        """Module docstring."""
        import os
        from pathlib import Path


        def f(a,
              b):
            """Docstring."""
            if (a and
                    b):
                # a comment
                return g(a,
                         b)
            try:
                x = 1
            except ValueError:
                pass
            for k in range(3): print(k)  # a comment
            with open(a) as fh:
                return fh.read()


        class C:
            field: int = 0
    '''))
    assert reach.statements(path) == [
        (9, 10, "if (a and b):"),
        (12, 13, "return g(a, b)"),
        (15, 15, "x = 1"),
        (17, 17, "pass"),
        (18, 18, "for k in range(3):"),
        (18, 18, "print(k)"),
        (19, 19, "with open(a) as fh:"),
        (20, 20, "return fh.read()"),
        (24, 24, "field: int = 0"),
    ]


def test_a_statement_runs_when_any_of_its_lines_ran(monkeypatch, tmp_path):
    (tmp_path / "m.py").write_text("x = f(1,\n      2)\ny = 3\nif x:\n    z = 4\n")
    monkeypatch.setattr(reach, "PACKAGE", tmp_path)
    found = reach.statement_reach({str((tmp_path / "m.py").resolve()): {2, 4}})
    assert found == [("m.py", 1, "x = f(1, 2)", True), ("m.py", 3, "y = 3", False), ("m.py", 4, "if x:", True),
                     ("m.py", 5, "z = 4", False)]
