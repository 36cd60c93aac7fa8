"""List the statements under ``src/soundscapekit`` that no test executes.

Run from anywhere, with the test dependencies installed:

    python3 tools/reach.py

The script runs ``pytest -q -p no:cacheprovider --hypothesis-seed=0 tests/``
in its own process, from the repository root with its ``src/`` first on
``sys.path``, and records every line executed in ``src/soundscapekit``
(``sys.settrace``, and ``threading.settrace`` for the threads the tests
start). pytest's report goes to stderr. Standard output gets one line per
statement that never ran, ``<file>:<line>: <text>``, where text is the
statement's source with each line stripped and joined by a space (of an
``if``, ``for``, ``with`` and the like, only the header, up to its colon).
Definitions, imports, docstrings and ``try:`` (which compiles to no code of
its own) are not statements here; a multi-line statement counts as run when
any of its lines ran. Code run in a subprocess (the CLI tests that start
one) is not seen.

Exit status 1 when the tests fail, when a statement that never ran has no
entry in ``EXPECTED``, or when an entry does not match exactly one statement
of its file or matches one that now runs (``STALE``): an entry is updated or
removed with the code, not kept.
"""

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soundscapekit"

#: (file under src/soundscapekit, statement text as listed) -> why no test in this process runs it.
EXPECTED = {
    ("cli.py", "main()"): "runs only as `python -m soundscapekit.cli`, which the tests start as a subprocess",
    ("cli.py", 'return SoundscapeKitError("file name is not UTF-8, so its recording_id would not read back")'):
        "runs only in the subprocess of TestNonUtf8Locale, which names a file with a byte that is not UTF-8",
}

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Match)
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
                ast.Global, ast.Nonlocal, ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))


def _header(node):
    """The part of a compound statement's header that ends it: its test, iterable, subject or last context manager."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return node.items[-1].optional_vars or node.items[-1].context_expr
    return node.subject if isinstance(node, ast.Match) else getattr(node, "test", None) or node.iter


def statements(path: Path):
    """(first line, last line, text) of each counted statement in the file, in source order.

    The text is the statement's source from its first column to its last (a
    compound statement's up to the colon of its header), each line stripped,
    joined by a space.
    """
    source = path.read_bytes()
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring, or a string standing alone
        last, stop = node.end_lineno, node.end_col_offset
        if isinstance(node, _COMPOUND):
            head = _header(node)
            last, stop = head.end_lineno, head.end_col_offset
            while b":" not in lines[last - 1][stop:]:  # the colon may follow a closing bracket or a line end
                last, stop = last + 1, 0
            stop = lines[last - 1].index(b":", stop) + 1
        part = lines[node.lineno - 1 : last]
        part[-1] = part[-1][:stop]  # offsets count UTF-8 bytes
        part[0] = part[0][node.col_offset :]
        found.append((node.lineno, last, " ".join(line.decode("utf-8").strip() for line in part)))
    return sorted(found)


def traced_run(args) -> tuple:
    """(pytest exit code, {absolute file path: set of executed lines}) for a pytest run in this process."""
    package = os.path.realpath(PACKAGE)
    executed, by_filename = {}, {}  # by_filename: co_filename -> its line set, or None outside the package

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = by_filename.get(filename, False)
        if lines is False:
            real = os.path.realpath(filename)
            lines = executed.setdefault(real, set()) if real.startswith(package + os.sep) else None
            by_filename[filename] = lines
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    old_cwd = os.getcwd()
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(old_cwd)
    return int(code), executed


def statement_reach(executed: dict) -> list:
    """(file, line, text, reached) for every counted statement, reached or not, in file and line order."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(os.path.realpath(path), set())
        for first, last, text in statements(path):
            found.append((path.name, first, text, any(n in ran for n in range(first, last + 1))))
    return found


def main() -> int:
    code, executed = traced_run(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests/"])
    found = statement_reach(executed)
    failed = code != 0
    if failed:
        print(f"reach: the tests failed (pytest exit {code}); the listing below is not a gate")
    for name, line, text, reached in found:
        if not reached:
            print(f"{name}:{line}: {text}")
    for name, line, text, reached in found:
        if not reached and (name, text) not in EXPECTED:
            print(f"reach: {name}:{line} never runs and has no EXPECTED entry", file=sys.stderr)
            failed = True
    for (name, text), reason in EXPECTED.items():
        matches = [reached for n, _, t, reached in found if (n, t) == (name, text)]
        if len(matches) != 1 or matches[0]:
            what = f"matches {len(matches)} statements" if len(matches) != 1 else "now runs"
            print(f"STALE {name}: {text!r} {what} (listed because it {reason})")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
