"""Check that the tests catch hand-made faults (mutants) in the code under ``src/``.

Run from anywhere, with the test dependencies installed:

    python3 tools/mutants.py

Each mutant names a file, a text that occurs there exactly once, its
replacement, and the pytest node ids that must fail once the text is
replaced. The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory and runs
``python -m pytest -q -x -p no:cacheprovider <node ids>`` there, with the
copy's ``src/`` first on ``PYTHONPATH`` and no bytecode written. First every
named test runs on the unmutated copy and must pass. Then each mutant is
applied to the copy, its tests run, and the copy is restored; one line per
mutant reads ``caught <name>`` or ``SURVIVED <name>``. The working tree is
only read.

Exit status 1 when a mutant survives, when the named tests fail unmutated,
or when a mutant's text does not occur exactly once (``STALE``): a stale
mutant is updated to the code it was written against, not skipped.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs in the file exactly once
    new: str
    tests: tuple  # pytest node ids, one of which must fail


MUTANTS = [
    Mutant("the first-bad-row re-scan skips the first row", "src/soundscapekit/_table.py",
           "for line, fields in self:\n                check(line, fields)",
           "for line, fields in itertools.islice(self, 1, None):\n                check(line, fields)",
           ("tests/test_tables.py::test_annotation_readers_report_the_first_bad_row",
            "tests/test_tables.py::test_load_scores_reports_the_first_bad_row")),
    Mutant("a segment of zero length is inside the recording", "src/soundscapekit/decision.py",
           "(start < end)", "(start <= end)",
           ("tests/test_decision.py::TestAnnotationSet::test_rejects_bad_segment",
            "tests/test_decision.py::TestAnnotationIO::test_first_bad_row_in_file_order_wins",
            "tests/test_tables.py::test_annotation_readers_report_the_first_bad_row")),
    Mutant("abutting segments stay apart", "src/soundscapekit/decision.py",
           "(starts[1:] > reach[:-1])", "(starts[1:] >= reach[:-1])",
           ("tests/test_decision.py::TestAnnotationIO::test_segments_are_merged_as_brute_force_merges_them",)),
    Mutant("the split loses the last segment of each class", "src/soundscapekit/decision.py",
           "tuple(pairs[a:b])", "tuple(pairs[a:b - 1])",
           ("tests/test_decision.py::TestAnnotationIO::test_segments_are_merged_as_brute_force_merges_them",)),
    Mutant("pda_truth drops the ids it was not given", "src/soundscapekit/decision.py",
           "list(codes)[len(recording_ids):]", "[]",
           ("tests/test_decision.py::TestAnnotationIO::test_annotations_of_a_recording_not_listed",)),
    Mutant("the pink noise bed drops its partial last span", "src/soundscapekit/synthmix.py",
           "        out[len(head) * span:] += vals[len(head):]\n", "",
           ("tests/test_synthmix.py::TestNoiseKinds::test_pink_equals_the_repeated_generators_bit_for_bit",)),
    Mutant("pda_truth takes a repeated recording id", "src/soundscapekit/decision.py",
           "if len(codes) < len(recording_ids):", "if False:",
           ("tests/test_decision.py::TestAnnotationIO::"
            "test_a_repeated_recording_id_is_an_error_before_the_table_is_read",)),
    Mutant("Table.number takes every number float takes", "src/soundscapekit/_table.py",
           "if not _number_chars(text):", "if False:",
           ("tests/test_tables.py::TestTable::test_number_rejects_non_finite",
            "tests/test_tables.py::test_column_readers_name_a_number_spelt_otherwise")),
    Mutant("the PDA test drops its tolerance", "src/soundscapekit/decision.py",
           "measured.reshape(-1, len(CLASSES)) + _DUR_TOL >=", "measured.reshape(-1, len(CLASSES)) >=",
           ("tests/test_decision.py::TestAnnotationIO::test_sum_adds_lengths_in_start_order",)),
    Mutant("load_scores leaves the window starts out of its numbers", "src/soundscapekit/scores.py",
           "numbers=range(1, len(table.header))", "numbers=range(2, len(table.header))",
           ("tests/test_tables.py::test_column_readers_name_a_number_spelt_otherwise",
            "tests/test_cli.py::TestBadInputTables::test_bad_window_start")),
    Mutant("the runner's one job is a one-thread pool", "src/soundscapekit/_runner.py",
           "if jobs < 2 or len(items) < 2:", "if len(items) < 2:",
           ("tests/test_runner.py::test_one_job_runs_every_item_on_the_calling_thread",
            "tests/test_runner.py::test_serial_run_stops_at_the_first_exception")),
    Mutant("the runner's pool returns results in completion order", "src/soundscapekit/_runner.py",
           "return list(pool.map(timed, items))",
           "return [f.result() for f in __import__('concurrent.futures').futures.as_completed("
           "[pool.submit(timed, item) for item in items])]",
           ("tests/test_runner.py::test_results_come_back_in_input_order_when_later_items_finish_first",)),
    Mutant("the runner's pool runs every queued item after a failure", "src/soundscapekit/_runner.py",
           "        return list(pool.map(timed, items))\n",
           "        futures = [pool.submit(timed, item) for item in items]\n"
           "    return [future.result() for future in futures]\n",
           ("tests/test_runner.py::test_a_pool_failure_cancels_the_queued_items_once_the_running_ones_finish",)),
    Mutant("the table writer writes None as 'None'", "src/soundscapekit/_table.py",
           '["" if v is None else str(v) for v in column]', "[str(v) for v in column]",
           ("tests/test_output.py::test_table_cells_are_formatted_by_the_writer",
            "tests/test_output.py::test_table_dash_is_stdout")),
    Mutant("a number may hold '_' between digits", "src/soundscapekit/_table.py",
           '_NOT_NUMBER = "_ ', '_NOT_NUMBER = " ',
           ("tests/test_tables.py::test_column_readers_name_a_number_spelt_otherwise",
            "tests/test_tables.py::test_the_column_screen_and_the_cell_rule_agree")),
    Mutant("coded numbers the cells in sorted order, not in order of first appearance",
           "src/soundscapekit/_table.py",
           "    return np.fromiter((codes.setdefault(cell, len(codes)) for cell in cells), np.intp, len(cells))\n",
           "    for cell in sorted(set(cells)):\n        codes.setdefault(cell, len(codes))\n"
           "    return np.fromiter(map(codes.__getitem__, cells), np.intp, len(cells))\n",
           ("tests/test_scores.py::TestLoadScoresColumns::test_equals_row_by_row_reference",)),
    Mutant("8-bit samples lose their offset of 128", "src/soundscapekit/audio_io.py",
           "samples = (data - 128.0) / 128.0", "samples = data / 128.0",
           ("tests/test_audio_io.py::TestDecode::test_uint8_scaling",)),
]


def occurrences(mutant, root=ROOT) -> int:
    """How often the mutant's text occurs in its file under root."""
    return (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def copy_tree(dest, root=ROOT) -> None:
    """Copy what the tests need from root to dest, without caches."""
    for name in COPIED:
        if (root / name).is_dir():
            shutil.copytree(root / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(root / name, dest / name)


def applied(mutant, tree):
    """Replace the mutant's text in tree, a copy made by copy_tree; return the file's original text."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: its text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def passes(tree, tests) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    stale = [(m, occurrences(m)) for m in MUTANTS if occurrences(m) != 1]
    for m, n in stale:
        print(f"STALE {m.name}: its text occurs {n} times in {m.path}")
    if stale:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if not passes(tree, sorted({t for m in MUTANTS for t in m.tests})):
            print("the named tests fail on the unmutated tree")
            return 1
        survived = 0
        for m in MUTANTS:
            original = applied(m, tree)
            try:
                caught = not passes(tree, m.tests)
            finally:
                (tree / m.path).write_text(original, encoding="utf-8")
            print(f"{'caught' if caught else 'SURVIVED'} {m.name}", flush=True)
            survived += not caught
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
