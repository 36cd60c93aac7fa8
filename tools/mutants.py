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
           "unscored = list(codes)[len(recording_ids):]", "unscored = []",
           ("tests/test_decision.py::TestAnnotationIO::test_annotations_of_a_recording_not_listed",
            "tests/test_cli.py::TestEvaluateCommand::test_annotations_without_scores_rejected")),
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
    Mutant("a plain block may hold a quote", "src/soundscapekit/_table.py",
           """if ('"' in text or "\\0" in text""", """if ("\\0" in text""",
           ("tests/test_tables.py::test_the_row_iterator_takes_over_at_the_first_block_that_is_not_plain",)),
    Mutant("a plain block may hold another line end", "src/soundscapekit/_table.py",
           """                        or any("\\r" in s or "\\n" in s for s in (flat, *head))"""
           """  # another line end\n""", "",
           ("tests/test_tables.py::test_columns_of_a_table_past_one_block",
            "tests/test_tables.py::test_the_row_iterator_takes_over_at_the_first_block_that_is_not_plain")),
    Mutant("a plain block may hold a blank line", "src/soundscapekit/_table.py",
           """ or "" in rows\n""", "\n",
           ("tests/test_tables.py::test_columns_skip_blank_lines_of_a_one_column_table",)),
    Mutant("a plain block may hold a row of another field count", "src/soundscapekit/_table.py",
           """\n                        or set(map(str.count, rows, itertools.repeat(","))) - {width - 1}):""", "):",
           ("tests/test_tables.py::test_columns_of_a_table_past_one_block",
            "tests/test_tables.py::test_the_row_iterator_takes_over_at_the_first_block_that_is_not_plain")),
    Mutant("a plain block may hold a line past the field size limit", "src/soundscapekit/_table.py",
           "\n                        or max(map(len, rows), default=0) > limit", "",
           ("tests/test_tables.py::test_columns_of_a_field_over_the_csv_limit",)),
    Mutant("the row iterator resumes at the lines split, the header's ignored", "src/soundscapekit/_table.py",
           "self._rows(max(done, self._skip))", "self._rows(done)",
           ("tests/test_tables.py::test_columns_skip_blank_lines_of_a_one_column_table",
            "tests/test_tables.py::test_annotation_readers_report_the_first_bad_row")),
    Mutant("Table.checked lets a SchemaError of its block through", "src/soundscapekit/_table.py",
           "except (SchemaError, KeyError, ValueError) as exc:", "except (KeyError, ValueError) as exc:",
           ("tests/test_decision.py::TestAnnotationIO::test_first_bad_row_in_file_order_wins",
            "tests/test_scores.py::TestLoadScoresColumns::test_first_bad_row_in_file_order_is_reported")),
    Mutant("a failure without a message prints nothing after FAILED", "src/soundscapekit/cli.py",
           "{str(exc) or type(exc).__name__}", "{str(exc)}",
           ("tests/test_cli.py::test_out_of_memory_or_stack_is_one_line_error",)),
    Mutant("a JSON document too deep is not a config error", "src/soundscapekit/config.py",
           "except (RecursionError, ValueError) as exc:", "except ValueError as exc:",
           ("tests/test_config.py::test_json_nested_too_deep_is_a_config_error",
            "tests/test_cli.py::TestEvaluateCommand::test_config_nested_too_deep_is_one_line_error")),
    Mutant("the merge sorts by end before start", "src/soundscapekit/decision.py",
           "np.lexsort((ends, starts, cell))", "np.lexsort((starts, ends, cell))",
           ("tests/test_decision.py::TestAnnotationIO::test_segments_are_merged_as_brute_force_merges_them",)),
    Mutant("a segment's end has no tolerance past the recording", "src/soundscapekit/decision.py",
           "(end <= duration_s + _DUR_TOL)", "(end <= duration_s)",
           ("tests/test_decision.py::TestAnnotationSet::test_end_within_the_tolerance_past_the_recording_is_inside",)),
    Mutant("a number may hold characters that are not ASCII", "src/soundscapekit/_table.py",
           "return text.isascii() and not any(", "return not any(",
           ("tests/test_tables.py::TestTable::test_number_rejects_non_finite",
            "tests/test_tables.py::test_column_readers_name_a_number_spelt_otherwise")),
    Mutant("the weak reader drops rows without flags", "src/soundscapekit/decision.py",
           "rows = list(_flag_rows(table))", "rows = [row for row in _flag_rows(table) if any(row[1])]",
           ("tests/test_decision.py::TestAnnotationIO::test_weak_schema",
            "tests/test_decision.py::TestAnnotationIO::test_annotations_of_a_recording_not_listed")),
    Mutant("log lines keep bytes that are not UTF-8 as the locale shows them", "src/soundscapekit/cli.py",
           'click.echo(msg.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace"), err=True)',
           "click.echo(msg, err=True)",
           ("tests/test_cli.py::TestNonUtf8Locale::test_file_name_that_is_not_utf8_fails_alone",
            "tests/test_cli.py::TestNonUtf8Locale::test_file_name_that_is_not_utf8_fails_alone_in_a_utf8_locale")),
    Mutant("evaluate takes any bootstrap size and confidence", "src/soundscapekit/evaluation.py",
           "    check_bootstrap(bootstrap_resamples, confidence)\n", "",
           ("tests/test_evaluation.py::TestEvaluate::test_confidence_outside_the_open_unit_interval_is_rejected",
            "tests/test_evaluation.py::TestEvaluate::test_resample_count_outside_the_bound_is_rejected_before_drawing")),
    Mutant("the resampler drops the product of a group's inputs past the stride", "src/soundscapekit/audio_io.py",
           "                if b is not None:\n                    out += rows[1:, : len(b)] @ b\n", "",
           ("tests/test_audio_io.py::test_polyphase_matches_resample_poly",)),
    Mutant("the resampler's zero-padded copy is one sample late", "src/soundscapekit/audio_io.py",
           "out[lo - start : hi - start] = x[lo:hi]", "out[lo - start + 1 : hi - start] = x[lo : hi - 1]",
           ("tests/test_audio_io.py::test_polyphase_matches_resample_poly",)),
    Mutant("a number may hold a form feed", "src/soundscapekit/_table.py",
           '_NOT_NUMBER = "_ \\t\\n\\r\\x0b\\x0c"', '_NOT_NUMBER = "_ \\t\\n\\r\\x0b"',
           ("tests/test_tables.py::TestTable::test_number_rejects_non_finite",)),
    Mutant("AnnotationSet takes a segment outside the recording", "src/soundscapekit/decision.py",
           "        if len(bad):\n", "        if False:\n",
           ("tests/test_decision.py::TestAnnotationSet::test_rejects_bad_segment",)),
    Mutant("the annotation reader leaves the segment ends out of its numbers", "src/soundscapekit/decision.py",
           "table.columns(numbers=(2, 3))", "table.columns(numbers=(2,))",
           ("tests/test_tables.py::test_column_readers_name_a_number_spelt_otherwise",)),
    Mutant("the annotation readers take a duration of zero", "src/soundscapekit/decision.py",
           "first = duration_s <= 0 and", "first = duration_s < 0 and",
           ("tests/test_decision.py::TestAnnotationIO::test_a_duration_that_is_not_positive_is_a_value_error",)),
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
