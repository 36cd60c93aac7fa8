"""The shared input-table reader and a fuzz test for every loader built on it."""

import csv
import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundscapekit import _table
from soundscapekit._table import Table
from soundscapekit.cli import _read_diversity_csv, _read_indices_csv
from soundscapekit.decision import PdaPolicy, load_annotations, load_decisions, pda_truth
from soundscapekit.errors import SchemaError
from soundscapekit.labels import CLASSES, SILENCE
from soundscapekit.scores import load_scores
from soundscapekit.synthmix import SourcePool


def table(tmp_path, text, comments=False):
    p = tmp_path / "t.csv"
    p.write_text(text)
    return Table(p, [["a", "b"]], comments=comments)


class TestTable:
    def test_rows_with_line_numbers_skip_blank_lines(self, tmp_path):
        t = table(tmp_path, 'a,b\n1,2\n\n"x\ny",3\n4,5\n')
        assert t.header == ["a", "b"]
        # a quoted multi-line row counts as its last line
        assert list(t) == [(2, ["1", "2"]), (5, ["x\ny", "3"]), (6, ["4", "5"])]

    def test_leading_comments_count_as_lines(self, tmp_path):
        t = table(tmp_path, "# p=1\n# q=2\na,b\n1,2\n", comments=True)
        assert list(t) == [(4, ["1", "2"])]

    @pytest.mark.parametrize(
        "text, comments, message",
        [
            ("", False, r"t\.csv:1: empty file"),
            ("# only\n", True, r"t\.csv:2: empty file"),
            ("a,c\n1,2\n", False, r"t\.csv:1: unexpected header 'a,c', expected 'a,b'"),
            ("# p=1\na,b,c\n", True, r"t\.csv:2: unexpected header"),
            ("# p=1\na,b\n", False, r"t\.csv:1: unexpected header '# p=1'"),
            ("\na,b\n", False, r"t\.csv:1: unexpected header ''"),
            ("a,b\n1,2\n\n3\n", False, r"t\.csv:4: expected 2 fields, got 1"),
            ("a,b\n1,2,3\n", False, r"t\.csv:2: expected 2 fields, got 3"),
            ("a,b\n# p=1\n", True, r"t\.csv:2: expected 2 fields, got 1"),
        ],
    )
    def test_violations_name_path_and_line(self, tmp_path, text, comments, message):
        with pytest.raises(SchemaError, match=message):
            list(table(tmp_path, text, comments=comments))

    def test_field_over_the_csv_limit_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match=r"t\.csv:3: unreadable CSV"):
            list(table(tmp_path, "a,b\n1,2\n" + "x" * 200_000 + ",1\n"))

    @pytest.mark.parametrize(
        "lines, newline, comments, line",
        [
            ([b"a,b", b"r1,1", b"caf\xc3\xa9,2", b"r3,3", b"caf\xe9,4", b"r5,5"], b"\n", False, 5),
            ([b"a,b"] + [b"r%d,1" % k for k in range(2000)] + [b"r\xff,2"], b"\n", False, 2002),  # past 8 KiB
            ([b"# p=1", b"# name=caf\xe9", b"a,b", b"r1,1"], b"\n", True, 2),
            ([b"a,\xe9"], b"\n", False, 1),
            ([b"a,b", b'"x\r\ny\xe9",1'], b"\n", False, 3),
            ([b"a,b", b"r1,1", b"r\xe9,2"], b"\r\n", False, 3),
            ([b"a,b", b"r1,1", b"r\xe9,2"], b"\r", False, 3),
        ],
        ids=["line-5", "past-8KiB", "comment", "header", "multi-line-row", "crlf", "cr"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, lines, newline, comments, line):
        p = tmp_path / "t.csv"
        p.write_bytes(newline.join(lines) + newline)
        with pytest.raises(SchemaError, match=rf"^{p}:{line}: unreadable CSV \('utf-8' codec can't decode byte 0x"):
            list(Table(p, [["a", "b"]], comments=comments))

    def test_an_earlier_row_error_comes_first(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\nr1,x\nr\xe9,2\n")
        t = Table(p, [["a", "b"]])
        with pytest.raises(SchemaError, match=r"t\.csv:2: expected a number, got 'x'"):
            for line, (_, b) in t:
                t.number(b, line)

    def test_keyed_rejects_repeated_ids(self, tmp_path):
        t = table(tmp_path, "a,b\nr1,1\nr2,1\nr1,2\n")
        with pytest.raises(SchemaError, match=r"t\.csv:4: duplicate recording_id 'r1'"):
            list(t.keyed())

    @pytest.mark.parametrize("text", ["", "x", "nan", "inf", "-inf", "1e999", "0x1",
                                      "1_0", " 20.0 ", "\t1", "1\n", "\x0b1", "\x0c1", "\xa01", "\uff11\uff10", "\u0661"])
    def test_number_rejects_non_finite(self, tmp_path, text):
        t = table(tmp_path, "a,b\n")
        with pytest.raises(SchemaError, match=r"t\.csv:7: expected a"):
            t.number(text, 7)

    def test_number_parses_finite(self, tmp_path):
        t = table(tmp_path, "a,b\n")
        assert t.number("-0.25", 2) == -0.25

    @pytest.mark.parametrize("text, value", [("1.", 1.0), (".5", 0.5), ("+1e-3", 1e-3), ("-0", 0.0), ("2E+2", 200.0),
                                             ("007", 7.0)])
    def test_number_accepts_the_grammar(self, tmp_path, text, value):
        assert table(tmp_path, "a,b\n").number(text, 2) == value

    @pytest.mark.parametrize("text", ["", "yes", "true", " 1", "1.0", "2", "-0"])
    def test_flag_accepts_only_0_and_1(self, tmp_path, text):
        t = table(tmp_path, "a,b\n")
        assert (t.flag("0", 2), t.flag("1", 2)) == (False, True)
        with pytest.raises(SchemaError, match=r"t\.csv:5: flag must be 0 or 1"):
            t.flag(text, 5)


#: The number grammar of FORMATS.md ("Reading rules"), as a regular expression: the oracle of the character rule
#: by which the readers take a cell that float() reads as a finite number.
NUMBER = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
NUMBER_TEXT = st.text(st.sampled_from("0123456789+-.eE_ \t\n\x0b\x0c\r\xa0\uff11\u0661nafiINxX"), max_size=8)


@pytest.fixture(scope="module")
def number_table(tmp_path_factory):
    p = tmp_path_factory.mktemp("number") / "t.csv"
    p.write_text("a\n")
    return Table(p, [["a"]])


@settings(max_examples=2000, deadline=None)
@given(text=NUMBER_TEXT)
def test_the_column_screen_and_the_cell_rule_agree(number_table, text):
    """A cell that passes the columns' screen and that float() reads as a finite number is a number by Table.number,
    of the same value, and the other way round; both are exactly the finite numbers that NUMBER spells."""
    try:
        by_column = float(_table._screened([[text]], [0])[0][0])
    except ValueError:
        by_column = None
    try:
        by_cell = number_table.number(text, 2)
    except SchemaError:
        by_cell = None
    if by_column is not None and not math.isfinite(by_column):
        by_column = None  # left to the callers' range checks
    assert by_column == by_cell
    assert (by_cell is not None) == bool(NUMBER.fullmatch(text) and math.isfinite(float(text)))


# --- columns: the rows as blocks of columns, split directly where plain -------


def collected(t):
    """The blocks of t.columns() joined into one list per column."""
    columns = [[] for _ in t.header]
    for block in t.columns():
        assert len(block) == len(columns) and len({len(cells) for cells in block}) == 1
        for column, cells in zip(columns, block):
            column.extend(cells)
    return columns


def rows_or_error(t):
    """The row iterator's fields as columns, or its SchemaError message."""
    try:
        return [list(column) for column in zip(*(fields for _, fields in t))] or [[] for _ in t.header]
    except SchemaError as exc:
        return str(exc)


def columns_or_error(t):
    try:
        return collected(t)
    except SchemaError as exc:
        return str(exc)


GOOD_CELLS = st.sampled_from([b"", b"r1", b"0.5", b"x y", b"#", "é".encode(), b"\t", b"1e999"])
ODD_CELLS = st.sampled_from([b'"a,b"', b'"a""b"', b'"a\nb"', b'"a\r\nb"', b'"a\rb"', b'a"b', b"\0", b"r\xe9",
                             b"\xed\xa0\x80", b"x" * 40])


@st.composite
def table_bytes(draw):
    """A header a,b,c and rows, mostly plain; some quoted, odd, blank or of the wrong width, some ends mixed."""
    mostly = st.sampled_from([True] * 7 + [False])
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    lines = [] if draw(mostly) else [b"# p=1"] * draw(st.integers(0, 2))
    lines.append(b"a,b,c")
    for _ in range(draw(st.integers(0, 12))):
        cells = draw(st.lists(GOOD_CELLS, min_size=3, max_size=3))
        kind = draw(st.sampled_from(["good"] * 6 + ["odd", "width"]))
        if kind == "odd":
            cells[draw(st.integers(0, 2))] = draw(ODD_CELLS)
        elif kind == "width":  # no cell at all is a blank line
            cells = draw(st.lists(GOOD_CELLS | ODD_CELLS, max_size=4))
        lines.append(b",".join(cells))
    ends = [end if draw(mostly) else draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], b""]))  # a missing final line end
    return b"".join(line + e for line, e in zip(lines, ends)), lines[0].startswith(b"#")


@settings(max_examples=400, deadline=None)
@given(drawn=table_bytes(), block=st.sampled_from([1, 8, 40, 1 << 16]))
def test_columns_equal_the_rows_with_the_same_errors(tmp_path_factory, drawn, block):
    """Whatever the bytes, the collected blocks equal the rows, or both raise the same error at the same line.

    Small blocks put line-end changes and bad rows after the first block; the
    field limit is lowered so that a 40-character cell exceeds it.
    """
    data, comments = drawn
    p = tmp_path_factory.mktemp("columns") / "t.csv"
    p.write_bytes(data)
    limit = csv.field_size_limit(32)
    try:
        with mock.patch.object(_table, "_BLOCK", block):
            t = Table(p, [["a", "b", "c"]], comments=comments)
            assert columns_or_error(t) == rows_or_error(t)
    except SchemaError as exc:  # a header that is not a,b,c (split by a lone \r) or not UTF-8
        assert "header" in str(exc) or "unreadable" in str(exc) or "empty file" in str(exc)
    finally:
        csv.field_size_limit(limit)


def big_table(tmp_path, tail):
    """A plain 2-column table past the first block of Table.columns, then tail's lines."""
    p = tmp_path / "big.csv"
    p.write_bytes(b"a,b\n" + b"r1,0.5\n" * 20_000 + tail)
    assert p.stat().st_size > 2 * _table._BLOCK
    return Table(p, [["a", "b"]])


@pytest.mark.parametrize("tail", [b"", b"r2,1\r\nr3,2\r\n", b"r2,1\rr3,2\r", b'"r\n2",1\nr3,2\n', b"\n\nr2,1\n",
                                  b"r2,\xe9\n", b"r2,1,2\n", b"r2\n", b"r2,1"])
def test_columns_of_a_table_past_one_block(tmp_path, tail):
    t = big_table(tmp_path, tail)
    assert columns_or_error(t) == rows_or_error(t)


def test_columns_of_a_field_over_the_csv_limit(tmp_path):
    t = table(tmp_path, "a,b\n1,2\n" + "x" * 200_000 + ",1\n")
    assert columns_or_error(t) == rows_or_error(t) == f"{t.path}:3: unreadable CSV (field larger than field limit (131072))"


def test_columns_skip_blank_lines_of_a_one_column_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a\nx\n\ny\n")
    t = Table(p, [["a"]])
    assert collected(t) == rows_or_error(t) == [["x", "y"]]


def test_plain_table_is_split_without_the_row_iterator(tmp_path, monkeypatch):
    t = big_table(tmp_path, b"r2,1\n")
    monkeypatch.setattr(Table, "_rows", lambda self, skip: pytest.fail("the row iterator was used"))
    columns = collected(t)
    assert columns == [["r1"] * 20_000 + ["r2"], ["0.5"] * 20_000 + ["1"]]


@pytest.mark.parametrize("tail", [b'"x",1\n', b"r2,1\r\n", b"\n", b"r2,\xe9\n", b"r2,1,3\n"])
def test_the_row_iterator_takes_over_at_the_first_block_that_is_not_plain(tmp_path, monkeypatch, tail):
    t = big_table(tmp_path, tail)
    rows = Table._rows
    starts = []
    monkeypatch.setattr(Table, "_rows", lambda self, skip: starts.append(skip) or rows(self, skip))
    columns_or_error(t)
    assert len(starts) == 1 and 1 < starts[0] < 20_002  # the plain blocks before the tail's line are not read again


SCORES = "recording_id,window_start_s,anthropophony,biophony,geophony\n{0},0.0,0.1,0.2,0.3\n"
SEGMENTS = "recording_id,class,start_s,end_s\n{0},biophony,0,5\n"
#: A table whose line 3 holds a cell that float() reads as a number and NUMBER does not spell, and the cell.
SPELLED_OTHERWISE = {
    "score-start": (load_scores, SCORES + "{0},1_0.0,0.1,0.2,0.3\n", "1_0.0"),
    "score": (load_scores, SCORES + "{0},10.0,0.1, 0.2,0.3\n", " 0.2"),
    "segment-end": (lambda p: pda_truth(p, ["r0"], 60.0, PdaPolicy()), SEGMENTS + "{0},biophony,5,1_0\n", "1_0"),
    "segment-start": (lambda p: load_annotations(p, 60.0), SEGMENTS + "{0},geophony,\uff10,5\n", "\uff10"),
}


@pytest.mark.parametrize("rid", ["r0", '"r0"'], ids=["split", "row-by-row"])
@pytest.mark.parametrize("name", list(SPELLED_OTHERWISE))
def test_column_readers_name_a_number_spelt_otherwise(tmp_path, name, rid):
    """Split into columns or (with a quoted id) read row by row, the table fails at the cell's line."""
    read, text, cell = SPELLED_OTHERWISE[name]
    p = tmp_path / "t.csv"
    p.write_text(text.format(rid), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read(p)
    assert str(err.value) == f"{p}:3: expected a number, got {cell!r}"


def test_ids_may_hold_what_numbers_may_not(tmp_path):
    """An id with '_', a space or a character that is not ASCII sends its block to the screen by column,
    which passes numbers spelt as NUMBER."""
    scores, segments = tmp_path / "scores.csv", tmp_path / "segments.csv"
    ids = ["r_0", "r 1", "caf\u00e9"]
    scores.write_text(SCORES.format(ids[0]) + "".join(f"{rid},0.0,0.1,0.2,0.3\n" for rid in ids[1:]), encoding="utf-8")
    segments.write_text(SEGMENTS.format(ids[0]) + "".join(f"{rid},geophony,1.,2E1\n" for rid in ids[1:]),
                        encoding="utf-8")
    assert load_scores(scores).recording_ids == ids
    assert pda_truth(segments, ids, 60.0, PdaPolicy()).tolist() == [[False, True, False], [False, False, True],
                                                                      [False, False, True]]


# --- fuzz: arbitrary tables may only load or raise SchemaError ----------------

#: Cells that break the rule of some column, or of a CSV line.
ODD_TEXT = ["", "nan", "inf", "-inf", "-5", "1e9", "0", "1", "0.5", "10.0", "x", "yes",
            "r1", "r2", *CLASSES, "a.wav", "/abs/b.wav", " ", '"', "#"]
CELLS = st.one_of(st.sampled_from(ODD_TEXT), st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                                                     max_size=5))


#: Cells that are valid in a column of that name, so that many drawn tables load.
GOOD = {
    "recording_id": st.integers(0, 50).map("r{}".format),
    "window_start_s": st.sampled_from(["0.0", "10.0", "20.0"]),
    **{c: st.sampled_from(["0", "1"]) for c in (*CLASSES, SILENCE)},
    "class": st.sampled_from(CLASSES),
    "start_s": st.sampled_from(["0", "5.5"]),
    "end_s": st.sampled_from(["10", "60"]),
    "file": st.sampled_from(["a.wav", "/abs/b.wav"]),
    "aci": st.sampled_from(["12.5", "0"]),
    "adi": st.sampled_from(["1.5", "0.0"]),
    "ndsi": st.sampled_from(["-0.25", ""]),
    "wall_s": st.just("0.1"),
    "species_count": st.sampled_from(["3", "4"]),
}


@st.composite
def csv_text(draw, headers, comments=False):
    """Raw CSV text: a documented or random header, then mostly valid rows and some short, long or random ones."""
    mostly = st.sampled_from([True] * 7 + [False])  # draw the valid choice 7 times in 8
    header = draw(st.sampled_from(headers) if draw(mostly) else st.lists(CELLS, max_size=6))
    width = len(header)
    good_row = st.tuples(*(GOOD.get(c, CELLS) for c in header)).map(list)
    bad_row = st.lists(CELLS, min_size=max(0, width - 1), max_size=width + 1)
    rows = draw(st.lists(mostly.flatmap(lambda good: good_row if good else bad_row), max_size=8))
    if rows and not draw(mostly):
        rows.append(draw(st.sampled_from(rows)))  # a repeated row and id
    lead = draw(st.lists(st.sampled_from(["# p=1", "#"]), max_size=2)) if comments else []
    return "\n".join(lead + [",".join(header)] + [",".join(r) for r in rows]) + draw(st.sampled_from(["", "\n"]))


@st.composite
def table_lines(draw, header, odd_cells):
    """header's line, then rows of GOOD cells, one a line; a row may instead hold one of odd_cells past its id,
    have the wrong width or have no field (a blank line)."""
    good = st.tuples(*(GOOD[c] for c in header)).map(list)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        fields = draw(good)
        kind = draw(st.sampled_from(["good"] * 6 + ["cell", "cell", "width", "blank"]))
        if kind == "cell":
            fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(odd_cells))
        elif kind == "width":
            fields = draw(st.sampled_from([fields[:k] for k in range(1, len(fields))] + [fields + ["0"]]))
        elif kind == "blank":
            fields = []
        lines.append(",".join(fields))
    return lines


SCORE_HEADER = ["recording_id", "window_start_s", *CLASSES]
FLAGS_HEADER = ["recording_id", *CLASSES]
ANNOTATION_HEADERS = [["recording_id", "class", "start_s", "end_s"], FLAGS_HEADER]
INDICES_HEADER = ["recording_id", "aci", "adi", "ndsi"]


def pda_truth_of_its_ids(p):
    """pda_truth of the ids in the table's first column, as csv reads them: no id is unknown."""
    with open(p, newline="", encoding="utf-8") as fh:
        ids = list(dict.fromkeys(row[0] for row in itertools.islice(csv.reader(fh), 1, None) if row))
    return pda_truth(p, ids, 60.0, PdaPolicy({"anthropophony": 0.5}))


LOADERS = {
    "scores": (lambda p: load_scores(p, window_len_s=10.0), [SCORE_HEADER, SCORE_HEADER + [SILENCE]], False),
    "annotations": (lambda p: load_annotations(p, 60.0), ANNOTATION_HEADERS, False),
    "pda_truth": (pda_truth_of_its_ids, ANNOTATION_HEADERS, False),
    "decisions": (load_decisions, [FLAGS_HEADER, FLAGS_HEADER + [SILENCE]], False),
    "pool_manifest": (SourcePool.from_manifest, [["file", "class"]], False),
    "indices": (_read_indices_csv, [INDICES_HEADER, INDICES_HEADER + ["wall_s"]], True),
    "diversity": (_read_diversity_csv, [["recording_id", "species_count"]], False),
}


@pytest.mark.parametrize("name", list(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_only_loads_or_raises_schema_error(tmp_path_factory, name, data):
    """From csv_text, or from table_lines, which puts one bad cell in a row of the right width far more often."""
    load, headers, comments = LOADERS[name]
    p = tmp_path_factory.mktemp(name) / f"{name}.csv"
    lines = st.sampled_from(headers).flatmap(lambda h: table_lines(h, ODD_TEXT)).map(lambda ls: "\n".join(ls) + "\n")
    p.write_text(data.draw(csv_text(headers, comments) | lines))
    try:
        load(p)
    except SchemaError as exc:
        assert str(exc).startswith(f"{p}:")


# --- the first bad row, whichever way a table is read -------------------------


def written(tmp_path_factory, name, lines, quoted):
    """A file of lines; quoted quotes the header's first name, so that the whole table is read row by row."""
    p = tmp_path_factory.mktemp(name) / f"{name}.csv"
    text = "\n".join(lines) + "\n"
    p.write_text('"recording_id"' + text[len("recording_id"):] if quoted and text.startswith("recording_id") else text)
    return p


def error_or_none(read, p):
    try:
        read(p)
    except SchemaError as exc:
        return str(exc)
    return None


#: Cells put past the id of an annotation row: most break the rule of some column (class, number or flag), and
#: 0, 10 and 60 as a start or end may make a segment empty or reversed.
ODD_ANNOTATION_CELLS = ["A", "silence", "", "x", "nan", "inf", "-5", "1e9", "1_0", " 1", "0", "2", "5.5", "10", "60"]


@settings(max_examples=300, deadline=None)
@given(lines=st.sampled_from(ANNOTATION_HEADERS).flatmap(lambda h: table_lines(h, ODD_ANNOTATION_CELLS))
       | csv_text(ANNOTATION_HEADERS).map(str.splitlines), quoted=st.booleans())
def test_pda_truth_and_the_row_reader_fail_alike(tmp_path_factory, lines, quoted):
    """Split into columns or read row by row, pda_truth loads what load_annotations loads, and otherwise
    raises the same path:line: message."""
    p = written(tmp_path_factory, "annotations", lines, quoted)
    error = error_or_none(lambda p: load_annotations(p, 60.0), p)
    assert error_or_none(pda_truth_of_its_ids, p) == error
    assert error is None or re.match(rf"{re.escape(str(p))}:\d+: ", error)


#: The value of each start or end cell drawn for an annotation table under FORMATS.md's number rule; the
#: rule rejects every other cell drawn.
ANNOTATION_VALUES = {"0": 0.0, "5.5": 5.5, "10": 10.0, "60": 60.0, "-5": -5.0, "1e9": 1e9, "2": 2.0}


def annotation_row_ok(line, strong, earlier_ids):
    """The rules of one row of a 60 s annotation table, checked cell by cell: four fields, then a strong row's
    class and 0 <= start < end <= 60, or a weak row's 0/1 flags and an id that no earlier row holds."""
    fields = line.split(",")
    if len(fields) != 4:
        return False
    rid, *cells = fields
    if not strong:
        return rid not in earlier_ids and all(c in ("0", "1") for c in cells)
    start, end = map(ANNOTATION_VALUES.get, cells[1:])
    return cells[0] in CLASSES and None not in (start, end) and 0 <= start < end <= 60


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(ANNOTATION_HEADERS), quoted=st.booleans(), data=st.data())
def test_annotation_readers_report_the_first_bad_row(tmp_path_factory, header, quoted, data):
    """Split into columns or (with a quoted header) read row by row, load_annotations and pda_truth name the
    first row that breaks a rule of its own, in file order, and load a table whose rows all pass."""
    lines = data.draw(table_lines(header, ODD_ANNOTATION_CELLS))
    p = written(tmp_path_factory, "annotations", lines, quoted)
    seen, bad = set(), []
    for line, text in enumerate(lines[1:], 2):
        if text:
            if not annotation_row_ok(text, header[1] == "class", seen):
                bad.append(line)
            seen.add(text.split(",")[0])
    for read in (lambda p: load_annotations(p, 60.0), pda_truth_of_its_ids):
        error = error_or_none(read, p)
        if bad:
            assert error is not None and error.startswith(f"{p}:{bad[0]}: "), error
        else:
            assert error is None, error


#: The value of each score cell drawn below under FORMATS.md's number rule, None where the rule rejects it.
SCORE_VALUES = {"0": 0.0, "1": 1.0, "0.0": 0.0, "10.0": 10.0, "20.0": 20.0, "1e1": 10.0, "25": 25.0, "-5": -5.0,
                "0.5": 0.5, "1.5": 1.5, "": None, "x": None, "nan": None, "inf": None, "1e999": None, "1_0": None,
                " 1": None}


def score_row_ok(line, duration_s):
    """The rules of one score row, checked cell by cell."""
    fields = line.split(",")
    if len(fields) != len(SCORE_HEADER):
        return False
    start, *scores = map(SCORE_VALUES.get, fields[1:])
    return (None not in (start, *scores) and start >= 0 and (duration_s is None or start < duration_s)
            and all(0 <= s <= 1 for s in scores))


@settings(max_examples=300, deadline=None)
@given(lines=table_lines(SCORE_HEADER, list(SCORE_VALUES)),
       quoted=st.booleans(), duration_s=st.sampled_from([None, 15.0]))
def test_load_scores_reports_the_first_bad_row(tmp_path_factory, lines, quoted, duration_s):
    """Split into columns or (with a quoted header) read row by row, the error names the first row that breaks
    a rule of its own, in file order; a table whose rows all pass loads or breaks a rule that spans rows,
    named with the path alone."""
    p = written(tmp_path_factory, "scores", lines, quoted)
    bad = [line for line, text in enumerate(lines[1:], 2) if text and not score_row_ok(text, duration_s)]
    error = error_or_none(lambda p: load_scores(p, duration_s=duration_s), p)
    if bad:
        assert error is not None and error.startswith(f"{p}:{bad[0]}: "), error
    else:
        assert error is None or error.startswith(f"{p}: "), error
