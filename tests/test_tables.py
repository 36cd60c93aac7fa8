"""The shared input-table reader and a fuzz test for every loader built on it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundscapekit._table import Table
from soundscapekit.cli import _read_diversity_csv, _read_indices_csv
from soundscapekit.decision import load_annotations, load_decisions
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

    def test_keyed_rejects_repeated_ids(self, tmp_path):
        t = table(tmp_path, "a,b\nr1,1\nr2,1\nr1,2\n")
        with pytest.raises(SchemaError, match=r"t\.csv:4: duplicate recording_id 'r1'"):
            list(t.keyed())

    @pytest.mark.parametrize("text", ["", "x", "nan", "inf", "-inf", "1e999", "0x1"])
    def test_number_rejects_non_finite(self, tmp_path, text):
        t = table(tmp_path, "a,b\n")
        with pytest.raises(SchemaError, match=r"t\.csv:7: expected a"):
            t.number(text, 7)

    def test_number_parses_finite(self, tmp_path):
        t = table(tmp_path, "a,b\n")
        assert t.number("-0.25", 2) == -0.25

    @pytest.mark.parametrize("text", ["", "yes", "true", " 1", "1.0", "2", "-0"])
    def test_flag_accepts_only_0_and_1(self, tmp_path, text):
        t = table(tmp_path, "a,b\n")
        assert (t.flag("0", 2), t.flag("1", 2)) == (False, True)
        with pytest.raises(SchemaError, match=r"t\.csv:5: flag must be 0 or 1"):
            t.flag(text, 5)


# --- fuzz: arbitrary tables may only load or raise SchemaError ----------------

CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-5", "1e9", "0", "1", "0.5", "10.0", "x", "yes",
                     "r1", "r2", *CLASSES, "a.wav", "/abs/b.wav", " ", '"', "#"]),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=5),
)


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


SCORE_HEADER = ["recording_id", "window_start_s", *CLASSES]
FLAGS_HEADER = ["recording_id", *CLASSES]
INDICES_HEADER = ["recording_id", "aci", "adi", "ndsi"]

LOADERS = {
    "scores": (lambda p: load_scores(p, window_len_s=10.0), [SCORE_HEADER, SCORE_HEADER + [SILENCE]], False),
    "annotations": (lambda p: load_annotations(p, 60.0),
                    [["recording_id", "class", "start_s", "end_s"], FLAGS_HEADER], False),
    "decisions": (load_decisions, [FLAGS_HEADER, FLAGS_HEADER + [SILENCE]], False),
    "pool_manifest": (SourcePool.from_manifest, [["file", "class"]], False),
    "indices": (_read_indices_csv, [INDICES_HEADER, INDICES_HEADER + ["wall_s"]], True),
    "diversity": (_read_diversity_csv, [["recording_id", "species_count"]], False),
}


@pytest.mark.parametrize("name", list(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_only_loads_or_raises_schema_error(tmp_path_factory, name, data):
    load, headers, comments = LOADERS[name]
    p = tmp_path_factory.mktemp(name) / f"{name}.csv"
    p.write_text(data.draw(csv_text(headers, comments)))
    try:
        load(p)
    except SchemaError as exc:
        assert str(exc).startswith(f"{p}:")
