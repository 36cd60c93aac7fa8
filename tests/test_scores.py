import csv
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundscapekit.errors import SchemaError
from soundscapekit.labels import CLASSES
from soundscapekit.scores import ScoreMatrix, ScoreTable, WindowSpec, enumerate_windows, load_scores


class TestEnumerateWindows:
    def test_six_nonoverlapping_windows(self):
        assert enumerate_windows(60, WindowSpec(10, 10)) == [0, 10, 20, 30, 40, 50]

    def test_one_second_step_gives_51(self):
        starts = enumerate_windows(60, WindowSpec(10, 1))
        assert len(starts) == 51
        assert starts[-1] == 50

    def test_single_window(self):
        assert enumerate_windows(10, WindowSpec(10, 10)) == [0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            enumerate_windows(9.5, WindowSpec(10, 10))

    def test_pad_last_adds_one_window_for_remainders(self):
        assert enumerate_windows(65, WindowSpec(10, 10)) == [0, 10, 20, 30, 40, 50]
        assert enumerate_windows(65, WindowSpec(10, 10), pad_last=True) == [0, 10, 20, 30, 40, 50, 60]
        # exact fit: nothing to pad
        assert enumerate_windows(60, WindowSpec(10, 10), pad_last=True) == [0, 10, 20, 30, 40, 50]

    @given(
        duration=st.integers(min_value=1, max_value=600),
        window=st.integers(min_value=1, max_value=60),
        step=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_formula_vs_brute_force(self, duration, window, step):
        if step > window or duration < window:
            return
        spec = WindowSpec(float(window), float(step))
        starts = enumerate_windows(float(duration), spec)
        # brute force: walk forward until a window no longer fits
        expected = []
        s = 0
        while s + window <= duration:
            expected.append(float(s))
            s += step
        assert starts == expected


class TestWindowSpec:
    def test_step_cannot_exceed_window(self):
        with pytest.raises(ValueError):
            WindowSpec(10, 11)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 0)


class TestScoreMatrix:
    def test_valid(self):
        m = ScoreMatrix("r", np.arange(6) * 10.0, 10.0, np.random.default_rng(0).uniform(size=(6, 3)))
        assert m.n_windows == 6

    def test_slice_is_rejected_by_name(self):
        m = ScoreMatrix("r", [0.0], 10.0, [[0.1, 0.2, 0.3]])
        assert m[0].recording_id == m[-1].recording_id == "r"
        with pytest.raises(TypeError, match="^ScoreMatrix indices must be integers, not slice$"):
            m[0:1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ScoreMatrix("r", [0.0, 10.0], 10.0, [[0.1, 0.2, 0.3], [1.2, 0.2, 0.3]])

    def test_rejects_descending_starts(self):
        with pytest.raises(ValueError, match="ascending"):
            ScoreMatrix("r", [10.0, 0.0], 10.0, [[0.1] * 3, [0.2] * 3])

    def test_rejects_uneven_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            ScoreMatrix("r", [0.0, 10.0, 21.0], 10.0, [[0.1] * 3] * 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ScoreMatrix("r", [], 10.0, np.zeros((0, 3)))

    def test_fields_are_frozen(self):
        m = ScoreMatrix("r", [0.0], 10.0, [[0.1, 0.2, 0.3]])
        with pytest.raises(FrozenInstanceError):
            m.class_scores = np.zeros((1, 3))

    @pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf, -10.0])
    def test_rejects_non_finite_or_negative_start(self, start):
        with pytest.raises(ValueError, match="^r: window starts must be finite and >= 0$"):
            ScoreMatrix("r", [start, 10.0], 10.0, [[0.1] * 3] * 2)

    def test_rejects_nan_score(self):
        with pytest.raises(ValueError, match=r"^r: scores outside \[0, 1\]$"):
            ScoreMatrix("r", [0.0, 10.0], 10.0, [[0.1, np.nan, 0.3], [0.1] * 3])


class TestScoreTable:
    @pytest.mark.parametrize("starts, score, message", [
        ((0.0, 10.0, 20.0), 2.0, r"scores outside \[0, 1\]"),
        ((0.0, 10.0, 25.0), 0.5, "non-uniform window spacing"),
    ], ids=["score", "spacing"])
    def test_built_directly_names_the_bad_recording(self, starts, score, message):
        scores = np.full((5, 3), 0.5)
        scores[3, 1] = score
        with pytest.raises(ValueError, match=f"^b: {message}$"):
            ScoreTable(["a", "b"], np.array([0.0, 10.0, *starts]), 10.0, scores, CLASSES, np.array([0, 2]))

    @pytest.mark.parametrize("ids, offsets", [("ab", [2, 4]), ("abc", [0, 5, 3]), ("ab", [0]), ("", [])])
    def test_offsets_must_split_the_rows(self, ids, offsets):
        with pytest.raises(ValueError, match="^offsets do not split 6 windows among"):
            ScoreTable(list(ids), np.arange(6) * 10.0, 10.0, np.full((6, 3), 0.5), CLASSES, np.array(offsets, int))


SAMPLE = """recording_id,window_start_s,anthropophony,biophony,geophony
rec1,0.0,0.1,0.9,0.3
rec1,10.0,0.2,0.8,0.4
rec2,0.0,0.5,0.5,0.5
rec1,20.0,0.3,0.7,0.5
rec2,10.0,0.6,0.4,0.6
rec1,30.0,0.4,0.6,0.6
rec1,40.0,0.5,0.5,0.7
rec1,50.0,0.6,0.4,0.8
"""


class TestLoadScores:
    def test_groups_and_sorts(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(SAMPLE)
        mats = load_scores(p, window_len_s=10.0)
        assert [m.recording_id for m in mats] == ["rec1", "rec2"]
        assert mats[0].class_scores.shape == (6, 3)
        assert mats[1].class_scores.shape == (2, 3)
        assert mats[0].window_starts_s.tolist() == [0, 10, 20, 30, 40, 50]

    def test_score_above_one_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "recording_id,window_start_s,anthropophony,biophony,geophony\nrec1,0.0,0.1,1.2,0.3\n"
        )
        with pytest.raises(SchemaError, match=r"bad\.csv:2"):
            load_scores(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("id,start,a,b,g\n")
        with pytest.raises(SchemaError, match="header"):
            load_scores(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_scores(p)

    def test_silence_column_accepted(self, tmp_path):
        p = tmp_path / "s4.csv"
        p.write_text(
            "recording_id,window_start_s,anthropophony,biophony,geophony,silence\nr,0.0,0.1,0.2,0.3,0.9\n"
        )
        mats = load_scores(p)
        assert mats[0].class_scores.shape == (1, 4)

    def test_malformed_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("recording_id,window_start_s,anthropophony,biophony,geophony\nr,zero,0.1,0.2,0.3\n")
        with pytest.raises(SchemaError, match=r"m\.csv:2"):
            load_scores(p)

    def test_nonuniform_spacing_rejected(self, tmp_path):
        p = tmp_path / "sp.csv"
        p.write_text(
            "recording_id,window_start_s,anthropophony,biophony,geophony\n"
            "r,0.0,0.1,0.2,0.3\nr,10.0,0.1,0.2,0.3\nr,21.0,0.1,0.2,0.3\n"
        )
        with pytest.raises(SchemaError, match="spacing"):
            load_scores(p)



HEADER = "recording_id,window_start_s,anthropophony,biophony,geophony"


def reference_load(path):
    """Row by row: recordings in order of first appearance, each one's rows sorted by start."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        by_id = {}
        for row in reader:
            by_id.setdefault(row[0], []).append([float(x) for x in row[1:]])
    return {rid: sorted(rows, key=lambda r: r[0]) for rid, rows in by_id.items()}


@st.composite
def shuffled_score_files(draw):
    """Rows of 1-6 recordings with uniform spacing, interleaved in a random order."""
    silence = draw(st.booleans())
    rows = []
    for i in range(draw(st.integers(1, 6))):
        first, step = draw(st.sampled_from([0.0, 0.5, 3.0])), draw(st.sampled_from([0.5, 1.0, 2.5, 10.0]))
        for k in range(draw(st.integers(1, 8))):
            scores = draw(st.lists(st.floats(0, 1), min_size=3 + silence, max_size=3 + silence))
            rows.append(",".join([f"rec{i}", repr(first + k * step), *map(repr, scores)]))
    rows = draw(st.permutations(rows))
    return HEADER + (",silence" if silence else "") + "\n" + "\n".join(rows) + "\n"


@st.composite
def one_recording(draw):
    """The rows (start, three scores) of one recording, in any order; some break a window rule."""
    n = draw(st.integers(1, 6))
    first, step = draw(st.sampled_from([0.0, -0.0, 0.5, -1.0])), draw(st.sampled_from([1.0, 2.5, 0.0, -1.0]))
    starts = [first + k * step for k in range(n)]
    odd = st.sampled_from([float("nan"), float("inf"), -float("inf"), -2.0, 3.0, 1e-12])
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        starts[k] = draw(odd)
    rows = [[s, *draw(st.lists(st.floats(0, 1), min_size=3, max_size=3))] for s in starts]
    for k in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        rows[k][draw(st.integers(1, 3))] = draw(st.sampled_from([float("nan"), -0.5, 1.5, 1 + 1e-12, float("inf")]))
    return draw(st.permutations(rows))


class TestLoadScoresColumns:
    @given(text=shuffled_score_files())
    @settings(max_examples=150, deadline=None)
    def test_equals_row_by_row_reference(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("scores") / "scores.csv"
        p.write_text(text)
        table = load_scores(p, window_len_s=10.0, duration_s=100.0)
        expected = reference_load(p)
        assert table.recording_ids == list(expected)
        rows = [row for rid in expected for row in expected[rid]]
        assert table.window_starts_s.tolist() == [row[0] for row in rows]
        assert table.class_scores.tolist() == [row[1:] for row in rows]
        assert table.n_windows.tolist() == [len(expected[rid]) for rid in expected]
        assert table.class_order == tuple(text.splitlines()[0].split(",")[2:])
        for m, (rid, rid_rows) in zip(table, expected.items()):
            assert m.recording_id == rid
            assert m.n_windows == len(rid_rows)
            assert m.class_scores.tolist() == [row[1:] for row in rid_rows]

    BAD_ROWS = ["x,zero,0.1,0.2,0.3", "x,0,nan,0.2,0.3", "x,0,0.1,1.5,0.3", "x,-1,0.1,0.2,0.3",
                "x,60,0.1,0.2,0.3", "x,inf,0.1,0.2,0.3", "x,0,0.1", "x,0,0.1,0.2,0.3,0.4"]

    @given(good=st.integers(0, 12), bad=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(BAD_ROWS)),
                                                min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_first_bad_row_in_file_order_is_reported(self, tmp_path_factory, good, bad):
        rows = [f"g{i},0.0,0.1,0.2,0.3" for i in range(good)]
        for pos, row in sorted(bad, reverse=True):
            rows.insert(min(pos, len(rows)), row)
        first = next(i for i, row in enumerate(rows) if row in self.BAD_ROWS)
        d = tmp_path_factory.mktemp("bad")
        (d / "s.csv").write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        (d / "one.csv").write_text(HEADER + "\n" + rows[first] + "\n")
        with pytest.raises(SchemaError) as err:
            load_scores(d / "s.csv", duration_s=60.0)
        with pytest.raises(SchemaError) as alone:
            load_scores(d / "one.csv", duration_s=60.0)
        assert err.value.line == first + 2
        assert str(err.value).split(": ", 1)[1] == str(alone.value).split(": ", 1)[1]

    def test_start_past_the_recording_names_its_line(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(f"{HEADER}\nr0,0.0,0.1,0.2,0.3\nr0,1e9,0.1,0.2,0.3\n")
        with pytest.raises(SchemaError) as err:
            load_scores(p, duration_s=60.0)
        assert str(err.value) == f"{p}:3: window_start_s 1e9 is not inside the 60.0 s recording"
        assert load_scores(p).n_windows.tolist() == [2]  # no duration, no bound

    def test_start_just_inside_accepted(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(f"{HEADER}\nr0,0.0,0.1,0.2,0.3\nr0,59.5,0.1,0.2,0.3\n")
        assert load_scores(p, duration_s=60.0).window_starts_s.tolist() == [0.0, 59.5]

    @given(rows=one_recording())
    @settings(max_examples=200, deadline=None)
    def test_score_matrix_accepts_what_load_scores_accepts(self, tmp_path_factory, rows):
        p = tmp_path_factory.mktemp("one") / "scores.csv"
        p.write_text(HEADER + "\n" + "".join(f"r,{','.join(map(repr, row))}\n" for row in rows))
        try:
            load_scores(p)
            loaded = True
        except SchemaError:
            loaded = False
        ordered = np.array(rows)[np.argsort([row[0] for row in rows], kind="stable")]  # as load_scores sorts
        try:
            ScoreMatrix("r", ordered[:, 0], 10.0, ordered[:, 1:])
            built = True
        except ValueError:
            built = False
        assert built == loaded

    def test_spacing_error_names_the_first_bad_recording(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text(f"{HEADER}\nb,0,0.1,0.2,0.3\na,0,0.1,0.2,0.3\na,10,0.1,0.2,0.3\na,10,0.1,0.2,0.3\n"
                     "b,10,0.1,0.2,0.3\nb,25,0.1,0.2,0.3\n")
        with pytest.raises(SchemaError) as err:
            load_scores(p)
        assert str(err.value) == f"{p}: b: non-uniform window spacing"
