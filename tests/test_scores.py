import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundscapekit.errors import SchemaError
from soundscapekit.scores import ScoreMatrix, WindowSpec, enumerate_windows, load_scores


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

    def test_scores_for(self):
        m = ScoreMatrix("r", [0.0], 10.0, [[0.1, 0.2, 0.3]])
        assert m.scores_for("biophony").tolist() == [0.2]


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

