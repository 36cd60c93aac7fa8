import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soundscapekit.decision import (
    AnnotationSet,
    Decision,
    PdaPolicy,
    ThresholdPolicy,
    aggregate,
    apply_pda,
    count_for_fraction,
    decide,
    dump_decisions,
    load_annotations,
    load_decisions,
    pda_kept,
    window_active,
    window_max,
)
from soundscapekit.errors import SchemaError
from soundscapekit.labels import ANTHROPOPHONY, BIOPHONY, CLASSES, GEOPHONY, SILENCE
from soundscapekit.scores import ScoreMatrix, ScoreTable

from conftest import flags


def matrix(rows, rec_id="r"):
    rows = np.asarray(rows, dtype=float)
    return ScoreMatrix(rec_id, np.arange(len(rows)) * 10.0, 10.0, rows)


score_matrices = st.builds(
    matrix,
    arrays(
        dtype=float,
        shape=st.tuples(st.integers(1, 12), st.just(3)),
        elements=st.floats(0, 1, allow_nan=False),
    ),
)


class TestAnnotationSet:
    def test_merges_overlapping_segments(self):
        ann = AnnotationSet("r", 60, {BIOPHONY: [(5, 10), (8, 14), (20, 25)]})
        assert ann.segments[BIOPHONY] == ((5, 14), (20, 25))

    def test_weak_flags(self):
        ann = AnnotationSet("r", 60, {GEOPHONY: [(0, 1)]})
        assert ann.active_classes == frozenset({GEOPHONY})

    def test_rejects_bad_segment(self):
        with pytest.raises(ValueError):
            AnnotationSet("r", 60, {BIOPHONY: [(10, 5)]})
        with pytest.raises(ValueError):
            AnnotationSet("r", 60, {BIOPHONY: [(50, 70)]})

    def test_from_weak_labels(self):
        ann = AnnotationSet.from_weak_labels("r", 60, [ANTHROPOPHONY])
        assert ann.active_classes == frozenset({ANTHROPOPHONY})
        assert ann.segments == {ANTHROPOPHONY: ((0.0, 60),), BIOPHONY: (), GEOPHONY: ()}


class TestPda:
    def test_short_geophony_dropped(self):
        ann = AnnotationSet("r", 60, {GEOPHONY: [(0, 2)]})
        out = apply_pda(ann, PdaPolicy({GEOPHONY: 0.05}))
        assert GEOPHONY not in out.active_classes
        assert out.segments[GEOPHONY] == ()

    def test_long_anthropophony_retained(self):
        ann = AnnotationSet("r", 60, {ANTHROPOPHONY: [(10, 30)]})
        out = apply_pda(ann, PdaPolicy({ANTHROPOPHONY: 0.25}))
        assert ANTHROPOPHONY in out.active_classes
        assert out.segments[ANTHROPOPHONY] == ((10, 30),)

    def test_class_without_fraction_untouched(self):
        ann = AnnotationSet("r", 60, {BIOPHONY: [(0, 0.5)]})
        out = apply_pda(ann, PdaPolicy({GEOPHONY: 0.25, BIOPHONY: None}))
        assert out.segments[BIOPHONY] == ((0, 0.5),)

    def test_min_duration(self):
        policy = PdaPolicy({GEOPHONY: 0.05})
        assert policy.min_duration_s(GEOPHONY, 60.0) == pytest.approx(3.0, abs=1e-9)
        assert policy.min_duration_s(BIOPHONY, 60.0) is None

    def test_boundary_duration_retained(self):
        ann = AnnotationSet("r", 60, {GEOPHONY: [(7, 10)]})  # exactly 3 s
        out = apply_pda(ann, PdaPolicy({GEOPHONY: 0.05}))
        assert GEOPHONY in out.active_classes

    def test_summed_segments_count(self):
        # two 2 s segments pass a 3 s minimum together
        ann = AnnotationSet("r", 60, {GEOPHONY: [(0, 2), (10, 12)]})
        out = apply_pda(ann, PdaPolicy({GEOPHONY: 0.05}))
        assert GEOPHONY in out.active_classes

    def test_idempotent(self):
        ann = AnnotationSet("r", 60, {GEOPHONY: [(0, 2)], ANTHROPOPHONY: [(0, 30)], BIOPHONY: [(1, 2)]})
        policy = PdaPolicy({GEOPHONY: 0.10, ANTHROPOPHONY: 0.25})
        once = apply_pda(ann, policy)
        twice = apply_pda(once, policy)
        assert once == twice

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            PdaPolicy({GEOPHONY: 1.5})
        with pytest.raises(ValueError):
            PdaPolicy({"noise": 0.1})
        with pytest.raises(ValueError):
            PdaPolicy({}, measure="median")

    def test_longest_segment_measure(self):
        # two 2 s segments: sum (4 s) passes a 3 s minimum, longest (2 s) does not
        ann = AnnotationSet("r", 60, {GEOPHONY: [(0, 2), (10, 12)]})
        by_sum = apply_pda(ann, PdaPolicy({GEOPHONY: 0.05}, measure="sum"))
        by_longest = apply_pda(ann, PdaPolicy({GEOPHONY: 0.05}, measure="longest-segment"))
        assert GEOPHONY in by_sum.active_classes
        assert GEOPHONY not in by_longest.active_classes

    @settings(max_examples=200, deadline=None)
    @given(
        segments=st.dictionaries(
            st.sampled_from(CLASSES),
            st.lists(st.tuples(st.integers(0, 119), st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0, 15.0])), max_size=3),
        ),
        fractions=st.dictionaries(st.sampled_from(CLASSES), st.sampled_from([None, 0.05, 0.1, 0.25])),
        measure=st.sampled_from(["sum", "longest-segment"]),
    )
    def test_kept_flags_match_apply_pda(self, segments, fractions, measure):
        """Durations land on p * T exactly (3, 6 and 15 s of 60 s) as well as either side of it."""
        ann = AnnotationSet("r", 60.0, {c: [(a / 2, min(a / 2 + n, 60.0)) for a, n in segs]
                                        for c, segs in segments.items()})
        policy = PdaPolicy(fractions, measure=measure)
        kept = pda_kept(ann, policy)
        assert kept == [c in apply_pda(ann, policy).active_classes for c in CLASSES]
        for c, k in zip(CLASSES, kept):
            lengths = [e - s for s, e in ann.segments[c]]
            measured = sum(lengths) if measure == "sum" else max(lengths, default=0.0)
            p = fractions.get(c)
            assert k == (bool(lengths) and (p is None or measured + 1e-9 >= p * 60.0))


class TestAggregate:
    def test_max_over_windows(self):
        m = matrix([[0.3, 0.0, 0.0], [0.6, 0.1, 0.0], [0.2, 0.0, 0.0]])
        assert aggregate(m)[ANTHROPOPHONY] == 0.6

    def test_single_window(self):
        m = matrix([[0.3, 0.4, 0.5]])
        assert aggregate(m) == {ANTHROPOPHONY: 0.3, BIOPHONY: 0.4, GEOPHONY: 0.5}

    def test_all_equal(self):
        m = matrix([[0.4] * 3] * 4)
        assert aggregate(m)[GEOPHONY] == 0.4


class TestDecide:
    def test_global_threshold(self):
        m = matrix([[0.3, 0.91, 0.2]])
        d = decide(m, ThresholdPolicy.global_threshold(0.5))
        assert d.active == frozenset({BIOPHONY})

    def test_reference_class_specific_thresholds(self):
        policy = ThresholdPolicy(thresholds={ANTHROPOPHONY: 0.722, BIOPHONY: 0.920, GEOPHONY: 0.571})
        m = matrix([[0.70, 0.93, 0.60]])
        assert decide(m, policy).active == frozenset({BIOPHONY, GEOPHONY})

    def test_count_mode_nine_exceedances_of_ten_needed(self):
        scores = np.zeros((51, 3))
        scores[:9, 2] = 0.9
        m = ScoreMatrix("r", np.arange(51) * 1.0, 10.0, scores)
        policy = ThresholdPolicy(
            thresholds={ANTHROPOPHONY: 0.722, BIOPHONY: 0.920, GEOPHONY: 0.571},
            counts={ANTHROPOPHONY: 2, BIOPHONY: 5, GEOPHONY: 10},
        )
        assert GEOPHONY not in decide(m, policy).active

    def test_exceeds_is_strict(self):
        m = matrix([[0.5, 0.5, 0.5]])
        assert decide(m, ThresholdPolicy.global_threshold(0.5)).active == frozenset()

    def test_count_exceeding_windows_rejected(self):
        m = matrix([[0.9, 0.9, 0.9]])
        policy = ThresholdPolicy.global_threshold(0.5, counts={BIOPHONY: 2})
        with pytest.raises(ValueError, match="exceeds"):
            decide(m, policy)

    @given(m=score_matrices)
    @settings(max_examples=150, deadline=None)
    def test_count_one_equals_max_aggregation(self, m):
        theta = 0.5
        with_counts = decide(m, ThresholdPolicy.global_threshold(theta, counts={c: 1 for c in CLASSES}))
        plain = decide(m, ThresholdPolicy.global_threshold(theta))
        agg = aggregate(m)
        expected = frozenset(c for c in CLASSES if agg[c] > theta)
        assert with_counts.active == plain.active == expected

    @given(m=score_matrices, theta=st.floats(0, 1), bump=st.floats(0.001, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_threshold_monotone(self, m, theta, bump):
        higher = min(1.0, theta + bump)
        lower_active = decide(m, ThresholdPolicy.global_threshold(theta)).active
        higher_active = decide(m, ThresholdPolicy.global_threshold(higher)).active
        assert higher_active <= lower_active

    @given(m=score_matrices, c=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_count_monotone(self, m, c):
        if c + 1 > m.n_windows:
            return
        policy_lo = ThresholdPolicy.global_threshold(0.3, counts={cls: c for cls in CLASSES})
        policy_hi = ThresholdPolicy.global_threshold(0.3, counts={cls: c + 1 for cls in CLASSES})
        assert decide(m, policy_hi).active <= decide(m, policy_lo).active

    def test_global_equals_uniform_per_class(self):
        m = matrix([[0.1, 0.6, 0.9], [0.7, 0.2, 0.3]])
        a = decide(m, ThresholdPolicy.global_threshold(0.55))
        b = decide(m, ThresholdPolicy(thresholds={c: 0.55 for c in CLASSES}))
        assert a == b


@st.composite
def score_tables(draw):
    """1-6 recordings of 1-12 windows each as matrices and as one ScoreTable,
    with or without the silence column."""
    order = draw(st.sampled_from([CLASSES, CLASSES + (SILENCE,)]))
    scores = st.floats(0, 1, allow_nan=False) | st.sampled_from([0.0, 0.25, 0.5, 1.0])
    blocks = draw(st.lists(arrays(float, st.tuples(st.integers(1, 12), st.just(len(order))), elements=scores),
                           min_size=1, max_size=6))
    matrices = [ScoreMatrix(f"r{i}", np.arange(len(b)) * 10.0, 10.0, b, order) for i, b in enumerate(blocks)]
    lengths = [len(b) for b in blocks]
    table = ScoreTable(
        recording_ids=[m.recording_id for m in matrices],
        window_starts_s=np.concatenate([m.window_starts_s for m in matrices]),
        window_len_s=10.0,
        class_scores=np.concatenate(blocks),
        class_order=order,
        offsets=np.cumsum(lengths) - lengths,
    )
    return matrices, table


class TestTableKernels:
    """window_max / window_active over a whole table equal per-matrix brute force."""

    @given(score_tables(), st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.99]) | st.floats(0, 1), min_size=3, max_size=3),
           st.lists(st.integers(1, 12), min_size=3, max_size=3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equal_brute_force(self, tables, thetas, counts, with_counts):
        matrices, table = tables
        policy = ThresholdPolicy(dict(zip(CLASSES, thetas)), dict(zip(CLASSES, counts)) if with_counts else None)
        maxes, active = window_max(table), window_active(table, policy)
        assert maxes.shape == (len(matrices), len(table.class_order))
        assert active.shape == (len(matrices), len(CLASSES))
        for i, m in enumerate(matrices):
            assert maxes[i].tolist() == [max(col) for col in m.class_scores.T.tolist()]
            above = [sum(s > policy.thresholds[c] for s in m.class_scores[:, m.class_order.index(c)].tolist())
                     for c in CLASSES]
            expected = [n >= policy.count_for(c) for n, c in zip(above, CLASSES)]
            assert active[i].tolist() == expected
            assert aggregate(m) == dict(zip(m.class_order, maxes[i].tolist()))
            if max(policy.count_for(c) for c in CLASSES) <= m.n_windows:
                assert decide(m, policy).active == frozenset(c for c, a in zip(CLASSES, expected) if a)
            view = table[i]
            assert isinstance(view, ScoreMatrix) and isinstance(view, ScoreTable) and len(view) == 1
            assert view.recording_id == m.recording_id
            assert type(view.n_windows) is int and view.n_windows == m.n_windows
            assert np.array_equal(view.class_scores, m.class_scores)
            assert np.array_equal(view.window_starts_s, m.window_starts_s)
            assert np.shares_memory(view.class_scores, table.class_scores)


class TestDecisionInvariant:
    @pytest.mark.parametrize("combo", range(8))
    def test_silence_iff_empty(self, combo):
        active = frozenset(c for i, c in enumerate(CLASSES) if combo & (1 << i))
        d = Decision("r", active)
        assert d.silence == (len(active) == 0)


@pytest.mark.parametrize(
    "thresholds, counts",
    [({**dict.fromkeys(CLASSES, 0.5), "birds": 0.3}, None), (dict.fromkeys(CLASSES, 0.5), {"birds": 2})],
    ids=["thresholds", "counts"],
)
def test_threshold_policy_rejects_an_unknown_class(thresholds, counts):
    with pytest.raises(ValueError, match="^unknown class 'birds'$"):
        ThresholdPolicy(thresholds, counts)


def test_threshold_policy_mode():
    assert ThresholdPolicy(dict.fromkeys(CLASSES, 0.5)).mode == "per-class"
    assert ThresholdPolicy.global_threshold(0.5).mode == "global"


@pytest.mark.parametrize(
    "thresholds, mode, message",
    [
        (dict(zip(CLASSES, (0.2, 0.5, 0.9))), "global", "a global policy has one threshold, got "),
        (dict.fromkeys(CLASSES, 0.5), "x", "unknown threshold mode 'x'"),
    ],
    ids=["unequal-global", "unknown-mode"],
)
def test_threshold_policy_rejects_a_mode_it_does_not_fit(thresholds, mode, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ThresholdPolicy(thresholds, mode=mode)


class TestCountForFraction:
    @pytest.mark.parametrize("p,w,expected", [(0.05, 51, 2), (0.10, 51, 5), (0.20, 51, 10)])
    def test_reference_counts(self, p, w, expected):
        assert count_for_fraction(p, w) == expected

    def test_floors_to_one(self):
        assert count_for_fraction(0.01, 10) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            count_for_fraction(0.0, 10)
        with pytest.raises(ValueError):
            count_for_fraction(0.5, 0)


@st.composite
def strong_tables(draw):
    """(T, rows) of a strong annotation table: up to 12 segments of four interleaved recordings, each
    placed freely, abutting or overlapping the last segment of its recording and class, with lengths
    on p * T and 1e-9 either side of it for p in {0.05, 0.25}, or anywhere up to T / 2."""
    duration = draw(st.sampled_from([60.0, 45.0, 37.5]))
    near = [p * duration + d for p in (0.05, 0.25) for d in (-1e-9, 0.0, 1e-9)]
    rows, last_end = [], {}
    for _ in range(draw(st.integers(1, 12))):
        rid, cls = draw(st.sampled_from(["r0", "r1", "r2", "r3"])), draw(st.sampled_from(CLASSES))
        length = draw(st.sampled_from(near) | st.floats(0.001, duration / 2))
        placement = draw(st.sampled_from(["free", "abut", "overlap"]))
        prev = last_end.get((rid, cls))
        if prev is None or placement == "free":
            start = draw(st.floats(0.0, duration - length))
        else:
            start = prev if placement == "abut" else max(0.0, prev - length / 2)
        if start + length <= duration:
            rows.append((rid, cls, start, start + length))
            last_end[rid, cls] = start + length
    return duration, rows


def brute_force_kept(segments, duration, policy):
    """The PDA rule over raw segments: sort, merge, take the sum or the longest, compare with p * T - 1e-9."""
    kept = []
    for cls in CLASSES:
        merged = []
        for start, end in sorted(segments.get(cls, ())):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        lengths = [end - start for start, end in merged]
        measured = sum(lengths) if policy.measure == "sum" else max(lengths, default=0.0)
        p = policy.fractions.get(cls)
        kept.append(bool(lengths) and (p is None or measured >= p * duration - 1e-9))
    return kept


class TestAnnotationIO:
    @settings(max_examples=300, deadline=None)
    @given(
        table=strong_tables(),
        fractions=st.fixed_dictionaries({c: st.sampled_from([None, 0.05, 0.25]) for c in CLASSES}),
        measure=st.sampled_from(["sum", "longest-segment"]),
    )
    def test_strong_table_equals_brute_force(self, tmp_path_factory, table, fractions, measure):
        """Recordings come in order of their first row, and their PDA flags equal the rule over the raw rows."""
        duration, rows = table
        path = tmp_path_factory.mktemp("strong") / "ann.csv"
        path.write_text("recording_id,class,start_s,end_s\n" + "".join(f"{r},{c},{s!r},{e!r}\n" for r, c, s, e in rows))
        anns = load_annotations(path, duration)
        assert list(anns) == list(dict.fromkeys(rid for rid, *_ in rows))
        policy = PdaPolicy(fractions, measure=measure)
        for rid, ann in anns.items():
            segments = {}
            for r, cls, start, end in rows:
                if r == rid:
                    segments.setdefault(cls, []).append((start, end))
            assert pda_kept(ann, policy) == brute_force_kept(segments, duration, policy)

    def test_strong_schema(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text(
            "recording_id,class,start_s,end_s\n"
            "r1,biophony,0,10\n"
            "r1,biophony,5,12\n"
            "r1,geophony,30,60\n"
            "r2,anthropophony,0,5\n"
        )
        anns = load_annotations(p, duration_s=60.0)
        assert anns["r1"].segments[BIOPHONY] == ((0, 12),)
        assert anns["r1"].active_classes == frozenset({BIOPHONY, GEOPHONY})
        assert anns["r2"].active_classes == frozenset({ANTHROPOPHONY})

    def test_weak_schema(self, tmp_path):
        p = tmp_path / "weak.csv"
        p.write_text("recording_id,anthropophony,biophony,geophony\nr1,1,0,1\nr2,0,0,0\n")
        anns = load_annotations(p, duration_s=60.0)
        assert anns["r1"].active_classes == frozenset({ANTHROPOPHONY, GEOPHONY})
        assert anns["r2"].active_classes == frozenset()

    def test_unknown_class_with_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("recording_id,class,start_s,end_s\nr1,traffic,0,10\n")
        with pytest.raises(SchemaError, match=r"bad\.csv:2"):
            load_annotations(p, 60.0)

    def test_strong_segment_outside_recording_names_its_line(self, tmp_path):
        p = tmp_path / "seg.csv"
        p.write_text("recording_id,class,start_s,end_s\nr0,biophony,0,10\nr0,biophony,50,70\n")
        with pytest.raises(SchemaError) as err:
            load_annotations(p, 60.0)
        assert str(err.value) == f"{p}:3: segment (50.0, 70.0) outside [0, 60.0]"

    def test_weak_flag_validation(self, tmp_path):
        p = tmp_path / "flags.csv"
        p.write_text("recording_id,anthropophony,biophony,geophony\nr1,1,2,0\n")
        with pytest.raises(SchemaError, match="flag"):
            load_annotations(p, 60.0)


def test_decisions_round_trip(tmp_path):
    label_sets = [{BIOPHONY}, set(), set(CLASSES)]
    p = tmp_path / "d.csv"
    dump_decisions("abc", flags(label_sets), p)
    assert load_decisions(p) == dict(zip("abc", flags(label_sets).tolist()))
    text = p.read_text().splitlines()
    assert text[0] == "recording_id,anthropophony,biophony,geophony,silence"
    assert text[2] == "b,0,0,0,1"
