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
    pda_truth,
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
        with pytest.raises(ValueError):
            AnnotationSet("r", 60, {BIOPHONY: [(5, 5)]})

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_rejects_a_duration_that_is_not_positive(self, duration):
        with pytest.raises(ValueError, match="^r: duration must be positive$"):
            AnnotationSet("r", duration, {})

    def test_end_within_the_tolerance_past_the_recording_is_inside(self, tmp_path):
        ann = AnnotationSet("r", 60, {BIOPHONY: [(0, 60 + 5e-10)]})
        assert ann.segments[BIOPHONY] == ((0, 60 + 5e-10),)
        p = tmp_path / "ann.csv"
        p.write_text(f"recording_id,class,start_s,end_s\nr,biophony,0,{60 + 5e-10!r}\n")
        assert pda_truth(p, ["r"], 60.0, PdaPolicy()).tolist() == [[False, True, False]]

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


@pytest.mark.parametrize(
    "thresholds, counts, message",
    [
        (dict.fromkeys(CLASSES[:2], 0.5), None, f"missing threshold for {CLASSES[2]}"),
        (dict.fromkeys(CLASSES, 0.5), {BIOPHONY: 0}, f"count for {BIOPHONY} must be >= 1, got 0"),
    ],
    ids=["missing-class", "count-below-one"],
)
def test_threshold_policy_rejects_a_missing_class_or_a_count_below_one(thresholds, counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ThresholdPolicy(thresholds, counts)


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
    placed freely, abutting, overlapping or nested in the last segment of its recording and class, with
    lengths on p * T and 1e-9 either side of it for p in {0.05, 0.25}, half of those (two halves sum to
    them), or anywhere up to T / 2."""
    duration = draw(st.sampled_from([60.0, 45.0, 37.5]))
    near = [p * duration + d for p in (0.05, 0.25) for d in (-1e-9, 0.0, 1e-9)]
    rows, last = [], {}
    for _ in range(draw(st.integers(1, 12))):
        rid, cls = draw(st.sampled_from(["r0", "r1", "r2", "r3"])), draw(st.sampled_from(CLASSES))
        length = draw(st.sampled_from(near) | st.sampled_from([v / 2 for v in near]) | st.floats(0.001, duration / 2))
        placement = draw(st.sampled_from(["free", "abut", "overlap", "nest"]))
        prev = last.get((rid, cls))
        if prev is None or placement == "free":
            start = draw(st.floats(0.0, duration - length))
        elif placement == "abut":
            start = prev[1]
        elif placement == "overlap":
            start = max(0.0, prev[1] - length / 2)
        else:
            start = prev[0] + max(0.0, prev[1] - prev[0] - length) / 2
        if start + length <= duration:
            rows.append((rid, cls, start, start + length))
            last[rid, cls] = (start, start + length)
    return duration, rows


def brute_force_merged(segments):
    """{class: ((start, end), ...)} of {class: [(start, end), ...]}: sorted, then each segment that starts at
    or before the end of the last merged one extends it."""
    merged = {}
    for cls in CLASSES:
        out = []
        for start, end in sorted(segments.get(cls, ())):
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        merged[cls] = tuple(out)
    return merged


def brute_force_kept(segments, duration, policy):
    """The PDA rule over raw segments: merge, add the lengths left to right (Python's sum may round otherwise:
    from 3.12 it compensates) or take the longest, compare with p * T - 1e-9."""
    kept = []
    for cls, merged in brute_force_merged(segments).items():
        lengths = [end - start for start, end in merged]
        measured = 0.0
        for length in lengths:
            measured = measured + length if policy.measure == "sum" else max(measured, length)
        p = policy.fractions.get(cls)
        kept.append(bool(lengths) and (p is None or measured >= p * duration - 1e-9))
    return kept


class TestAnnotationIO:
    @settings(max_examples=300, deadline=None)
    @given(
        table=strong_tables(),
        fractions=st.fixed_dictionaries({c: st.sampled_from([None, 0.05, 0.25]) for c in CLASSES}),
        measure=st.sampled_from(["sum", "longest-segment"]),
        ids=st.permutations(["r0", "r1", "r2", "r3", "r4"]),
        weak=st.booleans(),
    )
    def test_strong_table_equals_brute_force(self, tmp_path_factory, table, fractions, measure, ids, weak):
        """Recordings come in order of their first row, and their PDA flags equal the rule over the raw rows.

        pda_truth gives the same flags in the order of ids, none to a recording without rows (r4 never
        has one), and, for the weak table of the same classes, the flags of load_annotations.
        """
        duration, rows = table
        path = tmp_path_factory.mktemp("strong") / "ann.csv"
        if weak:
            present = {}
            for rid, cls, _, _ in rows:
                present.setdefault(rid, set()).add(cls)
            path.write_text("recording_id,anthropophony,biophony,geophony\n"
                            + "".join(f"{rid},{','.join(str(int(c in got)) for c in CLASSES)}\n"
                                      for rid, got in present.items()))
        else:
            path.write_text("recording_id,class,start_s,end_s\n" + "".join(f"{r},{c},{s!r},{e!r}\n" for r, c, s, e in rows))
        anns = load_annotations(path, duration)
        assert list(anns) == list(dict.fromkeys(rid for rid, *_ in rows))
        policy = PdaPolicy(fractions, measure=measure)
        expected = [pda_kept(anns[rid], policy) if rid in anns else [False] * len(CLASSES) for rid in ids]
        assert pda_truth(path, ids, duration, policy).tolist() == expected
        for rid, ann in anns.items():
            segments = {}
            for r, cls, start, end in rows:
                if r == rid:
                    segments.setdefault(cls, []).append((start, end))
            if weak:
                segments = {cls: [(0.0, duration)] for cls in segments}
            assert pda_kept(ann, policy) == brute_force_kept(segments, duration, policy)

    @settings(max_examples=200, deadline=None)
    @given(table=strong_tables())
    def test_segments_are_merged_as_brute_force_merges_them(self, tmp_path_factory, table):
        """Each recording's AnnotationSet holds its rows' segments sorted and merged, overlaps, abutting and nested
        segments included, with the ends kept exactly, whether it is built alone or read with the whole table."""
        duration, rows = table
        by_recording = {}
        for rid, cls, start, end in rows:
            by_recording.setdefault(rid, {}).setdefault(cls, []).append((start, end))
        path = tmp_path_factory.mktemp("strong") / "ann.csv"
        path.write_text("recording_id,class,start_s,end_s\n" + "".join(f"{r},{c},{s!r},{e!r}\n" for r, c, s, e in rows))
        anns = load_annotations(path, duration)
        assert list(anns) == list(by_recording)
        for rid, segments in by_recording.items():
            assert AnnotationSet(rid, duration, segments).segments == brute_force_merged(segments)
            assert anns[rid] == AnnotationSet(rid, duration, segments)

    @pytest.mark.parametrize("line3, line5, message", [
        ("r0,traffic,0,10", "r1,geophony,0,inf", "unknown class 'traffic'"),
        ("r0,biophony,0,inf", "r1,traffic,0,10", "expected a finite number, got 'inf'"),
        ("r0,biophony,20,10", "r1,biophony,0,x", "segment (20.0, 10.0) outside [0, 60.0]"),
        ("r0,biophony,0,x", "r1,biophony,20,10", "expected a number, got 'x'"),
        ("r0,biophony,0,60.000001", "r1,geophony,0,10", "segment (0.0, 60.000001) outside [0, 60.0]"),
        ("r0,biophony,10,10", "r1,traffic,0,10", "segment (10.0, 10.0) outside [0, 60.0]"),
        ("r0,traffic,0,10", "r1,geophony,0", "unknown class 'traffic'"),
        ("r0,biophony,0,x", 'r1,"geophony",0,10', "expected a number, got 'x'"),
    ], ids=["class-before-inf", "inf-before-class", "order-before-number", "number-before-order", "end-past-T",
            "zero-length", "class-before-width", "number-before-quotes"])
    def test_first_bad_row_in_file_order_wins(self, tmp_path, line3, line5, message):
        p = tmp_path / "ann.csv"
        p.write_text(f"recording_id,class,start_s,end_s\nr0,biophony,0,10\n{line3}\nr1,geophony,5,20\n{line5}\n")
        for read in (lambda: load_annotations(p, 60.0), lambda: pda_truth(p, ["r0", "r1"], 60.0, PdaPolicy())):
            with pytest.raises(SchemaError) as err:
                read()
            assert str(err.value) == f"{p}:3: {message}"

    def test_sum_adds_lengths_in_start_order(self, tmp_path):
        """Three segments whose lengths sum one ulp higher added one by one in start order than in reverse, with
        p * T on the higher sum plus 1e-9: the class is kept only when the lengths are added one by one in start
        order, as the one PDA kernel adds them for pda_kept and pda_truth alike (on every Python: its sum is
        numpy's, not the builtin sum, which compensates rounding from 3.12)."""
        segments = [(1.248939768477921, 11.788799765695673), (12.046137083765515, 23.858482125263556),
                    (24.06431557306498, 26.388809888206612)]
        a, b, c = (end - start for start, end in segments)
        duration = 2 * (a + b + c + 1e-9)  # p = 0.5: p * T is exactly the start-order sum plus 1e-9
        assert c + b + a + 1e-9 < duration / 2
        p = tmp_path / "ann.csv"
        p.write_text("recording_id,class,start_s,end_s\n" + "".join(f"r0,biophony,{s!r},{e!r}\n" for s, e in segments[::-1]))
        policy = PdaPolicy({BIOPHONY: 0.5})
        assert pda_kept(load_annotations(p, duration)["r0"], policy) == [False, True, False]
        assert pda_truth(p, ["r0"], duration, policy).tolist() == [[False, True, False]]

    def test_annotations_of_a_recording_not_listed(self, tmp_path):
        """The first row, in file order, of a recording without scores is named at its line; a weak row needs no flag."""
        p = tmp_path / "ann.csv"
        for text in ("recording_id,class,start_s,end_s\nr0,biophony,0,10\nr9,biophony,0,10\nr8,geophony,0,1\n"
                     "r9,geophony,0,1\n",
                     "recording_id,anthropophony,biophony,geophony\nr0,0,1,0\nr9,0,0,0\nr8,0,0,1\n"):
            p.write_text(text)
            with pytest.raises(SchemaError) as err:
                pda_truth(p, ["r0"], 60.0, PdaPolicy())
            assert str(err.value) == f"{p}:3: recording 'r9' has no scores"

    @pytest.mark.parametrize("header", ["recording_id,class,start_s,end_s", "recording_id,anthropophony,biophony,geophony"])
    def test_a_repeated_recording_id_is_an_error_before_the_table_is_read(self, tmp_path, header):
        """A repeated id would shift the rows: another recording's geophony was folded into 'b'."""
        p = tmp_path / "ann.csv"
        p.write_text(f"{header}\nb,biophony,0,30\nc,geophony,0,30\n")  # bad rows for the weak header: not read
        with pytest.raises(ValueError, match=r"^recording id 'a' repeated$"):
            pda_truth(p, ["a", "a", "b"], 60.0, PdaPolicy())
        with pytest.raises(ValueError, match=r"^recording id 'c' repeated$"):
            pda_truth(p, ["b", "c", "a", "c"], 60.0, PdaPolicy())

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

    @pytest.mark.parametrize("read", [load_annotations,
                                      lambda p, duration: pda_truth(p, ["r0"], duration, PdaPolicy()),
                                      lambda p, duration: pda_truth(p, ["r0"], duration, PdaPolicy({BIOPHONY: 0.5}))],
                             ids=["load_annotations", "pda_truth", "pda_truth-fraction"])
    @pytest.mark.parametrize("duration", [0.0, -5.0])
    @pytest.mark.parametrize("text", ["recording_id,class,start_s,end_s\nr0,biophony,0,1e-10\n",
                                      "recording_id,anthropophony,biophony,geophony\nr0,0,1,0\n"])
    def test_a_duration_that_is_not_positive_is_a_value_error(self, tmp_path, text, duration, read):
        p = tmp_path / "ann.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="^r0: duration must be positive$"):
            read(p, duration)

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
