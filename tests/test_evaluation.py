import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soundscapekit.evaluation import (
    CASE_STUDY_FILTERS,
    MAX_BOOTSTRAP_RESAMPLES,
    ClassMetrics,
    EvalReport,
    _bootstrap_macros,
    correlate,
    curve,
    evaluate,
    f1_score,
    macro_f1,
    pearson,
    stratify_errors,
    tune_thresholds,
)
from soundscapekit.labels import ANTHROPOPHONY, BIOPHONY, CLASSES, GEOPHONY

from conftest import flags


class TestMacroF1:
    def test_reference_macro_values_round_to_three_decimals(self):
        assert round(macro_f1([0.678, 0.937, 0.776]), 3) == 0.797
        assert round(macro_f1([0.649, 0.909, 0.717]), 3) == 0.758

    def test_zero_tp_convention(self):
        assert f1_score(0, 5, 0) == 0.0
        assert f1_score(0, 0, 0) == 0.0
        assert f1_score(3, 1, 2) == pytest.approx(6 / 9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 10**6)] * 3), min_size=1, max_size=20))
    def test_array_form_matches_the_scalar_formula(self, counts):
        """Elementwise over int or float count arrays, bit for bit the scalar 2tp / (2tp + fp + fn)."""
        expected = [2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0 for tp, fp, fn in counts]
        for dtype in (int, float):
            tp, fp, fn = np.array(counts, dtype=dtype).T
            assert f1_score(tp, fp, fn).tolist() == expected


class TestEvaluate:
    def test_perfect_predictions(self):
        label_sets = [{ANTHROPOPHONY}, {BIOPHONY}, {GEOPHONY}, set(CLASSES), set()]
        report = evaluate(flags(label_sets), flags(label_sets), bootstrap_resamples=100)
        assert report.macro_f1 == 1.0
        for cls in CLASSES:
            assert report.per_class[cls].f1 == 1.0
        # resamples can drop a class's only positive (F1=0 by the zero-TP rule),
        # so only the upper end and the bracketing are guaranteed here
        assert report.macro_f1_ci[0] <= 1.0
        assert report.macro_f1_ci[1] == 1.0
        assert report.predicted_silence_rate == 0.2

    def test_confusion_counts(self):
        pred = flags([{BIOPHONY}, {BIOPHONY, GEOPHONY}, set()])
        true = flags([{BIOPHONY}, {BIOPHONY}, {GEOPHONY}])
        report = evaluate(pred, true, bootstrap_resamples=10)
        bio = report.per_class[BIOPHONY]
        assert (bio.tp, bio.fp, bio.fn, bio.tn) == (2, 0, 0, 1)
        geo = report.per_class[GEOPHONY]
        assert (geo.tp, geo.fp, geo.fn, geo.tn) == (0, 1, 1, 1)

    def test_ci_brackets_point_and_stays_bracketing_with_more_resamples(self):
        rng = np.random.default_rng(17)
        pred_sets, true_sets = [], []
        for i in range(40):
            true_set = {c for c in CLASSES if rng.random() < 0.5}
            pred_set = {c for c in true_set if rng.random() < 0.8} | {
                c for c in CLASSES if rng.random() < 0.1
            }
            pred_sets.append(pred_set)
            true_sets.append(true_set)
        for resamples in (100, 400, 1600):
            report = evaluate(flags(pred_sets), flags(true_sets), bootstrap_resamples=resamples, bootstrap_seed=5)
            lo, hi = report.macro_f1_ci
            assert lo <= report.macro_f1 <= hi

    def test_bootstrap_seeded(self):
        pred = flags({BIOPHONY} if i % 2 else set() for i in range(10))
        true = flags({BIOPHONY} if i % 3 else set() for i in range(10))
        a = evaluate(pred, true, bootstrap_resamples=50, bootstrap_seed=7)
        b = evaluate(pred, true, bootstrap_resamples=50, bootstrap_seed=7)
        assert a.macro_f1_ci == b.macro_f1_ci

    @pytest.mark.parametrize("resamples", [0, MAX_BOOTSTRAP_RESAMPLES + 1, 10**12])
    def test_resample_count_outside_the_bound_is_rejected_before_drawing(self, resamples):
        pred = true = flags([{BIOPHONY}, set()])
        message = f"bootstrap resamples must be in [1, {MAX_BOOTSTRAP_RESAMPLES}], got {resamples}"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(pred, true, bootstrap_resamples=resamples)

    @pytest.mark.parametrize("confidence", [-0.2, 0.0, 1.0, 1.7, float("nan")])
    def test_confidence_outside_the_open_unit_interval_is_rejected(self, confidence):
        """The config's rule holds for evaluate too: -0.2 would give a zero-width interval."""
        pred = true = flags([{BIOPHONY}, set()])
        with pytest.raises(ValueError, match=re.escape(f"bootstrap confidence must be in (0, 1), got {confidence}")):
            evaluate(pred, true, confidence=confidence)

    def test_id_mismatch(self):
        one_by_two_rows = (flags([set()]), flags([set(), set()]))
        two_columns = (np.zeros((2, 2), bool), np.zeros((2, 2), bool))
        for pred, true in (one_by_two_rows, two_columns):
            with pytest.raises(ValueError, match="shape"):
                evaluate(pred, true)
            with pytest.raises(ValueError, match="shape"):
                stratify_errors(pred, true)

    def test_empty(self):
        with pytest.raises(ValueError):
            evaluate(flags([]), flags([]))
        with pytest.raises(ValueError, match="nothing to evaluate"):
            stratify_errors(flags([]), flags([]))

    def test_report_dict(self):
        """The fields of the report, with the three bootstrap settings nested under "bootstrap"."""
        report = EvalReport(
            per_class={
                ANTHROPOPHONY: ClassMetrics(0.5, 1.0, 2 / 3, 1, 1, 0, 2),
                BIOPHONY: ClassMetrics(0.0, 0.0, 0.0, 0, 0, 1, 3),
                GEOPHONY: ClassMetrics(1.0, 1.0, 1.0, 2, 0, 0, 2),
            },
            macro_f1=5 / 9,
            macro_f1_ci=(0.25, 0.875),
            n_recordings=4,
            predicted_silence_rate=0.25,
            bootstrap_resamples=10,
            confidence=0.95,
            bootstrap_seed=3,
        )
        assert report.to_dict() == {
            "per_class": {
                ANTHROPOPHONY: {"precision": 0.5, "recall": 1.0, "f1": 2 / 3, "tp": 1, "fp": 1, "fn": 0, "tn": 2},
                BIOPHONY: {"precision": 0.0, "recall": 0.0, "f1": 0.0, "tp": 0, "fp": 0, "fn": 1, "tn": 3},
                GEOPHONY: {"precision": 1.0, "recall": 1.0, "f1": 1.0, "tp": 2, "fp": 0, "fn": 0, "tn": 2},
            },
            "macro_f1": 5 / 9,
            "macro_f1_ci": (0.25, 0.875),
            "n_recordings": 4,
            "predicted_silence_rate": 0.25,
            "bootstrap": {"resamples": 10, "confidence": 0.95, "seed": 3},
        }


def fancy_index_macros(tp_i, fp_i, fn_i, resamples, seed):
    """The bootstrap as first written: three fancy-indexed sums per resample."""
    n = tp_i.shape[0]
    macros = np.empty(resamples)
    for r in range(resamples):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        idx = rng.integers(0, n, size=n)
        tp = tp_i[idx].sum(axis=0).astype(float)
        fp = fp_i[idx].sum(axis=0).astype(float)
        fn = fn_i[idx].sum(axis=0).astype(float)
        denom = 2.0 * tp + fp + fn
        f1 = np.where(tp > 0, 2.0 * tp / np.where(denom > 0, denom, 1.0), 0.0)
        macros[r] = f1.mean()
    return macros


def bincount_macros(tp_i, fp_i, fn_i, resamples, seed):
    """The bootstrap as one loop over resamples: draws per recording times its outcomes."""
    n = tp_i.shape[0]
    outcomes = np.hstack([tp_i, fp_i, fn_i]).astype(float)
    macros = np.empty(resamples)
    for r in range(resamples):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        idx = rng.integers(0, n, size=n)
        macros[r] = f1_score(*(np.bincount(idx, minlength=n) @ outcomes).reshape(3, -1)).mean()
    return macros


@st.composite
def outcome_matrices(draw):
    """tp/fp/fn flags of n recordings x 3 classes, some columns forced to all zero."""
    n = draw(st.integers(1, 300))
    pred, true = draw(arrays(bool, (n, 3))), draw(arrays(bool, (n, 3)))
    pred[:, draw(st.lists(st.integers(0, 2), max_size=3))] = False  # classes never predicted: tp = fp = 0
    true[:, draw(st.lists(st.integers(0, 2), max_size=3))] = False  # classes never present: tp = fn = 0
    return pred & true, pred & ~true, ~pred & true


def outcome_codes(tp_i, fp_i, fn_i):
    """The outcome of each recording and class as evaluation codes it: 0 tn, 1 fp, 2 tp or 3 fn."""
    return 2 * (tp_i | fn_i) + (fp_i | fn_i)


class TestBootstrap:
    @settings(max_examples=150, deadline=None)
    @given(outcome_matrices(), st.integers(1, 40), st.integers(0, 2**63 - 1))
    def test_bincount_equals_fancy_index_bit_for_bit(self, outcomes, resamples, seed):
        got = _bootstrap_macros(outcome_codes(*outcomes), resamples, seed)
        assert np.array_equal(got, fancy_index_macros(*outcomes, resamples, seed))

    @settings(max_examples=150, deadline=None)
    @given(outcome_matrices(), st.integers(1, 50), st.sampled_from([0, 2**31 - 1]) | st.integers(0, 2**63 - 1))
    def test_outcome_codes_equal_the_per_resample_loop_bit_for_bit(self, outcomes, resamples, seed):
        got = _bootstrap_macros(outcome_codes(*outcomes), resamples, seed)
        assert np.array_equal(got, bincount_macros(*outcomes, resamples, seed))

    def test_all_zero_outcomes(self):
        zeros = np.zeros((5, 3), dtype=bool)
        assert np.array_equal(_bootstrap_macros(outcome_codes(zeros, zeros, zeros), 3, 1), np.zeros(3))


def brute_force_curve(scores, truth, kind):
    """All-threshold oracle: evaluate at every distinct score plus the 0 sentinel."""
    points = {}
    for theta in sorted(set(list(scores) + [0.0]), reverse=True):
        pred = [s > theta for s in scores]
        tp = sum(p and t for p, t in zip(pred, truth))
        fp = sum(p and not t for p, t in zip(pred, truth))
        fn = sum((not p) and t for p, t in zip(pred, truth))
        tn = len(scores) - tp - fp - fn
        if kind == "PR":
            precision = tp / (tp + fp) if tp + fp else 1.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            points[theta] = (recall, precision)
        else:
            points[theta] = (fp / (fp + tn), tp / (tp + fn))
    return points


def first_best(thresholds, scores, truth, objective):
    """Brute-force tuning oracle: the first (highest) threshold with the best objective."""
    thetas = np.array(sorted(thresholds, reverse=True))
    truth = np.asarray(truth)
    pred = np.asarray(scores)[None, :] > thetas[:, None]
    tp = (pred & truth).sum(axis=1)
    fp = (pred & ~truth).sum(axis=1)
    fn = truth.sum() - tp
    tn = len(truth) - tp - fp - fn
    if objective == "f1":
        obj = [2 * a / (2 * a + b + c) if a else 0.0 for a, b, c in zip(tp, fp, fn)]
    else:
        obj = tp / (tp + fn) - fp / (fp + tn)
    return float(thetas[np.argmax(obj)])


TOY = [(0.9, True), (0.8, True), (0.7, True), (0.3, True), (0.6, False), (0.4, False), (0.2, False)]
# two-decimal scores force ties and reach both ends of [0, 1]
SCORED_LABELS = st.lists(
    st.tuples(st.integers(0, 100).map(lambda k: k / 100), st.booleans()), min_size=2, max_size=30
).filter(lambda pairs: len({t for _, t in pairs}) == 2)


class TestCurve:
    @given(SCORED_LABELS)
    @example(TOY)
    @example([(0.0, True), (1.0, False), (0.0, False), (1.0, True)])
    def test_six_item_toy_matches_brute_force(self, pairs):
        """Curves, plain tuning and grid tuning agree with brute force and each other."""
        scores = [s for s, _ in pairs]
        truth = [t for _, t in pairs]
        curves = {}
        for kind in ("PR", "ROC"):
            c = curves[kind] = curve(scores, truth, kind)
            oracle = brute_force_curve(scores, truth, kind)
            assert c.points[:, 0].tolist() == sorted(oracle, reverse=True)
            for threshold, x, y in c.points.tolist():
                assert (x, y) == oracle[threshold]
        by_class = ({BIOPHONY: scores}, {BIOPHONY: truth})
        assert tune_thresholds(*by_class, "f1")[BIOPHONY] == curves["PR"].best_threshold
        assert tune_thresholds(*by_class, "youden")[BIOPHONY] == curves["ROC"].best_threshold
        grid_candidates = set(scores) | {k / 1000 for k in range(1001)}
        for objective in ("f1", "youden"):
            tuned = tune_thresholds(*by_class, objective, grid_step=0.001)[BIOPHONY]
            assert tuned == first_best(grid_candidates, scores, truth, objective)

    def test_thresholds_descending(self):
        c = curve([0.1, 0.5, 0.9], [False, True, True], "PR")
        ts = c.points[:, 0].tolist()
        assert ts == sorted(ts, reverse=True)

    def test_perfect_separation_roc(self):
        c = curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False], "ROC")
        assert c.best_score == 1.0
        assert any(x == 0.0 and y == 1.0 for _, x, y in c.points.tolist())

    def test_roc_monotone_in_both_axes(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=50)
        truth = rng.random(50) < 0.4
        c = curve(scores, truth, "ROC")
        xs = c.points[:, 1].tolist()
        ys = c.points[:, 2].tolist()
        assert all(a <= b + 1e-12 for a, b in zip(xs, xs[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))

    def test_identical_scores_degenerate(self):
        c = curve([0.4, 0.4, 0.4, 0.4], [True, False, True, False], "PR")
        # one real score point plus the predict-everything sentinel
        assert len(c.points) == 2
        prevalence = 0.5
        assert c.best_score == pytest.approx(2 * prevalence / (1 + prevalence))

    def test_roc_requires_both_labels(self):
        with pytest.raises(ValueError):
            curve([0.2, 0.4], [True, True], "ROC")

    @pytest.mark.parametrize("scores, truth, kind, message", [
        ([], [], "PR", "PR: scores and truth must be equal-length and non-empty"),
        ([0.2, 0.4], [True], "ROC", "ROC: scores and truth must be equal-length and non-empty"),
        ([0.2, 0.4], [True, False], "AUC", "kind must be 'PR' or 'ROC', got 'AUC'"),
    ], ids=["empty", "unequal", "unknown-kind"])
    def test_rejects_input_it_cannot_sweep(self, scores, truth, kind, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curve(scores, truth, kind)

    def test_tie_breaks_toward_higher_threshold(self):
        # F1 is flat between 0.3 and 0.5; the returned threshold must be 0.5
        scores = [0.9, 0.8, 0.5, 0.3]
        truth = [True, True, False, False]
        c = curve(scores, truth, "PR")
        assert c.best_threshold == 0.5


def grid_oracle_best_f1(scores, truth, step=0.001):
    best = 0.0
    for theta in np.arange(0.0, 1.0 + step, step):
        pred = scores > theta
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        fn = int((~pred & truth).sum())
        f1 = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
        best = max(best, f1)
    return best


class TestTuneThresholds:
    def test_planted_separator(self):
        scores = np.array([0.10, 0.65, 0.70, 0.72, 0.90, 0.95])
        truth = np.array([False, False, False, True, True, True])
        tuned = tune_thresholds({BIOPHONY: scores}, {BIOPHONY: truth})
        assert 0.70 <= tuned[BIOPHONY] < 0.72

    def test_f1_at_tuned_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            truth = rng.random(80) < 0.4
            scores = np.clip(truth * rng.normal(0.7, 0.2, 80) + ~truth * rng.normal(0.3, 0.2, 80), 0, 1)
            tuned = tune_thresholds({BIOPHONY: scores}, {BIOPHONY: truth})[BIOPHONY]
            pred = scores > tuned
            tp = int((pred & truth).sum())
            fp = int((pred & ~truth).sum())
            fn = int((~pred & truth).sum())
            achieved = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
            assert achieved + 1e-12 >= grid_oracle_best_f1(scores, truth)

    def test_all_positive_truth(self):
        scores = np.array([0.3, 0.5, 0.9])
        tuned = tune_thresholds({BIOPHONY: scores}, {BIOPHONY: np.array([True, True, True])})
        assert tuned[BIOPHONY] <= 0.3

    def test_youden_objective(self):
        scores = np.array([0.9, 0.8, 0.4, 0.3])
        truth = np.array([True, True, False, False])
        tuned = tune_thresholds({BIOPHONY: scores}, {BIOPHONY: truth}, objective="youden")
        assert 0.4 <= tuned[BIOPHONY] < 0.8

    def test_youden_rejects_degenerate(self):
        with pytest.raises(ValueError):
            tune_thresholds({BIOPHONY: [0.1, 0.2]}, {BIOPHONY: [True, True]}, objective="youden")

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            tune_thresholds({BIOPHONY: [0.1]}, {BIOPHONY: [True]}, objective="accuracy")


#: (predicted, annotated) -> outcome name
OUTCOME = {(True, True): "tp", (True, False): "fp", (False, True): "fn", (False, False): "tn"}


def labels_of(row):
    return {c for c, flag in zip(CLASSES, row) if flag}


def twenty_recording_fixture():
    rng = np.random.default_rng(77)
    pred_sets, true_sets = [], []
    for i in range(20):
        true_sets.append({c for c in CLASSES if rng.random() < 0.5})
        pred_sets.append({c for c in CLASSES if rng.random() < 0.5})
    return flags(pred_sets), flags(true_sets)


@st.composite
def flag_pairs(draw):
    """pred and true flags of n recordings, some columns forced all-true or all-false."""
    n = draw(st.integers(1, 200))
    pred, true = draw(arrays(bool, (n, 3))), draw(arrays(bool, (n, 3)))
    for array in (pred, true):
        for j in draw(st.lists(st.integers(0, 2), max_size=3, unique=True)):
            array[:, j] = draw(st.booleans())
    return pred, true


class TestStratifyErrors:
    def test_single_recording_fp_combination(self):
        strat = stratify_errors(flags([set(CLASSES)]), flags([{BIOPHONY, GEOPHONY}]))
        assert strat.per_class[ANTHROPOPHONY]["BG"].fp_count == 1
        assert strat.per_class[ANTHROPOPHONY]["BG"].fp_denominator == 1

    def test_no_errors_zero_tallies(self):
        strat = stratify_errors(flags([{BIOPHONY}]), flags([{BIOPHONY}]))
        for cls in CLASSES:
            assert strat.total_fp(cls) == 0
            assert strat.total_fn(cls) == 0

    def test_silence_combination_name(self):
        strat = stratify_errors(flags([{GEOPHONY}]), flags([set()]))
        assert strat.per_class[GEOPHONY]["S"].fp_count == 1

    @settings(max_examples=150, deadline=None)
    @given(flag_pairs())
    @example(twenty_recording_fixture())
    def test_twenty_recording_fixture_matches_enumeration(self, pair):
        pred, true = pair
        strat = stratify_errors(pred, true)
        report = evaluate(pred, true, bootstrap_resamples=1)

        # independent enumeration with plain dict arithmetic
        expected_fp = {cls: {} for cls in CLASSES}
        expected_fn = {cls: {} for cls in CLASSES}
        confusion = {cls: dict.fromkeys(("tp", "fp", "fn", "tn"), 0) for cls in CLASSES}
        silent = 0
        letter = {ANTHROPOPHONY: "A", BIOPHONY: "B", GEOPHONY: "G"}
        for p_row, t_row in zip(pred.tolist(), true.tolist()):
            p, t = labels_of(p_row), labels_of(t_row)
            silent += not p
            for cls in CLASSES:
                others = "".join(letter[c] for c in CLASSES if c in t and c != cls)
                combo = others or "S"
                if cls in p and cls not in t:
                    expected_fp[cls][combo] = expected_fp[cls].get(combo, 0) + 1
                if cls not in p and cls in t:
                    expected_fn[cls][combo] = expected_fn[cls].get(combo, 0) + 1
                confusion[cls][OUTCOME[cls in p, cls in t]] += 1

        for cls in CLASSES:
            got_fp = {k: v.fp_count for k, v in strat.per_class[cls].items() if v.fp_count}
            got_fn = {k: v.fn_count for k, v in strat.per_class[cls].items() if v.fn_count}
            assert got_fp == expected_fp[cls]
            assert got_fn == expected_fn[cls]
            m = report.per_class[cls]
            assert {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn} == confusion[cls]
        assert report.predicted_silence_rate == silent / len(pred)

    def test_partition_invariant(self):
        rng = np.random.default_rng(123)
        pred_sets, true_sets = [], []
        for i in range(60):
            true_sets.append({c for c in CLASSES if rng.random() < 0.4})
            pred_sets.append({c for c in CLASSES if rng.random() < 0.4})
        strat = stratify_errors(flags(pred_sets), flags(true_sets))
        total_fp = {cls: 0 for cls in CLASSES}
        total_fn = {cls: 0 for cls in CLASSES}
        for p, t in zip(pred_sets, true_sets):
            for cls in CLASSES:
                total_fp[cls] += int(cls in p and cls not in t)
                total_fn[cls] += int(cls not in p and cls in t)
        for cls in CLASSES:
            assert strat.total_fp(cls) == total_fp[cls]
            assert strat.total_fn(cls) == total_fn[cls]

    def test_rate_denominators(self):
        pred = flags([{ANTHROPOPHONY}, set(), {ANTHROPOPHONY}])
        true = flags([{BIOPHONY}, {BIOPHONY}, {ANTHROPOPHONY, BIOPHONY}])
        strat = stratify_errors(pred, true)
        tally = strat.per_class[ANTHROPOPHONY]["B"]
        assert tally.fp_count == 1 and tally.fp_denominator == 2
        assert tally.fp_rate == 0.5
        assert tally.fn_count == 0 and tally.fn_denominator == 1


class TestPearson:
    def test_identical_vectors(self):
        assert pearson([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 1.0

    def test_exact_linear_pairs(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1, 1, 1], [2, 4, 6])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        r = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(r, abs=1e-12)
        assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-r, abs=1e-12)


class TestCorrelate:
    @pytest.fixture
    def fixture(self):
        """aci, adi and ndsi columns (r2's NDSI undefined), species counts and truth flags of r1-r4."""
        values = np.array([[1.0, 0.5, 0.1], [2.0, 1.0, np.nan], [3.0, 1.5, 0.3], [4.0, 9.0, 0.4]])
        species = [2.0, 4.0, 6.0, 1.0]
        labels = flags([{BIOPHONY}, {BIOPHONY}, {BIOPHONY}, {ANTHROPOPHONY, GEOPHONY}])
        return values, species, labels

    def test_linear_subset(self, fixture):
        values, species, labels = fixture
        assert correlate(values[:, 0], species, labels, CASE_STUDY_FILTERS["B"]) == (3, 1.0)

    def test_undefined_index_skipped(self, fixture):
        values, species, labels = fixture
        n, _ = correlate(values[:, 2], species, labels, CASE_STUDY_FILTERS["B"])
        assert n == 2

    def test_filter_containment(self, fixture):
        values, species, labels = fixture
        n, _ = correlate(values[:, 0], species, labels, CASE_STUDY_FILTERS["all"])
        assert n == 4

    def test_too_few_after_filter(self, fixture):
        values, species, labels = fixture
        with pytest.raises(ValueError, match=r"^need >= 2 paired points, got 0 and 0$"):
            correlate(values[:, 0], species, labels, frozenset({GEOPHONY}))


def correlate_by_label_sets(values, species, label_sets, filter_classes):
    """The case study's filter applied one recording at a time to frozensets of labels."""
    xs, ys = [], []
    for value, count, labels in zip(values, species, label_sets):
        if labels and labels <= filter_classes and not np.isnan(value):
            xs.append(value)
            ys.append(count)
    return len(xs), pearson(xs, ys)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(np.nan), st.floats(-1e3, 1e3)),
            st.integers(0, 30).map(float),
            st.lists(st.booleans(), min_size=len(CLASSES), max_size=len(CLASSES)),
        ),
        max_size=12,
    ),
    st.sampled_from(sorted(CASE_STUDY_FILTERS)),
)
@example([(1.0, 1.0, [False, True, False]), (np.nan, 2.0, [False, True, False]),
          (2.0, 3.0, [False, False, False]), (3.0, 5.0, [False, True, False])], "B")
def test_correlate_equals_the_per_recording_label_set_rule(recordings, filter_name):
    """correlate's mask keeps exactly the recordings the frozenset rule keeps, in order, so n and r agree."""
    values = [v for v, _, _ in recordings]
    species = [c for _, c, _ in recordings]
    rows = [row for _, _, row in recordings]
    label_sets = [frozenset(c for c, on in zip(CLASSES, row) if on) for row in rows]
    filter_classes = CASE_STUDY_FILTERS[filter_name]
    try:
        want = correlate_by_label_sets(values, species, label_sets, filter_classes)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            correlate(values, species, rows, filter_classes)
        return
    assert correlate(values, species, rows, filter_classes) == want
