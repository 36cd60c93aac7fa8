"""Multi-label metrics, curves, threshold tuning, error stratification, and
the index-vs-diversity correlation study.

Macro F1 is the unweighted mean of the three class F1 scores; silence is
never part of the macro average. Confidence intervals come from a seeded
nonparametric bootstrap over recordings (percentile method).
"""

from dataclasses import dataclass, field

import numpy as np

from .labels import ANTHROPOPHONY, BIOPHONY, CLASSES, GEOPHONY, combo_string

DEFAULT_BOOTSTRAP_RESAMPLES = 1000
DEFAULT_CONFIDENCE = 0.95

#: Named recording filters for the correlation case study: a recording passes
#: when its (non-empty) label set is contained in the filter's class set.
CASE_STUDY_FILTERS = {
    "all": frozenset(CLASSES),
    "B": frozenset({BIOPHONY}),
    "AB": frozenset({ANTHROPOPHONY, BIOPHONY}),
    "BG": frozenset({BIOPHONY, GEOPHONY}),
}


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass
class EvalReport:
    per_class: dict
    macro_f1: float
    macro_f1_ci: tuple
    n_recordings: int
    predicted_silence_rate: float
    bootstrap_resamples: int
    confidence: float
    bootstrap_seed: int

    def to_dict(self) -> dict:
        return {
            "per_class": {
                cls: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "tp": m.tp,
                    "fp": m.fp,
                    "fn": m.fn,
                    "tn": m.tn,
                }
                for cls, m in self.per_class.items()
            },
            "macro_f1": self.macro_f1,
            "macro_f1_ci": list(self.macro_f1_ci),
            "n_recordings": self.n_recordings,
            "predicted_silence_rate": self.predicted_silence_rate,
            "bootstrap": {
                "resamples": self.bootstrap_resamples,
                "confidence": self.confidence,
                "seed": self.bootstrap_seed,
            },
        }

    def to_table(self) -> str:
        """Plain-text summary table of the report."""
        lines = [
            f"{'class':<14} {'prec':>6} {'recall':>6} {'f1':>6} {'tp':>5} {'fp':>5} {'fn':>5} {'tn':>5}",
        ]
        for cls, m in self.per_class.items():
            lines.append(
                f"{cls:<14} {m.precision:6.3f} {m.recall:6.3f} {m.f1:6.3f} "
                f"{m.tp:5d} {m.fp:5d} {m.fn:5d} {m.tn:5d}"
            )
        lo, hi = self.macro_f1_ci
        pct = round(self.confidence * 100)
        lines.append(
            f"macro F1 {self.macro_f1:.3f}  (CI {pct}% [{lo:.3f}, {hi:.3f}], "
            f"{self.bootstrap_resamples} resamples)"
        )
        lines.append(
            f"recordings {self.n_recordings}, predicted silence "
            f"{self.predicted_silence_rate * 100:.1f}%"
        )
        return "\n".join(lines)


def f1_score(tp, fp, fn) -> np.ndarray:
    """F1 of confusion counts, elementwise; no true positives means 0."""
    return np.where(tp > 0, 2.0 * tp / np.maximum(2.0 * tp + fp + fn, 1), 0.0)


def macro_f1(per_class_f1) -> float:
    """Unweighted mean over class F1 values."""
    vals = list(per_class_f1)
    return float(sum(vals) / len(vals))


def _flag_arrays(pred, true):
    """pred and true as bool arrays of one [recordings x CLASSES] shape, with at least one row."""
    pred, true = np.asarray(pred, dtype=bool), np.asarray(true, dtype=bool)
    if pred.shape != true.shape or pred.ndim != 2 or pred.shape[1] != len(CLASSES):
        raise ValueError(
            f"pred and true must share one [recordings x {len(CLASSES)}] shape, got {pred.shape} and {true.shape}"
        )
    if not len(pred):
        raise ValueError("nothing to evaluate")
    return pred, true


def evaluate(
    pred,
    true,
    bootstrap_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    bootstrap_seed: int = 0,
) -> EvalReport:
    """Per-class precision/recall/F1, macro F1, and its bootstrap CI.

    pred and true are [recordings x CLASSES] flags with rows aligned: the
    decided classes and the (possibly PDA-filtered) annotated classes.
    """
    pred, true = _flag_arrays(pred, true)
    if bootstrap_resamples < 1:
        raise ValueError(f"need at least 1 bootstrap resample, got {bootstrap_resamples}")

    n = len(pred)
    tp_i = pred & true
    fp_i = pred & ~true
    fn_i = ~pred & true

    per_class = {}
    f1s = []
    for j, cls in enumerate(CLASSES):
        tp, fp, fn = int(tp_i[:, j].sum()), int(fp_i[:, j].sum()), int(fn_i[:, j].sum())
        tn = n - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = float(f1_score(tp, fp, fn))
        per_class[cls] = ClassMetrics(precision, recall, f1, tp, fp, fn, tn)
        f1s.append(f1)

    point = macro_f1(f1s)
    ci = _bootstrap_macro_ci(tp_i, fp_i, fn_i, point, bootstrap_resamples, confidence, bootstrap_seed)

    silence_rate = int((~pred.any(axis=1)).sum()) / n
    return EvalReport(
        per_class=per_class,
        macro_f1=point,
        macro_f1_ci=ci,
        n_recordings=n,
        predicted_silence_rate=silence_rate,
        bootstrap_resamples=bootstrap_resamples,
        confidence=confidence,
        bootstrap_seed=bootstrap_seed,
    )


def _bootstrap_macro_ci(tp_i, fp_i, fn_i, point, resamples, confidence, seed):
    macros = _bootstrap_macros(tp_i, fp_i, fn_i, resamples, seed)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(macros, [alpha, 1.0 - alpha])
    # percentile interval, widened if needed so it brackets the point estimate
    return (min(float(lo), point), max(float(hi), point))


def _bootstrap_macros(tp_i, fp_i, fn_i, resamples, seed) -> np.ndarray:
    """Macro F1 of each resample; resample r draws n recordings with replacement
    from its own stream SeedSequence([seed, r])."""
    n = tp_i.shape[0]
    outcomes = np.hstack([tp_i, fp_i, fn_i]).astype(float)  # [n x 3 classes]: tp | fp | fn
    macros = np.empty(resamples)
    for r in range(resamples):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), r]))
        idx = rng.integers(0, n, size=n)
        # draws per recording times its outcomes: integer sums, exact in float64
        macros[r] = f1_score(*np.split(np.bincount(idx, minlength=n) @ outcomes, 3)).mean()
    return macros


@dataclass
class Curve:
    """PR or ROC curve with one (threshold, x, y) row per candidate threshold (descending)."""

    kind: str  # "PR" or "ROC"
    points: np.ndarray  # [thresholds x 3]
    best_threshold: float
    best_score: float  # best F1 (PR) or best Youden J (ROC)


def _checked(scores, truth, both_labels: bool, name: str):
    """scores and truth as arrays, equal-length and non-empty; both_labels also
    requires at least one positive and one negative example."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=bool)
    if len(scores) != len(truth) or len(scores) == 0:
        raise ValueError(f"{name}: scores and truth must be equal-length and non-empty")
    if both_labels and (truth.all() or not truth.any()):
        raise ValueError(f"{name}: needs at least one positive and one negative example")
    return scores, truth


def _sweep(scores: np.ndarray, truth: np.ndarray, objective: str, grid_step: float | None = None):
    """Confusion counts and objective at every candidate threshold, from one sort.

    Candidates are the distinct scores plus the 0.0 sentinel (and, with
    grid_step, a grid rounded to 9 decimals), descending; a score is predicted
    positive when it is > the threshold. The objective is F1 or Youden's J.
    Returns (thresholds, (tp, fp, fn, tn), best index, best objective); the
    best index is the first maximum, so ties go to the higher threshold.
    """
    parts = [scores, [0.0]]
    if grid_step is not None:
        parts.append(np.round(np.arange(0.0, 1.0 + grid_step / 2, grid_step), 9))
    thresholds = np.unique(np.concatenate(parts))[::-1]
    order = np.argsort(scores, kind="stable")
    positives_below = np.concatenate(([0], np.cumsum(truth[order])))
    below = np.searchsorted(scores[order], thresholds, side="right")  # scores <= threshold
    n, n_pos = len(scores), int(positives_below[-1])
    tp = n_pos - positives_below[below]
    fp = n - below - tp
    fn = n_pos - tp
    tn = n - tp - fp - fn
    if objective == "f1":
        obj = f1_score(tp, fp, fn)
    else:
        obj = tp / np.maximum(tp + fn, 1) - fp / np.maximum(fp + tn, 1)
    best = int(np.argmax(obj))
    return thresholds, (tp, fp, fn, tn), best, float(obj[best])


def curve(scores, truth, kind: str) -> Curve:
    """Build a PR or ROC curve over all distinct score thresholds.

    The best point maximizes F1 (PR) or Youden's J = TPR - FPR (ROC); ties go
    to the higher threshold. ROC requires at least one positive and one
    negative example.
    """
    if kind not in ("PR", "ROC"):
        raise ValueError(f"kind must be 'PR' or 'ROC', got {kind!r}")
    scores, truth = _checked(scores, truth, kind == "ROC", kind)
    thresholds, (tp, fp, fn, tn), best, best_score = _sweep(scores, truth, "f1" if kind == "PR" else "youden")
    if kind == "PR":
        precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 1.0)
        recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
        xs, ys = recall, precision
    else:
        xs, ys = fp / np.maximum(fp + tn, 1), tp / np.maximum(tp + fn, 1)
    points = np.column_stack((thresholds, xs, ys))
    return Curve(kind=kind, points=points, best_threshold=float(thresholds[best]), best_score=best_score)


def tune_thresholds(scores_by_class: dict, truth_by_class: dict, objective: str = "f1", grid_step: float | None = None) -> dict:
    """Per-class threshold maximizing F1 or Youden's J over candidate thresholds.

    Candidates are the distinct scores (plus a zero sentinel); grid_step adds
    a regular grid for round reported values. Ties go to the higher threshold.
    """
    if objective not in ("f1", "youden"):
        raise ValueError(f"objective must be 'f1' or 'youden', got {objective!r}")
    tuned = {}
    for cls in scores_by_class:
        scores, truth = _checked(scores_by_class[cls], truth_by_class[cls], objective == "youden", cls)
        thresholds, _, best, _ = _sweep(scores, truth, objective, grid_step)
        tuned[cls] = float(thresholds[best])
    return tuned


@dataclass
class ComboTally:
    fp_count: int = 0
    fn_count: int = 0
    fp_denominator: int = 0
    fn_denominator: int = 0

    @property
    def fp_rate(self) -> float | None:
        return self.fp_count / self.fp_denominator if self.fp_denominator else None

    @property
    def fn_rate(self) -> float | None:
        return self.fn_count / self.fn_denominator if self.fn_denominator else None


@dataclass
class StratifiedErrors:
    """FP/FN tallies per target class, keyed by the co-occurring truth labels.

    The combination is the set of *other* classes annotated in the recording,
    encoded as "A"/"B"/"G" letters, or "S" when no other class is active. FP
    denominators count recordings without the target class bearing that
    combination; FN denominators count recordings with it.
    """

    per_class: dict = field(default_factory=dict)

    def total_fp(self, cls: str) -> int:
        return sum(t.fp_count for t in self.per_class.get(cls, {}).values())

    def total_fn(self, cls: str) -> int:
        return sum(t.fn_count for t in self.per_class.get(cls, {}).values())

    def to_rows(self):
        rows = []
        for cls in CLASSES:
            for combo in sorted(self.per_class.get(cls, {})):
                t = self.per_class[cls][combo]
                rows.append((cls, combo, "fp", t.fp_count, t.fp_rate))
                rows.append((cls, combo, "fn", t.fn_count, t.fn_rate))
        return rows


def stratify_errors(pred, true) -> StratifiedErrors:
    """Tally FP/FN per class, stratified by which other labels are annotated.

    pred and true are [recordings x CLASSES] flags with rows aligned, as for
    :func:`evaluate`.
    """
    pred, true = _flag_arrays(pred, true)
    bits = true << np.arange(len(CLASSES))  # class k annotated sets bit k
    codes = bits.sum(axis=1)
    combos = [combo_string({c for k, c in enumerate(CLASSES) if code >> k & 1}) for code in range(1 << len(CLASSES))]
    out = StratifiedErrors()
    for j, cls in enumerate(CLASSES):
        # one bin per (code of the other annotated classes, outcome 0 tn / 1 fp / 2 tp / 3 fn)
        outcome = 2 * true[:, j] + (pred[:, j] != true[:, j])
        tallies = np.bincount(4 * (codes - bits[:, j]) + outcome, minlength=4 << len(CLASSES)).reshape(-1, 4)
        out.per_class[cls] = {
            combos[code]: ComboTally(fp_count=fp, fn_count=fn, fp_denominator=tn + fp, fn_denominator=tp + fn)
            for code, (tn, fp, tp, fn) in enumerate(tallies.tolist())
            if tn + fp + tp + fn
        }
    return out


@dataclass(frozen=True)
class CorrelationResult:
    filter_name: str
    index_name: str
    rho: float
    n: int


def pearson(x, y) -> float:
    """Pearson correlation; raises on fewer than 2 points or zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError(f"need >= 2 paired points, got {len(x)} and {len(y)}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx2 = float((dx**2).sum())
    sy2 = float((dy**2).sum())
    if sx2 == 0 or sy2 == 0:
        raise ValueError("zero variance in one of the variables")
    r = float((dx * dy).sum() / np.sqrt(sx2 * sy2))
    return min(1.0, max(-1.0, r))


def correlate(
    index_results,
    index_name: str,
    diversity: dict,
    label_sets: dict,
    filter_classes,
    filter_name: str = "",
) -> CorrelationResult:
    """Pearson r between one acoustic index and species counts on filtered recordings.

    A recording passes the filter when its label set is non-empty and
    contained in filter_classes. Recordings where the index is undefined
    (NDSI with empty bands) are skipped.
    """
    filter_classes = frozenset(filter_classes)
    xs, ys = [], []
    for res in index_results:
        rec_id = res.recording_id
        if rec_id not in diversity or rec_id not in label_sets:
            raise ValueError(f"recording {rec_id!r} missing diversity or labels")
        labels = frozenset(label_sets[rec_id]) & frozenset(CLASSES)
        if not labels or not labels <= filter_classes:
            continue
        value = getattr(res, index_name)
        if value is None:
            continue
        xs.append(value)
        ys.append(diversity[rec_id])
    r = pearson(xs, ys)
    return CorrelationResult(filter_name=filter_name, index_name=index_name, rho=r, n=len(xs))
