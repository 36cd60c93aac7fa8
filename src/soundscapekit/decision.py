"""Recording-level multi-label decisions from per-window scores.

Four strategies are supported: a global threshold on the max window score,
class-specific thresholds, duration-based annotation filtering (dropping
classes whose annotated time falls below a fraction of the recording
length), and count-based thresholding (requiring several windows above the
class threshold). "Exceeds" is strict everywhere: a score equal to the
threshold does not activate a class.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from ._table import Table, write_table
from .labels import CLASSES, SILENCE
from .scores import ScoreMatrix

_DUR_TOL = 1e-9


@dataclass(frozen=True)
class AnnotationSet:
    """Strong (segment-level) ground truth for one recording.

    Segments are merged per class on construction, so each class holds a
    sorted, non-overlapping list of (start_s, end_s) pairs.
    """

    recording_id: str
    duration_s: float
    segments: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError(f"{self.recording_id}: duration must be positive")
        merged = {}
        for cls in CLASSES:
            segs = sorted(self.segments.get(cls, ()))
            for start, end in segs:
                if not _inside(start, end, self.duration_s):
                    raise ValueError(f"{self.recording_id}: {_outside(start, end, self.duration_s)}")
            merged[cls] = tuple(_merge(segs))
        object.__setattr__(self, "segments", merged)

    @property
    def active_classes(self) -> frozenset:
        return frozenset(c for c in CLASSES if self.segments[c])

    @classmethod
    def from_weak_labels(cls, recording_id: str, duration_s: float, active) -> "AnnotationSet":
        """Build from presence flags; active classes span the whole recording."""
        return cls(
            recording_id=recording_id,
            duration_s=duration_s,
            segments={c: [(0.0, duration_s)] for c in active},
        )


def _inside(start, end, duration_s) -> bool:
    return 0 <= start < end <= duration_s + _DUR_TOL


def _outside(start, end, duration_s) -> str:
    return f"segment ({start}, {end}) outside [0, {duration_s}]"


def _merge(segs):
    out = []
    for start, end in segs:
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


@dataclass(frozen=True)
class PdaPolicy:
    """Minimum-duration annotation filter.

    fractions maps a class to p in (0, 1) or None; a class with p set stays
    active only if its annotated duration reaches p * T. Classes with no
    fraction (typically biophony) keep their annotations untouched. The
    duration measure defaults to the sum of merged segments; the
    "longest-segment" measure tests only the single longest one.
    """

    fractions: dict = field(default_factory=dict)
    measure: str = "sum"  # or "longest-segment"

    def __post_init__(self):
        for cls, p in self.fractions.items():
            if cls not in CLASSES:
                raise ValueError(f"unknown class {cls!r}")
            if p is not None and not 0 < p < 1:
                raise ValueError(f"fraction for {cls} must be in (0, 1), got {p}")
        if self.measure not in ("sum", "longest-segment"):
            raise ValueError(f"measure must be 'sum' or 'longest-segment', got {self.measure!r}")

    def min_duration_s(self, class_name: str, recording_duration_s: float) -> float | None:
        p = self.fractions.get(class_name)
        return None if p is None else p * recording_duration_s


def pda_kept(ann: AnnotationSet, policy: PdaPolicy) -> list:
    """Per class of CLASSES, whether the PDA rule keeps it: annotated, and not short of p * T."""
    kept = []
    for cls in CLASSES:
        lengths = [e - s for s, e in ann.segments[cls]]
        min_dur = policy.min_duration_s(cls, ann.duration_s)
        measured = sum(lengths) if policy.measure == "sum" else max(lengths, default=0.0)
        kept.append(bool(lengths) and (min_dur is None or measured + _DUR_TOL >= min_dur))
    return kept


def apply_pda(ann: AnnotationSet, policy: PdaPolicy) -> AnnotationSet:
    """Clear every class whose annotated duration falls short of p * T."""
    return replace(ann, segments={c: ann.segments[c] if k else () for c, k in zip(CLASSES, pda_kept(ann, policy))})


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-class decision thresholds, optionally with window-count requirements.

    Without counts a class is active when its max window score exceeds
    the class threshold; with a count c it is active when at least c
    windows exceed the threshold (c = 1 reproduces max aggregation).
    mode is how the policy is written: "per-class", or "global" (from
    global_threshold) for one threshold shared by every class.
    """

    thresholds: dict
    counts: dict | None = None
    mode: str = "per-class"

    def __post_init__(self):
        if self.mode not in ("global", "per-class"):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        for cls in [*self.thresholds, *(self.counts or ())]:
            if cls not in CLASSES:
                raise ValueError(f"unknown class {cls!r}")
        for cls in CLASSES:
            if cls not in self.thresholds:
                raise ValueError(f"missing threshold for {cls}")
            if not 0 <= self.thresholds[cls] <= 1:
                raise ValueError(f"threshold for {cls} outside [0, 1]: {self.thresholds[cls]}")
        if self.mode == "global" and len(set(self.thresholds.values())) > 1:
            raise ValueError(f"a global policy has one threshold, got {self.thresholds}")
        for cls, c in (self.counts or {}).items():
            if c < 1:
                raise ValueError(f"count for {cls} must be >= 1, got {c}")

    @classmethod
    def global_threshold(cls, theta: float, counts=None) -> "ThresholdPolicy":
        return cls(thresholds=dict.fromkeys(CLASSES, theta), counts=counts, mode="global")

    def count_for(self, class_name: str) -> int:
        if self.counts is None:
            return 1
        return int(self.counts.get(class_name, 1))

    def check_counts(self, n_windows: int) -> None:
        """Raise ValueError if a count needs more than n_windows, the windows of the shortest recording."""
        for cls, c in (self.counts or {}).items():
            if c > n_windows:
                raise ValueError(f"count {c} for {cls} exceeds the {n_windows} windows of the shortest recording")


@dataclass(frozen=True)
class Decision:
    """Recording-level outcome; silence holds exactly when nothing is active."""

    recording_id: str
    active: frozenset

    @property
    def silence(self) -> bool:
        return not self.active


def window_max(scores) -> np.ndarray:
    """Max window score per recording, [recordings x classes] in scores.class_order.

    scores is a ScoreTable; a ScoreMatrix is one, of one recording.
    """
    return np.maximum.reduceat(scores.class_scores, scores.offsets, axis=0)


def window_active(scores, policy: ThresholdPolicy) -> np.ndarray:
    """Active flags per recording, [recordings x CLASSES]: at least
    policy.count_for(cls) windows score strictly above the class threshold
    (every class_order starts with CLASSES, so their scores are its first columns)."""
    above = scores.class_scores[:, :len(CLASSES)] > [policy.thresholds[cls] for cls in CLASSES]
    counts = np.add.reduceat(above, scores.offsets, axis=0, dtype=np.intp)
    return counts >= [policy.count_for(cls) for cls in CLASSES]


def aggregate(matrix: ScoreMatrix) -> dict:
    """Max confidence per class across all windows."""
    maxes = window_max(matrix)[0]
    return {cls: float(maxes[i]) for i, cls in enumerate(matrix.class_order)}


def decide(matrix: ScoreMatrix, policy: ThresholdPolicy) -> Decision:
    """Apply thresholds (and optional counts) to one recording's scores: window_active
    over a ScoreMatrix, the ScoreTable of that one recording."""
    policy.check_counts(matrix.n_windows)
    return Decision(matrix.recording_id, frozenset(compress(CLASSES, window_active(matrix, policy)[0])))


def count_for_fraction(p: float, w: int) -> int:
    """floor(p * w), raised to 1 when the product floors to zero."""
    if not 0 < p <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {p}")
    if w < 1:
        raise ValueError(f"window count must be >= 1, got {w}")
    return max(1, math.floor(p * w))


_FLAGS_HEADER = ["recording_id", *CLASSES]
_DECISIONS_HEADER = _FLAGS_HEADER + [SILENCE]


def load_annotations(path, duration_s: float) -> dict:
    """Load an annotation CSV (strong or weak schema) into {recording_id: AnnotationSet}.

    Strong schema: recording_id,class,start_s,end_s (one row per segment).
    Weak schema: recording_id,anthropophony,biophony,geophony (0/1 flags).
    Recordings absent from a strong file simply have no annotated segments.
    """
    table = Table(path, [["recording_id", "class", "start_s", "end_s"], _FLAGS_HEADER])
    if table.header == _FLAGS_HEADER:
        return {rid: AnnotationSet.from_weak_labels(rid, duration_s, compress(CLASSES, flags))
                for rid, flags in _flag_rows(table)}

    segments = defaultdict(lambda: {c: [] for c in CLASSES})
    for line, (rec_id, cls, start, end) in table:
        if cls not in CLASSES:
            raise table.error(f"unknown class {cls!r}", line)
        start, end = table.number(start, line), table.number(end, line)
        if not _inside(start, end, duration_s):
            raise table.error(_outside(start, end, duration_s), line)
        segments[rec_id][cls].append((start, end))
    return {
        rec_id: AnnotationSet(recording_id=rec_id, duration_s=duration_s, segments=segs)
        for rec_id, segs in segments.items()
    }


def _flag_rows(table):
    """(recording_id, [CLASSES] flags) per row of a flag table; a silence flag must agree."""
    for line, fields in table.keyed():
        flags = [table.flag(v, line) for v in fields[1:4]]
        if len(fields) == len(_DECISIONS_HEADER) and table.flag(fields[4], line) == any(flags):
            raise table.error("silence flag inconsistent with active classes", line)
        yield fields[0], flags


def dump_decisions(recording_ids, flags, path) -> None:
    """Write [recordings x CLASSES] active flags as CSV: 0/1 per class plus the silence flag."""
    flags = np.asarray(flags, dtype=bool)
    rows = np.column_stack((flags, ~flags.any(axis=1))).astype(int).tolist()
    write_table(path, _DECISIONS_HEADER, ([rid, *row] for rid, row in zip(recording_ids, rows, strict=True)))


def load_decisions(path) -> dict:
    """{recording_id: [CLASSES] flags} from a decisions CSV (see :func:`dump_decisions`),
    or the same without silence: weak labels."""
    return dict(_flag_rows(Table(path, [_FLAGS_HEADER, _DECISIONS_HEADER])))
