"""Recording-level multi-label decisions from per-window scores.

Four strategies are supported: a global threshold on the max window score,
class-specific thresholds, duration-based annotation filtering (dropping
classes whose annotated time falls below a fraction of the recording
length), and count-based thresholding (requiring several windows above the
class threshold). "Exceeds" is strict everywhere: a score equal to the
threshold does not activate a class.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from ._table import Table, coded, floats, write_table
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
        cell, starts, ends = _segment_columns(self.segments)
        bad = np.flatnonzero(~_inside(starts, ends, self.duration_s))  # in class order, then as given
        if len(bad):
            raise ValueError(f"{self.recording_id}: {_outside(starts[bad[0]], ends[bad[0]], self.duration_s)}")
        object.__setattr__(self, "segments", _split(*_merged(cell, starts, ends), 1)[0])

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


def _inside(start, end, duration_s):
    """0 <= start < end <= duration_s, within _DUR_TOL: a bool, or flags where start and end are arrays (NaN fails)."""
    return (0 <= start) & (start < end) & (end <= duration_s + _DUR_TOL)


def _outside(start, end, duration_s) -> str:
    return f"segment ({start}, {end}) outside [0, {duration_s}]"


def _segment_columns(segments):
    """(cell, start, end) columns of {class: [(start, end), ...]}, cell being the class's index in CLASSES."""
    rows = [(k, start, end) for k, cls in enumerate(CLASSES) for start, end in segments.get(cls, ())]
    cell, starts, ends = np.array(rows, float).reshape(-1, 3).T
    return cell.astype(np.intp), starts, ends


def _merged(cell, starts, ends):
    """Each cell's segments merged: (cell, start, end) columns, sorted by cell and start as sorted() orders pairs."""
    order = np.lexsort((ends, starts, cell))
    cell, starts, ends = cell[order], starts[order], ends[order]
    # the running max of end within each cell, taken over ranks of the ends so that it stays exact
    values, rank = np.unique(ends, return_inverse=True)
    reach = values[np.maximum.accumulate(cell * len(values) + rank) - cell * len(values)]
    opens = np.ones(len(cell), dtype=bool)  # the segment starts a merged one
    opens[1:] = (cell[1:] != cell[:-1]) | (starts[1:] > reach[:-1])
    closes = np.ones(len(cell), dtype=bool)
    closes[:-1] = opens[1:]
    return cell[opens], starts[opens], reach[closes]


def _split(cell, starts, ends, recordings):
    """Merged (cell, start, end) columns as one {class: ((start, end), ...)} per recording, cell being
    recording * len(CLASSES) + class."""
    bounds = np.searchsorted(cell, range(recordings * len(CLASSES) + 1)).tolist()
    pairs = list(zip(starts.tolist(), ends.tolist()))
    cells = [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [dict(zip(CLASSES, cells[k:k + len(CLASSES)])) for k in range(0, len(cells), len(CLASSES))]


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
    return _kept(*_segment_columns(ann.segments), 1, ann.duration_s, policy)[0].tolist()


def _kept(cell, starts, ends, recordings, duration_s, policy):
    """The PDA rule over merged segments: [recordings x CLASSES] flags, cell being recording * len(CLASSES) + class.

    The sum adds a cell's lengths one by one in the given (ascending start) order."""
    cells, lengths = recordings * len(CLASSES), ends - starts
    if policy.measure == "sum":
        measured = np.bincount(cell, weights=lengths, minlength=cells)
    else:
        measured = np.zeros(cells)
        np.maximum.at(measured, cell, lengths)
    min_dur = [policy.min_duration_s(c, duration_s) for c in CLASSES]
    long_enough = measured.reshape(-1, len(CLASSES)) + _DUR_TOL >= [-np.inf if m is None else m for m in min_dur]
    return (np.bincount(cell, minlength=cells) > 0).reshape(-1, len(CLASSES)) & long_enough


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
_SEGMENTS_HEADER = ["recording_id", "class", "start_s", "end_s"]


def load_annotations(path, duration_s: float) -> dict:
    """Load an annotation CSV (strong or weak schema) into {recording_id: AnnotationSet}.

    Strong schema: recording_id,class,start_s,end_s (one row per segment).
    Weak schema: recording_id,anthropophony,biophony,geophony (0/1 flags).
    Recordings absent from a strong file simply have no annotated segments.
    Either table is read as pda_truth reads it, in one read and one merge.
    """
    codes = {}  # recording_id -> code, in order of first appearance
    segments = _split(*_read_truth(Table(path, [_SEGMENTS_HEADER, _FLAGS_HEADER]), codes, duration_s), len(codes))
    anns = {rid: object.__new__(AnnotationSet) for rid in codes}  # merged and checked: built without a second merge
    for ann, rid, segs in zip(anns.values(), codes, segments):
        ann.__dict__.update(recording_id=rid, duration_s=duration_s, segments=segs)
    return anns


def pda_truth(path, recording_ids, duration_s: float, policy: PdaPolicy) -> np.ndarray:
    """The PDA-filtered truth of an annotation CSV, [recordings x CLASSES] flags in recording_ids order.

    Equals load_annotations plus pda_kept per recording, from the same column read and merge:
    a recording without rows has no class. A repeated id in recording_ids is a ValueError. The first
    row in file order that breaks a rule is an error at its line; in a table without one, so is the
    first row of a recording not in recording_ids.
    """
    codes = {rid: k for k, rid in enumerate(recording_ids)}  # recording_id -> row; the other ids follow
    if len(codes) < len(recording_ids):
        raise ValueError(f"recording id {next(r for k, r in enumerate(recording_ids) if codes[r] != k)!r} repeated")
    table = Table(path, [_SEGMENTS_HEADER, _FLAGS_HEADER])
    truth = _read_truth(table, codes, duration_s)
    unscored = list(codes)[len(recording_ids):]  # in file order
    if unscored:
        line = next(line for line, fields in table if fields[0] == unscored[0])
        raise table.error(f"recording {unscored[0]!r} has no scores", line)
    return _kept(*truth, len(codes), duration_s, policy)


def _read_truth(table, codes, duration_s):
    """The merged (cell, start, end) columns of an annotation table of either schema from one read, cell being
    codes[recording_id] * len(CLASSES) + class; codes gives each id it lacks the next code, in order of appearance.
    A weak table's flagged class is one segment (0, duration_s). A table with a row needs a positive duration_s:
    else ValueError, naming the first row's id."""
    first = duration_s <= 0 and next(iter(table), None)
    if first:
        raise ValueError(f"{first[1][0]}: duration must be positive")
    if table.header == _FLAGS_HEADER:
        rows = list(_flag_rows(table))
        row, cls = np.nonzero(np.array([flags for _, flags in rows], bool).reshape(-1, len(CLASSES)))
        cell = coded([rid for rid, _ in rows], codes)[row] * len(CLASSES) + cls
        return _merged(cell, np.zeros(len(cell)), np.full(len(cell), float(duration_s)))
    class_codes = {cls: k for k, cls in enumerate(CLASSES)}
    group, bounds = [np.empty(0, np.intp)], [np.empty((2, 0))]  # per block: each row's cell; its start and end
    with table.checked(lambda line, fields: _segment_row(table, line, fields, duration_s)):
        for ids, classes, start_cells, end_cells in table.columns(numbers=(2, 3)):
            cls = np.fromiter(map(class_codes.__getitem__, classes), np.intp, len(classes))  # KeyError: unknown
            group.append(coded(ids, codes) * len(CLASSES) + cls)
            bounds.append(np.array([floats(start_cells), floats(end_cells)]))
        starts, ends = np.concatenate(bounds, axis=1)
        if not _inside(starts, ends, duration_s).all():
            raise ValueError(f"segments outside [0, {duration_s}]")
    return _merged(np.concatenate(group), starts, ends)


def _segment_row(table, line, fields, duration_s):
    """The first-bad-row check of a strong table: a row that breaks a rule is an error at its line."""
    _, cls, start, end = fields
    if cls not in CLASSES:
        raise table.error(f"unknown class {cls!r}", line)
    start, end = table.number(start, line), table.number(end, line)
    if not _inside(start, end, duration_s):
        raise table.error(_outside(start, end, duration_s), line)


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
    columns = np.column_stack((flags, ~flags.any(axis=1))).astype(int).T
    write_table(path, _DECISIONS_HEADER, [[recording_ids, *columns]])


def load_decisions(path) -> dict:
    """{recording_id: [CLASSES] flags} from a decisions CSV (see :func:`dump_decisions`),
    or the same without silence: weak labels."""
    return dict(_flag_rows(Table(path, [_FLAGS_HEADER, _DECISIONS_HEADER])))
