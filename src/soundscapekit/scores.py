"""Per-window confidence scores: the boundary to any external classifier.

Scores enter the toolkit as CSV (one row per window) and are held as one
table of columns, grouped by recording, which also reads as a sequence of
per-recording matrices. Nothing here runs a model; any command
that produces the documented CSV can feed the decision layer.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._table import Table, coded, floats
from .errors import SchemaError
from .labels import CLASSES, SILENCE

_SPACING_TOL = 1e-9


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: window length and step, both in seconds."""

    window_len_s: float
    step_s: float

    def __post_init__(self):
        if self.window_len_s <= 0:
            raise ValueError(f"window_len_s must be positive, got {self.window_len_s}")
        if not 0 < self.step_s <= self.window_len_s:
            raise ValueError(f"need 0 < step_s <= window_len_s, got step={self.step_s}, window={self.window_len_s}")


def enumerate_windows(duration_s: float, spec: WindowSpec, pad_last: bool = False) -> list:
    """Start times of windows fully contained in [0, duration_s].

    Produces floor((duration - window_len) / step) + 1 starts at multiples of
    the step; a trailing remainder shorter than one window is dropped. With
    pad_last=True a remainder instead yields one extra start on the step grid
    whose (padded) window covers the tail.
    """
    if duration_s < spec.window_len_s:
        raise ValueError(f"duration {duration_s} s shorter than one {spec.window_len_s} s window")
    count = int((duration_s - spec.window_len_s) / spec.step_s + 1e-9) + 1
    if pad_last and (count - 1) * spec.step_s + spec.window_len_s < duration_s - 1e-9:
        count += 1
    return [i * spec.step_s for i in range(count)]


def load_scores(path, window_len_s: float = 10.0, duration_s: float | None = None) -> "ScoreTable":
    """Parse a score CSV into a validated ScoreTable (a sequence of per-recording ScoreMatrix items).

    Expected header: recording_id,window_start_s,anthropophony,biophony,geophony
    with an optional trailing silence column. Rows for a recording may be
    interleaved with other recordings; they are grouped (recordings in order
    of first appearance) and sorted by start. With duration_s, every window
    start must lie inside [0, duration_s).

    When the table breaks a rule, the file is checked again row by row: a bad
    row's error is the first in file order, with its line; else the table's
    error (ascending, spacing) comes with the path alone.
    """
    base = ["recording_id", "window_start_s", *CLASSES]
    table = Table(path, [base, base + [SILENCE]])
    class_order = tuple(table.header[2:])
    codes: dict = {}  # recording_id -> index in order of first appearance
    rec, starts, scores = [np.empty(0, np.intp)], [np.empty(0)], [np.empty((0, len(class_order)))]  # per block
    try:
        for ids, start_cells, *score_cells in table.columns(numbers=range(1, len(table.header))):
            rec.append(coded(ids, codes))
            value = {cell: float(cell) for cell in set(start_cells)}  # a few distinct starts
            starts.append(floats(start_cells, value.__getitem__))
            scores.append(np.column_stack([floats(cells) for cells in score_cells]))
    except (SchemaError, ValueError):
        _raise_first_bad_row(table, duration_s)

    starts, scores = np.concatenate(starts), np.concatenate(scores)
    if duration_s is not None and not (starts < duration_s).all():
        _raise_first_bad_row(table, duration_s)

    rec = np.concatenate(rec)
    order = np.lexsort((starts, rec))
    counts = np.bincount(rec, minlength=len(codes))
    try:
        return ScoreTable(
            recording_ids=list(codes),
            window_starts_s=starts[order],
            window_len_s=window_len_s,
            class_scores=scores[order],
            class_order=class_order,
            offsets=np.cumsum(counts) - counts,
        )
    except ValueError as exc:
        _raise_first_bad_row(table, duration_s, otherwise=str(exc))


def _check_row(table, line, fields, duration_s):
    start, *scores = [table.number(text, line) for text in fields[1:]]
    if start < 0:
        raise table.error(f"window_start_s must be >= 0, got {fields[1]!r}", line)
    if duration_s is not None and start >= duration_s:
        raise table.error(f"window_start_s {fields[1]} is not inside the {duration_s} s recording", line)
    for s in scores:
        if not 0.0 <= s <= 1.0:
            raise table.error(f"score {s} outside [0, 1]", line)


def _raise_first_bad_row(table, duration_s, otherwise="file changed while it was read"):
    """Raise the SchemaError of the first row that breaks a rule, with its line, else one of otherwise."""
    for line, fields in table:
        _check_row(table, line, fields, duration_s)
    raise SchemaError(otherwise, path=table.path)


@dataclass(frozen=True, eq=False)
class ScoreTable(Sequence):
    """Every recording's window scores as columns, rows grouped by recording.

    Recording i owns rows offsets[i] up to offsets[i + 1] (or the end) of
    window_starts_s and class_scores [rows x classes]. Each recording has at
    least one window, scores in [0, 1] (not NaN), and finite starts >= 0 that
    ascend strictly with uniform spacing, or ValueError names the first
    recording in table order that breaks a rule, and its first rule. As a
    sequence it yields one ScoreMatrix per recording, sharing the table's
    arrays; the decision kernels work on the columns directly.
    """

    recording_ids: list
    window_starts_s: np.ndarray
    window_len_s: float
    class_scores: np.ndarray
    class_order: tuple
    offsets: np.ndarray

    def __post_init__(self):
        ids, class_order = self.recording_ids, self.class_order
        if class_order not in (CLASSES, CLASSES + (SILENCE,)):
            raise ValueError(f"unexpected class order {class_order}")
        starts, scores = np.asarray(self.window_starts_s), np.asarray(self.class_scores)
        offsets = np.asarray(self.offsets, np.intp)
        if scores.shape != (len(starts), len(class_order)):
            name = ids[0] if len(ids) == 1 else "score table"
            raise ValueError(
                f"{name}: score matrix shape {scores.shape} does not match "
                f"{len(starts)} windows x {len(class_order)} classes"
            )
        counts = np.diff(offsets, append=len(starts))
        if len(counts) != len(ids) or counts.sum() != len(starts) or (counts < 0).any():
            raise ValueError(f"offsets do not split {len(starts)} windows among {len(ids)} recordings")
        rec = np.repeat(np.arange(len(counts)), counts)  # the recording of each window
        with np.errstate(invalid="ignore", over="ignore"):  # steps between non-finite starts
            steps = np.diff(starts)
            inner = rec[1:] == rec[:-1]  # steps between windows of one recording
            step0 = steps[offsets[rec[:-1]]]  # the first step of each step's recording
            rules = (  # (message, the recordings that break it), in the order a recording is checked
                ("empty score matrix", np.flatnonzero(counts == 0)),
                ("scores outside [0, 1]",
                 rec[np.flatnonzero(~((scores >= 0) & (scores <= 1))) // scores.shape[1]]),
                ("window starts must be finite and >= 0", rec[~(np.isfinite(starts) & (starts >= 0))]),
                ("window starts not strictly ascending", rec[:-1][inner & (steps <= 0)]),
                ("non-uniform window spacing", rec[:-1][inner & (np.abs(steps - step0) > _SPACING_TOL)]),
            )
        firsts = [broken.min(initial=len(counts)) for _, broken in rules]
        i = min(firsts)
        if i < len(ids):
            raise ValueError(f"{ids[i]}: {rules[firsts.index(i)][0]}")

    def __len__(self) -> int:
        return len(self.recording_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            raise TypeError(f"{type(self).__name__} indices must be integers, not slice")
        i = range(len(self))[i]
        a = self.offsets[i]
        b = self.offsets[i + 1] if i + 1 < len(self) else len(self.window_starts_s)
        item = object.__new__(ScoreMatrix)  # rows this table has checked: built without a second check
        item.__dict__.update(
            recording_ids=self.recording_ids[i:i + 1],
            window_starts_s=self.window_starts_s[a:b],
            window_len_s=self.window_len_s,
            class_scores=self.class_scores[a:b],
            class_order=self.class_order,
            offsets=_ONE_RECORDING,
        )
        return item

    @property
    def n_windows(self) -> np.ndarray:
        """Windows per recording."""
        return np.diff(self.offsets, append=len(self.window_starts_s))


_ONE_RECORDING = np.zeros(1, dtype=np.intp)  # the offsets of every ScoreMatrix
_ONE_RECORDING.flags.writeable = False


class ScoreMatrix(ScoreTable):
    """Per-window class confidence scores for one recording: a ScoreTable of one recording.

    class_scores is [windows x classes] with columns in class_order, which is
    always (anthropophony, biophony, geophony) optionally followed by silence.
    """

    def __init__(self, recording_id, window_starts_s, window_len_s, class_scores, class_order=CLASSES):
        starts, scores = np.asarray(window_starts_s, dtype=float), np.asarray(class_scores, dtype=float)
        super().__init__([recording_id], starts, window_len_s, scores, class_order, _ONE_RECORDING)

    @property
    def recording_id(self) -> str:
        return self.recording_ids[0]

    @property
    def n_windows(self) -> int:
        return len(self.window_starts_s)
