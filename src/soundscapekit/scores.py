"""Per-window confidence scores: the boundary to any external classifier.

Scores enter the toolkit as CSV (one row per window) and are held as one
table of columns, grouped by recording, which also reads as a sequence of
per-recording matrices. Nothing here runs a model; any command
that produces the documented CSV can feed the decision layer.
"""

from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._table import Table
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


@dataclass
class ScoreMatrix:
    """Per-window class confidence scores for one recording.

    class_scores is [windows x classes] with columns in class_order, which is
    always (anthropophony, biophony, geophony) optionally followed by silence.
    """

    recording_id: str
    window_starts_s: np.ndarray
    window_len_s: float
    class_scores: np.ndarray
    class_order: tuple = CLASSES

    def __post_init__(self):
        self.window_starts_s = np.asarray(self.window_starts_s, dtype=float)
        self.class_scores = np.asarray(self.class_scores, dtype=float)
        if self.class_order not in (CLASSES, CLASSES + (SILENCE,)):
            raise ValueError(f"unexpected class order {self.class_order}")
        if self.class_scores.ndim != 2 or self.class_scores.shape != (
            len(self.window_starts_s),
            len(self.class_order),
        ):
            raise ValueError(
                f"{self.recording_id}: score matrix shape {self.class_scores.shape} does not match "
                f"{len(self.window_starts_s)} windows x {len(self.class_order)} classes"
            )
        if len(self.window_starts_s) == 0:
            raise ValueError(f"{self.recording_id}: empty score matrix")
        if np.any(self.class_scores < 0) or np.any(self.class_scores > 1):
            raise ValueError(f"{self.recording_id}: scores outside [0, 1]")
        diffs = np.diff(self.window_starts_s)
        if np.any(diffs <= 0):
            raise ValueError(f"{self.recording_id}: window starts not strictly ascending")
        if len(diffs) > 1 and np.any(np.abs(diffs - diffs[0]) > _SPACING_TOL):
            raise ValueError(f"{self.recording_id}: non-uniform window spacing")

    @classmethod
    def _view(cls, recording_id, window_starts_s, window_len_s, class_scores, class_order) -> "ScoreMatrix":
        """A matrix over arrays a ScoreTable has already checked; skips __post_init__."""
        m = cls.__new__(cls)
        m.__dict__.update(
            recording_id=recording_id,
            window_starts_s=window_starts_s,
            window_len_s=window_len_s,
            class_scores=class_scores,
            class_order=class_order,
        )
        return m

    @property
    def n_windows(self) -> int:
        return len(self.window_starts_s)

    @property
    def offsets(self) -> np.ndarray:
        """First row of each recording, as in ScoreTable: the one recording starts at row 0."""
        return np.zeros(1, dtype=np.intp)

    def scores_for(self, class_name: str) -> np.ndarray:
        return self.class_scores[:, self.class_order.index(class_name)]


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
    """Parse a score CSV into a validated ScoreTable (a sequence of per-recording ScoreMatrix views).

    Expected header: recording_id,window_start_s,anthropophony,biophony,geophony
    with an optional trailing silence column. Rows for a recording may be
    interleaved with other recordings; they are grouped (recordings in order
    of first appearance) and sorted by start. With duration_s, every window
    start must lie inside [0, duration_s).

    The rows are checked in bulk; when a check fails, the file is checked
    again row by row (or recording by recording) so the error is the first
    one in file order, with its line.
    """
    base = ["recording_id", "window_start_s", *CLASSES]
    table = Table(path, [base, base + [SILENCE]])
    class_order = tuple(table.header[2:])
    codes: dict = {}  # recording_id -> index in order of first appearance
    rec, values = array("q"), array("d")  # per row: recording index; start and scores, flat
    try:
        for _, fields in table:
            rec.append(codes.setdefault(fields[0], len(codes)))
            values.extend(map(float, fields[1:]))
    except (SchemaError, ValueError):
        _raise_first_bad_row(table, duration_s)

    rows = np.array(values).reshape(-1, 1 + len(class_order))
    starts, scores = rows[:, 0], rows[:, 1:]
    if not (
        np.isfinite(starts).all()
        and (starts >= 0).all()
        and (duration_s is None or (starts < duration_s).all())
        and (scores >= 0).all()
        and (scores <= 1).all()
    ):
        _raise_first_bad_row(table, duration_s)

    rec = np.array(rec)
    order = np.lexsort((starts, rec))
    counts = np.bincount(rec, minlength=len(codes))
    loaded = ScoreTable(
        recording_ids=list(codes),
        window_starts_s=starts[order],
        window_len_s=window_len_s,
        class_scores=scores[order],
        class_order=class_order,
        offsets=np.cumsum(counts) - counts,
    )
    loaded._check_windows(path)
    return loaded


def _check_row(table, line, fields, duration_s):
    start, *scores = table.numbers(fields[1:], line)
    if start < 0:
        raise table.error(f"window_start_s must be >= 0, got {fields[1]!r}", line)
    if duration_s is not None and start >= duration_s:
        raise table.error(f"window_start_s {fields[1]} is not inside the {duration_s} s recording", line)
    for s in scores:
        if not 0.0 <= s <= 1.0:
            raise table.error(f"score {s} outside [0, 1]", line)


def _raise_first_bad_row(table, duration_s):
    """Raise the SchemaError of the first row that breaks a rule, with its line."""
    for line, fields in table:
        _check_row(table, line, fields, duration_s)
    raise SchemaError("file changed while it was read", path=table.path)


@dataclass(frozen=True, eq=False)
class ScoreTable(Sequence):
    """Every recording's window scores as columns, rows grouped by recording.

    Recording i owns rows offsets[i] up to offsets[i + 1] (or the end) of
    window_starts_s and class_scores [rows x classes], its windows in
    ascending order. As a sequence it yields one ScoreMatrix view per
    recording; the decision kernels work on the columns directly.
    """

    recording_ids: list
    window_starts_s: np.ndarray
    window_len_s: float
    class_scores: np.ndarray
    class_order: tuple
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.recording_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        a = self.offsets[i]
        b = self.offsets[i + 1] if i + 1 < len(self) else len(self.window_starts_s)
        return ScoreMatrix._view(
            self.recording_ids[i], self.window_starts_s[a:b], self.window_len_s, self.class_scores[a:b], self.class_order
        )

    @property
    def n_windows(self) -> np.ndarray:
        """Windows per recording."""
        return np.diff(self.offsets, append=len(self.window_starts_s))

    def _check_windows(self, path) -> None:
        """Raise the first recording's ScoreMatrix error if its starts do not
        ascend strictly with uniform spacing."""
        diffs = np.diff(self.window_starts_s)
        first = np.repeat(np.append(diffs, 0.0)[self.offsets], self.n_windows)[:-1]
        bad = (diffs <= 0) | (np.abs(diffs - first) > _SPACING_TOL)
        bad[self.offsets[1:] - 1] = False  # differences across recordings
        if bad.any():
            i = int(np.searchsorted(self.offsets, np.argmax(bad), side="right")) - 1
            m = self[i]
            try:
                ScoreMatrix(m.recording_id, m.window_starts_s, m.window_len_s, m.class_scores, m.class_order)
            except ValueError as exc:
                raise SchemaError(str(exc), path=path) from None
