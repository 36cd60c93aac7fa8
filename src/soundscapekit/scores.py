"""Per-window confidence scores: the boundary to any external classifier.

Scores enter the toolkit as CSV (one row per window) and are grouped into
immutable per-recording matrices. Nothing here runs a model; any command
that produces the documented CSV can feed the decision layer.
"""

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

    @property
    def n_windows(self) -> int:
        return len(self.window_starts_s)

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


def load_scores(path, window_len_s: float = 10.0) -> list:
    """Parse a score CSV into one validated ScoreMatrix per recording.

    Expected header: recording_id,window_start_s,anthropophony,biophony,geophony
    with an optional trailing silence column. Rows for a recording may be
    interleaved with other recordings; they are grouped and sorted by start.
    """
    base = ["recording_id", "window_start_s", *CLASSES]
    table = Table(path, [base, base + [SILENCE]])
    class_order = tuple(table.header[2:])
    by_id: dict = {}
    for line, fields in table:
        start, *scores = table.numbers(fields[1:], line)
        if start < 0:
            raise table.error(f"window_start_s must be >= 0, got {fields[1]!r}", line)
        for s in scores:
            if not 0.0 <= s <= 1.0:
                raise table.error(f"score {s} outside [0, 1]", line)
        by_id.setdefault(fields[0], []).append((start, scores))

    matrices = []
    for rec_id, rows in by_id.items():
        rows.sort(key=lambda r: r[0])
        try:
            matrices.append(
                ScoreMatrix(
                    recording_id=rec_id,
                    window_starts_s=np.array([r[0] for r in rows]),
                    window_len_s=window_len_s,
                    class_scores=np.array([r[1] for r in rows]),
                    class_order=class_order,
                )
            )
        except ValueError as exc:
            raise SchemaError(str(exc), path=path) from None
    return matrices
