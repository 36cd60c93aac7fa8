"""Output checks computed apart from the program.

Nothing here imports soundscapekit. Every check returns a list of
``(name, ok, detail)`` tuples; a check passes only when ``ok`` is true.
The expected values come from the benchmark's own implementations of the
definitions in the program's module docstrings and FORMATS.md, or from
properties of the generated inputs, never from a stored copy of earlier
output.
"""

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from inputs import CLASSES

TARGET_RATE = 32000

#: Relative tolerance of the recomputed indices. ACI and NDSI are sums of
#: many float64 terms taken in another order than the program's; ADI counts
#: cells against a threshold, which the recomputation tests on magnitudes
#: instead of dB, so a cell lying within rounding of the threshold may flip.
INDEX_REL_TOL = {"aci": 1e-9, "adi": 1e-6, "ndsi": 1e-9}


def outcome(name, ok, detail=""):
    return (name, bool(ok), detail)


def fingerprint(path: Path) -> dict:
    """SHA-256 of a file, or of every file under a directory, keyed by relative path."""
    path = Path(path)
    if path.is_file():
        return {".": hashlib.sha256(path.read_bytes()).hexdigest()}
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


def same_bytes(name, a: Path, b: Path):
    fa, fb = fingerprint(a), fingerprint(b)
    differing = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
    return outcome(name, fa and not differing, f"{len(differing)} differing file(s) {differing[:3]}")


# --- indices -----------------------------------------------------------------


def read_indices_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if not rows or rows[0] != ["recording_id", "aci", "adi", "ndsi"]:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    return {r[0]: r[1:] for r in rows[1:]}


def load_at_target(path: Path) -> np.ndarray:
    """16-bit PCM decode and polyphase resampling (Kaiser beta 5) to 32 kHz."""
    rate, data = wavfile.read(path)
    x = data.astype(np.float64) / 32768.0
    if rate == TARGET_RATE:
        return x
    g = math.gcd(rate, TARGET_RATE)
    y = resample_poly(x, TARGET_RATE // g, rate // g, window=("kaiser", 5.0))
    n = round(len(x) * TARGET_RATE / rate)
    return y[:n] if len(y) >= n else np.pad(y, (0, n - len(y)))


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)  # periodic


def own_indices(x: np.ndarray, rate: int = TARGET_RATE) -> dict:
    """ACI, ADI and NDSI straight from their definitions, with a per-frame loop.

    STFT: reflection padding of half a window, 1024-sample periodic Hann
    frames every 320 samples, 1 + n // 320 frames. ACI: per bin,
    sum |a[t+1] - a[t]| / sum a[t], summed over bins. ADI: dBFS against the
    peak bin of a full-scale sine ((bins - 1) / 2), occupancy above -50 dB in
    1 kHz bands (lo, hi] up to 10 kHz, Shannon entropy of the normalised
    occupancies. NDSI: mean periodogram of 1024-sample Hann segments at 50%
    overlap, rectangle-rule band powers over [1, 2) kHz and [2, 8) kHz,
    powers under 1e-9 of the total counted as zero.
    """
    n_win, hop = 1024, 320
    w = _hann(n_win)
    padded = np.pad(x, (n_win // 2, n_win - n_win // 2), mode="reflect")
    n_frames = 1 + len(x) // hop
    mags = np.empty((n_frames, n_win // 2 + 1))
    for i in range(n_frames):
        mags[i] = np.abs(np.fft.rfft(padded[i * hop : i * hop + n_win] * w))
    freqs = np.arange(n_win // 2 + 1) * rate / n_win

    num = np.abs(mags[1:] - mags[:-1]).sum(axis=0)
    den = mags.sum(axis=0)
    aci = float(sum(nu / de for nu, de in zip(num, den) if de > 0))

    level = (n_win // 2) / 2.0 * 10.0 ** (-50.0 / 20.0)
    occ = []
    for b in range(10):
        cols = (freqs > b * 1000.0) & (freqs <= (b + 1) * 1000.0)
        occ.append(float((mags[:, cols] > level).mean()))
    total = sum(occ)
    adi = 0.0 if total == 0 else -sum(o / total * math.log(o / total) for o in occ if o > 0)

    step = n_win // 2
    n_seg = (len(x) - n_win) // step + 1
    acc = np.zeros(n_win // 2 + 1)
    for s in range(n_seg):
        acc += np.abs(np.fft.rfft(x[s * step : s * step + n_win] * w)) ** 2
    psd = acc / n_seg / (rate * (w**2).sum())
    psd[1:-1] *= 2.0
    df = rate / n_win
    band = lambda lo, hi: float(psd[(freqs >= lo) & (freqs < hi)].sum() * df)
    floor = 1e-9 * float(psd.sum() * df)
    anthro, bio = band(1000.0, 2000.0), band(2000.0, 8000.0)
    anthro = anthro if anthro >= floor else 0.0
    bio = bio if bio >= floor else 0.0
    ndsi = None if anthro + bio <= 0 else (bio - anthro) / (bio + anthro)
    return {"aci": aci, "adi": adi, "ndsi": ndsi}


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300) or got == want


def check_indices(csv_path: Path, spec, sample: list) -> list:
    """Analytic values, recomputation of a sample, one row per input file."""
    try:
        rows = read_indices_csv(csv_path)
    except (OSError, ValueError) as exc:
        return [outcome("indices csv readable", False, str(exc))]
    stems = [p.stem for p in spec.files]
    out = [outcome("one row per input file, in file order", list(rows) == stems, f"{len(rows)} rows")]

    for stem, kind in spec.analytic.items():
        aci, adi, ndsi = rows.get(stem, ("", "", "x"))
        if kind == "bio":
            out.append(outcome("bio-band tone gives NDSI = +1", ndsi == "1.0", f"ndsi={ndsi!r}"))
        elif kind == "anthro":
            out.append(outcome("anthro-band tone gives NDSI = -1", ndsi == "-1.0", f"ndsi={ndsi!r}"))
        else:
            out.append(outcome("digital silence gives empty NDSI, ADI 0 and ACI 0",
                              ndsi == "" and adi == "0.0" and aci == "0.0", f"{aci!r} {adi!r} {ndsi!r}"))

    for path in sample:
        got = rows.get(path.stem)
        want = own_indices(load_at_target(path))
        if got is None:
            out.append(outcome(f"{path.stem} recomputed", False, "missing row"))
            continue
        for name, cell in zip(("aci", "adi", "ndsi"), got):
            if want[name] is None:
                ok, detail = cell == "", f"got {cell!r}, want empty"
            else:
                ok = cell != "" and _close(float(cell), want[name], INDEX_REL_TOL[name])
                detail = f"got {cell}, want {want[name]!r}"
            out.append(outcome(f"{path.stem} {name} matches own recomputation", ok, detail))
    return out


# --- mix ---------------------------------------------------------------------

CLIP_SAMPLES = 160000  # 5 s at 32 kHz
PEAK_LIMIT = 0.99 * 32767 + 1  # the mixer's 0.99 peak, plus one LSB of rounding


def check_mix(out_dir: Path, counts: dict) -> list:
    """File counts per combination, WAV format and peak, manifest flags."""
    wavs = sorted(out_dir.glob("*.wav"))
    by_combo = dict(Counter(p.stem.split("_", 1)[1] for p in wavs))  # names are <index>_<combo>.wav
    out = [outcome("files per combination match the request", by_combo == counts, f"{by_combo}")]

    bad_format = []
    for p in wavs:
        rate, data = wavfile.read(p)
        if rate != TARGET_RATE or data.dtype != np.int16 or data.ndim != 1 or len(data) != CLIP_SAMPLES:
            bad_format.append(f"{p.name}: {rate} Hz {data.dtype} {data.shape}")
        elif np.abs(data.astype(np.int32)).max() > PEAK_LIMIT:
            bad_format.append(f"{p.name}: peak {np.abs(data.astype(np.int32)).max()}")
    out.append(outcome("every clip is 16-bit mono 32 kHz, 160000 samples, peak <= 0.99 + 1 LSB",
                      wavs and not bad_format, "; ".join(bad_format[:3])))

    try:
        with open(out_dir / "manifest.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return out + [outcome("manifest readable", False, str(exc))]
    header = ["file", *CLASSES, "silence", "seed", "recipe"]
    out.append(outcome("manifest header", rows[:1] == [header], f"{rows[:1]}"))
    listed = [r[0] for r in rows[1:]]
    out.append(outcome("manifest lists every clip once", listed == [p.name for p in wavs],
                      f"{len(listed)} rows for {len(wavs)} clips"))
    bad_flags = []
    for r in rows[1:]:
        combo = r[0][:-4].split("_", 1)[1]
        want = ["1" if ch in combo else "0" for ch in "ABGS"]
        if r[1:5] != want or not r[5].isdigit() or len(r[6]) != 64:
            bad_flags.append(r[0])
    out.append(outcome("manifest flags match each filename's combination, silence = 1 only for S",
                      not bad_flags, f"{bad_flags[:3]}"))
    return out


# --- tune / evaluate ---------------------------------------------------------


def _merged_total(spans) -> float:
    total, end = 0.0, -math.inf
    for s, e in sorted(spans):
        if s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def own_truth(spec) -> np.ndarray:
    """[recordings x classes] presence after the documented PDA rule (sum measure)."""
    truth = np.zeros((len(spec.recording_ids), len(CLASSES)), dtype=bool)
    for i, segs in enumerate(spec.raw_segments):
        for j, cls in enumerate(CLASSES):
            spans = segs.get(cls, ())
            p = spec.pda.get(cls)
            # both sides are exact: half-second grid sums, and p * 60 is 6.0 or 12.0
            truth[i, j] = bool(spans) and (p is None or _merged_total(spans) >= p * 60.0)
    return truth


def sweep(scores: np.ndarray, truth: np.ndarray):
    """Counts at every candidate threshold, from one sort and cumulative counts.

    Candidates are the distinct scores plus the 0.0 sentinel, descending; a
    recording is predicted positive when its score is strictly greater than
    the threshold.
    """
    order = np.argsort(-scores, kind="stable")
    s, t = scores[order], truth[order]
    cands = np.unique(np.append(scores, 0.0))[::-1]
    # number of scores strictly above each candidate = position of its first occurrence
    above = np.searchsorted(-s, -cands, side="left")
    cum_tp = np.concatenate(([0], np.cumsum(t)))
    tp = cum_tp[above]
    fp = above - tp
    pos = int(t.sum())
    fn = pos - tp
    tn = len(s) - pos - fp
    return cands, tp, fp, fn, tn


def _f1(tp, fp, fn):
    return np.where(tp > 0, 2.0 * tp / np.maximum(2.0 * tp + fp + fn, 1), 0.0)


def best_f1_threshold(scores, truth) -> float:
    cands, tp, fp, fn, _ = sweep(scores, truth)
    return float(cands[int(np.argmax(_f1(tp, fp, fn)))])  # first maximum = highest threshold


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_tune(thr_path: Path, spec) -> list:
    truth = own_truth(spec)
    want = {cls: best_f1_threshold(spec.max_scores[:, j], truth[:, j]) for j, cls in enumerate(CLASSES)}
    try:
        got = json.loads(thr_path.read_text())["thresholds"]["per_class"]
    except (OSError, ValueError, KeyError) as exc:
        return [outcome("threshold fragment readable", False, str(exc))]
    return [outcome(f"tuned {cls} threshold equals own sweep", got.get(cls) == want[cls],
                   f"got {got.get(cls)!r}, want {want[cls]!r}") for cls in CLASSES]


def check_evaluate(report_dir: Path, thr_path: Path, spec) -> list:
    truth = own_truth(spec)
    try:
        thresholds = json.loads(thr_path.read_text())["thresholds"]["per_class"]
        report = json.loads((report_dir / "report.json").read_text())
        decisions_rows = _read_csv(report_dir / "decisions.csv")
        curve_rows = _read_csv(report_dir / "curves.csv")
        strat_rows = _read_csv(report_dir / "stratified.csv")
    except (OSError, ValueError, KeyError) as exc:
        return [outcome("evaluation outputs readable", False, str(exc))]
    pred = spec.max_scores > np.array([thresholds[c] for c in CLASSES])[None, :]
    out = []

    f1s = []
    for j, cls in enumerate(CLASSES):
        p, t = pred[:, j], truth[:, j]
        tp, fp, fn = int((p & t).sum()), int((p & ~t).sum()), int((~p & t).sum())
        want = {"tp": tp, "fp": fp, "fn": fn, "tn": len(p) - tp - fp - fn}
        got = {k: report["per_class"][cls][k] for k in want}
        out.append(outcome(f"{cls} tp/fp/fn/tn equal own counts", got == want, f"got {got}, want {want}"))
        f1s.append(float(_f1(np.array(tp), fp, fn)))
    point = sum(f1s) / len(f1s)
    lo, hi = report["macro_f1_ci"]
    out.append(outcome("macro F1 equals own value", abs(report["macro_f1"] - point) <= 1e-12,
                      f"got {report['macro_f1']!r}, want {point!r}"))
    out.append(outcome("CI lies in [0, 1] and brackets the point estimate",
                      0.0 <= lo <= report["macro_f1"] <= hi <= 1.0, f"[{lo}, {hi}]"))
    out.append(outcome("n_recordings", report["n_recordings"] == len(spec.recording_ids)))

    want_dec = [["recording_id", *CLASSES, "silence"]] + [
        [rid, *(str(int(v)) for v in row), str(int(not row.any()))]
        for rid, row in zip(spec.recording_ids, pred)
    ]
    out.append(outcome("decisions.csv equals own decisions", decisions_rows == want_dec,
                      f"{len(decisions_rows)} rows"))

    want_curves = [["class", "kind", "threshold", "x", "y"]]
    for j, cls in enumerate(CLASSES):
        cands, tp, fp, fn, tn = sweep(spec.max_scores[:, j], truth[:, j])
        precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 1.0)
        recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
        want_curves += [[cls, "PR", repr(float(c)), repr(float(x)), repr(float(y))]
                        for c, x, y in zip(cands, recall, precision)]
        if truth[:, j].any() and not truth[:, j].all():
            tpr, fpr = tp / np.maximum(tp + fn, 1), fp / np.maximum(fp + tn, 1)
            want_curves += [[cls, "ROC", repr(float(c)), repr(float(x)), repr(float(y))]
                            for c, x, y in zip(cands, fpr, tpr)]
    out.append(outcome("curves.csv points equal own sweep", curve_rows == want_curves,
                      f"{len(curve_rows)} rows, want {len(want_curves)}"))

    tallies = {}
    for p_row, t_row in zip(pred, truth):
        for j, cls in enumerate(CLASSES):
            others = "".join(ch for k, ch in enumerate("ABG") if k != j and t_row[k]) or "S"
            tally = tallies.setdefault((cls, others), [0, 0, 0, 0])  # fp, fn, fp_den, fn_den
            if t_row[j]:
                tally[3] += 1
                tally[1] += int(not p_row[j])
            else:
                tally[2] += 1
                tally[0] += int(p_row[j])
    want_strat = [["target", "combination", "kind", "count", "rate"]]
    for cls in CLASSES:
        for combo in sorted(c for k, c in tallies if k == cls):
            fp, fn, fp_den, fn_den = tallies[(cls, combo)]
            want_strat.append([cls, combo, "fp", str(fp), repr(fp / fp_den) if fp_den else ""])
            want_strat.append([cls, combo, "fn", str(fn), repr(fn / fn_den) if fn_den else ""])
    out.append(outcome("stratified.csv counts equal own tallies", strat_rows == want_strat,
                      f"{len(strat_rows)} rows, want {len(want_strat)}"))
    return out
