"""Seeded synthetic inputs for the three benchmark workloads.

Everything here depends only on numpy/scipy and the workload seed; the
program under test never sees this module, only the files it writes. The
make-up of each input set (file counts, durations, sample rates, recording
counts) is fixed, and the seed varies only the content, so run time does
not swing with the seed.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import lfilter

CLASSES = ("anthropophony", "biophony", "geophony")

# --- indices_batch -----------------------------------------------------------

RECORDING_S = 60.0
#: Sample rates of the ordinary recordings: most need resampling to 32 kHz.
RECORDING_RATES = (44100, 48000, 44100, 48000, 44100, 32000, 32000)
ANALYTIC_RATE = 48000
#: Bin-centred for a 1024-point frame at 32 kHz (bins 128 and 40), so the
#: Hann window confines each tone to three bins of its own band.
BIO_TONE_HZ = 4000.0
ANTHRO_TONE_HZ = 1250.0
TONE_AMPLITUDE = 0.9
ANALYTIC = {"zz_bio_tone": "bio", "zz_anthro_tone": "anthro", "zz_silence": "silence"}


def _pcm16(x: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(x * 32767.0), -32768, 32767).astype(np.int16)


def _soundscape(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Background noise, low-frequency rumble, bird-like chirps and a few tones."""
    t = np.arange(n) / rate
    bed = lfilter([0.05], [1.0, -0.95], rng.standard_normal(n))
    rumble = lfilter([0.01], [1.0, -0.99], rng.standard_normal(n))
    rumble *= 1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.05, 0.3) * t)
    x = rng.uniform(0.2, 1.0) * bed + rng.uniform(0.2, 1.5) * rumble
    for _ in range(int(rng.integers(20, 60))):
        dur = rng.uniform(0.08, 0.4)
        m = int(dur * rate)
        start = int(rng.integers(0, n - m))
        f0, f1 = rng.uniform(2000.0, 8000.0, size=2)
        tt = np.arange(m) / rate
        phase = 2 * np.pi * (f0 * tt + (f1 - f0) * tt**2 / (2 * dur))
        x[start : start + m] += rng.uniform(0.05, 0.5) * np.hanning(m) * np.sin(phase)
    for _ in range(int(rng.integers(0, 3))):
        x += rng.uniform(0.01, 0.1) * np.sin(2 * np.pi * rng.uniform(100.0, 12000.0) * t)
    return x / np.abs(x).max() * rng.uniform(0.3, 0.9)


@dataclass
class IndicesInputs:
    audio_dir: Path
    files: list  # every WAV in the directory, sorted as the CLI sorts them
    analytic: dict  # stem -> "bio" | "anthro" | "silence"


def make_indices_inputs(seed: int, root: Path) -> IndicesInputs:
    audio_dir = root / "recordings"
    audio_dir.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for i, rate in enumerate(RECORDING_RATES):
        n = int(RECORDING_S * rate)
        wavfile.write(audio_dir / f"rec_{i:03d}.wav", rate, _pcm16(_soundscape(rng, n, rate)))

    n = int(RECORDING_S * ANALYTIC_RATE)
    t = np.arange(n) / ANALYTIC_RATE
    tones = {"zz_bio_tone": BIO_TONE_HZ, "zz_anthro_tone": ANTHRO_TONE_HZ}
    for stem, freq in tones.items():
        x = TONE_AMPLITUDE * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        wavfile.write(audio_dir / f"{stem}.wav", ANALYTIC_RATE, _pcm16(x))
    wavfile.write(audio_dir / "zz_silence.wav", ANALYTIC_RATE, np.zeros(n, dtype=np.int16))
    return IndicesInputs(audio_dir, sorted(audio_dir.glob("*.wav")), dict(ANALYTIC))


# --- mix_corpus --------------------------------------------------------------

#: Per class: (duration s, sample rate) of each pool source. Some are shorter
#: than the 5 s clip (looped with a crossfade), some longer (cropped).
POOL_LAYOUT = ((2.5, 22050), (3.5, 44100), (4.0, 48000), (6.0, 22050), (7.0, 44100), (8.0, 48000))
MIX_COMBOS = ("A", "B", "G", "S", "AB", "AG", "BG", "ABG")
MIX_PER_COMBO = 25


def _pool_source(rng, cls: str, n: int, rate: int) -> np.ndarray:
    t = np.arange(n) / rate
    if cls == "anthropophony":  # engine hum: harmonics of a low fundamental plus noise
        f0 = rng.uniform(40.0, 120.0)
        x = sum(np.sin(2 * np.pi * k * f0 * t) / k for k in range(1, 8))
        x = x + 0.3 * lfilter([0.1], [1.0, -0.9], rng.standard_normal(n))
    elif cls == "biophony":  # repeated chirps
        x = 0.01 * rng.standard_normal(n)
        for start in range(0, n - rate // 4, int(rate * rng.uniform(0.3, 0.8))):
            m = rate // 4
            f0, f1 = rng.uniform(2500.0, 7000.0, size=2)
            tt = np.arange(m) / rate
            x[start : start + m] += np.hanning(m) * np.sin(2 * np.pi * (f0 * tt + (f1 - f0) * tt**2 * 2))
    else:  # wind/rain: low-passed noise with slow gusts
        x = lfilter([0.2], [1.0, -0.8], rng.standard_normal(n))
        x *= 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.1, 0.5) * t)
    return x / np.abs(x).max() * rng.uniform(0.3, 0.95)


@dataclass
class MixInputs:
    pool_manifest: Path
    counts: dict  # combo -> clips per run
    seed: int  # master seed passed to the mix command


def make_mix_inputs(seed: int, root: Path) -> MixInputs:
    pool_dir = root / "pool"
    pool_dir.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    rows = []
    for cls in CLASSES:
        for j, (dur, rate) in enumerate(POOL_LAYOUT):
            name = f"{cls[:5]}_{j}.wav"
            wavfile.write(pool_dir / name, rate, _pcm16(_pool_source(rng, cls, int(dur * rate), rate)))
            rows.append((name, cls))
    manifest = pool_dir / "pool.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("file", "class"))
        w.writerows(rows)
    mix_seed = int(np.random.SeedSequence([seed, 3]).generate_state(1)[0])
    return MixInputs(manifest, {c: MIX_PER_COMBO for c in MIX_COMBOS}, mix_seed)


# --- tune_evaluate -----------------------------------------------------------

N_RECORDINGS = 10000
WINDOWS = 6  # 60 s recordings, 10 s windows, 10 s step (the config defaults)
WINDOW_S = 10.0
#: Duration-based annotation filtering: anthropophony and geophony must be
#: annotated for at least p * 60 s to count; biophony is never filtered.
PDA_FRACTIONS = {"anthropophony": 0.1, "geophony": 0.2}
CLASS_PRIOR = {"anthropophony": 0.4, "biophony": 0.5, "geophony": 0.35}


@dataclass
class TuneInputs:
    scores: Path
    annotations: Path
    config: Path
    recording_ids: list
    raw_segments: list  # per recording: {class: [(start, end), ...]} before filtering
    max_scores: np.ndarray  # [recordings x classes], the per-class window maximum
    pda: dict = field(default_factory=lambda: dict(PDA_FRACTIONS))


def make_tune_inputs(seed: int, root: Path) -> TuneInputs:
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    ids = [f"rec{i:06d}" for i in range(N_RECORDINGS)]
    raw_segments = []
    ann_rows = []
    for rid in ids:
        segs = {}
        for cls in CLASSES:
            if rng.random() >= CLASS_PRIOR[cls]:
                continue
            # half-second grid keeps every duration sum exact in binary floats
            spans = []
            for _ in range(int(rng.integers(1, 4))):
                start = 0.5 * int(rng.integers(0, 118))
                end = min(60.0, start + 0.5 * int(rng.integers(1, 30)))
                spans.append((start, end))
                ann_rows.append((rid, cls, repr(start), repr(end)))
            segs[cls] = spans
        raw_segments.append(segs)

    # Scores: positives (annotated at all) skew high, negatives low, with overlap.
    present = np.array([[cls in s for cls in CLASSES] for s in raw_segments])
    hi = rng.beta(5.0, 2.0, size=(N_RECORDINGS, WINDOWS, len(CLASSES)))
    lo = rng.beta(2.0, 5.0, size=(N_RECORDINGS, WINDOWS, len(CLASSES)))
    scores = np.where(present[:, None, :], hi, lo)

    scores_path = root / "scores.csv"
    with open(scores_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("recording_id", "window_start_s", *CLASSES))
        for rid, mat in zip(ids, scores):
            for k, row in enumerate(mat.tolist()):
                w.writerow((rid, repr(k * WINDOW_S), *map(repr, row)))

    ann_path = root / "annotations.csv"
    with open(ann_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("recording_id", "class", "start_s", "end_s"))
        w.writerows(ann_rows)

    bootstrap_seed = int(rng.integers(0, 2**31))
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "seed": bootstrap_seed,
        "recording_duration_s": RECORDING_S,
        "pda": dict(PDA_FRACTIONS),
        "pda_measure": "sum",
    }, indent=2) + "\n")
    return TuneInputs(scores_path, ann_path, config_path, ids, raw_segments, scores.max(axis=1))
