"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own reporting.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from soundscapekit.audio_io import AudioClip, write_wav_pcm16
from soundscapekit.cli import main as cli_main
from soundscapekit.decision import (
    AnnotationSet,
    Decision,
    PdaPolicy,
    ThresholdPolicy,
    aggregate,
    apply_pda,
    count_for_fraction,
    decide,
)
from soundscapekit.evaluation import evaluate, macro_f1, pearson, stratify_errors, tune_thresholds
from soundscapekit.features import SCALE_LINEAR, Spectrogram, log_mel, stft_magnitude
from soundscapekit.indices import adi, aci, ndsi, ndsi_from_powers
from soundscapekit.labels import ANTHROPOPHONY, BIOPHONY, CLASSES, GEOPHONY
from soundscapekit.scores import ScoreMatrix, WindowSpec, enumerate_windows
from soundscapekit.synthmix import SourcePool, draw_recipe, render_mix, build_corpus

from conftest import flags, tone

FIXTURES = Path(__file__).parent / "data" / "cst_fixture"


def check(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:>2} {status}  {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_macro_f1_arithmetic():
    a = round(macro_f1([0.678, 0.937, 0.776]), 3)
    b = round(macro_f1([0.649, 0.909, 0.717]), 3)
    check(1, "macro-F1 arithmetic matches reference values", a == 0.797 and b == 0.758,
          f"got {a} and {b}")


def test_criterion_02_window_enumeration():
    six = len(enumerate_windows(60, WindowSpec(10, 10)))
    fifty_one = len(enumerate_windows(60, WindowSpec(10, 1)))
    check(2, "window enumeration yields 6 and 51 windows", six == 6 and fifty_one == 51,
          f"got {six} and {fifty_one}")


def test_criterion_03_count_formula():
    got = (count_for_fraction(0.05, 51), count_for_fraction(0.10, 51), count_for_fraction(0.20, 51))
    check(3, "count-for-fraction matches reference counts", got == (2, 5, 10), f"got {got}")


def test_criterion_04_pda_minimum_and_oracle():
    policy = PdaPolicy({ANTHROPOPHONY: 0.05, GEOPHONY: 0.05})
    min_dur = policy.min_duration_s(GEOPHONY, 60.0)
    min_ok = abs(min_dur - 3.0) < 1e-9

    # 20 synthetic annotation sets with mixed segment lengths, incl. exact boundaries
    rng = np.random.default_rng(404)
    fractions = {ANTHROPOPHONY: 0.25, BIOPHONY: None, GEOPHONY: 0.05}
    pda = PdaPolicy(fractions)
    mismatches = 0
    for i in range(20):
        segments = {}
        for cls in CLASSES:
            segs = []
            for _ in range(int(rng.integers(0, 4))):
                start = round(float(rng.uniform(0, 55)), 2)
                length = round(float(rng.choice([0.5, 1.0, 2.0, 3.0, 5.0, 15.0, 20.0])), 2)
                segs.append((start, min(start + length, 60.0)))
            segments[cls] = segs
        ann = AnnotationSet(f"r{i}", 60.0, segments)
        got = apply_pda(ann, pda).active_classes

        # independent oracle: merge and sum by hand, then apply the duration rule
        expected = set()
        for cls in CLASSES:
            merged = []
            for s, e in sorted(ann.segments[cls]):
                if merged and s <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], e))
                else:
                    merged.append((s, e))
            total = sum(e - s for s, e in merged)
            p = fractions[cls]
            if merged and (p is None or total + 1e-9 >= p * 60.0):
                expected.add(cls)
        mismatches += got != frozenset(expected)

    check(4, "duration-filter minimum is 3 s at p=.05 and filtering matches oracle",
          min_ok and mismatches == 0, f"min={min_dur!r}, mismatches={mismatches}")


def test_criterion_05_decision_equivalences():
    rng = np.random.default_rng(1905)
    counterexamples = 0
    for i in range(1000):
        n_windows = int(rng.integers(1, 13))
        scores = rng.uniform(0, 1, size=(n_windows, 3))
        m = ScoreMatrix(f"m{i}", np.arange(n_windows) * 10.0, 10.0, scores)
        theta = float(rng.uniform(0, 1))

        plain = decide(m, ThresholdPolicy.global_threshold(theta))
        counted = decide(m, ThresholdPolicy.global_threshold(theta, counts={c: 1 for c in CLASSES}))
        agg = aggregate(m)
        by_max = frozenset(c for c in CLASSES if agg[c] > theta)
        if not (plain.active == counted.active == by_max):
            counterexamples += 1

        higher = min(1.0, theta + float(rng.uniform(0.001, 0.4)))
        if not decide(m, ThresholdPolicy.global_threshold(higher)).active <= plain.active:
            counterexamples += 1

        if n_windows >= 2:
            c_lo = int(rng.integers(1, n_windows))
            lo = decide(m, ThresholdPolicy.global_threshold(theta, counts={c: c_lo for c in CLASSES}))
            hi = decide(m, ThresholdPolicy.global_threshold(theta, counts={c: c_lo + 1 for c in CLASSES}))
            if not hi.active <= lo.active:
                counterexamples += 1

    silence_ok = all(
        Decision("r", frozenset(c for k, c in enumerate(CLASSES) if combo & (1 << k))).silence
        == (combo == 0)
        for combo in range(8)
    )
    check(5, "decision-layer equivalences hold on 1000 random matrices",
          counterexamples == 0 and silence_ok, f"counterexamples={counterexamples}")


def test_criterion_06_tuning_matches_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    grid = np.arange(0.0, 1.0 + 0.001, 0.001)
    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(40, 120))
        truth = rng.random(n) < rng.uniform(0.2, 0.8)
        if not truth.any() or truth.all():
            truth[0] = True
            truth[-1] = False
        scores = np.clip(
            np.where(truth, rng.normal(0.65, 0.2, n), rng.normal(0.35, 0.2, n)), 0, 1
        )
        tuned = tune_thresholds({BIOPHONY: scores}, {BIOPHONY: truth})[BIOPHONY]

        def f1_at(theta):
            pred = scores > theta
            tp = int((pred & truth).sum())
            fp = int((pred & ~truth).sum())
            fn = int((~pred & truth).sum())
            return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)

        preds = scores[None, :] > grid[:, None]
        tp = (preds & truth[None, :]).sum(axis=1)
        fp = (preds & ~truth[None, :]).sum(axis=1)
        fn = ((~preds) & truth[None, :]).sum(axis=1)
        with np.errstate(invalid="ignore"):
            grid_f1 = np.where(tp > 0, 2 * tp / np.maximum(2 * tp + fp + fn, 1), 0.0)
        worst_gap = max(worst_gap, float(grid_f1.max() - f1_at(tuned)))
    elapsed = time.perf_counter() - t0
    check(6, "tuned thresholds match the 0.001-grid oracle F1 on 50 fixtures",
          worst_gap <= 1e-12 and elapsed < 10.0, f"worst gap={worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_07_index_correctness():
    def spec_of(values, freqs):
        return Spectrogram(values=np.asarray(values, float), frame_hop_s=0.01,
                           bin_freqs_hz=np.asarray(freqs, float), scale=SCALE_LINEAR)

    ok = True
    details = []

    const = aci(spec_of(np.ones((30, 8)), (np.arange(8) + 1) * 100.0))
    ok &= const == 0.0
    details.append(f"aci_const={const}")

    toy = aci(spec_of([[1.0], [2.0], [3.0]], [100.0]))
    ok &= abs(toy - 1 / 3) <= 1e-9
    details.append(f"aci_toy={toy:.12f}")

    full_scale = 9 / 2.0
    uniform = np.full((10, 10), full_scale * 1e-8)
    uniform[:2, :] = full_scale
    adi_uniform = adi(spec_of(uniform, (np.arange(10) + 1) * 1000.0), 1000, 10_000, -50)
    ok &= abs(adi_uniform - np.log(10)) <= 1e-9

    single = np.full((10, 10), full_scale * 1e-8)
    single[:, 4] = full_scale
    adi_single = adi(spec_of(single, (np.arange(10) + 1) * 1000.0), 1000, 10_000, -50)
    ok &= adi_single == 0.0
    details.append(f"adi={adi_uniform:.9f},{adi_single}")

    ok &= ndsi_from_powers(0.37, 0.37) == 0.0
    ok &= ndsi_from_powers(0.0, 0.9) == 1.0
    ok &= ndsi_from_powers(0.9, 0.0) == -1.0

    x = 0.5 * (tone(1500, 2.0, 32000) + 0.6 * tone(4000, 2.0, 32000))
    clip = AudioClip(samples=x, sample_rate_hz=32000)
    fwd = ndsi(clip, (1000.0, 2000.0), (2000.0, 8000.0))
    rev = ndsi(clip, (2000.0, 8000.0), (1000.0, 2000.0))
    ok &= abs(fwd + rev) <= 1e-9
    details.append(f"ndsi_antisym_gap={abs(fwd + rev):.2e}")

    check(7, "index correctness (ACI toy, ADI entropy, NDSI boundaries)", bool(ok),
          "; ".join(details))


@pytest.fixture(scope="module")
def mixer_pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_pool")
    rng = np.random.default_rng(2718)
    files = {c: [] for c in CLASSES}
    specs = [(48000, 1.5), (32000, 6.0), (16000, 2.5)]
    for ci, cls in enumerate(CLASSES):
        for j, (sr, dur) in enumerate(specs):
            x = 0.4 * tone(220 + 170 * ci + 60 * j, dur, sr) + 0.05 * rng.normal(size=int(sr * dur))
            p = root / f"{cls}_{j}.wav"
            write_wav_pcm16(p, AudioClip(samples=np.clip(x, -1, 1), sample_rate_hz=sr))
            files[cls].append(p)
    return SourcePool(files=files)


def test_criterion_08_mixer_fidelity(mixer_pool, tmp_path):
    t0 = time.perf_counter()
    combos = [
        {ANTHROPOPHONY}, {BIOPHONY}, {GEOPHONY},
        {ANTHROPOPHONY, BIOPHONY}, {ANTHROPOPHONY, GEOPHONY}, {BIOPHONY, GEOPHONY},
        set(CLASSES),
    ]
    worst_snr_err = 0.0
    shape_violations = 0
    for i in range(200):
        recipe = draw_recipe(mixer_pool, combos[i % len(combos)], 10_000 + i)
        mixed, layers = render_mix(recipe, mixer_pool, keep_layers=True)
        if len(mixed.clip.samples) != 160_000 or np.abs(mixed.clip.samples).max() > 1.0:
            shape_violations += 1
        requested = list(recipe.layer_snr_db)
        if recipe.noise is not None:
            requested.append(recipe.noise.snr_db)
        rms = lambda v: float(np.sqrt(np.mean(np.asarray(v) ** 2)))
        for k in range(1, len(layers)):
            achieved = 20 * np.log10(rms(np.sum(layers[:k], axis=0)) / rms(layers[k]))
            worst_snr_err = max(worst_snr_err, abs(achieved - requested[k - 1]))

    counts = {"A": 2, "B": 2, "G": 2, "AB": 2, "AG": 2, "BG": 2, "ABG": 2, "S": 2}
    m1 = build_corpus(mixer_pool, counts, 777, tmp_path / "c1", jobs=1)
    m2 = build_corpus(mixer_pool, counts, 777, tmp_path / "c2", jobs=1)
    m3 = build_corpus(mixer_pool, counts, 777, tmp_path / "c3", jobs=4)

    def digests(manifest):
        d = Path(manifest).parent
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(d.iterdir())}

    identical = digests(m1) == digests(m2) == digests(m3)
    elapsed = time.perf_counter() - t0
    check(8, "mixer SNR within 0.5 dB over 200 recipes; corpora byte-identical",
          worst_snr_err <= 0.5 and shape_violations == 0 and identical and elapsed < 60.0,
          f"worst SNR err={worst_snr_err:.3f} dB, {elapsed:.1f}s")


def test_criterion_09_feature_shapes():
    clip = AudioClip(samples=np.random.default_rng(9).normal(size=320_000) * 0.1, sample_rate_hz=32000)
    spec = stft_magnitude(clip, window_len=1024, hop=320)
    mel = log_mel(spec, n_mels=64)
    ok = spec.values.shape == (1001, 513) and mel.values.shape == (1001, 64)
    check(9, "feature shapes are 1001x513 magnitude and 1001x64 log-mel", ok,
          f"got {spec.values.shape} and {mel.values.shape}")


def test_criterion_10_evaluation_plumbing():
    # hand-enumerated 20-recording fixture (repeated blocks keep the tally arithmetic obvious)
    blocks = [
        ({"biophony"}, {"anthropophony", "biophony"}, 4),        # A FP under B
        ({"biophony", "geophony"}, {"biophony"}, 3),             # G FN under B
        (set(), {"geophony"}, 2),                                # G FP under S
        ({"anthropophony", "biophony", "geophony"}, {"biophony", "geophony"}, 2),  # A FN under BG
        ({"anthropophony"}, {"anthropophony"}, 3),
        ({"geophony"}, {"biophony", "geophony"}, 2),             # B FP under G
        ({"anthropophony", "biophony"}, {"anthropophony"}, 2),   # B FN under A
        (set(), set(), 2),
    ]
    pred = flags(pred_set for _, pred_set, n in blocks for _ in range(n))
    true = flags(true_set for true_set, _, n in blocks for _ in range(n))
    assert len(pred) == len(true) == 20

    strat = stratify_errors(pred, true)
    expected = {
        ANTHROPOPHONY: {"fp": {"B": 4}, "fn": {"BG": 2}},
        BIOPHONY: {"fp": {"G": 2}, "fn": {"A": 2}},
        GEOPHONY: {"fp": {"S": 2}, "fn": {"B": 3}},
    }
    tallies_ok = True
    for cls, exp in expected.items():
        got_fp = {k: v.fp_count for k, v in strat.per_class[cls].items() if v.fp_count}
        got_fn = {k: v.fn_count for k, v in strat.per_class[cls].items() if v.fn_count}
        tallies_ok &= got_fp == exp["fp"] and got_fn == exp["fn"]
        tallies_ok &= strat.total_fp(cls) == sum(exp["fp"].values())
        tallies_ok &= strat.total_fn(cls) == sum(exp["fn"].values())

    bracket_ok = True
    for seed in range(10):
        report = evaluate(pred, true, bootstrap_resamples=300, bootstrap_seed=seed)
        lo, hi = report.macro_f1_ci
        bracket_ok &= lo <= report.macro_f1 <= hi

    r = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    check(10, "stratified tallies partition errors; CI brackets; Pearson r=1 on linear pairs",
          tallies_ok and bracket_ok and r == 1.0, f"r={r}")


def test_criterion_11_end_to_end_threshold_reproduction(tmp_path):
    runner = CliRunner()
    out = tmp_path / "thresholds.json"
    result = runner.invoke(
        cli_main,
        ["tune", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"), "--out", str(out)],
        catch_exceptions=False,
    )
    tuned = json.loads(out.read_text())["thresholds"]["per_class"]
    targets = {ANTHROPOPHONY: 0.722, BIOPHONY: 0.920, GEOPHONY: 0.571}
    gaps = {c: abs(tuned[c] - targets[c]) for c in targets}
    tune_ok = result.exit_code == 0 and all(g <= 0.001 for g in gaps.values())

    report_dir = tmp_path / "report"
    result2 = runner.invoke(
        cli_main,
        ["evaluate", str(FIXTURES / "scores.csv"), str(FIXTURES / "annotations.csv"),
         "--thresholds", str(out), "--out", str(report_dir)],
        catch_exceptions=False,
    )
    eval_ok = result2.exit_code == 0 and (report_dir / "report.json").exists()
    check(11, "tune recovers class thresholds (.722/.920/.571) within 0.001",
          tune_ok and eval_ok, f"tuned={ {c: round(v, 4) for c, v in tuned.items()} }")
