import hashlib
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundscapekit import synthmix
from soundscapekit.audio_io import AudioClip, decode_wav, resample, write_wav_pcm16
from soundscapekit.labels import ANTHROPOPHONY, BIOPHONY, CLASSES, COMBOS, GEOPHONY, SILENCE_COMBO, classes_for_combo
from soundscapekit.synthmix import (
    MixedClip,
    MixRecipe,
    NoisePlan,
    SilenceRecipe,
    SourcePool,
    build_corpus,
    draw_recipe,
    draw_silence_recipe,
    recipe_digest,
    render_mix,
    render_silence,
    render_silence_recipe,
    synth_noise,
)

from conftest import tone


def rms(x):
    return np.sqrt(np.mean(np.asarray(x) ** 2))


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """Small but heterogeneous source pool: mixed rates, lengths, channels."""
    root = tmp_path_factory.mktemp("pool")
    rng = np.random.default_rng(99)
    files = {c: [] for c in CLASSES}
    specs = [(48000, 2.0), (32000, 6.5), (16000, 3.0)]
    for ci, cls in enumerate(CLASSES):
        for j, (sr, dur) in enumerate(specs):
            x = 0.4 * tone(250 + 130 * ci + 90 * j, dur, sr) + 0.05 * rng.normal(size=int(sr * dur))
            p = root / f"{cls}_{j}.wav"
            write_wav_pcm16(p, AudioClip(samples=np.clip(x, -1, 1), sample_rate_hz=sr))
            files[cls].append(p)
    return SourcePool(files=files)


def eager_render(recipe, pool, normalization):
    """Reference mixer: decode every layer afresh, prepare all layers first, scale out of place."""
    n = round(recipe.target_len_s * recipe.target_rate_hz)
    prep_rng = synthmix._rng(recipe.seed, synthmix._STREAM_LAYER_PREP)
    prepared = []
    for (cls, idx), gain_db in zip(recipe.layers, recipe.per_file_gain_db):
        clip = resample(decode_wav(pool.files[cls][idx]), recipe.target_rate_hz)
        x = synthmix._fit_length(clip.samples, n, recipe.target_rate_hz, prep_rng)
        prepared.append(x * 10.0 ** (gain_db / 20.0))
    snrs = list(recipe.layer_snr_db)
    if recipe.noise is not None:
        noise_rng = synthmix._rng(recipe.seed, synthmix._STREAM_MIX_NOISE)
        prepared.append(synth_noise(recipe.noise.kind, n, noise_rng))
        snrs.append(recipe.noise.snr_db)
    mix = np.zeros(n)
    for k, x in enumerate(prepared):
        mix_rms, x_rms = synthmix._rms(mix), synthmix._rms(x)
        if k > 0 and x_rms > 0 and mix_rms > 0:
            x = x * (mix_rms / 10.0 ** (snrs[k - 1] / 20.0) / x_rms)
        mix = mix + x
        synthmix._normalize(mix, [], normalization)
    return mix


def looped_reference(x, n, rate, rng):
    """The mixer's fitting rule as a crop or a loop that grows one crossfaded seam at a time (quadratic in n)."""
    if len(x) == n:
        return x.copy()
    if len(x) > n:
        off = int(rng.integers(0, len(x) - n + 1))
        return x[off : off + n].copy()
    fade = min(int(round(synthmix.CROSSFADE_S * rate)), len(x) // 2)
    if fade <= 0:
        return np.tile(x, -(-n // len(x)))[:n]
    ramp = np.linspace(0.0, 1.0, fade)
    out = x.copy()
    while len(out) < n:
        seam = out[-fade:] * (1.0 - ramp) + x[:fade] * ramp
        out = np.concatenate([out[:-fade], seam, x[fade:]])
    return out[:n]


def counting_decodes(monkeypatch):
    """Count synthmix's decode_wav calls per path (thread-safe)."""
    calls, lock = Counter(), threading.Lock()
    real = synthmix.decode_wav

    def counted(path):
        with lock:
            calls[Path(path)] += 1
        return real(path)

    monkeypatch.setattr(synthmix, "decode_wav", counted)
    return calls


class TestDrawRecipe:
    def test_deterministic(self, pool):
        a = draw_recipe(pool, {ANTHROPOPHONY, GEOPHONY}, 31337)
        b = draw_recipe(pool, {ANTHROPOPHONY, GEOPHONY}, 31337)
        assert a == b

    def test_single_class_total_in_range(self, pool):
        for seed in range(120):
            r = draw_recipe(pool, {ANTHROPOPHONY}, seed)
            assert 1 <= len(r.layers) <= 4

    def test_three_class_per_class_cap(self, pool):
        for seed in range(120):
            r = draw_recipe(pool, set(CLASSES), seed)
            assert all(1 <= c <= 2 for c in r.per_class_file_counts.values())
            assert set(r.per_class_file_counts) == set(CLASSES)

    def test_two_class_per_class_cap(self, pool):
        for seed in range(120):
            r = draw_recipe(pool, {BIOPHONY, GEOPHONY}, seed)
            assert all(1 <= c <= 3 for c in r.per_class_file_counts.values())

    def test_parameter_ranges(self, pool):
        noise_seen = 0
        for seed in range(200):
            r = draw_recipe(pool, {BIOPHONY}, seed)
            assert all(-30 <= g <= 0 for g in r.per_file_gain_db)
            assert all(-5 <= s <= 5 for s in r.layer_snr_db)
            if r.noise is not None:
                noise_seen += 1
                assert -5 <= r.noise.snr_db <= 15
        assert 60 < noise_seen < 140  # coin lands near 50%

    def test_empty_pool_class_rejected(self):
        empty = SourcePool(files={ANTHROPOPHONY: [], BIOPHONY: [], GEOPHONY: []})
        with pytest.raises(ValueError, match="no files"):
            draw_recipe(empty, {ANTHROPOPHONY}, 0)

    def test_no_active_class_rejected(self, pool):
        with pytest.raises(ValueError, match="^need at least one active class$"):
            draw_recipe(pool, set(), 0)


class TestRenderMix:
    def test_single_layer_is_peak_normalized_source(self, pool):
        recipe = MixRecipe(
            active_classes=frozenset({BIOPHONY}),
            per_class_file_counts={BIOPHONY: 1},
            layers=((BIOPHONY, 1),),  # 6.5 s source at 32 kHz: crop only, no resample
            per_file_gain_db=(0.0,),
            layer_snr_db=(),
            noise=None,
            seed=77,
        )
        mixed = render_mix(recipe, pool)
        src = decode_wav(pool.files[BIOPHONY][1]).samples
        out = mixed.clip.samples
        assert len(out) == 160_000
        assert np.abs(out).max() == pytest.approx(0.99, abs=1e-12)
        # output must be some contiguous crop of the source, rescaled
        corr = np.correlate(src, out[:2000])
        off = int(corr.argmax())
        crop = src[off : off + 160_000]
        assert np.allclose(out, crop * 0.99 / np.abs(crop).max(), atol=1e-9)

    def test_layer_decomposition_sums_to_mix(self, pool):
        recipe = draw_recipe(pool, {ANTHROPOPHONY, BIOPHONY}, 5150)
        mixed, layers = render_mix(recipe, pool, keep_layers=True)
        assert np.allclose(np.sum(layers, axis=0), mixed.clip.samples, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_achieved_snr_matches_request(self, pool, seed):
        recipe = draw_recipe(pool, {ANTHROPOPHONY, BIOPHONY, GEOPHONY}, seed)
        mixed, layers = render_mix(recipe, pool, keep_layers=True)
        requested = list(recipe.layer_snr_db)
        if recipe.noise is not None:
            requested.append(recipe.noise.snr_db)
        for k in range(1, len(layers)):
            achieved = 20 * np.log10(rms(np.sum(layers[:k], axis=0)) / rms(layers[k]))
            assert achieved == pytest.approx(requested[k - 1], abs=0.5)

    def test_render_deterministic(self, pool):
        recipe = draw_recipe(pool, {GEOPHONY}, 404)
        a = render_mix(recipe, pool)
        b = render_mix(recipe, pool)
        assert np.array_equal(a.clip.samples, b.clip.samples)

    def test_labels_match_recipe(self, pool):
        recipe = draw_recipe(pool, {ANTHROPOPHONY, GEOPHONY}, 12)
        assert render_mix(recipe, pool).labels == frozenset({ANTHROPOPHONY, GEOPHONY})

    def test_rms_normalization_mode(self, pool):
        recipe = draw_recipe(pool, {ANTHROPOPHONY, BIOPHONY}, 808)
        mixed, layers = render_mix(recipe, pool, keep_layers=True, normalization="rms")
        out = mixed.clip.samples
        assert len(out) == 160_000
        assert np.abs(out).max() <= 1.0
        level = rms(out)
        assert level == pytest.approx(0.1, abs=1e-9) or np.abs(out).max() == pytest.approx(0.99)
        # the SNR chain is scale-invariant, so the oracle still holds
        requested = list(recipe.layer_snr_db)
        if recipe.noise is not None:
            requested.append(recipe.noise.snr_db)
        for k in range(1, len(layers)):
            achieved = 20 * np.log10(rms(np.sum(layers[:k], axis=0)) / rms(layers[k]))
            assert achieved == pytest.approx(requested[k - 1], abs=0.5)

    @given(
        seed=st.integers(0, 2**32 - 1),
        combo=st.sampled_from([c for c in COMBOS if c != SILENCE_COMBO]),
        normalization=st.sampled_from(["peak", "rms"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_cache_state_does_not_change_output(self, pool, seed, combo, normalization):
        recipe = draw_recipe(pool, classes_for_combo(combo), seed)
        render = lambda p: render_mix(recipe, p, normalization=normalization).clip.samples.tobytes()
        cold = render(SourcePool(files=pool.files))
        render(pool)
        warm = render(pool)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthmix, "SOURCE_CACHE_BYTES", 0)
            uncached = render(SourcePool(files=pool.files))
        assert warm == cold == uncached == eager_render(recipe, pool, normalization).tobytes()
        mixed, layers = render_mix(recipe, pool, keep_layers=True, normalization=normalization)
        assert mixed.clip.samples.tobytes() == warm
        assert len(layers) == len(recipe.layers) + (recipe.noise is not None)
        assert np.allclose(np.sum(layers, axis=0), mixed.clip.samples, atol=1e-12)

    def test_rms_mode_caps_the_peak_of_a_high_crest_source(self, tmp_path):
        """One click in 5 s of silence: scaling it to -20 dBFS RMS would put its peak far above MIX_PEAK."""
        x = np.zeros(160_000)
        x[80_000] = 0.5
        write_wav_pcm16(tmp_path / "click.wav", AudioClip(samples=x, sample_rate_hz=32000))
        one_click = SourcePool(files={BIOPHONY: [tmp_path / "click.wav"]})
        recipe = MixRecipe(frozenset({BIOPHONY}), {BIOPHONY: 1}, ((BIOPHONY, 0),), (0.0,), (), None, seed=1)
        out = render_mix(recipe, one_click, normalization="rms").clip.samples
        assert np.abs(out).max() == pytest.approx(synthmix.MIX_PEAK, abs=1e-12)
        assert np.abs(out).max() <= synthmix.MIX_PEAK
        assert rms(out) < synthmix.MIX_RMS / 10

    def test_unknown_normalization_rejected(self, pool):
        recipe = draw_recipe(pool, {BIOPHONY}, 1)
        with pytest.raises(ValueError, match="normalization"):
            render_mix(recipe, pool, normalization="loudness")


#: Rates up to 50 Hz round the 10 ms crossfade to no sample (round(0.5) is 0), and 51-149 Hz to one.
FIT_RATES = st.one_of(st.integers(1, 49), st.integers(50, 150), st.sampled_from([8000, 32000, 44100]))


class TestFitLength:
    @given(data=st.data(), length=st.integers(1, 400), rate=FIT_RATES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_seam_by_seam_loop(self, data, length, rate, seed):
        """A source no longer than the clip (so the rng is not drawn from), looped to n."""
        x = np.random.default_rng(seed).standard_normal(length)
        x.flags.writeable = False  # as the pool caches it
        n = data.draw(st.integers(length, 3000), label="n")
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthmix._fit_length(x, n, rate, rng)
        assert np.array_equal(got, looped_reference(x, n, rate, reference_rng))
        assert got.dtype == np.float64 and len(got) == n
        assert got.flags.writeable and not np.shares_memory(got, x)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @given(length=st.integers(2, 4000), data=st.data(), rate=FIT_RATES, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_a_longer_source_is_cropped_with_one_draw(self, length, data, rate, seed):
        x = np.random.default_rng(seed).standard_normal(length)
        x.flags.writeable = False
        n = data.draw(st.integers(1, length - 1), label="n")
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthmix._fit_length(x, n, rate, rng)
        assert np.array_equal(got, looped_reference(x, n, rate, reference_rng))
        assert got.flags.writeable and not np.shares_memory(got, x)
        assert rng.bit_generator.state == reference_rng.bit_generator.state  # the reference draws one integer

    @pytest.mark.parametrize("length", [1, 2, 3, 20])
    def test_a_source_of_a_few_samples_repeats_one_period_over_a_whole_clip(self, length):
        x = np.random.default_rng(length).standard_normal(length)
        got = synthmix._fit_length(x, 160_000, 32000, np.random.default_rng(0))
        fade = length // 2  # the 10 ms fade, capped at half the source
        body = period = length - fade
        ramp = np.linspace(0.0, 1.0, fade)
        assert len(got) == 160_000
        assert np.array_equal(got[:body], x[:body])
        assert np.array_equal(got[body : body + fade], x[body:] * (1.0 - ramp) + x[:fade] * ramp)
        assert np.array_equal(got[body : 160_000 - fade - period], got[body + period : 160_000 - fade])


VALID_RECIPE = dict(active_classes=frozenset({BIOPHONY, GEOPHONY}), per_class_file_counts={BIOPHONY: 1, GEOPHONY: 2},
                    layers=((BIOPHONY, 0), (GEOPHONY, 1), (GEOPHONY, 0)), per_file_gain_db=(0.0, -3.0, -6.0),
                    layer_snr_db=(0.0, 1.0), noise=NoisePlan(kind="pink", snr_db=0.0), seed=0)


class TestRecipeValidation:
    def test_the_base_recipe_is_valid(self):
        MixRecipe(**VALID_RECIPE)

    @pytest.mark.parametrize("change, message", [
        ({"active_classes": frozenset()}, "a mix needs at least one active class"),
        ({"per_class_file_counts": {BIOPHONY: 1, GEOPHONY: 4}},
         "per-class file count out of range for 2 active classes"),
        ({"per_class_file_counts": {BIOPHONY: 0, GEOPHONY: 2}},
         "per-class file count out of range for 2 active classes"),
        ({"layer_snr_db": (0.0, 5.5)}, "layer SNR 5.5 dB outside (-5.0, 5.0)"),
        ({"noise": NoisePlan(kind="brown", snr_db=0.0)}, "unknown noise kind 'brown'"),
        ({"layer_snr_db": (0.0,)}, "need one SNR per layer after the first"),
    ], ids=["no-class", "count-above-cap", "count-below-one", "layer-snr", "noise-kind", "snr-count"])
    def test_rejects_each_rule(self, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MixRecipe(**{**VALID_RECIPE, **change})

    @pytest.mark.parametrize("samples, message", [
        (np.zeros(159_999), "rendered clip has 159999 samples, expected 160000"),
        (np.full(160_000, -1.5), "rendered clip peak 1.5 exceeds 1"),
    ], ids=["length", "peak"])
    def test_mixed_clip_rejects_a_wrong_length_or_a_peak_above_one(self, samples, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MixedClip(AudioClip(samples=samples, sample_rate_hz=32000), frozenset({BIOPHONY}),
                      MixRecipe(**VALID_RECIPE))

    def test_gain_out_of_range(self):
        with pytest.raises(ValueError, match="gain"):
            MixRecipe(
                active_classes=frozenset({BIOPHONY}),
                per_class_file_counts={BIOPHONY: 1},
                layers=((BIOPHONY, 0),),
                per_file_gain_db=(-35.0,),
                layer_snr_db=(),
                noise=None,
                seed=0,
            )

    def test_too_many_files_single_class(self):
        with pytest.raises(ValueError, match="1..4"):
            MixRecipe(
                active_classes=frozenset({BIOPHONY}),
                per_class_file_counts={BIOPHONY: 5},
                layers=tuple((BIOPHONY, 0) for _ in range(5)),
                per_file_gain_db=(0.0,) * 5,
                layer_snr_db=(0.0,) * 4,
                noise=None,
                seed=0,
            )

    def test_noise_snr_out_of_range(self):
        with pytest.raises(ValueError, match="noise SNR"):
            MixRecipe(
                active_classes=frozenset({BIOPHONY}),
                per_class_file_counts={BIOPHONY: 1},
                layers=((BIOPHONY, 0),),
                per_file_gain_db=(0.0,),
                layer_snr_db=(),
                noise=NoisePlan(kind="pink", snr_db=20.0),
                seed=0,
            )


class TestSilence:
    def test_deterministic_and_sized(self):
        a, b = render_silence(5), render_silence(5)
        assert np.array_equal(a.clip.samples, b.clip.samples)
        assert len(a.clip.samples) == 160_000
        assert a.labels == frozenset({"silence"})

    def test_attenuation_rms_ratio(self):
        base = draw_silence_recipe(9)
        deep = render_silence_recipe(SilenceRecipe(base.noise_kind, base.initial_gain_db, -40.0, base.seed))
        shallow = render_silence_recipe(SilenceRecipe(base.noise_kind, base.initial_gain_db, -5.0, base.seed))
        ratio_db = 20 * np.log10(rms(shallow.clip.samples) / rms(deep.clip.samples))
        assert ratio_db == pytest.approx(35.0, abs=0.01)

    def test_params_within_ranges(self):
        for seed in range(100):
            r = draw_silence_recipe(seed)
            assert -5 <= r.initial_gain_db <= 1
            assert -40 <= r.attenuation_db <= -5

    def test_peak_below_one(self):
        for seed in range(30):
            assert np.abs(render_silence(seed).clip.samples).max() <= 1.0


class TestNoiseKinds:
    @pytest.mark.parametrize("kind", ["white-gaussian", "white-uniform", "pink"])
    def test_bounded_and_deterministic(self, kind):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = synth_noise(kind, 20_000, rng1)
        b = synth_noise(kind, 20_000, rng2)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 1.0
        assert np.isfinite(a).all()

    def test_pink_tilts_toward_low_frequencies(self):
        rng = np.random.default_rng(8)
        pink = synth_noise("pink", 2**16, rng)
        white = synth_noise("white-uniform", 2**16, np.random.default_rng(8))

        def low_high_ratio(x):
            spec = np.abs(np.fft.rfft(x)) ** 2
            quarter = len(spec) // 4
            return spec[1:quarter].sum() / spec[quarter:].sum()

        assert low_high_ratio(pink) > 4 * low_high_ratio(white)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 65_536, 65_537, 160_000, 160_005])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pink_equals_the_repeated_generators_bit_for_bit(self, n, seed):
        """The Voss-McCartney bed as 16 generators, each held over its span by np.repeat and added to the white
        one, then scaled to peak 1: the same draws, sums and bytes."""
        rng = np.random.default_rng(seed)
        out = rng.uniform(-1.0, 1.0, n)
        for r in range(16):
            span = 2 ** (r + 1)
            out += np.repeat(rng.uniform(-1.0, 1.0, -(-n // span)), span)[:n]
        out /= 17
        assert synth_noise("pink", n, np.random.default_rng(seed)).tobytes() == (out / np.abs(out).max()).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_noise("brown", 100, np.random.default_rng(0))


class TestBuildCorpus:
    def test_counts_and_manifest_flags(self, pool, tmp_path):
        manifest = build_corpus(pool, {"A": 2, "BG": 3}, 1234, tmp_path / "c")
        lines = manifest.read_text().strip().splitlines()
        assert lines[0] == "file,anthropophony,biophony,geophony,silence,seed,recipe"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 5
        assert sum(1 for r in rows if r[1:5] == ["1", "0", "0", "0"]) == 2
        assert sum(1 for r in rows if r[1:5] == ["0", "1", "1", "0"]) == 3
        for r in rows:
            assert (tmp_path / "c" / r[0]).exists()

    def test_zero_counts_header_only(self, pool, tmp_path):
        manifest = build_corpus(pool, {"A": 0, "S": 0}, 7, tmp_path / "empty")
        assert manifest.read_text().strip() == "file,anthropophony,biophony,geophony,silence,seed,recipe"

    def test_regeneration_byte_identical(self, pool, tmp_path):
        counts = {"A": 1, "AB": 1, "ABG": 1, "S": 1}
        m1 = build_corpus(pool, counts, 555, tmp_path / "one")
        m2 = build_corpus(pool, counts, 555, tmp_path / "two")

        def digests(manifest_path):
            d = Path(manifest_path).parent
            return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(d.iterdir())}

        assert digests(m1) == digests(m2)

    def test_parallel_matches_serial(self, pool, tmp_path):
        counts = {"B": 2, "AG": 2, "S": 2}
        m1 = build_corpus(pool, counts, 99, tmp_path / "serial", jobs=1)
        m2 = build_corpus(pool, counts, 99, tmp_path / "parallel", jobs=4)
        for f1 in sorted(Path(m1).parent.iterdir()):
            f2 = Path(m2).parent / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_silence_flag_exclusive(self, pool, tmp_path):
        manifest = build_corpus(pool, {"S": 2, "G": 1}, 3, tmp_path / "sx")
        for ln in manifest.read_text().strip().splitlines()[1:]:
            parts = ln.split(",")
            if parts[4] == "1":
                assert parts[1:4] == ["0", "0", "0"]

    def test_negative_count_rejected(self, pool, tmp_path):
        with pytest.raises(ValueError):
            build_corpus(pool, {"A": -1}, 0, tmp_path / "bad")

    def test_unknown_combo_rejected(self, pool, tmp_path):
        with pytest.raises(ValueError):
            build_corpus(pool, {"AX": 1}, 0, tmp_path / "bad2")

    def test_missing_source_class_rejected_before_anything_is_created(self, pool, tmp_path):
        biophony_only = SourcePool({BIOPHONY: pool.files[BIOPHONY]})
        with pytest.raises(ValueError, match="^source pool has no files for class 'geophony'$"):
            build_corpus(biophony_only, {"B": 2, "G": 1}, 0, tmp_path / "bad3")
        assert not (tmp_path / "bad3").exists()
        build_corpus(biophony_only, {"B": 1, "G": 0, "S": 1}, 0, tmp_path / "ok")  # G is not rendered


class TestSourceCache:
    def test_cached_array_is_read_only_and_shared(self, pool):
        fresh = SourcePool(files=pool.files)
        x = fresh.samples(BIOPHONY, 0, 32000)  # 2 s at 48 kHz, resampled
        assert len(x) == 64_000
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert fresh.samples(BIOPHONY, 0, 32000) is x

    def test_over_budget_sources_decoded_per_use(self, pool, monkeypatch):
        calls = counting_decodes(monkeypatch)
        monkeypatch.setattr(synthmix, "SOURCE_CACHE_BYTES", 0)
        fresh = SourcePool(files=pool.files)
        a, b = fresh.samples(GEOPHONY, 2, 32000), fresh.samples(GEOPHONY, 2, 32000)
        assert a is not b and np.array_equal(a, b)
        assert calls[pool.files[GEOPHONY][2]] == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corpus_decodes_each_source_once(self, pool, tmp_path, monkeypatch, jobs):
        calls = counting_decodes(monkeypatch)
        fresh = SourcePool(files=pool.files)
        # at least 3 + 3*2 + 4*3 = 21 layers drawn from 9 files, so sources repeat
        build_corpus(fresh, {"A": 3, "BG": 3, "ABG": 4}, 2718, tmp_path / "c", jobs=jobs)
        assert set(calls.values()) == {1}
        assert fresh._cache_bytes == sum(x.nbytes for x in fresh._cache.values()) <= synthmix.SOURCE_CACHE_BYTES

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_small_budget_bounds_cache_and_keeps_output(self, pool, tmp_path, monkeypatch, jobs):
        counts = {"AB": 3, "G": 3, "ABG": 3}
        reference = build_corpus(SourcePool(files=pool.files), counts, 31, tmp_path / "ref").parent
        budget = 1_200_000  # a 2 s source is 512 kB at 32 kHz; the pool needs 8.8 MB
        monkeypatch.setattr(synthmix, "SOURCE_CACHE_BYTES", budget)
        small = SourcePool(files=pool.files)
        out = build_corpus(small, counts, 31, tmp_path / "small", jobs=jobs).parent
        assert 0 < small._cache_bytes == sum(x.nbytes for x in small._cache.values()) <= budget
        for f in sorted(reference.iterdir()):
            assert f.read_bytes() == (out / f.name).read_bytes(), f.name

    def test_concurrent_first_use_decodes_once(self, pool, monkeypatch):
        calls = counting_decodes(monkeypatch)
        fresh = SourcePool(files=pool.files)
        keys = [(cls, i) for cls in CLASSES for i in range(3)] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(fresh.samples, cls, i, 32000) for cls, i in keys]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert set(calls.values()) == {1} and len(calls) == 9
        for (cls, i), x in zip(keys, got):
            assert x is fresh.samples(cls, i, 32000)
        assert fresh._cache_bytes == sum(x.nbytes for x in fresh._cache.values())


def test_recipe_digest_stable(pool):
    r = draw_recipe(pool, {BIOPHONY}, 2024)
    assert recipe_digest(r) == recipe_digest(draw_recipe(pool, {BIOPHONY}, 2024))
    assert recipe_digest(r) != recipe_digest(draw_recipe(pool, {BIOPHONY}, 2025))


def test_recipe_digest_pinned():
    """The manifest's recipe column: SHA-256 of the recipe's canonical JSON, fixed for good."""
    mix = MixRecipe(
        active_classes=frozenset({BIOPHONY, ANTHROPOPHONY}),
        per_class_file_counts={BIOPHONY: 2, ANTHROPOPHONY: 1},
        layers=((BIOPHONY, 1), (ANTHROPOPHONY, 0), (BIOPHONY, 0)),
        per_file_gain_db=(-3.5, 0.0, -29.25),
        layer_snr_db=(4.0, -1.0 / 3),
        noise=NoisePlan(kind="pink", snr_db=12.5),
        seed=77,
    )
    silence = SilenceRecipe(noise_kind="white-gaussian", initial_gain_db=0.1, attenuation_db=-40.0, seed=5)
    assert recipe_digest(mix) == "be43f7a68d843305c05fccd97d06a18b60a92d60325650378600c238ddf4737f"
    assert recipe_digest(silence) == "6e47edbafe76f562287a14d4f6a48e2bf451ae0fccf7f6c14d903599d6278a2f"
