import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import welch

from soundscapekit.audio_io import AudioClip
from soundscapekit.features import SCALE_LINEAR, Spectrogram
from soundscapekit.indices import adi, aci, band_power, ndsi, ndsi_from_powers, welch_psd

from conftest import tone


def make_spec(values, bin_freqs=None, hop_s=0.01):
    values = np.asarray(values, dtype=float)
    if bin_freqs is None:
        bin_freqs = (np.arange(values.shape[1]) + 1) * 100.0
    return Spectrogram(values=values, frame_hop_s=hop_s, bin_freqs_hz=np.asarray(bin_freqs, float), scale=SCALE_LINEAR)


def aci_oracle(values, chunk_len):
    """Direct per-bin, per-chunk evaluation of the fluctuation sum."""
    total = 0.0
    for f in range(values.shape[1]):
        for start in range(0, values.shape[0], chunk_len):
            col = values[start : start + chunk_len, f]
            if len(col) < 2:
                continue
            den = col.sum()
            if den > 0:
                total += np.abs(np.diff(col)).sum() / den
    return total


class TestAci:
    def test_constant_spectrogram_is_zero(self):
        assert aci(make_spec(np.ones((20, 5)))) == 0.0

    def test_three_frame_toy(self):
        assert aci(make_spec([[1.0], [2.0], [3.0]])) == pytest.approx(1 / 3, abs=1e-12)

    def test_additive_over_bins(self):
        assert aci(make_spec([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])) == pytest.approx(2 / 3, abs=1e-12)

    def test_chunked_matches_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 1, size=(37, 6))
        spec = make_spec(values, hop_s=0.5)
        # chunk_s = 5 s -> 10 frames per chunk; trailing 7-frame chunk is kept
        assert aci(spec, chunk_s=5.0) == pytest.approx(aci_oracle(values, 10), abs=1e-9)

    def test_trailing_single_frame_dropped(self):
        values = np.array([[1.0], [2.0], [1.0], [2.0], [5.0]])
        spec = make_spec(values, hop_s=1.0)
        assert aci(spec, chunk_s=2.0) == pytest.approx(aci_oracle(values, 2), abs=1e-12)

    def test_zero_denominator_chunk_contributes_zero(self):
        values = np.array([[0.0], [0.0], [1.0], [3.0]])
        assert aci(make_spec(values, hop_s=1.0), chunk_s=2.0) == pytest.approx(0.5)

    def test_too_few_frames(self):
        with pytest.raises(ValueError):
            aci(make_spec([[1.0]]))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariant(self, scale, seed):
        values = np.random.default_rng(seed).uniform(0, 1, size=(12, 4))
        a = aci(make_spec(values))
        b = aci(make_spec(values * scale))
        assert a == pytest.approx(b, rel=1e-9)


def occupancy_spec(fractions, n_frames=10, band_width=1000.0):
    """One bin per band (at the band's upper edge); fractions give per-band occupancy."""
    n_bands = len(fractions)
    bins = (np.arange(n_bands) + 1) * band_width
    full_scale = (n_bands - 1) / 2.0
    values = np.full((n_frames, n_bands), full_scale * 1e-8)  # about -160 dBFS
    for b, frac in enumerate(fractions):
        values[: int(round(frac * n_frames)), b] = full_scale  # 0 dBFS
    return make_spec(values, bin_freqs=bins)


def adi_db_oracle(spec, band_width_hz, max_freq_hz, db_threshold):
    """The dB definition of ADI: 20*log10 of every cell against the threshold, boolean band masks."""
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(spec.values / ((spec.n_bins - 1) / 2.0))
    n_bands = round(max_freq_hz / band_width_hz)
    occupancy = np.zeros(n_bands)
    for i in range(n_bands):
        mask = (spec.bin_freqs_hz > i * band_width_hz) & (spec.bin_freqs_hz <= (i + 1) * band_width_hz)
        if mask.any():
            occupancy[i] = float((db[:, mask] > db_threshold).mean())
    if occupancy.sum() == 0:
        return 0.0
    p = occupancy / occupancy.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum()) + 0.0


class TestAdi:
    @given(
        n_frames=st.integers(1, 40),
        n_bins=st.integers(3, 300),
        nyquist=st.sampled_from([4000.0, 8000.0, 11025.0, 16000.0, 24000.0]),
        n_bands=st.integers(2, 12),
        db_threshold=st.floats(-120.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_db_definition(self, n_frames, n_bins, nyquist, n_bands, db_threshold, seed):
        rng = np.random.default_rng(seed)
        full_scale = (n_bins - 1) / 2.0
        level = full_scale * 10.0 ** (db_threshold / 20.0)
        values = full_scale * 10.0 ** (rng.uniform(-140.0, 20.0, size=(n_frames, n_bins)) / 20.0)
        values[rng.random(values.shape) < 0.1] = 0.0
        # the two definitions may round differently within an ulp of the level
        near = np.abs(values - level) <= 1e-9 * level
        values[near] = 2.0 * level
        spec = make_spec(values, bin_freqs=np.linspace(0.0, nyquist, n_bins))
        max_freq = nyquist * rng.uniform(0.3, 1.0)
        band_width = max_freq / n_bands
        assert adi(spec, band_width, max_freq, db_threshold) == adi_db_oracle(spec, band_width, max_freq, db_threshold)

    def test_uniform_ten_bands(self):
        spec = occupancy_spec([0.2] * 10)
        assert adi(spec, 1000, 10_000, -50) == pytest.approx(np.log(10), abs=1e-9)

    def test_single_band(self):
        spec = occupancy_spec([0, 0, 0.5, 0, 0, 0, 0, 0, 0, 0])
        assert adi(spec, 1000, 10_000, -50) == 0.0

    def test_hand_evaluated_three_band(self):
        spec = occupancy_spec([0.2, 0.2, 0.6])
        expected = -(0.2 / 1.0 * np.log(0.2) * 2 + 0.6 / 1.0 * np.log(0.6))
        assert adi(spec, 1000, 3000, -50) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.950271, abs=1e-6)

    def test_all_silent(self):
        spec = occupancy_spec([0.0] * 5)
        assert adi(spec, 1000, 5000, -50) == 0.0

    def test_band_permutation_invariant(self):
        fracs = [0.1, 0.5, 0.2, 0.9, 0.3]
        a = adi(occupancy_spec(fracs), 1000, 5000, -50)
        b = adi(occupancy_spec(fracs[::-1]), 1000, 5000, -50)
        assert a == pytest.approx(b, abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            fracs = rng.uniform(0, 1, size=8)
            val = adi(occupancy_spec(list(fracs)), 1000, 8000, -50)
            assert 0.0 <= val <= np.log(8) + 1e-12

    def test_max_freq_above_nyquist(self):
        spec = occupancy_spec([0.2] * 4)
        with pytest.raises(ValueError, match="Nyquist"):
            adi(spec, 1000, 8000, -50)

    def test_band_width_must_partition(self):
        spec = occupancy_spec([0.2] * 10)
        with pytest.raises(ValueError):
            adi(spec, 3000, 10_000, -50)


class TestNdsi:
    def test_equal_powers_zero(self):
        assert ndsi_from_powers(0.42, 0.42) == 0.0

    def test_boundaries(self):
        assert ndsi_from_powers(0.0, 1.0) == 1.0
        assert ndsi_from_powers(1.0, 0.0) == -1.0

    def test_undefined(self):
        assert ndsi_from_powers(0.0, 0.0) is None

    def test_bio_tone_is_plus_one(self):
        clip = AudioClip(samples=tone(4000, 2.0, 32000), sample_rate_hz=32000)
        assert ndsi(clip) == 1.0

    def test_anthro_tone_is_minus_one(self):
        clip = AudioClip(samples=tone(1500, 2.0, 32000), sample_rate_hz=32000)
        assert ndsi(clip) == -1.0

    def test_out_of_band_tone_undefined(self):
        clip = AudioClip(samples=tone(440, 2.0, 32000), sample_rate_hz=32000)
        assert ndsi(clip) is None

    def test_antisymmetric_under_band_swap(self):
        x = tone(1500, 2.0, 32000) + 0.7 * tone(4000, 2.0, 32000)
        clip = AudioClip(samples=x * 0.5, sample_rate_hz=32000)
        fwd = ndsi(clip, (1000.0, 2000.0), (2000.0, 8000.0))
        rev = ndsi(clip, (2000.0, 8000.0), (1000.0, 2000.0))
        assert fwd == pytest.approx(-rev, abs=1e-9)

    def test_band_validation(self):
        clip = AudioClip(samples=tone(500, 0.5, 32000), sample_rate_hz=32000)
        with pytest.raises(ValueError, match="overlap"):
            ndsi(clip, (1000.0, 3000.0), (2000.0, 8000.0))
        with pytest.raises(ValueError, match="invalid"):
            ndsi(clip, (1000.0, 2000.0), (2000.0, 20_000.0))

    @given(
        n=st.integers(8, 6000),
        rate=st.sampled_from([8000, 16000, 32000, 44100]),
        tone_hz=st.floats(0.0, 3900.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1023, rate=32000, tone_hz=1500.0, seed=0)
    @example(n=1024, rate=32000, tone_hz=4000.0, seed=1)
    @example(n=1025, rate=32000, tone_hz=0.0, seed=2)
    @example(n=2047, rate=16000, tone_hz=440.0, seed=3)
    @settings(max_examples=80, deadline=None)
    def test_welch_psd_matches_scipy(self, n, rate, tone_hz, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(n) / rate
        x = 0.5 * np.sin(2 * np.pi * tone_hz * t) + rng.normal(size=n) * rng.choice([0.0, 1e-4, 0.1])
        freqs, psd = welch_psd(x, rate)
        ref_freqs, ref = welch(x, fs=rate, window="hann", nperseg=min(1024, n), detrend=False)
        np.testing.assert_array_equal(freqs, ref_freqs)
        # scipy scales the window before the FFT, this PSD after it: rounding differs
        assert np.max(np.abs(psd - ref)) <= 1e-12 * np.max(ref)

    def test_band_power_integration(self):
        freqs = np.array([0.0, 10.0, 20.0, 30.0])
        psd = np.array([1.0, 2.0, 3.0, 4.0])
        # [10, 30) picks bins at 10 and 20; df = 10
        assert band_power(freqs, psd, (10.0, 30.0)) == pytest.approx(50.0)
