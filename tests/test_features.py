import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from soundscapekit.audio_io import AudioClip
from soundscapekit.features import (
    _BLOCK_FRAMES,
    LOG_MEL_EPS,
    SCALE_LINEAR,
    SCALE_LOG_MEL,
    Spectrogram,
    framed_rfft,
    hann,
    log_mel,
    mel_filterbank,
    stft_magnitude,
)


def reference_stft(samples, rate, window_len, hop):
    """Independent framing oracle: explicit padding, per-frame loop, textbook Hann."""
    pad_l = window_len // 2
    padded = np.concatenate([samples[1 : pad_l + 1][::-1], samples, samples[-2 : -(window_len - pad_l) - 2 : -1]])
    n_frames = 1 + len(samples) // hop
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window_len) / window_len)
    out = np.empty((n_frames, window_len // 2 + 1))
    for t in range(n_frames):
        frame = padded[t * hop : t * hop + window_len]
        out[t] = np.abs(np.fft.rfft(frame * w))
    return out


def per_frame_rfft(samples, window, hop, n_frames):
    """Bit-level oracle for framed_rfft: one np.fft.rfft call per frame."""
    n = len(window)
    return np.array([np.fft.rfft(samples[t * hop : t * hop + n] * window) for t in range(n_frames)])


# frame counts around the block size, where the blocked kernel changes shape
BLOCK_EDGE_FRAMES = st.sampled_from([1, 2, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 3 * _BLOCK_FRAMES + 5])


def test_hann_equals_scipy_periodic_hann():
    for m in range(1, 4097):
        assert hann(m).tobytes() == get_window("hann", m, fftbins=True).tobytes(), m


class TestFramedRfft:
    @given(
        n_frames=BLOCK_EDGE_FRAMES | st.integers(1, 4 * _BLOCK_FRAMES),
        window_len=st.integers(1, 300),
        hop=st.integers(1, 400),
        extra=st.integers(0, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_per_frame_rfft(self, n_frames, window_len, hop, extra, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(n_frames - 1) * hop + window_len + extra)
        window = get_window("hann", window_len, fftbins=True)
        blocks = list(framed_rfft(samples, window, hop, n_frames))
        assert [first for first, _ in blocks] == list(range(0, n_frames, _BLOCK_FRAMES))
        assert all(len(spectra) <= _BLOCK_FRAMES for _, spectra in blocks)
        got = np.concatenate([spectra for _, spectra in blocks])
        np.testing.assert_array_equal(got, per_frame_rfft(samples, window, hop, n_frames))

    def test_too_many_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            list(framed_rfft(np.zeros(100), np.ones(50), 25, 4))


class TestStft:
    def test_default_extraction_shape(self):
        clip = AudioClip(samples=np.random.default_rng(0).normal(size=320_000) * 0.1, sample_rate_hz=32000)
        spec = stft_magnitude(clip, window_len=1024, hop=320)
        assert spec.values.shape == (1001, 513)
        assert spec.scale == SCALE_LINEAR
        assert spec.frame_hop_s == pytest.approx(0.01)
        assert spec.bin_freqs_hz[0] == 0.0
        assert spec.bin_freqs_hz[-1] == 16000.0

    def test_matches_reference_framing(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=5000) * 0.2
        clip = AudioClip(samples=samples, sample_rate_hz=16000)
        spec = stft_magnitude(clip, window_len=256, hop=100)
        ref = reference_stft(samples, 16000, 256, 100)
        assert spec.values.shape == ref.shape
        np.testing.assert_allclose(spec.values, ref, atol=1e-9)

    def test_all_zero_clip(self):
        clip = AudioClip(samples=np.zeros(4000), sample_rate_hz=16000)
        spec = stft_magnitude(clip, 1024, 320)
        assert np.all(spec.values == 0.0)

    def test_bin_center_tone_concentration(self):
        # A Hann window spreads a bin-centered tone over the 3-bin main lobe
        # (energy split 1/6, 2/3, 1/6); the peak bin dominates every frame and
        # interior frames keep >= 99% of their energy inside the lobe.
        sr, k, window_len = 32000, 100, 1024
        freq = k * sr / window_len
        t = np.arange(sr) / sr
        clip = AudioClip(samples=np.cos(2 * np.pi * freq * t), sample_rate_hz=sr)
        spec = stft_magnitude(clip, window_len, 320)
        energy = spec.values**2
        assert (energy.argmax(axis=1) == k).all()
        interior = energy[4:-4]
        lobe_frac = interior[:, k - 1 : k + 2].sum(axis=1) / interior.sum(axis=1)
        assert lobe_frac.min() >= 0.99
        peak_frac = interior[:, k] / interior.sum(axis=1)
        assert peak_frac.min() == pytest.approx(2 / 3, abs=0.01)

    def test_too_short_clip(self):
        clip = AudioClip(samples=np.zeros(100), sample_rate_hz=16000)
        with pytest.raises(ValueError, match="shorter"):
            stft_magnitude(clip, 1024, 320)

    def test_bad_hop(self):
        clip = AudioClip(samples=np.zeros(4000), sample_rate_hz=16000)
        with pytest.raises(ValueError):
            stft_magnitude(clip, 1024, 2048)

    @given(
        n_frames=BLOCK_EDGE_FRAMES.filter(lambda f: f >= 2) | st.integers(2, 4 * _BLOCK_FRAMES),
        window_len=st.sampled_from([1023, 1024]) | st.integers(2, 400),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_frame_rfft_bit_for_bit(self, n_frames, window_len, data):
        # pick hop and length so that the clip has exactly n_frames frames
        hop = data.draw(st.integers(-(-(window_len + 1) // n_frames), window_len), label="hop")
        n = (n_frames - 1) * hop + data.draw(
            st.integers(max(0, window_len - (n_frames - 1) * hop), hop - 1), label="extra"
        )
        samples = np.random.default_rng(n_frames * 1000 + window_len).normal(size=n) * 0.3
        spec = stft_magnitude(AudioClip(samples=samples, sample_rate_hz=16000), window_len, hop)
        assert spec.n_frames == n_frames
        pad_l = window_len // 2
        padded = np.pad(samples, (pad_l, window_len - pad_l), mode="reflect")
        window = get_window("hann", window_len, fftbins=True)
        np.testing.assert_array_equal(spec.values, np.abs(per_frame_rfft(padded, window, hop, n_frames)))

    @given(
        n=st.integers(min_value=1024, max_value=20_000),
        hop=st.integers(min_value=1, max_value=1024),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_count_formula(self, n, hop):
        clip = AudioClip(samples=np.zeros(n), sample_rate_hz=16000)
        spec = stft_magnitude(clip, 1024, hop)
        assert spec.n_frames == 1 + n // hop


class TestLogMel:
    @pytest.fixture
    def noise_spec(self):
        clip = AudioClip(samples=np.random.default_rng(1).normal(size=64_000) * 0.2, sample_rate_hz=32000)
        return stft_magnitude(clip, 1024, 320)

    def test_mel_dimension(self, noise_spec):
        out = log_mel(noise_spec, n_mels=64)
        assert out.values.shape == (noise_spec.n_frames, 64)
        assert out.scale == SCALE_LOG_MEL

    def test_all_zero_floor(self):
        spec = Spectrogram(
            values=np.zeros((5, 513)),
            frame_hop_s=0.01,
            bin_freqs_hz=np.linspace(0, 16000, 513),
            scale=SCALE_LINEAR,
        )
        out = log_mel(spec, 64)
        assert np.all(out.values == 10 * np.log10(LOG_MEL_EPS))

    def test_doubling_magnitude_adds_6dB(self, noise_spec):
        base = log_mel(noise_spec, 64)
        doubled = log_mel(
            Spectrogram(noise_spec.values * 2, noise_spec.frame_hop_s, noise_spec.bin_freqs_hz, SCALE_LINEAR),
            64,
        )
        delta = doubled.values - base.values
        assert np.allclose(delta, 10 * np.log10(4), atol=1e-3)

    def test_monotone(self, noise_spec):
        bigger = Spectrogram(
            noise_spec.values + 0.01, noise_spec.frame_hop_s, noise_spec.bin_freqs_hz, SCALE_LINEAR
        )
        assert np.all(log_mel(bigger, 32).values >= log_mel(noise_spec, 32).values)

    def test_rejects_wrong_scale(self, noise_spec):
        lm = log_mel(noise_spec, 8)
        with pytest.raises(ValueError):
            log_mel(lm, 8)

    def test_rejects_bad_range(self, noise_spec):
        with pytest.raises(ValueError):
            log_mel(noise_spec, 8, fmin_hz=5000, fmax_hz=1000)
        with pytest.raises(ValueError):
            log_mel(noise_spec, 8, fmax_hz=20_000)


class TestMelFilterbank:
    def test_rows_positive_and_overlap(self):
        freqs = np.linspace(0, 16000, 513)
        fb = mel_filterbank(64, freqs, 0, 16000)
        assert fb.shape == (64, 513)
        assert (fb.sum(axis=1) > 0).all()
        assert ((fb > 0).sum(axis=0) <= 2).all()

    @pytest.mark.parametrize("n_mels", [0, -1])
    def test_rejects_fewer_than_one_filter(self, n_mels):
        with pytest.raises(ValueError, match=f"^n_mels must be >= 1, got {n_mels}$"):
            mel_filterbank(n_mels, np.linspace(0, 16000, 513), 0, 16000)


class TestSpectrogramValidation:
    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            Spectrogram(np.zeros((2, 3)), 0.01, np.array([1.0, 2.0, 3.0]), "decibels")

    def test_rejects_descending_bins(self):
        with pytest.raises(ValueError, match="ascending"):
            Spectrogram(np.zeros((2, 2)), 0.01, np.array([2.0, 1.0]), SCALE_LINEAR)

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError, match="negative"):
            Spectrogram(np.array([[-1.0]]), 0.01, np.array([1.0]), SCALE_LINEAR)

    @pytest.mark.parametrize("hop", [0.0, -0.01])
    def test_rejects_a_hop_that_is_not_positive(self, hop):
        with pytest.raises(ValueError, match=f"^frame_hop_s must be positive, got {hop}$"):
            Spectrogram(np.zeros((2, 1)), hop, np.array([1.0]), SCALE_LINEAR)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="bins"):
            Spectrogram(np.zeros((2, 3)), 0.01, np.array([1.0, 2.0]), SCALE_LINEAR)

    def test_log_mel_values_may_be_negative(self):
        spec = Spectrogram(np.array([[-80.0]]), 0.01, np.array([1.0]), SCALE_LOG_MEL)
        assert spec.n_bins == 1
