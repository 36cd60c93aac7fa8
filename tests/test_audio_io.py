import numpy as np
import pytest

from soundscapekit.audio_io import AudioClip, decode_wav, resample, write_wav_pcm16
from soundscapekit.errors import AudioDecodeError

from conftest import tone, write_wav, write_wav_24bit, write_wav_float


class TestDecode:
    def test_int16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, [0, 32767, -32768], 32000)
        clip = decode_wav(p)
        assert clip.samples.tolist() == [0.0, 32767 / 32768, -1.0]
        assert clip.sample_rate_hz == 32000
        assert clip.source_id == "a"

    def test_stereo_mean(self, tmp_path):
        p = tmp_path / "st.wav"
        write_wav_float(p, np.array([[1.0, 0.0]]), 32000)
        clip = decode_wav(p)
        assert clip.samples.tolist() == [0.5]

    def test_60s_at_48k_sample_count(self, tmp_path):
        p = tmp_path / "long.wav"
        write_wav(p, np.zeros(60 * 48000, dtype=np.int16), 48000)
        clip = decode_wav(p)
        assert len(clip.samples) == 2_880_000
        assert clip.duration_s == 60.0

    def test_24bit_scaling(self, tmp_path):
        p = tmp_path / "deep.wav"
        write_wav_24bit(p, [-(2**23), 0, 2**23 - 1], 32000)
        clip = decode_wav(p)
        assert clip.samples[0] == -1.0
        assert clip.samples[1] == 0.0
        assert clip.samples[2] == pytest.approx((2**23 - 1) / 2**23)

    def test_uint8_scaling(self, tmp_path):
        p = tmp_path / "u8.wav"
        write_wav(p, [0, 128, 255], 8000, dtype=np.uint8)
        clip = decode_wav(p)
        assert clip.samples.tolist() == [-1.0, 0.0, 127 / 128]

    def test_float_passthrough_and_range(self, tmp_path):
        p = tmp_path / "f.wav"
        write_wav_float(p, [0.25, -0.5, 1.5], 16000)
        clip = decode_wav(p)
        assert clip.samples.tolist() == [0.25, -0.5, 1.0]

    def test_non_finite_float_rejected(self, tmp_path):
        p = tmp_path / "nan.wav"
        write_wav_float(p, [0.0, np.nan], 16000)
        with pytest.raises(AudioDecodeError, match="non-finite"):
            decode_wav(p)

    def test_zero_length_rejected(self, tmp_path):
        p = tmp_path / "empty.wav"
        write_wav(p, np.zeros(0, dtype=np.int16), 32000)
        with pytest.raises(AudioDecodeError, match="zero-length"):
            decode_wav(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioDecodeError, match="not found"):
            decode_wav(tmp_path / "nope.wav")

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"this is not audio at all, not even close")
        with pytest.raises(AudioDecodeError):
            decode_wav(p)

    def test_deterministic(self, tmp_path):
        p = tmp_path / "d.wav"
        write_wav(p, (tone(700, 0.3, 32000) * 32767).astype(np.int16), 32000)
        a, b = decode_wav(p), decode_wav(p)
        assert np.array_equal(a.samples, b.samples)


class TestResample:
    def test_length_ratio(self):
        clip = AudioClip(samples=np.zeros(2_880_000), sample_rate_hz=48000)
        out = resample(clip, 32000)
        assert len(out.samples) == 1_920_000
        assert out.sample_rate_hz == 32000

    def test_identity(self):
        clip = AudioClip(samples=tone(500, 0.5, 32000), sample_rate_hz=32000)
        out = resample(clip, 32000)
        assert out is clip

    def test_sine_spectral_peak(self):
        # oracle: the FFT argmax of the resampled tone must sit within 1 Hz of 1 kHz
        clip = AudioClip(samples=tone(1000, 4.0, 48000), sample_rate_hz=48000)
        out = resample(clip, 32000)
        spec = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out.samples), d=1 / 32000)
        assert abs(freqs[spec.argmax()] - 1000.0) <= 1.0

    def test_round_trip_rms(self):
        clip = AudioClip(samples=tone(3000, 2.0, 48000), sample_rate_hz=48000)
        back = resample(resample(clip, 32000), 48000)
        rms = lambda x: np.sqrt(np.mean(x**2))
        assert rms(back.samples) == pytest.approx(rms(clip.samples), rel=0.01)

    def test_awkward_length_rounding(self):
        clip = AudioClip(samples=np.zeros(101), sample_rate_hz=48000)
        assert len(resample(clip, 32000).samples) == round(101 * 32000 / 48000)

    def test_bad_target(self):
        clip = AudioClip(samples=np.zeros(10), sample_rate_hz=48000)
        with pytest.raises(ValueError):
            resample(clip, 0)


def test_write_read_round_trip(tmp_path):
    x = tone(440, 0.25, 32000, amp=0.9)
    clip = AudioClip(samples=x, sample_rate_hz=32000, source_id="rt")
    p = tmp_path / "rt.wav"
    write_wav_pcm16(p, clip)
    back = decode_wav(p)
    assert back.sample_rate_hz == 32000
    # half an LSB of quantization plus the 32767-write / 32768-read scale gap
    assert np.max(np.abs(back.samples - x)) < 2.0 / 32768


def test_clip_rejects_bad_rate():
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros(4), sample_rate_hz=0)
