import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import resample_poly

from soundscapekit import audio_io
from soundscapekit.audio_io import AudioClip, _polyphase, decode_wav, resample, write_wav_pcm16
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

    @pytest.mark.parametrize("rate, target, accepted", [
        (100_000, 99_999, True),  # max(up, down) = 100 000: 2 000 001 taps, the limit
        (96_001, 32_000, True),
        (32_001, 32_000, True),
        (100_001, 100_000, False),
        (200_003, 32_000, False),
    ])
    def test_filter_tap_limit(self, monkeypatch, rate, target, accepted):
        """A ratio past RESAMPLE_MAX_TAPS is rejected before any filter is built; one at the limit is not."""
        built = []
        monkeypatch.setattr(audio_io, "_polyphase", lambda x, up, down: built.append((up, down)) or x)
        clip = AudioClip(samples=np.zeros(8), sample_rate_hz=rate)
        if accepted:
            resample(clip, target)
            assert 20 * max(built[0]) + 1 <= audio_io.RESAMPLE_MAX_TAPS
        else:
            with pytest.raises(ValueError, match=f"^resampling {rate} Hz to {target} Hz needs a filter of "):
                resample(clip, target)
            assert built == []


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


# --- the in-house kernels against scipy, which serves here as the reference only ---

RATES = (8000, 11025, 16000, 22050, 44100, 48000, 96000, 32001)


@settings(max_examples=60, deadline=None)
@given(
    rate=st.sampled_from(RATES),
    to_32k=st.booleans(),
    n=st.integers(min_value=1, max_value=50_000),
    amp=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(rate=48000, to_32k=True, n=4800, amp=0.0, seed=0)
@example(rate=44100, to_32k=True, n=4410, amp=1e-310, seed=1)
@example(rate=32001, to_32k=False, n=7, amp=1.0, seed=2)
@example(rate=48000, to_32k=True, n=48_000, amp=1.0, seed=3)
@example(rate=16000, to_32k=True, n=48_000, amp=1.0, seed=4)
def test_polyphase_matches_resample_poly(rate, to_32k, n, amp, seed):
    """Same length as scipy's resample_poly with a Kaiser(5) window (resample keeps the
    rounded length), and the same samples to 1e-12 of the peak on every ratio; where that bound
    underflows (tiny inputs), to 4 subnormal spacings."""
    src, dst = (rate, 32000) if to_32k else (32000, rate)
    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    x = np.random.default_rng(seed).uniform(-amp, amp, size=n)
    ref = resample_poly(x, up, down, window=("kaiser", 5.0))
    got = _polyphase(x, up, down)
    assert len(got) == len(ref)
    assert len(resample(AudioClip(x, src), dst).samples) == round(n * dst / src)
    bound = 1e-12 * np.max(np.abs(x)) + 4 * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(got - ref)) <= bound


def old_decode(path):
    """scipy.io.wavfile.read followed by the scaling decode_wav has always applied.

    The scaling is keyed by kind and size, so big-endian (RIFX) integers scale
    as little-endian ones do; the scipy-based decoder compared dtypes and
    rejected them.
    """
    rate, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.uint8:
        samples -= 128.0
        samples /= 128.0
    elif data.dtype.kind == "i" and data.dtype.itemsize == 2:
        samples /= 32768.0
    elif data.dtype.kind == "i" and data.dtype.itemsize == 4:
        samples /= 2147483648.0
    else:
        np.clip(samples, -1.0, 1.0, out=samples)
    return rate, samples.mean(axis=1) if samples.ndim == 2 else samples


#: (format tag, bits, container bytes, numpy dtype of the values or None for 24-bit)
FORMATS = {
    "uint8": (1, 8, 1, "u1"),
    "int16": (1, 16, 2, "i2"),
    "int24": (1, 24, 3, None),
    "int32": (1, 32, 4, "i4"),
    "float32": (3, 32, 4, "f4"),
    "float64": (3, 64, 8, "f8"),
}


def wav_bytes(fmt, channels, layout, rate=22050, frames=257, seed=0):
    """A WAV file of random samples.

    layout: plain, extensible, list (an odd-sized LIST chunk before the data), rifx or rifx-extensible.
    """
    tag, bits, width, dtype = FORMATS[fmt]
    order = ">" if layout.startswith("rifx") else "<"
    rng = np.random.default_rng(seed)
    n = frames * channels
    if dtype is None:
        data = b"".join(struct.pack(order + "i", v)[1:] if order == ">" else struct.pack("<i", v)[:3]
                        for v in rng.integers(-(2**23), 2**23, size=n).tolist())
    elif dtype[0] == "f":
        data = rng.uniform(-1.2, 1.2, size=n).astype(order + dtype).tobytes()
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=n, endpoint=True).astype(order + dtype).tobytes()
    block = width * channels
    if layout.endswith("extensible"):
        guid = struct.pack(order + "IHH", tag, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt_body = struct.pack(order + "HHIIHHHHI", 0xFFFE, channels, rate, rate * block, block, bits, 22, bits, 0) + guid
    else:
        fmt_body = struct.pack(order + "HHIIHH", tag, channels, rate, rate * block, block, bits)

    def chunk(name, body):
        return name + struct.pack(order + "I", len(body)) + body + b"\x00" * (len(body) % 2)

    chunks = chunk(b"fmt ", fmt_body)
    if layout == "list":
        chunks += chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00odd!\x00")  # 17 bytes, padded to 18
    chunks += chunk(b"data", data)
    return (b"RIFX" if order == ">" else b"RIFF") + struct.pack(order + "I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize("layout", ["plain", "extensible", "list", "rifx", "rifx-extensible"])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("fmt", list(FORMATS))
def test_decode_equals_scipy_read(tmp_path, fmt, channels, layout):
    p = tmp_path / "x.wav"
    p.write_bytes(wav_bytes(fmt, channels, layout))
    rate, want = old_decode(p)
    clip = decode_wav(p)
    assert clip.sample_rate_hz == rate == 22050
    assert clip.samples.dtype == want.dtype and clip.samples.shape == want.shape == (257,)
    assert clip.samples.tobytes() == want.tobytes()


def test_data_chunk_past_the_end_of_the_file_is_read_to_the_end(tmp_path):
    """A streamed file whose data size was never filled in (0xFFFFFFFF) decodes as scipy reads it."""
    w = wav_bytes("int16", 2, "plain")
    p = tmp_path / "stream.wav"
    p.write_bytes(set_fmt(w, 40, "I", 0xFFFFFFFF))
    _, want = old_decode(p)
    assert decode_wav(p).samples.tobytes() == want.tobytes()


def set_fmt(raw, offset, fmt, *values):
    """raw with struct fields packed at offset (little-endian)."""
    field = struct.pack("<" + fmt, *values)
    return raw[:offset] + field + raw[offset + len(field):]


BAD_WAVS = {
    "RF64 container": lambda w: b"RF64" + w[4:],
    "not WAVE": lambda w: w[:8] + b"AVI " + w[12:],
    "no fmt before data": lambda w: w[:12] + w[36:],
    "fmt chunk too short": lambda w: set_fmt(w, 16, "I", 14),
    "no data chunk": lambda w: w[:36],
    "ADPCM": lambda w: set_fmt(w, 20, "H", 2),
    "8-bit samples in 2-byte containers": lambda w: set_fmt(w, 34, "H", 8),
    "64-bit integers": lambda w: set_fmt(w, 28, "IHH", 22050 * 8, 8, 64),
    "zero channels": lambda w: set_fmt(w, 22, "H", 0),
    "wrong byte rate": lambda w: set_fmt(w, 28, "I", 1234),
    "partial frame": lambda w: w[:-1],
}


@pytest.mark.parametrize("damage", list(BAD_WAVS))
def test_unsupported_or_damaged_wav_is_one_decode_error(tmp_path, damage):
    p = tmp_path / "bad.wav"
    p.write_bytes(BAD_WAVS[damage](wav_bytes("int16", 1, "plain")))
    with pytest.raises(AudioDecodeError, match=r"bad\.wav: not a decodable linear-PCM WAV \(.+\)$") as err:
        decode_wav(p)
    assert "\n" not in str(err.value)


def test_unknown_extensible_subformat_rejected(tmp_path):
    w = wav_bytes("int16", 1, "extensible")
    p = tmp_path / "ext.wav"
    p.write_bytes(w.replace(b"\x00\x00\x10\x00\x80\x00\x00\xaa", b"\x00\x00\x11\x00\x80\x00\x00\xaa"))
    with pytest.raises(AudioDecodeError, match="unsupported format: tag 0xfffe"):
        decode_wav(p)


@pytest.mark.parametrize("n", [0, 1, 12_345, 160_000])
@pytest.mark.parametrize("rate", [8000, 16000, 22050, 32000, 44100, 48000])
def test_write_equals_scipy_write(tmp_path, n, rate):
    x = np.random.default_rng(n).uniform(-1.1, 1.1, size=n)
    ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
    write_wav_pcm16(ours, AudioClip(samples=x, sample_rate_hz=rate))
    wavfile.write(ref, rate, np.rint(np.clip(x, -1.0, 1.0) * 32767.0).astype(np.int16))
    assert ours.read_bytes() == ref.read_bytes()


# --- decode_wav on arbitrary and damaged input: one AudioDecodeError or a sane clip ---

#: Valid files whose headers the fuzz damages: the plain PCM16 header is 44 bytes, the extensible one 68.
FUZZ_BASES = [wav_bytes("int16", 1, "plain", frames=64), wav_bytes("int24", 2, "extensible", frames=64)]
#: Field values that sit on a check's edge: zero, one, a format tag, all ones.
EDGE_FIELDS = [b"\x00\x00", b"\x01\x00", b"\x03\x00", b"\xfe\xff", b"\xff\xff", b"\xff\xff\xff\xff", b"\x00" * 4]


def decodes_or_rejects(path, raw):
    """decode_wav of raw raises only AudioDecodeError, or gives a 1-D, finite clip in [-1, 1].

    The clip is not resampled: an odd rate would build a 20 * max(up, down) + 1-tap filter.
    """
    path.write_bytes(raw)
    try:
        clip = decode_wav(path)
    except AudioDecodeError:
        return
    x = clip.samples
    assert x.ndim == 1 and len(x) > 0 and clip.sample_rate_hz > 0
    assert np.isfinite(x).all() and np.abs(x).max() <= 1.0


@settings(max_examples=200, deadline=None)
@given(raw=st.one_of(
    st.binary(max_size=128),
    st.binary(max_size=128).map(lambda b: b"RIFF" + b[:4] + b"WAVE" + b[4:]),  # past the container check
))
def test_arbitrary_bytes_decode_or_raise_a_decode_error(tmp_path_factory, raw):
    decodes_or_rejects(tmp_path_factory.getbasetemp() / "fuzz.wav", raw)


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from(FUZZ_BASES),
    edits=st.lists(st.tuples(st.integers(12, 67), st.one_of(st.binary(min_size=1, max_size=4),
                                                           st.sampled_from(EDGE_FIELDS))), min_size=1, max_size=6),
    cut=st.one_of(st.none(), st.integers(0, 400)),
)
def test_damaged_header_decodes_or_raises_a_decode_error(tmp_path_factory, base, edits, cut):
    """Bytes written over the chunk headers of a PCM16 mono or 24-bit stereo extensible file (past
    the 12-byte RIFF header, which the arbitrary-bytes property covers), then maybe a cut."""
    raw = bytearray(base)
    for offset, field in edits:
        raw[offset:offset + len(field)] = field
    decodes_or_rejects(tmp_path_factory.getbasetemp() / "damaged.wav", bytes(raw[:cut]))
