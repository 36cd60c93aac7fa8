"""Decode, resample, and segment WAV recordings into a canonical in-memory form.

All operations are pure: they return new :class:`AudioClip` objects and never
mutate their inputs, so they are safe to call from many workers at once.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import resample_poly

from ._table import replacing
from .errors import AudioDecodeError

#: Kaiser beta for the polyphase anti-aliasing filter used by :func:`resample`.
RESAMPLE_KAISER_BETA = 5.0


@dataclass(frozen=True)
class AudioClip:
    """A decoded mono waveform.

    Attributes:
        samples: float64 amplitudes in [-1, 1].
        sample_rate_hz: sampling rate, > 0.
        source_id: opaque identifier of the originating recording.
    """

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = field(default="")

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def decode_wav(path) -> AudioClip:
    """Decode a linear-PCM WAV file to a mono AudioClip.

    Integer samples are scaled to [-1, 1] by the type's max magnitude
    (2**(bits-1)); multi-channel audio is averaged to mono. Non-finite
    float samples are rejected rather than clamped so corrupt files
    surface early.

    Raises:
        AudioDecodeError: unreadable file, unsupported codec, or zero-length audio.
    """
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise AudioDecodeError(f"{path}: file not found") from None
    except Exception as exc:
        raise AudioDecodeError(f"{path}: not a decodable linear-PCM WAV ({exc})") from exc

    if data.size == 0:
        raise AudioDecodeError(f"{path}: zero-length audio")

    # one float64 array, scaled in place
    if data.dtype == np.uint8:
        # 8-bit WAV is offset-binary around 128
        samples = data.astype(np.float64)
        samples -= 128.0
        samples /= 128.0
    elif data.dtype == np.int16:
        samples = data.astype(np.float64)
        samples /= 32768.0
    elif data.dtype == np.int32:
        # 24-bit PCM arrives left-justified in int32, so one divisor covers both
        samples = data.astype(np.float64)
        samples /= 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        if not np.isfinite(samples).all():
            raise AudioDecodeError(f"{path}: non-finite float samples")
        np.clip(samples, -1.0, 1.0, out=samples)
    else:
        raise AudioDecodeError(f"{path}: unsupported sample format {data.dtype}")

    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    elif samples.ndim != 1:
        raise AudioDecodeError(f"{path}: unexpected sample layout {samples.shape}")

    return AudioClip(samples=samples, sample_rate_hz=int(rate), source_id=path.stem)


def write_wav_pcm16(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM WAV (samples clipped to [-1, 1], rounded to nearest)."""
    q = np.clip(clip.samples, -1.0, 1.0)
    q *= 32767.0
    np.rint(q, out=q)
    np.clip(q, -32768, 32767, out=q)
    with replacing(path, binary=True) as fh:
        wavfile.write(fh, clip.sample_rate_hz, q.astype(np.int16))


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample a clip to target_hz with a polyphase windowed-sinc filter.

    Output length is round(len * target / source). A clip already at the
    target rate is returned unchanged.
    """
    if target_hz <= 0:
        raise ValueError(f"target_hz must be positive, got {target_hz}")
    if target_hz == clip.sample_rate_hz:
        return clip

    g = math.gcd(target_hz, clip.sample_rate_hz)
    up, down = target_hz // g, clip.sample_rate_hz // g
    out = resample_poly(clip.samples, up, down, window=("kaiser", RESAMPLE_KAISER_BETA))

    n_expected = round(len(clip.samples) * target_hz / clip.sample_rate_hz)
    if len(out) > n_expected:
        out = out[:n_expected]
    elif len(out) < n_expected:
        out = np.pad(out, (0, n_expected - len(out)))
    return AudioClip(samples=out, sample_rate_hz=target_hz, source_id=clip.source_id)
