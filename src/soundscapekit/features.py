"""Magnitude spectrograms and log-mel features.

Framing is centered: the signal is reflection-padded by half a window on
each side, so the frame count is 1 + floor(num_samples / hop) regardless of
content. The mel scale follows the Slaney formulation (linear below 1 kHz,
logarithmic above).

Framing, windowing and the FFT live in one kernel, :func:`framed_rfft`,
which the STFT here and the Welch PSD behind ``indices.ndsi`` share.
"""

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip

SCALE_LINEAR = "linear-magnitude"
SCALE_LOG_MEL = "log-mel-dB"

#: Floor added before the log so silent cells map to a finite dB value.
LOG_MEL_EPS = 1e-10

_SCALES = (SCALE_LINEAR, SCALE_LOG_MEL)

#: Frames per FFT block in framed_rfft. For a 1024-sample window a block's
#: windowed frames and spectrum take about 1 MB, small enough to stay in cache.
_BLOCK_FRAMES = 64


@dataclass
class Spectrogram:
    """A [frames x bins] matrix of per-frame spectral values.

    Attributes:
        values: non-negative magnitudes (or dB values for log-mel scale).
        frame_hop_s: time step between frames, seconds.
        bin_freqs_hz: strictly ascending bin center frequencies.
        scale: SCALE_LINEAR or SCALE_LOG_MEL.
    """

    values: np.ndarray
    frame_hop_s: float
    bin_freqs_hz: np.ndarray
    scale: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.bin_freqs_hz = np.asarray(self.bin_freqs_hz, dtype=float)
        if self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.frame_hop_s <= 0:
            raise ValueError(f"frame_hop_s must be positive, got {self.frame_hop_s}")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.bin_freqs_hz):
            raise ValueError(
                f"values shape {self.values.shape} does not match {len(self.bin_freqs_hz)} bins"
            )
        if np.any(np.diff(self.bin_freqs_hz) <= 0):
            raise ValueError("bin_freqs_hz must be strictly ascending")
        if self.scale != SCALE_LOG_MEL and np.any(self.values < 0):
            raise ValueError(f"a {self.scale} spectrogram cannot hold negative values")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    @property
    def nyquist_hz(self) -> float:
        return float(self.bin_freqs_hz[-1])


def hann(m: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of m samples.

    Built as scipy.signal.get_window("hann", m, fftbins=True) builds it,
    0.5 + 0.5*cos over m + 1 points from -pi to pi with the last dropped, so
    the two are equal bit for bit; m <= 1 gives ones.
    """
    if m <= 1:
        return np.ones(m)
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)))[:-1]


def framed_rfft(samples: np.ndarray, window: np.ndarray, hop: int, n_frames: int):
    """Yield (first, spectra): the rfft of each windowed frame, a block of frames at a time.

    Frame t is samples[t*hop : t*hop + len(window)] for t < n_frames, and
    spectra[i] is np.fft.rfft(window * frame) of frame first + i. A block
    holds _BLOCK_FRAMES frames (the last one may hold fewer), so neither the
    windowed frames nor the spectra of the whole signal exist at once.
    """
    frames = np.lib.stride_tricks.sliding_window_view(samples, len(window))[::hop]
    if n_frames > len(frames):
        raise ValueError(f"{len(samples)} samples hold {len(frames)} frames, not {n_frames}")
    windowed = np.empty((min(_BLOCK_FRAMES, n_frames), len(window)))
    for first in range(0, n_frames, _BLOCK_FRAMES):
        block = frames[first : min(first + _BLOCK_FRAMES, n_frames)]
        buf = windowed[: len(block)]
        np.multiply(block, window, out=buf)
        yield first, np.fft.rfft(buf, axis=1)


def stft_magnitude(clip: AudioClip, window_len: int = 1024, hop: int = 320) -> Spectrogram:
    """Centered Hann-windowed magnitude STFT with window_len/2 + 1 bins."""
    n = len(clip.samples)
    if not 0 < hop <= window_len:
        raise ValueError(f"need 0 < hop <= window_len, got hop={hop}, window_len={window_len}")
    if n < window_len:
        raise ValueError(f"clip of {n} samples shorter than one {window_len}-sample window")

    pad_left = window_len // 2
    pad_right = window_len - pad_left
    padded = np.pad(clip.samples, (pad_left, pad_right), mode="reflect")

    n_frames = 1 + n // hop
    window = hann(window_len)
    mags = np.empty((n_frames, window_len // 2 + 1))
    for first, spectra in framed_rfft(padded, window, hop, n_frames):
        np.abs(spectra, out=mags[first : first + len(spectra)])

    freqs = np.fft.rfftfreq(window_len, d=1.0 / clip.sample_rate_hz)
    return Spectrogram(
        values=mags,
        frame_hop_s=hop / clip.sample_rate_hz,
        bin_freqs_hz=freqs,
        scale=SCALE_LINEAR,
    )


def _hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    f_sp = 200.0 / 3.0
    brk_hz, brk_mel = 1000.0, 15.0
    logstep = np.log(6.4) / 27.0
    return np.where(f < brk_hz, f / f_sp, brk_mel + np.log(np.maximum(f, brk_hz) / brk_hz) / logstep)


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f_sp = 200.0 / 3.0
    brk_hz, brk_mel = 1000.0, 15.0
    logstep = np.log(6.4) / 27.0
    return np.where(m < brk_mel, m * f_sp, brk_hz * np.exp(logstep * (m - brk_mel)))


def mel_filterbank(n_mels: int, bin_freqs_hz: np.ndarray, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Triangular Slaney-normalized mel filterbank, shape [n_mels x bins].

    Each filter spans two adjacent mel intervals and is scaled by
    2 / bandwidth, so broader filters do not accumulate more energy.
    """
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    if not 0 <= fmin_hz < fmax_hz:
        raise ValueError(f"need 0 <= fmin < fmax, got [{fmin_hz}, {fmax_hz}]")

    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(fmin_hz), _hz_to_mel(fmax_hz), n_mels + 2))
    fb = np.zeros((n_mels, len(bin_freqs_hz)))
    for i in range(n_mels):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_freqs_hz - lo) / (center - lo)
        falling = (hi - bin_freqs_hz) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


def log_mel(
    spec: Spectrogram, n_mels: int = 64, fmin_hz: float = 0.0, fmax_hz: float | None = None
) -> Spectrogram:
    """Project a magnitude spectrogram onto mel bands and convert to dB.

    The magnitudes are squared to power, filtered, and mapped through
    10*log10(x + LOG_MEL_EPS). fmax defaults to Nyquist.
    """
    if spec.scale != SCALE_LINEAR:
        raise ValueError(f"log_mel expects a {SCALE_LINEAR} spectrogram, got {spec.scale}")
    if fmax_hz is None:
        fmax_hz = spec.nyquist_hz
    if fmax_hz > spec.nyquist_hz * (1 + 1e-9):
        raise ValueError(f"fmax {fmax_hz} Hz exceeds Nyquist {spec.nyquist_hz} Hz")

    fb = mel_filterbank(n_mels, spec.bin_freqs_hz, fmin_hz, fmax_hz)
    mel_power = (spec.values**2) @ fb.T
    centers = _mel_to_hz(np.linspace(_hz_to_mel(fmin_hz), _hz_to_mel(fmax_hz), n_mels + 2))[1:-1]
    return Spectrogram(
        values=10.0 * np.log10(mel_power + LOG_MEL_EPS),
        frame_hop_s=spec.frame_hop_s,
        bin_freqs_hz=centers,
        scale=SCALE_LOG_MEL,
    )
