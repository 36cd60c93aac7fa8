"""Classical acoustic indices: ACI, ADI, and NDSI.

ACI sums the normalized frame-to-frame magnitude fluctuation per frequency
bin and temporal chunk. ADI is the Shannon entropy of per-band spectrogram
occupancy above a dBFS threshold. NDSI is the normalized band-power
difference (bio - anthro) / (bio + anthro) from a Welch PSD, which is
built on the same framed-FFT kernel as the STFT.
"""

import sys

import numpy as np

from .audio_io import AudioClip
from .features import SCALE_LINEAR, Spectrogram, framed_rfft, hann

#: Band powers below this fraction of the total PSD power count as zero, so a
#: signal with no real energy in either NDSI band yields "undefined" instead
#: of a leakage-driven ratio. Hann-window leakage from a strong out-of-band
#: tone measures around 5e-10 of total power, hence the 1e-9 floor.
NDSI_POWER_FLOOR = 1e-9

DEFAULT_ANTHRO_BAND_HZ = (1000.0, 2000.0)
DEFAULT_BIO_BAND_HZ = (2000.0, 8000.0)

DEFAULT_ADI_BAND_WIDTH_HZ = 1000.0
DEFAULT_ADI_MAX_FREQ_HZ = 10000.0
DEFAULT_ADI_DB_THRESHOLD = -50.0


def check_bands(nyquist_hz: float, adi_bands=None, ndsi_bands=None) -> int | None:
    """Raise ValueError unless the bands fit below nyquist_hz; return the ADI band count.

    adi_bands (band_width_hz, max_freq_hz) must split (0, max_freq <= Nyquist]
    into >= 2 equal bands; ndsi_bands (anthro_band_hz, bio_band_hz) must be
    disjoint [lo, hi) ranges within [0, Nyquist]. RunConfig checks these too.
    """
    if ndsi_bands is not None:
        for name, (lo, hi) in zip(("anthro", "bio"), ndsi_bands):
            if not 0 <= lo < hi <= nyquist_hz:
                raise ValueError(f"{name} band [{lo}, {hi}) invalid for Nyquist {nyquist_hz} Hz")
        (a_lo, a_hi), (b_lo, b_hi) = ndsi_bands
        if max(a_lo, b_lo) < min(a_hi, b_hi):
            raise ValueError(f"bands {ndsi_bands[0]} and {ndsi_bands[1]} overlap")
    if adi_bands is None:
        return None
    band_width_hz, max_freq_hz = adi_bands
    if max_freq_hz > nyquist_hz * (1 + 1e-9):
        raise ValueError(f"max_freq {max_freq_hz} Hz exceeds Nyquist {nyquist_hz} Hz")
    n_bands = round(max_freq_hz / band_width_hz) if band_width_hz > 0 else 0
    if n_bands < 2 or abs(n_bands * band_width_hz - max_freq_hz) > 1e-6 * max_freq_hz:
        raise ValueError(f"band width {band_width_hz} must split (0, {max_freq_hz}] into >= 2 bands")
    return n_bands


def aci_chunk_frames(chunk_s: float, frame_hop_s: float) -> int:
    """The frames in an ACI chunk of chunk_s seconds, or ValueError if fewer than 2; RunConfig checks this too.

    A count past the float range is sys.maxsize: one chunk, as any chunk longer than its clip."""
    frames = round(min(chunk_s / frame_hop_s, sys.maxsize))
    if frames < 2:
        raise ValueError(f"chunk of {chunk_s} s spans fewer than 2 frames")
    return frames


def aci(spec: Spectrogram, chunk_s: float | None = None) -> float:
    """Acoustic Complexity Index over non-overlapping temporal chunks.

    Per bin and chunk: sum(|a[t+1] - a[t]|) / sum(a[t]); the result is the
    sum over all bins and chunks. chunk_s=None treats the whole clip as one
    chunk. A trailing partial chunk is kept if it spans >= 2 frames.
    """
    if spec.scale != SCALE_LINEAR:
        raise ValueError(f"aci expects a {SCALE_LINEAR} spectrogram, got {spec.scale}")
    n_frames = spec.n_frames
    if n_frames < 2:
        raise ValueError(f"aci needs >= 2 frames, got {n_frames}")

    chunk_len = n_frames if chunk_s is None else aci_chunk_frames(chunk_s, spec.frame_hop_s)

    total = 0.0
    for start in range(0, n_frames, chunk_len):
        chunk = spec.values[start : start + chunk_len]
        if chunk.shape[0] < 2:
            break
        num = np.abs(np.diff(chunk, axis=0)).sum(axis=0)
        den = chunk.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(den > 0, num / den, 0.0)
        total += float(terms.sum())
    return total


def adi(
    spec: Spectrogram,
    band_width_hz: float = DEFAULT_ADI_BAND_WIDTH_HZ,
    max_freq_hz: float = DEFAULT_ADI_MAX_FREQ_HZ,
    db_threshold: float = DEFAULT_ADI_DB_THRESHOLD,
) -> float:
    """Acoustic Diversity Index: Shannon entropy of per-band occupancy.

    Magnitudes are referenced to the peak-bin magnitude of a full-scale
    sine under the analysis window (window_len / 4, i.e. (bins - 1) / 2),
    giving dBFS. Band i covers frequencies in (i*w, (i+1)*w]. Occupancy is
    the fraction of cells above db_threshold; occupancies are normalized to
    a distribution whose entropy is returned (0 if nothing is occupied).
    Cells are compared as magnitudes against the threshold's level,
    full_scale * 10**(db_threshold/20), rather than converted to dB.
    """
    if spec.scale != SCALE_LINEAR:
        raise ValueError(f"adi expects a {SCALE_LINEAR} spectrogram, got {spec.scale}")
    n_bands = check_bands(spec.nyquist_hz, adi_bands=(band_width_hz, max_freq_hz))

    try:
        level = (spec.n_bins - 1) / 2.0 * 10.0 ** (db_threshold / 20.0)
    except OverflowError:  # a level past the float range is above every cell
        return 0.0
    # bins are ascending, so the bins in (lo, hi] are one column slice
    edges = np.searchsorted(spec.bin_freqs_hz, np.arange(n_bands + 1) * band_width_hz, side="right")
    occupancy = np.zeros(n_bands)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi > lo:
            occupancy[i] = np.count_nonzero(spec.values[:, lo:hi] > level) / (spec.n_frames * (hi - lo))

    total = occupancy.sum()
    if total == 0:
        return 0.0
    p = occupancy / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum()) + 0.0


def band_power(freqs: np.ndarray, psd: np.ndarray, band_hz) -> float:
    """Integrate a one-sided PSD over [lo, hi) with the rectangle rule."""
    lo, hi = band_hz
    df = freqs[1] - freqs[0]
    mask = (freqs >= lo) & (freqs < hi)
    return float(psd[mask].sum() * df)


def welch_psd(samples: np.ndarray, sample_rate_hz: float):
    """One-sided Welch PSD (density) as (freqs, psd).

    Hann window, min(1024, n)-sample segments, 50% overlap, no padding and
    no detrending: the parameters of scipy.signal.welch(samples, fs,
    window="hann", nperseg=min(1024, n), detrend=False), whose result this
    matches to within 1e-12 of the largest PSD value.
    """
    nperseg = min(1024, len(samples))
    hop = nperseg - nperseg // 2
    n_segments = (len(samples) - nperseg) // hop + 1
    window = hann(nperseg)
    power = np.zeros(nperseg // 2 + 1)
    for _, spectra in framed_rfft(samples, window, hop, n_segments):
        power += (spectra.real**2 + spectra.imag**2).sum(axis=0)
    psd = power / (sample_rate_hz * float((window * window).sum()) * n_segments)
    psd[1 : None if nperseg % 2 else -1] *= 2  # one-sided: fold in the negative frequencies
    return np.fft.rfftfreq(nperseg, d=1.0 / sample_rate_hz), psd


def ndsi_from_powers(anthro_power: float, bio_power: float) -> float | None:
    """(bio - anthro) / (bio + anthro); None when both powers are zero."""
    total = anthro_power + bio_power
    if total <= 0:
        return None
    return (bio_power - anthro_power) / total


def ndsi(
    clip: AudioClip,
    anthro_band_hz=DEFAULT_ANTHRO_BAND_HZ,
    bio_band_hz=DEFAULT_BIO_BAND_HZ,
) -> float | None:
    """Normalized Difference Soundscape Index from a Welch PSD.

    PSD: Hann window, 1024-sample segments, 50% overlap. Band powers below
    NDSI_POWER_FLOOR of the total power are treated as zero; if both bands
    are empty the index is undefined and None is returned.
    """
    check_bands(clip.sample_rate_hz / 2.0, ndsi_bands=(anthro_band_hz, bio_band_hz))

    freqs, psd = welch_psd(clip.samples, clip.sample_rate_hz)
    total = float(psd.sum() * (freqs[1] - freqs[0]))
    floor = NDSI_POWER_FLOOR * total
    a = band_power(freqs, psd, anthro_band_hz)
    b = band_power(freqs, psd, bio_band_hz)
    a = a if a >= floor else 0.0
    b = b if b >= floor else 0.0
    return ndsi_from_powers(a, b)
