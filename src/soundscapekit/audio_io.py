"""Decode, resample, and segment WAV recordings into a canonical in-memory form.

All operations are pure: they return new :class:`AudioClip` objects and never
mutate their inputs, so they are safe to call from many workers at once.
WAV files are parsed and written with ``struct`` and numpy, and the resampler
is a polyphase filter of BLAS matrix products, so audio needs no library
beyond numpy.
"""

import math
import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._table import replacing
from .errors import AudioDecodeError

#: Kaiser beta for the polyphase anti-aliasing filter used by :func:`resample`.
RESAMPLE_KAISER_BETA = 5.0

#: Most taps of the resampler's filter, 20 * max(up, down) + 1. Building the
#: filter costs time and memory in proportion to its taps, whatever the clip's
#: length: on a 2-core Xeon, about 0.6 s and 220 MB of peak memory for the
#: 1 920 021 taps of 96 001 Hz.
RESAMPLE_MAX_TAPS = 2_000_001

#: Outputs one BLAS product of the resampler computes at most. Small products
#: keep their operands in cache and run on the calling thread: products four
#: times larger woke OpenBLAS's worker threads, which then held cores that
#: `mix --jobs 2` needed and slowed it by 15%.
_POLYPHASE_BLOCK = 1 << 12

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
#: Fields 2-4 of a WAVE_FORMAT_EXTENSIBLE sub-format GUID {tag-0000-0010-8000-00AA00389B71}.
_GUID_TAIL = (0x0000, 0x0010, b"\x80\x00\x00\xaa\x00\x38\x9b\x71")


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
    """Decode a linear-PCM or IEEE-float WAV file to a mono AudioClip.

    FORMATS.md ("WAV input and output") lists the files accepted. Integer samples are
    scaled to [-1, 1] by the container's max magnitude (2**(bits-1), so
    24-bit samples are read left-justified into int32); multi-channel audio
    is averaged to mono. Non-finite float samples are rejected rather than
    clamped so corrupt files surface early.

    Raises:
        AudioDecodeError: unreadable file, unsupported format, or zero-length audio.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            rate, data = _read_wav(fh)
    except FileNotFoundError:
        raise AudioDecodeError(f"{path}: file not found") from None
    except (OSError, ValueError) as exc:
        raise AudioDecodeError(f"{path}: not a decodable linear-PCM WAV ({exc})") from exc

    if data.size == 0:
        raise AudioDecodeError(f"{path}: zero-length audio")

    if data.dtype.kind == "u":  # 8-bit WAV is offset-binary around 128
        samples = (data - 128.0) / 128.0
    elif data.dtype.kind == "i":
        samples = data / float(2 ** (8 * data.dtype.itemsize - 1))
    else:
        samples = data.astype(np.float64)
        if not np.isfinite(samples).all():
            raise AudioDecodeError(f"{path}: non-finite float samples")
        np.clip(samples, -1.0, 1.0, out=samples)

    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return AudioClip(samples=samples, sample_rate_hz=rate, source_id=path.stem)


def _read_wav(fh):
    """(rate, samples as stored) of an open WAV file: [frames] or [frames, channels].

    Chunks other than fmt and data are skipped; the first data chunk ends
    the walk. A chunk is read only up to the end of the file, so a file that
    ends inside its data chunk yields the frames present.
    """
    end = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if head[:4] not in (b"RIFF", b"RIFX") or head[8:12] != b"WAVE":
        raise ValueError("not a RIFF or RIFX WAVE file")
    order = "<" if head[:4] == b"RIFF" else ">"
    fmt = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise ValueError("no data chunk")
        name, (size,) = chunk[:4], struct.unpack(order + "I", chunk[4:])
        if name == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            rate, channels, dtype = fmt
            raw = fh.read(min(size, end - fh.tell()))
            if len(raw) % (channels * dtype.itemsize):
                raise ValueError(f"{len(raw)} data bytes are not whole {channels * dtype.itemsize}-byte frames")
            if dtype.itemsize == 3:  # 24-bit: each sample into the high three bytes of an int32
                wide = np.zeros((len(raw) // 3, 4), np.uint8)
                wide[:, slice(1, 4) if order == "<" else slice(0, 3)] = np.frombuffer(raw, np.uint8).reshape(-1, 3)
                data = wide.view(order + "i4").reshape(-1)
            else:
                data = np.frombuffer(raw, dtype)
            return rate, data.reshape(-1, channels) if channels > 1 else data
        if name == b"fmt ":
            fmt = _read_fmt(fh.read(min(size, end - fh.tell())), order)
        else:
            fh.seek(size, 1)
        fh.seek(size & 1, 1)  # chunks are padded to an even size


def _read_fmt(body: bytes, order: str):
    """(rate, channels, sample dtype) of a fmt chunk; 24-bit PCM samples are 3-byte voids."""
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack(order + "HHIIHH", body[:16])
    if tag == _EXTENSIBLE:
        if len(body) < 40 or struct.unpack(order + "H", body[16:18])[0] < 22:
            raise ValueError("truncated WAVE_FORMAT_EXTENSIBLE fmt chunk")
        sub_tag, *tail = struct.unpack(order + "IHH8s", body[24:40])
        if tuple(tail) == _GUID_TAIL:
            tag = sub_tag
    if not channels or not rate or block_align % channels:
        raise ValueError(f"{channels} channels at {rate} Hz in {block_align}-byte frames")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(f"byte rate {byte_rate} is not {rate} Hz x {block_align}-byte frames")
    width = block_align // channels
    if tag == _PCM and width == 1 and 1 <= bits <= 8:
        return rate, channels, np.dtype("u1")
    if tag == _PCM and width in (2, 3, 4) and 8 < bits <= 8 * width:
        return rate, channels, np.dtype("V3" if width == 3 else f"{order}i{width}")
    if tag == _IEEE_FLOAT and (width, bits) in ((4, 32), (8, 64)):
        return rate, channels, np.dtype(f"{order}f{width}")
    raise ValueError(f"unsupported format: tag {tag:#06x}, {bits}-bit samples in {width}-byte containers")


def write_wav_pcm16(path, clip: AudioClip) -> None:
    """Write a clip as mono 16-bit PCM WAV (samples clipped to [-1, 1], rounded to nearest).

    The file is a 44-byte RIFF header (fmt and data chunks) and the samples.
    """
    q = np.clip(clip.samples, -1.0, 1.0)
    q *= 32767.0
    np.rint(q, out=q)
    data = q.astype("<i2")
    rate = clip.sample_rate_hz
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + data.nbytes, b"WAVE", b"fmt ", 16, _PCM, 1,
                         rate, 2 * rate, 2, 16, b"data", data.nbytes)
    with replacing(path, binary=True) as fh:
        fh.write(header)
        fh.write(data.tobytes())


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample a clip to target_hz with a polyphase windowed-sinc filter.

    The filter and alignment are those of scipy.signal.resample_poly(x, up,
    down, window=("kaiser", 5.0)) with up/down = target/source in lowest
    terms; on every ratio the samples agree with it to within 1e-12 of the
    peak (see _polyphase_plan). Output length is round(len * target / source).
    A clip already at the target rate is returned unchanged. A ratio whose
    filter would exceed RESAMPLE_MAX_TAPS is a ValueError.
    """
    if target_hz <= 0:
        raise ValueError(f"target_hz must be positive, got {target_hz}")
    if target_hz == clip.sample_rate_hz:
        return clip

    g = math.gcd(target_hz, clip.sample_rate_hz)
    up, down = target_hz // g, clip.sample_rate_hz // g
    taps = 20 * max(up, down) + 1
    if taps > RESAMPLE_MAX_TAPS:
        raise ValueError(f"resampling {clip.sample_rate_hz} Hz to {target_hz} Hz needs a filter of {taps} taps, "
                         f"more than {RESAMPLE_MAX_TAPS}")
    out = _polyphase(np.ascontiguousarray(clip.samples, dtype=np.float64), up, down)
    # the filter yields ceil(len * up / down) samples, never fewer than the rounded length
    n_expected = round(len(clip.samples) * target_hz / clip.sample_rate_hz)
    return AudioClip(samples=out[:n_expected], sample_rate_hz=target_hz, source_id=clip.source_id)


def _polyphase(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """The ceil(len(x) * up / down) samples of resample_poly(x, up, down) (see _polyphase_plan), block by block."""
    stride, cols, first, last, block_rows, groups = _polyphase_plan(up, down)
    n_out = -(-len(x) * up // down)
    n_rows = -(-n_out // cols)
    y = np.empty((n_rows, cols))
    for b0 in range(0, n_rows, block_rows):
        b1 = min(b0 + block_rows, n_rows)
        src = _zero_padded(x, first + b0 * stride, last + (b1 + 1) * stride)
        for q0, q1, lead, a, b in groups:
            rows = src[lead - first : lead - first + (b1 - b0 + 1) * stride].reshape(-1, stride)
            out = rows[:-1, : len(a)] @ a
            if b is not None:
                out += rows[1:, : len(b)] @ b
            y[b0:b1, q0:q1] = out
    return y.reshape(-1)[:n_out]


def _zero_padded(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """x[start:stop] with zeros where the range leaves x; a view when it does not."""
    if 0 <= start and stop <= len(x):
        return x[start:stop]
    out = np.zeros(stop - start)
    lo, hi = (min(max(i, 0), len(x)) for i in (start, stop))
    out[lo - start : hi - start] = x[lo:hi]
    return out


@lru_cache(maxsize=8)
def _polyphase_plan(up: int, down: int):
    """resample_poly(x, up, down, window=("kaiser", 5.0)) as matrix products.

    The taps h are scipy's to within rounding: a Kaiser (beta 5) windowed sinc
    of 20*m + 1 taps with cutoff 1/m, m = max(up, down), scaled to unit DC
    gain times up. Output j is sum_i x[i] * h[half + j*down - i*up] with half =
    10*m: one polyphase branch of h (every up-th tap) against consecutive
    inputs.

    Outputs are laid out in rows of cols = k*up, and each row starts stride =
    k*down inputs after the one before, k the least integer that makes the
    stride at least a branch long. Outputs j, j + up, ... use the same branch
    (phase j) on inputs down apart.

    Consecutive outputs of a row form a group whose inputs, from `lead` on,
    span at most three branches and two strides; over many rows a group is
    one BLAS product of the row matrix with `a` plus, for the inputs past the
    stride, one of the next row with `b`. BLAS adds each output's terms in
    its own order, so the samples differ from scipy's by rounding only.

    Returns (stride, cols, least lead, greatest lead, rows per block, groups).
    """
    m = max(up, down)
    half = 10 * m
    t = np.arange(-half, half + 1, dtype=np.float64)
    h = (1.0 / m) * np.sinc((1.0 / m) * t)
    h *= np.i0(RESAMPLE_KAISER_BETA * np.sqrt(1 - (t / half) ** 2)) / np.i0(RESAMPLE_KAISER_BETA)
    h /= np.sum(h)
    h *= up

    branch = -(-len(h) // up)
    k = -(-branch // down)
    stride, cols = k * down, k * up
    reads = []  # (first input, taps in input order) of each output of a row
    for j in range(cols):
        taps = h[(half + j * down) % up :: up][::-1]
        reads.append(((half + j * down) // up + 1 - len(taps), taps))

    width_cap = min(3 * branch, 2 * stride)
    groups, q0 = [], 0
    while q0 < cols:
        lead, end, q1 = reads[q0][0], reads[q0][0] + len(reads[q0][1]), q0 + 1
        while q1 < cols:
            first, taps = reads[q1]
            if max(end, first + len(taps)) - min(lead, first) > width_cap:
                break
            lead, end, q1 = min(lead, first), max(end, first + len(taps)), q1 + 1
        mat = np.zeros((end - lead, q1 - q0))
        for col, (first, taps) in enumerate(reads[q0:q1]):
            mat[first - lead : first - lead + len(taps), col] = taps
        mat.flags.writeable = False
        groups.append((q0, q1, lead, mat[:stride], mat[stride:] if len(mat) > stride else None))
        q0 = q1
    leads = [g[2] for g in groups]
    block_rows = max(1, _POLYPHASE_BLOCK // max(q1 - q0 for q0, q1, *_ in groups))
    return stride, cols, min(leads), max(leads), block_rows, groups
