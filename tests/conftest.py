import struct

import numpy as np
import pytest
from scipy.io import wavfile

from soundscapekit.labels import CLASSES


def write_wav(path, samples, rate, dtype=np.int16):
    """Write raw sample data (already in the target dtype's range) to a WAV file."""
    wavfile.write(path, rate, np.asarray(samples, dtype=dtype))


def write_wav_float(path, samples, rate):
    wavfile.write(path, rate, np.asarray(samples, dtype=np.float32))


def write_wav_24bit(path, values, rate):
    """Hand-roll a 24-bit PCM WAV from signed 24-bit integer values."""
    data = b"".join(struct.pack("<i", int(v))[:3] for v in values)
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
    dat = b"data" + struct.pack("<I", len(data)) + data
    riff = b"RIFF" + struct.pack("<I", 4 + len(fmt) + len(dat)) + b"WAVE"
    path.write_bytes(riff + fmt + dat)


def tone(freq_hz, dur_s, rate, amp=0.5, phase=0.0):
    t = np.arange(int(round(dur_s * rate))) / rate
    return amp * np.sin(2 * np.pi * freq_hz * t + phase)


def flags(label_sets):
    """[len(label_sets) x CLASSES] bool array; row i flags the classes in label_sets[i]."""
    return np.array([[c in labels for c in CLASSES] for labels in label_sets], dtype=bool).reshape(-1, len(CLASSES))


@pytest.fixture
def tmp_wav_dir(tmp_path):
    return tmp_path
