"""The shared output writer: exact bytes, and a whole file or none."""

import errno

import numpy as np
import pytest

from soundscapekit import audio_io
from soundscapekit._table import replacing, write_json, write_table
from soundscapekit.audio_io import AudioClip, decode_wav, write_wav_pcm16

OLD = b"previous content\n"


@pytest.fixture
def target(tmp_path):
    """An existing output file, to be left byte-identical by a failed write."""
    p = tmp_path / "out.csv"
    p.write_bytes(OLD)
    return p


def assert_untouched(target):
    assert target.read_bytes() == OLD
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_table_bytes(target):
    write_table(target, ["a", "b"], iter([[1, "x,y"], [2.5, ""]]), comments=["# p=1"])
    assert target.read_bytes() == b'# p=1\na,b\r\n1,"x,y"\r\n2.5,\r\n'
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_table_dash_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_table("-", ["a"], [[1]], comments=["# c"])
    assert capsys.readouterr().out == "# c\na\r\n1\r\n"
    assert list(tmp_path.iterdir()) == []


def test_json_bytes(tmp_path):
    p = tmp_path / "r.json"
    write_json(p, {"b": [1, 2], "a": 0.1})
    assert p.read_text() == '{\n  "a": 0.1,\n  "b": [\n    1,\n    2\n  ]\n}\n'


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_table_failing_midway_keeps_the_previous_file(target, error):
    def rows():
        for i in range(1000):
            yield [i, repr(i / 7)]
        raise error("row 1000")

    with pytest.raises(error):
        write_table(target, ["i", "x"], rows())
    assert_untouched(target)


def test_json_failing_midway_keeps_the_previous_file(target):
    with pytest.raises(TypeError):
        write_json(target, {"a": list(range(1000)), "b": {1, 2}})
    assert_untouched(target)


def test_wav_failing_midway_keeps_the_previous_file(target, monkeypatch):
    def disk_full(fh, rate, data):
        fh.write(b"RIFF\0\0\0\0WAVE")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(audio_io.wavfile, "write", disk_full)
    with pytest.raises(OSError, match="No space left"):
        write_wav_pcm16(target, AudioClip(np.zeros(100), 8000))
    assert_untouched(target)


def test_wav_round_trip(tmp_path):
    p = tmp_path / "a.wav"
    write_wav_pcm16(p, AudioClip(np.array([0.0, 0.5, -1.0]), 8000))
    np.testing.assert_array_equal(decode_wav(p).samples, np.array([0, 16384, -32767]) / 32768.0)
    assert [q.name for q in tmp_path.iterdir()] == ["a.wav"]


@pytest.mark.parametrize("where", ["missing directory", "directory at the path"])
def test_errors_name_the_target_not_the_temporary_file(tmp_path, where):
    if where == "missing directory":
        p = tmp_path / "missing" / "t.json"
    else:
        p = tmp_path / "t.json"
        p.mkdir()
    with pytest.raises(OSError) as err:
        with replacing(p) as fh:
            fh.write("{}\n")
    assert str(err.value).endswith(f": {str(p)!r}")
    assert ".part" not in str(err.value)
    assert not list(tmp_path.rglob("*.part"))
