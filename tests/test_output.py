"""The shared output writer: exact bytes, and a whole file or none."""

import contextlib
import csv
import errno
import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    write_table(target, ["a", "b"], [[[1], ["x,y"]], [[2.5], [""]]], comments=["# p=1"])
    assert target.read_bytes() == b'# p=1\na,b\r\n1,"x,y"\r\n2.5,\r\n'
    assert [p.name for p in target.parent.iterdir()] == [target.name]


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers())
def test_table_cells_are_formatted_by_the_writer(tmp_path_factory, x, n):
    """A float is written as its repr, None as an empty cell and an int as its str."""
    p = tmp_path_factory.mktemp("cells") / "t.csv"
    write_table(p, ["x", "none", "n"], [[[x], [None], [n]]])
    assert p.read_bytes() == f"x,none,n\r\n{x!r},,{n}\r\n".encode()


#: Floats whose repr is easy to get wrong, and cell text that csv.writer must quote or pass through.
AWKWARD_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 0.1, 1.0, float("nan"), float("inf")])
CELL_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "0", "é", "漢", "\udce9", "\udc80"]), max_size=6)


@st.composite
def column_blocks(draw):
    """Blocks of columns of one table, 0-8 rows a block: float, int and bool arrays, lists of str, and lists
    that mix None, int, float and str, as the columns of rows are."""
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bool", "str", "mixed"]), min_size=2, max_size=5))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 8))
        cells = {
            "float": AWKWARD_FLOATS | st.floats(),
            "int": st.integers(-(2**62), 2**62),
            "bool": st.booleans(),
            "str": CELL_TEXT,
            "mixed": st.none() | st.integers() | AWKWARD_FLOATS | CELL_TEXT,
        }
        columns = [draw(st.lists(cells[kind], min_size=n, max_size=n)) for kind in kinds]
        blocks.append([c if kind in ("str", "mixed") else np.array(c, dtype=kind) for kind, c in zip(kinds, columns)])
    return blocks


@given(column_blocks(), st.lists(CELL_TEXT, min_size=2, max_size=5))
def test_table_columns_are_written_as_csv_writer_writes_their_rows(tmp_path_factory, blocks, header):
    d = tmp_path_factory.mktemp("columns")
    write_table(d / "columns.csv", header, blocks)
    rows = [row for block in blocks for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))]
    with open(d / "rows.csv", "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()


def test_table_columns_of_unequal_length_are_an_error(target):
    with pytest.raises(ValueError):
        write_table(target, ["a", "b"], blocks=[[["x", "y"], np.array([1.0])]])
    assert_untouched(target)


def test_table_dash_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_table("-", ["a", "b"], [[[1], [None]]], comments=["# c"])
    assert capsys.readouterr().out == "# c\na,b\r\n1,\r\n"
    assert list(tmp_path.iterdir()) == []


def test_json_bytes(tmp_path):
    p = tmp_path / "r.json"
    write_json(p, {"b": [1, 2], "a": 0.1})
    assert p.read_text() == '{\n  "a": 0.1,\n  "b": [\n    1,\n    2\n  ]\n}\n'


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_table_failing_midway_keeps_the_previous_file(target, error):
    def blocks():
        for i in range(1000):
            yield [[i], [repr(i / 7)]]
        raise error("block 1000")

    with pytest.raises(error):
        write_table(target, ["i", "x"], blocks())
    assert_untouched(target)


def test_json_failing_midway_keeps_the_previous_file(target):
    with pytest.raises(TypeError):
        write_json(target, {"a": list(range(1000)), "b": {1, 2}})
    assert_untouched(target)


class DiskFullAfter:
    """A binary file that takes `room` bytes and then fails every write with ENOSPC."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(bytes(data)[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)


def test_wav_failing_midway_keeps_the_previous_file(target, monkeypatch):
    real = audio_io.replacing

    @contextlib.contextmanager
    def disk_full(path, binary=False):
        with real(path, binary=binary) as fh:
            yield DiskFullAfter(fh, 100)

    monkeypatch.setattr(audio_io, "replacing", disk_full)
    with pytest.raises(OSError, match="No space left"):
        write_wav_pcm16(target, AudioClip(np.zeros(1000), 8000))
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


def test_symlink_target_is_replaced_and_the_link_kept(tmp_path):
    real = tmp_path / "target.json"
    real.write_bytes(OLD)
    link = tmp_path / "link.json"
    link.symlink_to(real.name)
    write_json(link, {"a": 1})
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text() == '{\n  "a": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_fifo_is_written_to_not_replaced(tmp_path):
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_table(fifo, ["a", "b"], [[np.array([1.5]), ["x"]]])
    reader.join(timeout=10)
    assert got == [b"a,b\r\n1.5,x\r\n"]
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == [fifo.name]
