"""The one reader of input CSV tables and writer of output files (FORMATS.md, "Reading/Writing rules")."""

import csv
import itertools
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from .errors import SchemaError

_BLOCK = 1 << 16  # bytes that Table.columns splits at a time: few enough that their cells add little to peak memory

#: A numeric cell (FORMATS.md, "Reading rules") is ASCII text that float() reads as a finite number and that
#: holds none of these: float() also takes '_' between digits and whitespace around the number.
_NOT_NUMBER = "_ \t\n\r\x0b\x0c"


class Table:
    """An input CSV table: ``header``, then its non-blank rows as ``(line_no, fields)``.

    The header must equal one of headers (lists of column names); rows must
    have as many fields. line_no counts the '#' lines that comments=True
    skips before the header (a quoted multi-line row gives its last line).
    Every violation, here or in a cell parser, raises SchemaError with path and line;
    bytes that are not UTF-8 name their own line.
    The header is read on construction; each iteration, and each call of
    columns(), opens the file anew.
    """

    def __init__(self, path, headers, comments=False):
        self.path = path
        self._skip = 0  # lines before the first row: leading '#' lines, then the header
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            lines = self._lines(fh, 0)
            try:
                first = next(lines, "")
                while comments and first.startswith("#"):
                    self._skip += 1
                    first = next(lines, "")
                if not first:
                    raise self.error("empty file, expected a header row", self._skip + 1)
                reader = csv.reader(itertools.chain([first], lines))
                self.header = next(reader)
            except csv.Error as exc:
                raise self.error(f"unreadable CSV ({exc})", self._skip + 1) from None
        if self.header not in headers:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            raise self.error(f"unexpected header {','.join(self.header)!r}, expected {expected}", self._skip + 1)
        self._skip += reader.line_num

    def __iter__(self):
        return self._rows(self._skip)

    def _rows(self, skip):
        """The rows after the file's first skip lines, which hold the header and no part of a row."""
        width = len(self.header)
        with open(self.path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(self._lines(itertools.islice(fh, skip, None), skip))
            try:
                for fields in reader:
                    if fields:
                        line = skip + reader.line_num
                        if len(fields) != width:
                            raise self.error(f"expected {width} fields, got {len(fields)}", line)
                        yield line, fields
            except csv.Error as exc:
                raise self.error(f"unreadable CSV ({exc})", skip + reader.line_num) from None

    def columns(self, numbers=()):
        """The rows as blocks of str columns: per block, one list of cells per header column.

        Concatenated, the blocks hold the fields of the rows that iteration
        yields, and the errors are the same, but for one more: ValueError where
        a cell of a column in numbers holds a character that is not ASCII or
        is in _NOT_NUMBER, which no number holds. A plain block of whole
        lines is split directly; from the first block that is not plain, the
        rows come from iteration. Plain lines are valid UTF-8 with no '"' or
        NUL, end as the file's first line ends, are not blank, are no longer
        than csv.field_size_limit() and have the header's field count.
        """
        width, limit = len(self.header), csv.field_size_limit()
        done = 0  # lines split so far, the header's included
        with open(self.path, "rb") as fh:
            sep = "\r\n" if fh.readline().endswith(b"\r\n") else "\n"
            fh.seek(0)
            while block := fh.read(_BLOCK) + fh.readline():  # whole lines: the last one is read to its end
                try:
                    text = block.decode("utf-8")
                except UnicodeDecodeError:
                    break
                lines = text.split(sep)
                if not lines[-1]:
                    lines.pop()  # the empty text after the last line end
                header = max(self._skip - done, 0)  # the header's lines in this block
                head, rows = lines[:header], lines[header:]
                flat = ",".join(rows)
                if ('"' in text or "\0" in text or "" in rows
                        or any("\r" in s or "\n" in s for s in (flat, *head))  # another line end
                        or max(map(len, rows), default=0) > limit
                        or set(map(str.count, rows, itertools.repeat(","))) - {width - 1}):
                    break
                done += len(lines)
                if rows:
                    cells = flat.split(",")
                    yield _screened([cells[k::width] for k in range(width)], numbers, flat)
            else:  # every block was plain
                return
        rows = [fields for _, fields in self._rows(max(done, self._skip))]
        if rows:
            yield _screened([list(column) for column in zip(*rows)], numbers)

    def _lines(self, lines, skipped):
        """The text lines after skipped ones; a line that held bytes that are not UTF-8 is an error there.

        The file is decoded with surrogateescape, so such bytes reach their own line.
        """
        for line_no, text in enumerate(lines, skipped + 1):
            if not text.isascii():
                try:
                    text.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise self.error(f"unreadable CSV ({exc})", line_no) from None
            yield text

    @contextmanager
    def checked(self, check):
        """A block whose SchemaError, KeyError or ValueError becomes the error of the first row, in file order,
        that check(line, fields) rejects; if every row passes, the block's error broke a rule that spans rows,
        and its message comes with the path alone."""
        try:
            yield
        except (SchemaError, KeyError, ValueError) as exc:
            for line, fields in self:
                check(line, fields)
            raise exc if isinstance(exc, SchemaError) else self.error(str(exc), None) from None

    def keyed(self):
        """The rows of a table with one row per recording_id (column 0); a repeated id is an error."""
        seen = set()
        for line, fields in self:
            if fields[0] in seen:
                raise self.error(f"duplicate recording_id {fields[0]!r}", line)
            seen.add(fields[0])
            yield line, fields

    def error(self, message, line) -> SchemaError:
        return SchemaError(message, path=self.path, line=line)

    def number(self, text, line) -> float:
        """A cell holding a finite number, spelt in ASCII without _NOT_NUMBER."""
        try:
            value = float(text)
        except ValueError:
            raise self.error(f"expected a number, got {text!r}", line) from None
        if not math.isfinite(value):
            raise self.error(f"expected a finite number, got {text!r}", line)
        if not _number_chars(text):
            raise self.error(f"expected a number, got {text!r}", line)
        return value

    def flag(self, text, line) -> bool:
        """A cell holding a 0/1 flag."""
        if text not in ("0", "1"):
            raise self.error(f"flag must be 0 or 1, got {text!r}", line)
        return text == "1"


def _screened(columns, numbers, text=None):
    """columns, or ValueError if a cell of a column in numbers holds a character that is not ASCII or is in
    _NOT_NUMBER. text, the whole block's cells joined, is screened first, so that only a block holding such a
    character in any column (an id may) is screened column by column."""
    if text is None or not _number_chars(text):
        for k in numbers:
            if not _number_chars("".join(columns[k])):
                raise ValueError(f"a cell of column {k} is not a number")
    return columns


def _number_chars(text) -> bool:
    """Whether text holds no character that is not ASCII or is in _NOT_NUMBER."""
    return text.isascii() and not any(c in text for c in _NOT_NUMBER)


def coded(cells, codes) -> np.ndarray:
    """The code of each cell in codes, a dict that first gives each new cell the next code, in order of appearance."""
    return np.fromiter((codes.setdefault(cell, len(codes)) for cell in cells), np.intp, len(cells))


def floats(cells, parse=float) -> np.ndarray:
    """parse of each cell as float64; a cell that parse rejects raises its error."""
    return np.fromiter(map(parse, cells), float, len(cells))


@contextmanager
def replacing(path, binary=False):
    """A file whose content replaces path once the block completes; on error path stays as it was.

    A symlink's target is replaced, not the link; a path that exists and is
    not a regular file (a FIFO, a device) is written to directly instead.
    """
    mode, text = ("wb", {}) if binary else ("w", {"newline": "", "encoding": "utf-8", "errors": "surrogateescape"})
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # missing or unreachable: opening the temporary file reports it
        regular = True
    if not regular:
        with open(path, mode, **text) as fh:
            yield fh
        return
    real = Path(os.path.realpath(path))
    tmp = real.with_name(f"{real.name}.{os.getpid()}.part")
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, real)
    except OSError as exc:
        if exc.filename == str(tmp):  # name path, as opening it directly would
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise
    finally:
        tmp.unlink(missing_ok=True)


def write_table(path, header, blocks, comments=()) -> None:
    """CSV after '#' comment lines: the header, then the blocks of columns; path "-" streams to stdout.

    A block is a list of two or more equal-length columns, each a numpy array
    of numbers or a sequence of values; its rows are written as csv.writer
    writes them (a number as its repr, None as an empty cell, a str quoted
    only where it must be).
    """
    with nullcontext(sys.stdout) if path == "-" else replacing(path) as fh:
        fh.writelines(line + "\n" for line in comments)
        fh.write(",".join(_cells(header)) + "\r\n")
        for block in blocks:
            lines = list(map(",".join, zip(*map(_cells, block), strict=True)))
            if lines:
                fh.write("\r\n".join(lines) + "\r\n")


_QUOTED = ',"\r\n'  # csv.QUOTE_MINIMAL quotes a cell holding one of these


def _cells(column) -> list:
    """The CSV cells of a column as csv writes them: each value's str ('' for None), an array's through tolist()."""
    values = column.tolist() if isinstance(column, np.ndarray) else column
    cells = ["" if v is None else str(v) for v in values]
    joined = "".join(cells)
    if not any(c in joined for c in _QUOTED):
        return cells
    return ['"' + s.replace('"', '""') + '"' if any(c in s for c in _QUOTED) else s for s in cells]


def write_json(path, data) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
