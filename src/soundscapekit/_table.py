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

from .errors import SchemaError


class Table:
    """An input CSV table: ``header``, then its non-blank rows as ``(line_no, fields)``.

    The header must equal one of headers (lists of column names); rows must
    have as many fields. line_no counts the '#' lines that comments=True
    skips before the header (a quoted multi-line row gives its last line).
    Every violation, here or in a cell parser, raises SchemaError with path and line;
    bytes that are not UTF-8 name their own line.
    The header is read on construction; each iteration opens the file anew.
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
        width = len(self.header)
        with open(self.path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(self._lines(itertools.islice(fh, self._skip, None), self._skip))
            try:
                for fields in reader:
                    if fields:
                        line = self._skip + reader.line_num
                        if len(fields) != width:
                            raise self.error(f"expected {width} fields, got {len(fields)}", line)
                        yield line, fields
            except csv.Error as exc:
                raise self.error(f"unreadable CSV ({exc})", self._skip + reader.line_num) from None

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
        """A cell holding a finite number."""
        try:
            value = float(text)
        except ValueError:
            raise self.error(f"expected a number, got {text!r}", line) from None
        if not math.isfinite(value):
            raise self.error(f"expected a finite number, got {text!r}", line)
        return value

    def flag(self, text, line) -> bool:
        """A cell holding a 0/1 flag."""
        if text not in ("0", "1"):
            raise self.error(f"flag must be 0 or 1, got {text!r}", line)
        return text == "1"


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


def write_table(path, header, rows, comments=()) -> None:
    """CSV after '#' comment lines; path "-" streams to stdout."""
    with nullcontext(sys.stdout) if path == "-" else replacing(path) as fh:
        fh.writelines(line + "\n" for line in comments)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, data) -> None:
    with replacing(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
