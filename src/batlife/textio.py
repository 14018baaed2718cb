"""The text syntax shared by every batlife file.

Two layouts cover them all: commented CSV tables (cell data, reports,
CLI outputs) and plain ``key = value`` files (manifests, report summaries,
model files, ``--config`` files). Both open with ``# `` comment lines; the
first carries the provenance header (tool version, configuration
fingerprint, kind). Every float is spelled as ``repr`` of a Python float,
the shortest text that reads back bit for bit, and booleans as 0/1; a
comma-joined list of floats reads back through ``parse_floats``.
``write_table`` takes rows of spelled strings and renders them a chunk at a
time with ``",".join``; a chunk with a field that needs quoting goes
through the ``csv`` writer, the one definition of quoting. ``read_table``
reads a table as text rows; ``read_columns`` parses chosen columns of a
large table to typed arrays in one C pass: ``np.loadtxt`` reads the body
from the file's path in large chunks, not line by line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, SchemaError, ValidationError


def fingerprint(config: dict) -> str:
    """Short stable hash of a configuration mapping."""
    text = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def header_comment(fp: str, kind: str = "report") -> str:
    return f"batlife v{__version__} fingerprint={fp} kind={kind}"


def spell(value) -> str:
    """The text of one value: ``repr`` of a float, 0/1 for a boolean, else ``str``."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def spell_floats(values) -> list[str]:
    """``spell`` of every element of a float array, a whole column at a time."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def parse_floats(text: str, where: str) -> np.ndarray:
    """The floats of a comma-joined ``spell_floats`` list, by the rules of a table column.

    ``np.loadtxt`` reads them, so spellings that Python's ``float`` takes and
    a cell CSV refuses (``1_0``, non-ASCII digits) are refused here too. An
    empty list, a field that does not parse or a value that is not finite
    raises ``ValidationError`` naming ``where``.
    """
    if not text:
        raise ValidationError(f"{where}: no numbers")
    try:
        values = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise ValidationError(f"{where}: {str(exc).partition(' at row')[0]}") from None
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{where}: {values[~np.isfinite(values)][0]} is not a finite number")
    return values


def parse_value(text: str):
    """Read back a spelled value: an int, else a float, else the text itself."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# Rows that ``write_table`` renders, checks and writes at a time.
_CHUNK_ROWS = 4096


def write_table(path, comments: list[str], columns, rows) -> None:
    """Write a commented CSV: one ``# `` line per comment, the header, the rows.

    Every row value must be a spelled string (``spell``, ``spell_floats``);
    it is written as it is. A line break in a comment, or a carriage return
    anywhere in the table, raises ``ValidationError``, since neither would
    read back (under a ``\\n`` line end the ``csv`` writer does not quote a
    bare ``\\r``, and the reader ends the row there). The header goes through
    the ``csv`` writer; the rows go out in chunks of ``_CHUNK_ROWS``, each
    rendered by ``_render_rows``, checked, then written. Whatever goes wrong
    once the file is open, the partly written table is removed.
    """
    path = Path(path)
    if any("\n" in comment for comment in comments):
        raise ValidationError(f"{path}: a line break in a comment would not read back")
    head = io.StringIO()
    head.writelines(f"# {comment}\n" for comment in comments)
    csv.writer(head, lineterminator="\n").writerow(columns)
    rows = iter(rows)
    fh = path.open("w", newline="")
    try:
        with fh:
            chunk = head.getvalue()
            while chunk:
                if "\r" in chunk:
                    raise ValidationError(f"{path}: a carriage return would not read back")
                fh.write(chunk)
                chunk = _render_rows(list(itertools.islice(rows, _CHUNK_ROWS)), len(columns))
    except BaseException:
        path.unlink()
        raise


def _render_rows(rows: list, width: int) -> str:
    """The text the ``csv`` writer gives ``rows`` (``\\n`` line ends), the cheap way when it can.

    The rows are joined with ``,`` and ``\\n`` when that gives the same text,
    that is when no field needs quoting: every row has ``width`` fields, and
    the joined text holds no ``"``, exactly ``width - 1`` commas and one
    ``\\n`` per row, and, in a one-column table, no empty field (the writer
    quotes a lone empty field, which would otherwise read as a blank line).
    Any other chunk goes through the ``csv`` writer.
    """
    if not rows:
        return ""
    text = "\n".join(map(",".join, rows)) + "\n"
    count = len(rows)
    if ('"' not in text and text.count("\n") == count and text.count(",") == (width - 1) * count
            and set(map(len, rows)) == {width}
            and (width > 1 or not (text.startswith("\n") or "\n\n" in text))):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _read_head(fh, path):
    """(comments, header, reader) of an open commented CSV, ``fh`` left at its first data line.

    Comments come back as written (without their ``#`` and one space). A
    file with no header row raises ``DataError``.
    """
    comments: list[str] = []
    line = fh.readline()
    while line.startswith("#"):
        comments.append(line[1:].removeprefix(" ").rstrip("\r\n"))
        line = fh.readline()
    reader = csv.reader(itertools.chain([line], fh) if line else fh)
    header = next(reader, None)
    if not header:
        raise DataError(f"{path} has no header row")
    return comments, header, reader


def read_table(path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comments, header, rows) of a commented CSV, parsed as it streams in.

    Blank rows are dropped.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        comments, header, reader = _read_head(fh, path)
        rows = [row for row in reader if row]
    return comments, header, rows


@dataclass(frozen=True)
class Columns:
    """The typed columns ``read_columns`` read, by name, and where their rows are."""

    path: Path
    comments: list[str]
    values: dict[str, np.ndarray]
    head_lines: int  # comment lines plus the header line

    def where(self, row: int) -> str:
        """``<path> line <n>``: the file line on which data row ``row`` starts.

        Blank lines hold no row, and a quoted field may span lines: the
        ``csv`` reader counts the lines each row takes.
        """
        with self.path.open(newline="") as fh:
            reader = csv.reader(itertools.islice(fh, self.head_lines, None))
            start = self.head_lines + 1
            for fields in reader:
                if fields:
                    if row == 0:
                        return f"{self.path} line {start}"
                    row -= 1
                start = self.head_lines + reader.line_num + 1
        raise IndexError(f"{self.path} has no data row {row}")


def read_columns(path, dtypes: dict[str, object]) -> Columns:
    """The columns named by ``dtypes``, each parsed to its dtype, in one C pass.

    Comments and header are read as ``read_table`` reads them; then
    ``np.loadtxt`` is given the file's path, skips those lines and reads the
    body in large chunks in C (``,``-separated, ``"``-quoted, blank lines
    skipped); columns not named are not parsed. It reads the path with
    universal newlines, so a line break inside a quoted field reads as
    ``\\n``. A named column that is missing or duplicated raises
    ``SchemaError``; a row with too few fields, or a field its dtype does not
    parse, raises ``ValidationError`` naming the line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        comments, header, reader = _read_head(fh, path)
        head_lines = len(comments) + reader.line_num
    for name in dtypes:
        if header.count(name) != 1:
            problem = "duplicated" if name in header else "missing"
            raise SchemaError(f"{path} line {head_lines}: {problem} column {name!r}")

    def parse(source, skiprows=0):
        with warnings.catch_warnings():
            # An empty body is the caller's to judge, not a warning.
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(source, dtype=list(dtypes.items()), delimiter=",", comments=None,
                              quotechar='"', usecols=[header.index(name) for name in dtypes],
                              skiprows=skiprows, ndmin=1)

    try:
        table = parse(path, head_lines)
    except ValueError as exc:
        with path.open(newline="") as fh:
            lines = fh.readlines()[head_lines:]
        bad = _first_refused(lines, parse)
        reason = str(exc).partition(" at row")[0]
        raise ValidationError(f"{path} line {head_lines + bad + 1}: {reason} in "
                              f"{lines[bad].rstrip()!r}") from None
    return Columns(path, comments, {name: table[name] for name in dtypes}, head_lines)


def _first_refused(lines: list[str], parse) -> int:
    """Index of the first of ``lines`` that ``parse`` refuses, by bisection.

    ``parse`` must refuse ``lines`` and judge each line on its own.
    """
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    return lo


def write_keys(path, comment: str, items) -> None:
    """Write a ``key = value`` file opening with one ``# `` comment line."""
    lines = [f"# {comment}", *(f"{key} = {value}" for key, value in items)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keys(path, error: type[Exception]) -> dict[str, str]:
    """The ``key = value`` pairs of a file, in file order; the last of a repeated key wins.

    Blank lines and ``#`` lines are skipped. A missing file or a line
    without ``=`` raises the caller's ``error`` class.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"no such file: {path}")
    values: dict[str, str] = {}
    with path.open() as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise error(f"{path}: line without '=': {raw.rstrip()!r}")
            values[key.strip()] = value.strip()
    return values
