"""The text syntax shared by every batlife file.

Two layouts cover them all: commented CSV tables (cell data, reports,
CLI outputs) and plain ``key = value`` files (manifests, report summaries,
``--config`` files). Both open with ``# `` comment lines; the first carries
the provenance header (tool version, configuration fingerprint, kind).
Every float is spelled as ``repr`` of a Python float, the shortest text
that reads back bit for bit, and booleans as 0/1.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EmptyFileError


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


def write_table(path, comments: list[str], columns, rows) -> None:
    """Write a commented CSV: one ``# `` line per comment, the header, the rows.

    Row values must already be spelled (``spell``, ``spell_floats``) or be
    ints; they are written as they are.
    """
    with Path(path).open("w", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def read_table(path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comments, header, rows) of a commented CSV, parsed as it streams in.

    Comments come back as written (without their ``#`` and one space);
    blank rows are dropped. A file with no header row raises
    ``EmptyFileError``.
    """
    path = Path(path)
    comments: list[str] = []
    with path.open(newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            comments.append(line[1:].removeprefix(" ").rstrip("\r\n"))
            line = fh.readline()
        reader = csv.reader(itertools.chain([line], fh) if line else fh)
        header = next(reader, None)
        if not header:
            raise EmptyFileError(f"{path} has no header row")
        rows = [row for row in reader if row]
    return comments, header, rows


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
