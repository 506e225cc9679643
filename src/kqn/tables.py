"""The one module that writes files or makes directories, the one reader
of a JSON-object input file, and the CSV format of every table artifact.
write_text creates the parent directory of the path it writes, so a
directory such as a command's --out appears only as its first file does. A
table artifact is a header line, then one line per row, cells separated by
commas and every line ended by "\\n". Column 0 of a row is an integer id:
a skill id, a merged cluster id or an epoch.
"""
from __future__ import annotations

import csv
import json
import os
from itertools import chain
from pathlib import Path
from typing import Iterable, get_type_hints

import numpy as np


def write_text(path, chunks: Iterable[str]) -> None:
    """Write text chunks to a temp file beside path as they come, then move
    it over path with os.replace, so a write cut short by an error (also one
    the chunks raise) or an interrupt leaves the old file or no file under
    path, never part of the new one. (It does not fsync, so it does not
    guard against a power loss.) Missing parent directories come first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, doc, indent: int = 2, sort_keys: bool = False) -> None:
    """Write doc as indented JSON text ended by a newline, through
    write_text."""
    write_text(path, [json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"])


def write_table(path, header, rows) -> None:
    """Write a header and rows of str, int or float64 cells. str() writes
    a Python or NumPy float64 as the shortest string that round-trips, the
    bytes of repr(float(x)). A header cell that holds a comma is quoted.
    Each line is written as its row comes; the lines are never all held."""
    head = ",".join(f'"{c}"' if "," in c else c for c in map(str, header))
    write_text(path, chain([head + "\n"], (",".join(map(str, row)) + "\n" for row in rows)))


def has_type(value, kind) -> bool:
    """The one type rule for values read from JSON or set in a config: a
    bool is not an int, and an int serves for a float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def check_types(config) -> dict:
    """Refuse the first field of a dataclass config whose value fails
    has_type for its annotated type; returns the field types by name."""
    hints = get_type_hints(type(config))
    for name, kind in hints.items():
        value = getattr(config, name)
        if not has_type(value, kind):
            raise ValueError(
                f"config field {name!r} must be of type {kind.__name__}, got {value!r}"
            )
    return hints


def read_json_object(path, what: str) -> dict:
    """The JSON object a file holds; undecodable bytes, malformed JSON or
    any other value is an error naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object")
    return doc


def read_table(path, what: str, header, dtype=float):
    """Returns (header cells, ids, values): column 0 parsed with int(), so
    ids up to 2**63 - 1 stay exact, and the other columns as one array.

    The file's header must equal `header`, or begin with its cells when it
    ends with `...`; else this raises "<path> is not a <what> CSV". A row
    whose cell count differs from the header's is an error naming its line.
    """
    lines = Path(path).read_text().splitlines()
    head = next(csv.reader(lines[:1]), [])
    prefix = header[-1] is ...
    fixed = list(header[:-1] if prefix else header)
    if (head[: len(fixed)] if prefix else head) != fixed:
        raise ValueError(f"{path} is not a {what} CSV")
    rows = lines[1:]
    for n, row in enumerate(rows, start=2):
        cells = row.count(",") + 1
        if cells != len(head):
            raise ValueError(f"{path} line {n}: {cells} cells, the header has {len(head)}")
    if not rows:  # loadtxt warns on empty input
        return head, [], np.empty((0, len(head) - 1), dtype)
    # loadtxt parses with Python's own string-to-double, so floats round-trip,
    # and takes about three quarters of the time of np.array on split cells.
    values = np.loadtxt(rows, delimiter=",", dtype=dtype, usecols=range(1, len(head)),
                        ndmin=2, comments=None)
    return head, [int(row.partition(",")[0]) for row in rows], values
