"""The one module that writes files or makes directories, the one reader
of a JSON-object input file, and the CSV format of every table artifact.
write_text creates the parent directory of the path it writes, so a
directory such as a command's --out appears only as its first file does. A
table artifact is a header line, then one line per row, cells separated by
commas and every line ended by "\\n". Column 0 of every table read back
is an integer id (a skill, merged cluster or epoch); grid.csv's is rnn.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
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
    write_text. A NaN or infinite float, which JSON cannot hold, raises
    ValueError before anything is written."""
    text = json.dumps(doc, indent=indent, sort_keys=sort_keys, allow_nan=False)
    write_text(path, [text + "\n"])


def header_line(header) -> str:
    """The header line of a table: its cells by str(), a cell that holds a
    comma quoted, ended by "\\n"."""
    return ",".join(f'"{c}"' if "," in c else c for c in map(str, header)) + "\n"


def write_table(path, header, rows) -> None:
    """Write a header and rows of str, int or float64 cells. str() writes
    a Python or NumPy float64 as the shortest string that round-trips, the
    bytes of repr(float(x)). Each line is written as its row comes; the
    lines are never all held."""
    lines = (",".join(map(str, row)) + "\n" for row in rows)
    write_text(path, chain([header_line(header)], lines))


def check_integer(value, name: str, rule: str = "an integer") -> None:
    """The one integer rule for a count or an id handed to a library entry
    point: a Python or NumPy integer passes; a bool or a float (even 2.0)
    does not, and raises ValueError "<name> must be <rule>, got <value!r>"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def has_type(value, kind) -> bool:
    """The one type rule for values read from JSON or set in a config: a
    bool is not an int, and an int serves for a float."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


# The least value of an int config field, by name; any other int field, a
# count or a width, is at least 1.
_LOWER_BOUNDS = {"num_skills": 2, "steps_per_student": 2, "seed": 0}


def check_config(config, **choices) -> None:
    """The one check of a config dataclass, run by its __post_init__.
    Field by field, in order: the value has the field's annotated type
    (has_type), is one of its choices when choices names the field, and
    else is in (0, 1] for keep_prob, finite for any other float, and at
    least its _LOWER_BOUNDS bound for an int. The first failure raises
    ValueError naming the field."""
    for name, kind in get_type_hints(type(config)).items():
        value = getattr(config, name)
        if not has_type(value, kind):
            raise ValueError(
                f"config field {name!r} must be of type {kind.__name__}, got {value!r}"
            )
        if name in choices:
            ok, rule = value in choices[name], f"one of {choices[name]}"
        elif name == "keep_prob":
            ok, rule = 0.0 < value <= 1.0, "in (0, 1]"
        elif kind is float:
            ok, rule = math.isfinite(value), "finite"
        else:
            low = _LOWER_BOUNDS.get(name, 1)
            ok, rule = value >= low, f">= {low}"
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


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


# An integer token: ASCII digits with an optional sign, within spaces or
# tabs. On it int() and np.fromstring read the same value; int() alone
# would also read 2_0 as 20 and a fullwidth digit as its ASCII twin.
INT_TOKEN = r"[ \t]*[+-]?[0-9]+[ \t]*"
_INT = re.compile(INT_TOKEN)


def read_int(cell: str) -> int:
    """The int an INT_TOKEN cell holds; any other text is a ValueError
    "cannot read '<cell>' as int"."""
    if _INT.fullmatch(cell) is None:
        raise ValueError(f"cannot read {cell!r} as int")
    return int(cell)


def read_table(path, what: str, header, dtype=float):
    """Returns (header cells, ids, values): column 0 parsed by read_int,
    so ids up to 2**63 - 1 stay exact, and the other columns as one array.

    The file's header must equal `header`, or begin with its cells when it
    ends with `...`; else this raises "<path> is not a <what> CSV". A row
    whose cell count differs from the header's, or with a cell that
    read_int (column 0) or np.loadtxt as dtype (the others) cannot read,
    is an error naming its line and cell.
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
    def load(lines, usecols):
        return np.loadtxt(lines, delimiter=",", dtype=dtype, usecols=usecols, ndmin=2,
                          comments=None)

    try:
        values = load(rows, range(1, len(head)))
        ids = [read_int(row.partition(",")[0]) for row in rows]
    except ValueError as exc:
        # Only now look for the line at fault, one loadtxt call per line,
        # then for its cell, so a good file is read once. The readers of
        # the file judge: read_int the id, loadtxt a value, which refuses
        # some cells Python reads, such as 1_0 or a fullwidth digit.
        for n, row in enumerate(rows, start=2):
            cells = row.split(",")
            try:
                read_int(cells[0])
                load([row], range(1, len(cells)))
                continue
            except ValueError:
                pass
            for at, cell in enumerate(cells):
                try:
                    if at:
                        load([f"0,{cell}"], [1])
                    else:
                        read_int(cell)
                except ValueError:
                    kind = (dtype if at else int).__name__
                    raise ValueError(f"{path} line {n}: cannot read {cell!r} as {kind}") from exc
        raise ValueError(f"{path}: {exc}") from exc
    return head, ids, values
