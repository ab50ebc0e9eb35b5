"""The one CSV codec behind every gridshave table (scenario, schedule,
report and COP samples).

A table file holds an exact header line and one row per line. Blank lines
are skipped and `# key: value` comment lines are collected as metadata. A
first column named `timestamp` holds ISO-8601 timestamps; every other cell
is a finite float, and every other column an `array('d')`. Every error is a
ScenarioParseError that carries the 1-based data row.
"""

from __future__ import annotations

import math
import os
from array import array
from datetime import datetime

from .errors import ScenarioParseError


def read_table(path: str, header: str, what: str) -> tuple[dict, dict[str, str]]:
    """Read a table into ({column: values}, {metadata key: value}).

    The timestamp column, if any, is a list of datetimes; every other column
    is an `array('d')`. `what` names the table in the file-not-found error.
    """
    if not os.path.exists(path):
        raise ScenarioParseError(f"{what} file not found: {path}")
    meta: dict[str, str] = {}
    lines: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                key, colon, value = line[1:].partition(":")
                if colon:
                    meta[key.strip()] = value.strip()
            elif line:
                lines.append(line)
    got = lines[0] if lines else None
    if got != header:
        raise ScenarioParseError(f"{path}: expected header {header!r}, got {got!r}")
    if len(lines) == 1:
        raise ScenarioParseError(f"{path}: no data rows")

    names = header.split(",")
    stamped = names[0] == "timestamp"
    columns: dict = {name: [] if stamped and name == names[0] else array("d")
                     for name in names}
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ScenarioParseError(
                f"{path}: row {row}: expected {len(names)} columns, got {len(cells)}",
                row=row)
        if stamped:
            try:
                columns["timestamp"].append(datetime.fromisoformat(cells[0]))
            except ValueError as exc:
                raise ScenarioParseError(
                    f"{path}: row {row}: bad timestamp {cells[0]!r}", row=row) from exc
        for name, cell in zip(names[stamped:], cells[stamped:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ScenarioParseError(
                    f"{path}: row {row}: non-numeric cell {cell!r}", row=row) from exc
            if not math.isfinite(value):
                raise ScenarioParseError(
                    f"{path}: row {row}: {name} = {value} is not finite", row=row)
            columns[name].append(value)
    return columns, meta


def write_table(path: str, header: str, columns, timestamps=None, fmt=repr,
                meta: dict | None = None) -> None:
    """Write `# key: value` metadata lines, the header, then one row per
    entry of the equal-length float columns, each cell formatted by `fmt`
    and preceded by the row's ISO-8601 timestamp when `timestamps` is given."""
    lines = [f"# {key}: {value}" for key, value in (meta or {}).items()]
    lines.append(header)
    rows = [[fmt(v) for v in row]
            for row in zip(*(array("d", c) for c in columns), strict=True)]
    if timestamps is not None:
        rows = [[t.isoformat(), *cells] for t, cells in zip(timestamps, rows)]
    lines += [",".join(cells) for cells in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
