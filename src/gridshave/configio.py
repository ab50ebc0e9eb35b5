"""Flat key/value config files, and the range of each settings field.

One `key = value` pair per line, `#` starts a comment, blank lines ignored.
`ConfigFile` gives each config dataclass its `save` and `load`: one line per
field, in field order, each value written with `repr`. Every value is read
as a float with `get_float`, and a whole number for an `int` field loads as
an int. Keys that match no field, such as those of older formats, are ignored.

A settings field declares its admissible interval once, as `ranged(default,
"(0, 1]")`. `check_fields` checks every `float` and `int` field of a
dataclass: the value is finite, an `int` field holds a whole number, and the
value lies in its interval. Every `ConfigFile` runs it on construction, so a
value is checked the same way from a file and from the Python API; `load`
raises a failed check as ConfigError naming the file.
"""

from __future__ import annotations

import math
import os
from dataclasses import field, fields

from .errors import ConfigError


def ranged(default, interval: str):
    """A dataclass field whose value must lie in `interval`, written
    "(lo, hi]" with `[`/`]` closed, `(`/`)` open and `inf` allowed."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    return field(default=default, metadata={"interval": (interval, lo, hi)})


def check_fields(obj, error: type[Exception] = ValueError) -> None:
    """Raise `error` naming the first `float` or `int` field of dataclass
    `obj` that is not finite, not whole (an `int` field) or outside its
    `ranged` interval. Field types are matched by name, so the dataclass's
    module must use `from __future__ import annotations`."""
    for f in fields(obj):
        if f.type not in ("float", "int"):
            continue
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
        if f.type == "int" and not float(value).is_integer():
            raise error(f"{f.name} must be a whole number, got {value}")
        if "interval" in f.metadata:
            interval, lo, hi = f.metadata["interval"]
            if not ((lo <= value if interval[0] == "[" else lo < value)
                    and (value <= hi if interval[-1] == "]" else value < hi)):
                raise error(f"{f.name} must be in {interval}, got {value}")


def read_config(path: str) -> dict[str, str]:
    """Parse a flat config file into an ordered {key: raw value string} dict."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def get_float(cfg: dict[str, str], key: str, path: str = "<config>") -> float:
    """The value of `key` as a float; a missing or non-numeric value raises
    ConfigError naming the file and the key."""
    if key not in cfg:
        raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: key {key!r} is not numeric: {cfg[key]!r}") from exc


class ConfigFile:
    """Base of the config dataclasses: checked by `check_fields` on
    construction, saved and loaded field by field."""

    def __post_init__(self):
        check_fields(self)

    def save(self, path: str, header: str | None = None) -> None:
        """Write `key = repr(value)` per field, optionally after a comment."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in (header or "").splitlines():
                fh.write(f"# {line}\n")
            for f in fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)!r}\n")

    @classmethod
    def load(cls, path: str):
        """Read every field from `path`; keys that match no field are ignored.
        A value the class rejects raises ConfigError prefixed with `path`."""
        cfg = read_config(path)
        kwargs = {}
        for f in fields(cls):
            value = get_float(cfg, f.name, path)
            kwargs[f.name] = int(value) if f.type == "int" and value.is_integer() else value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
