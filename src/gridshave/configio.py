"""Flat key/value config files.

One `key = value` pair per line, `#` starts a comment, blank lines ignored.
`ConfigFile` gives each config dataclass its `save` and `load`: one line per
field, in field order, each value written with `repr`. Every value is read
as a finite float with `get_float`; an `int` field must hold a whole number.
Keys that match no field, such as those of older formats, are ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields

from .errors import ConfigError


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
    """The value of `key` as a finite float; a missing, non-numeric, nan or
    infinite value raises ConfigError naming the file and the key."""
    if key not in cfg:
        raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: key {key!r} is not numeric: {cfg[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{path}: key {key!r} is not finite: {cfg[key]!r}")
    return value


class ConfigFile:
    """Base of the config dataclasses: saved and loaded field by field."""

    def save(self, path: str, header: str | None = None) -> None:
        """Write `key = repr(value)` per field, optionally after a comment."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in (header or "").splitlines():
                fh.write(f"# {line}\n")
            for f in fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)!r}\n")

    @classmethod
    def load(cls, path: str):
        """Read every field from `path`; keys that match no field are ignored."""
        cfg = read_config(path)
        kwargs = {}
        for f in fields(cls):
            value = get_float(cfg, f.name, path)
            if f.type == "int":
                if not value.is_integer():
                    raise ConfigError(
                        f"{path}: key {f.name!r} is not an integer: {cfg[f.name]!r}")
                value = int(value)
            kwargs[f.name] = value
        return cls(**kwargs)
