"""Flat key/value config files.

One `key = value` pair per line, `#` starts a comment, blank lines ignored.
Every value is a finite float, read with `get_float`.
"""

from __future__ import annotations

import math
import os

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


def write_config(path: str, entries: dict[str, str], header: str | None = None) -> None:
    """Write entries as `key = value` lines, optionally preceded by a comment."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


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
