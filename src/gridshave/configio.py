"""Records, flat key/value config files, and the range of each settings field.

`Record` is the base of the package's record classes, and generates no code
per class. A subclass declares its fields as annotated class attributes, in
order, optionally with defaults, after those it inherits. `__init__` takes
each field by position or keyword, fills in the defaults, raises TypeError
for a missing, unknown or repeated argument, and calls `__post_init__` last.
A record is frozen: assignment and deletion raise AttributeError, and it
hashes its field tuple. A class declared with `frozen=False` lifts both and
is unhashable. Two records are equal when they are of one class and their
field tuples are equal; the repr is `Cls(field=value, ...)`, and
`replace(**changes)` builds a changed copy through `__init__`, so it is
checked again. `fields` lists a record's fields.

One `key = value` pair per line, `#` starts a comment, blank lines ignored.
`ConfigFile` gives each config record its `save` and `load`: one line per
field, in field order, each value written with `repr`. Every value is read
as a float with `get_float`, and a whole number for an `int` field loads as
an int. Keys that match no field, such as those of older formats, are ignored.

A settings field declares its admissible interval once, as `ranged(default,
"(0, 1]")`. `check_fields` checks every `float` and `int` field of a
record: the value is finite, an `int` field holds a whole number, and the
value lies in its interval. Every `ConfigFile` runs it on construction, so a
value is checked the same way from a file and from the Python API; `load`
raises a failed check as ConfigError naming the file.
"""

from __future__ import annotations

import math
import os

from .errors import ConfigError

#: The default of a field that has none.
MISSING = object()


class Field:
    """One record field: its name, its annotation as written (a string under
    `from __future__ import annotations`), its default or MISSING, and its
    `ranged` interval as (text, lo, hi) or None."""

    __slots__ = ("name", "type", "default", "interval")

    def __init__(self, name, type, default, interval=None):
        self.name, self.type, self.default, self.interval = name, type, default, interval


def ranged(default, interval: str) -> Field:
    """A field default whose value must lie in `interval`, written
    "(lo, hi]" with `[`/`]` closed, `(`/`)` open and `inf` allowed."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    return Field(None, None, default, (interval, lo, hi))


def fields(record) -> tuple[Field, ...]:
    """The fields of a Record class or instance, inherited ones first."""
    return tuple(record._fields.values())


class Record:
    """Base of the record classes; see the module docstring."""

    _fields: dict[str, Field] = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = dict(cls._fields)
        for name, kind in cls.__dict__.get("__annotations__", {}).items():
            field = cls.__dict__.get(name, MISSING)
            if isinstance(field, Field):
                setattr(cls, name, field.default)
            else:
                field = Field(None, None, field)
            field.name, field.type = name, kind
            cls._fields[name] = field
        cls._defaults = {n: f.default for n, f in cls._fields.items() if f.default is not MISSING}
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        self.__dict__.update(self._defaults, **given)
        if len(given) < len(args) + len(kwargs) or self.__dict__.keys() != self._fields.keys():
            raise TypeError(f"{type(self).__name__}() takes each field once at most, and each "
                            f"one without a default: ({', '.join(self._fields)})")
        self.__post_init__()

    def __post_init__(self):
        """Checks and conversions of a subclass, run last by `__init__`."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with `changes` applied, built and checked by `__init__`."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({pairs})"


def check_fields(obj, error: type[Exception] = ValueError) -> None:
    """Raise `error` naming the first `float` or `int` field of record
    `obj` that is not finite, not whole (an `int` field) or outside its
    `ranged` interval. Field types are matched by name, so the record's
    module must use `from __future__ import annotations`."""
    for f in fields(obj):
        if f.type not in ("float", "int"):
            continue
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value}")
        if f.type == "int" and not float(value).is_integer():
            raise error(f"{f.name} must be a whole number, got {value}")
        if f.interval:
            interval, lo, hi = f.interval
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


class ConfigFile(Record):
    """Base of the config records: checked by `check_fields` on
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
