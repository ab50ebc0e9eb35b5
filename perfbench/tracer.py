"""Spans and call counts around the public functions of gridshave's layers.

The tracer lives outside the program: `install` replaces each public
function of the `scenario`, `optimizer`, `run` and `report` modules with a
timing wrapper under every name the package binds it to (the defining
module, the package namespace and every module that imported it with
`from .x import f`), so calls between layers go through the wrappers too.
`uninstall` puts the originals back.

Spans are kept in memory as (name, start, end, parent index) and written out
once, by `dump`. Calls made in forked pool workers run the wrappers in the
worker's memory and are not seen here; the benchmark collects those with a
one-worker pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "gridshave"
LAYERS = ("scenario", "optimizer", "run", "report")

#: Leaf writers whose output file size counts into report.bytes_written.
WRITERS = ("report.write_schedule_csv", "report.write_report_csv",
           "report.write_profile_svg", "report.write_summary")


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.iterations = 0
        self.bytes_written = 0
        self.run_days_cpu_s = 0.0

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            cpu0 = _cpu_s() if name == "run.run_days" else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if name == "optimizer.solve":
                self.iterations += int(result.iterations)
            elif name == "run.run_days":
                self.run_days_cpu_s += _cpu_s() - cpu0
            elif name in WRITERS:
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.bytes_written += os.path.getsize(path)
            return result

        return wrapper

    def summary(self) -> dict:
        """Calls, busy time (outermost spans of each name) and self time
        (duration minus direct children) per function name."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        children_s: Counter = Counter()
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            if parent >= 0:
                children_s[parent] += t1 - t0
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - children_s[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += t1 - t0
        return {"calls": dict(calls), "busy_s": dict(busy), "self_s": dict(self_s),
                "iterations": self.iterations, "bytes_written": self.bytes_written,
                "run_days_cpu_s": self.run_days_cpu_s}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "summary": self.summary()}, fh)


def merge(summaries: list[dict]) -> dict:
    """Sum of several summaries, for traces taken in more than one process."""
    out = {"calls": Counter(), "busy_s": Counter(), "self_s": Counter(),
           "iterations": 0, "bytes_written": 0, "run_days_cpu_s": 0.0}
    for s in summaries:
        for key in ("calls", "busy_s", "self_s"):
            out[key].update(s[key])
        for key in ("iterations", "bytes_written", "run_days_cpu_s"):
            out[key] += s[key]
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}
