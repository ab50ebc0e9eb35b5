"""Run reporting: per-hour results table, peak and fuel metrics, CSV and SVG.

The SVG chart is hand-rolled and fully deterministic (fixed canvas, fixed
float formatting) so that two identical runs produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from array import array
from datetime import datetime
from functools import cached_property
from itertools import chain

from .configio import Record
from .errors import ScenarioParseError, ShapeError
from .plant import PlantConfig, fuel_savings
from .run import DayResult
from .scenario import Scenario
from .tableio import read_table, write_table

#: The hourly columns of report.csv after its timestamp, in file order: the
#: scenario's inputs; generation (MW) with the tank idle, under the operator
#: heuristic and under the solver's schedule; that schedule's rates (MW), the
#: stored energy after each hour (MWh) and its chiller draw (MW).
REPORT_COLUMNS = ("p_base_mw", "q_cool_mw", "q_steam_mw", "twb_c",
                  "no_storage_mw", "baseline_mw", "optimized_mw",
                  "q_stor_mw", "e_stor_end_mwh", "p_ch_mw")
REPORT_HEADER = ",".join(("timestamp",) + REPORT_COLUMNS)

SCHEDULE_HEADER = "timestamp,q_stor_mw,e_stor_end_mwh"

#: (name, format) of each metric line of the summary, in summary order.
_METRIC_FORMATS = (
    ("hours", "d"),
    ("peak_baseline_mw", ".3f"),
    ("peak_optimized_mw", ".3f"),
    ("peak_no_storage_mw", ".3f"),
    ("peak_shaved_mw", ".3f"),
    ("peak_shaved_pct", ".2f"),
    ("fuel_saved_mwh", ".3f"),
    ("fuel_saved_pct_above_threshold", ".2f"),   # vs baseline fuel in above-threshold hours
    ("fuel_saved_pct_total", ".2f"),             # vs all baseline fuel
    ("peaking_hours_baseline", "d"),
    ("peaking_hours_optimized", "d"),
    ("peaking_hours_eliminated", "d"),
    ("near_threshold_hours", "d"),
)


class RunReport(Record):
    """A run's hourly table, the plant it is judged under, and the solver's
    `day k:` summary lines; everything the CLI prints and writes."""

    timestamps: list[datetime]
    table: dict[str, array]         # keyed by REPORT_COLUMNS
    plant: PlantConfig
    day_lines: list[str]

    def __post_init__(self):
        self.metrics    # computed here, so a table they reject fails before any write

    @cached_property
    def metrics(self) -> dict[str, float | int]:
        """The summary figures, keyed by their names in summary.txt."""
        base, opt = self.table["baseline_mw"], self.table["optimized_mw"]
        savings = fuel_savings(base, opt, self.plant)
        thr, margin = self.plant.threshold, self.plant.peaking_margin_mw
        peak_base, peak_opt = float(max(base)), float(max(opt))
        shaved = peak_base - peak_opt
        return {
            "hours": len(self.timestamps),
            "peak_baseline_mw": peak_base,
            "peak_optimized_mw": peak_opt,
            "peak_no_storage_mw": float(max(self.table["no_storage_mw"])),
            "peak_shaved_mw": shaved,
            "peak_shaved_pct": 100.0 * shaved / peak_base if peak_base > 0.0 else 0.0,
            "fuel_saved_mwh": savings.saved_mwh,
            "fuel_saved_pct_above_threshold": savings.percent,
            "fuel_saved_pct_total": savings.percent_of_total,
            "peaking_hours_baseline": sum(g > thr for g in base),
            "peaking_hours_optimized": sum(g > thr for g in opt),
            "peaking_hours_eliminated": sum(b > thr and not o > thr for b, o in zip(base, opt)),
            "near_threshold_hours": sum(thr - margin <= g <= thr for g in opt),
        }

    def summary_lines(self) -> list[str]:
        return [f"{name} = {self.metrics[name]:{fmt}}"
                for name, fmt in _METRIC_FORMATS] + self.day_lines


def _joined(series) -> array:
    return array("d", chain.from_iterable(series))


def build_report(scenario: Scenario, day_results: list[DayResult],
                 plant: PlantConfig) -> RunReport:
    table = {
        "p_base_mw": scenario.p_base,
        "q_cool_mw": scenario.q_cool,
        "q_steam_mw": scenario.q_s_c,
        "twb_c": scenario.twb,
        "no_storage_mw": _joined(d.target.no_storage for d in day_results),
        "baseline_mw": _joined(d.optimal.heuristic_generation for d in day_results),
        "optimized_mw": _joined(d.optimal.generation for d in day_results),
        "q_stor_mw": _joined(d.optimal.schedule.q_stor for d in day_results),
        "e_stor_end_mwh": _joined(d.optimal.schedule.e_stor[1:] for d in day_results),
        "p_ch_mw": _joined(d.optimal.p_ch for d in day_results),
    }
    if len(table["baseline_mw"]) != len(scenario):
        raise ShapeError("day results do not cover the scenario")
    day_lines = [
        f"day {k}: objective = {d.optimal.objective:.4f} MW^2, "
        f"iterations = {d.optimal.iterations}, converged = {d.optimal.converged}, "
        f"p_mean = {d.problem.p_mean:.3f} ({d.target.mode})"
        for k, d in enumerate(day_results)]
    return RunReport(list(scenario.timestamps), table, plant, day_lines)


def load_report_table(path: str) -> dict:
    """Read a report CSV back into `array('d')` columns (keys match the header)."""
    return read_table(path, REPORT_HEADER, "report")[0]


def rebuild_report(run_dir: str, plant: PlantConfig) -> RunReport:
    """Recompute a run's report from its report.csv under `plant`; the
    `day k:` lines of its summary.txt, if any, are carried over as written."""
    table = load_report_table(os.path.join(run_dir, "report.csv"))
    summary = os.path.join(run_dir, "summary.txt")
    day_lines = []
    if os.path.exists(summary):
        with open(summary, "r", encoding="utf-8") as fh:
            day_lines = [line for line in fh.read().splitlines() if line.startswith("day ")]
    return RunReport(table.pop("timestamp"), table, plant, day_lines)


def write_report_csv(report: RunReport, path: str) -> None:
    write_table(path, REPORT_HEADER, [report.table[name] for name in REPORT_COLUMNS],
                report.timestamps, fmt="{:.6f}".format)


def write_schedule_csv(report: RunReport, path: str) -> None:
    write_table(path, SCHEDULE_HEADER,
                [report.table["q_stor_mw"], report.table["e_stor_end_mwh"]], report.timestamps)


def load_schedule_csv(path: str, timestamps: list[datetime]) -> tuple[array, array]:
    """The hourly rates q_stor and the stored energy after each hour from a
    schedule CSV whose rows are stamped with `timestamps`, the hours of the
    scenario it is applied to. The first row stamped otherwise raises
    ScenarioParseError naming it; a schedule of another length is left to its
    caller."""
    table = read_table(path, SCHEDULE_HEADER, "schedule")[0]
    for row, (got, want) in enumerate(zip(table["timestamp"], timestamps), start=1):
        if got != want:
            raise ScenarioParseError(
                f"{path}: row {row}: timestamp {got.isoformat()} differs from the "
                f"scenario's {want.isoformat()}", row=row)
    return table["q_stor_mw"], table["e_stor_end_mwh"]


def write_summary(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in report.summary_lines():
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# SVG chart

_WIDTH, _HEIGHT = 960, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 30, 45

_SERIES_STYLE = (
    ("no_storage", "#999999", "4,3"),
    ("baseline", "#1f77b4", ""),
    ("optimized", "#d62728", ""),
)


def _scale(v, lo, hi, out_lo, out_hi):
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def write_profile_svg(report: RunReport, path: str) -> None:
    """Hour-vs-generation line chart with the peaking threshold marked."""
    n = len(report.timestamps)
    threshold = report.plant.threshold
    series = {name: report.table[f"{name}_mw"] for name, _, _ in _SERIES_STYLE}
    y_min = min(threshold, *(min(s) for s in series.values())) - 2.0
    y_max = max(threshold, *(max(s) for s in series.values())) + 2.0

    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T

    def px(i):
        return _scale(i, 0, max(n - 1, 1), x0, x1)

    def py(v):
        return _scale(v, y_min, y_max, y0, y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]

    # horizontal gridlines every 5 MW
    grid_lo = math.ceil(y_min / 5.0) * 5
    for level in range(grid_lo, int(y_max) + 1, 5):
        y = py(level)
        parts.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{level}</text>')

    # day boundaries
    for i in range(0, n, 24):
        x = px(i)
        parts.append(
            f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y1}" stroke="#eeeeee"/>')
        parts.append(
            f'<text x="{x + 3:.2f}" y="{y0 + 16}" font-size="11">h{i}</text>')

    # peaking threshold
    ty = py(threshold)
    parts.append(
        f'<line x1="{x0}" y1="{ty:.2f}" x2="{x1}" y2="{ty:.2f}" '
        f'stroke="#444444" stroke-dasharray="8,4"/>')
    parts.append(
        f'<text x="{x1 - 4}" y="{ty - 5:.2f}" text-anchor="end" font-size="11">'
        f'{threshold:.0f} MW threshold</text>')

    for name, color, dash in _SERIES_STYLE:
        pts = " ".join(f"{px(i):.2f},{py(series[name][i]):.2f}" for i in range(n))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>')

    # legend
    lx, ly = x0 + 10, y1 + 8
    for k, (name, color, dash) in enumerate(_SERIES_STYLE):
        yy = ly + 16 * k
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{lx}" y1="{yy}" x2="{lx + 24}" y2="{yy}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        parts.append(
            f'<text x="{lx + 30}" y="{yy + 4}" font-size="12">{name}</text>')

    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12">hour</text>')
    parts.append(
        f'<text x="14" y="{(y0 + y1) // 2}" font-size="12" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">generation MW</text>')
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def write_run_outputs(report: RunReport, out_dir: str) -> dict[str, str]:
    """Write schedule.csv, report.csv, profile.svg and summary.txt."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "schedule": os.path.join(out_dir, "schedule.csv"),
        "report": os.path.join(out_dir, "report.csv"),
        "profile": os.path.join(out_dir, "profile.svg"),
        "summary": os.path.join(out_dir, "summary.txt"),
    }
    write_schedule_csv(report, paths["schedule"])
    write_report_csv(report, paths["report"])
    write_profile_svg(report, paths["profile"])
    write_summary(report, paths["summary"])
    return paths
