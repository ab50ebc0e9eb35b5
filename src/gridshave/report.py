"""Run reporting: per-hour results table, peak and fuel metrics, CSV and SVG.

The SVG chart is hand-rolled and fully deterministic (fixed canvas, fixed
float formatting) so that two identical runs produce byte-identical files.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ShapeError
from .plant import PlantConfig, fuel_savings
from .run import DayResult
from .scenario import Scenario
from .tableio import read_table, write_table

REPORT_HEADER = ("timestamp,p_base_mw,q_cool_mw,q_steam_mw,twb_c,"
                 "no_storage_mw,baseline_mw,optimized_mw,"
                 "q_stor_mw,e_stor_end_mwh,p_ch_mw")

SCHEDULE_HEADER = "timestamp,q_stor_mw,e_stor_end_mwh"

#: A `day k:` summary line; older summaries carry extra fields before p_mean.
_DAY_LINE = re.compile(
    r"^day (\d+): objective = (\S+) MW\^2, iterations = (\d+), "
    r"converged = (True|False), (?:.*, )?p_mean = (\S+) \((\S+)\)$", re.MULTILINE)


@dataclass(frozen=True)
class SolverStats:
    day: int
    objective: float
    iterations: int
    converged: bool
    p_mean: float
    p_mean_mode: str


@dataclass(frozen=True)
class RunReport:
    """Everything the CLI prints and writes for one run."""

    timestamps: list[datetime]
    p_base: np.ndarray
    q_cool: np.ndarray
    q_s_c: np.ndarray
    twb: np.ndarray
    no_storage: np.ndarray          # MW, tank idle
    baseline: np.ndarray            # MW, operator-heuristic schedule
    optimized: np.ndarray           # MW, solver schedule
    q_stor: np.ndarray              # MW, solver schedule rates
    e_stor_end: np.ndarray          # MWh, stored energy after each hour
    p_ch: np.ndarray                # MW, chiller electric draw (optimized)
    threshold: float
    peak_baseline_mw: float
    peak_optimized_mw: float
    peak_no_storage_mw: float
    peak_shaved_mw: float
    peak_shaved_pct: float
    fuel_saved_mwh: float
    fuel_saved_pct: float           # vs baseline fuel in above-threshold hours
    fuel_saved_pct_total: float     # vs all baseline fuel
    peaking_hours_baseline: int
    peaking_hours_optimized: int
    peaking_hours_eliminated: int
    near_threshold_hours: int
    solver_stats: list[SolverStats]

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.solver_stats)

    def summary_lines(self) -> list[str]:
        lines = [
            f"hours = {len(self.timestamps)}",
            f"peak_baseline_mw = {self.peak_baseline_mw:.3f}",
            f"peak_optimized_mw = {self.peak_optimized_mw:.3f}",
            f"peak_no_storage_mw = {self.peak_no_storage_mw:.3f}",
            f"peak_shaved_mw = {self.peak_shaved_mw:.3f}",
            f"peak_shaved_pct = {self.peak_shaved_pct:.2f}",
            f"fuel_saved_mwh = {self.fuel_saved_mwh:.3f}",
            f"fuel_saved_pct_above_threshold = {self.fuel_saved_pct:.2f}",
            f"fuel_saved_pct_total = {self.fuel_saved_pct_total:.2f}",
            f"peaking_hours_baseline = {self.peaking_hours_baseline}",
            f"peaking_hours_optimized = {self.peaking_hours_optimized}",
            f"peaking_hours_eliminated = {self.peaking_hours_eliminated}",
            f"near_threshold_hours = {self.near_threshold_hours}",
        ]
        for s in self.solver_stats:
            lines.append(
                f"day {s.day}: objective = {s.objective:.4f} MW^2, "
                f"iterations = {s.iterations}, converged = {s.converged}, "
                f"p_mean = {s.p_mean:.3f} ({s.p_mean_mode})")
        return lines


def report_from_arrays(timestamps: list[datetime],
                       p_base, q_cool, q_s_c, twb,
                       no_storage, baseline, optimized,
                       q_stor, e_stor_end, p_ch,
                       plant: PlantConfig,
                       solver_stats: list[SolverStats]) -> RunReport:
    """Assemble a RunReport, deriving every metric from the hourly table."""
    baseline = np.asarray(baseline, dtype=float)
    optimized = np.asarray(optimized, dtype=float)
    savings = fuel_savings(baseline, optimized, plant)
    thr = plant.threshold
    peak_base = float(np.max(baseline))
    peak_opt = float(np.max(optimized))
    above_base = baseline > thr
    above_opt = optimized > thr
    margin = plant.peaking_margin_mw
    near = np.sum((optimized >= thr - margin) & (optimized <= thr))

    return RunReport(
        timestamps=timestamps,
        p_base=np.asarray(p_base, dtype=float),
        q_cool=np.asarray(q_cool, dtype=float),
        q_s_c=np.asarray(q_s_c, dtype=float),
        twb=np.asarray(twb, dtype=float),
        no_storage=np.asarray(no_storage, dtype=float),
        baseline=baseline, optimized=optimized,
        q_stor=np.asarray(q_stor, dtype=float),
        e_stor_end=np.asarray(e_stor_end, dtype=float),
        p_ch=np.asarray(p_ch, dtype=float),
        threshold=thr,
        peak_baseline_mw=peak_base,
        peak_optimized_mw=peak_opt,
        peak_no_storage_mw=float(np.max(np.asarray(no_storage, dtype=float))),
        peak_shaved_mw=peak_base - peak_opt,
        peak_shaved_pct=100.0 * (peak_base - peak_opt) / peak_base,
        fuel_saved_mwh=savings.saved_mwh,
        fuel_saved_pct=savings.percent,
        fuel_saved_pct_total=savings.percent_of_total,
        peaking_hours_baseline=int(np.sum(above_base)),
        peaking_hours_optimized=int(np.sum(above_opt)),
        peaking_hours_eliminated=int(np.sum(above_base & ~above_opt)),
        near_threshold_hours=int(near),
        solver_stats=solver_stats,
    )


def build_report(scenario: Scenario, day_results: list[DayResult],
                 plant: PlantConfig) -> RunReport:
    baseline = np.concatenate([d.heuristic_generation for d in day_results])
    optimized = np.concatenate([d.optimal.generation for d in day_results])
    no_storage = np.concatenate([d.no_storage_generation for d in day_results])
    q_stor = np.concatenate([d.optimal.schedule.q_stor for d in day_results])
    e_end = np.concatenate([d.optimal.schedule.e_stor[1:] for d in day_results])
    p_ch = np.concatenate([d.optimal.p_ch for d in day_results])
    if baseline.shape[0] != len(scenario):
        raise ShapeError("day results do not cover the scenario")

    stats = [SolverStats(
        day=d.day, objective=d.optimal.objective,
        iterations=d.optimal.iterations, converged=d.optimal.converged,
        p_mean=d.p_mean, p_mean_mode=d.p_mean_mode) for d in day_results]

    return report_from_arrays(
        list(scenario.timestamps), scenario.p_base, scenario.q_cool,
        scenario.q_s_c, scenario.twb, no_storage, baseline, optimized,
        q_stor, e_end, p_ch, plant, stats)


def load_report_table(path: str) -> dict:
    """Read a report CSV back into column arrays (keys match the header)."""
    return read_table(path, REPORT_HEADER, "report")[0]


def _read_solver_stats(path: str) -> list[SolverStats]:
    """The `day k:` lines of a summary file, or none if it does not exist."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return [SolverStats(int(m[1]), float(m[2]), int(m[3]), m[4] == "True",
                            float(m[5]), m[6]) for m in _DAY_LINE.finditer(fh.read())]


def rebuild_report(run_dir: str, plant: PlantConfig) -> RunReport:
    """Reconstruct a report from an emitted report.csv, with the solver stats
    of the run's summary.txt."""
    table = load_report_table(os.path.join(run_dir, "report.csv"))
    return report_from_arrays(
        table["timestamp"], table["p_base_mw"], table["q_cool_mw"],
        table["q_steam_mw"], table["twb_c"], table["no_storage_mw"],
        table["baseline_mw"], table["optimized_mw"], table["q_stor_mw"],
        table["e_stor_end_mwh"], table["p_ch_mw"], plant,
        _read_solver_stats(os.path.join(run_dir, "summary.txt")))


def write_report_csv(report: RunReport, path: str) -> None:
    write_table(path, REPORT_HEADER,
                [report.p_base, report.q_cool, report.q_s_c, report.twb,
                 report.no_storage, report.baseline, report.optimized,
                 report.q_stor, report.e_stor_end, report.p_ch],
                report.timestamps, fmt="{:.6f}".format)


def write_schedule_csv(report: RunReport, path: str) -> None:
    write_table(path, SCHEDULE_HEADER, [report.q_stor, report.e_stor_end],
                report.timestamps)


def load_schedule_csv(path: str) -> np.ndarray:
    """Hourly q_stor rates from a schedule CSV."""
    return read_table(path, SCHEDULE_HEADER, "schedule")[0]["q_stor_mw"]


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
    series = {
        "no_storage": report.no_storage,
        "baseline": report.baseline,
        "optimized": report.optimized,
    }
    y_min = min(float(np.min(s)) for s in series.values())
    y_max = max(float(np.max(s)) for s in series.values())
    y_min = min(y_min, report.threshold) - 2.0
    y_max = max(y_max, report.threshold) + 2.0

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
    grid_lo = int(np.ceil(y_min / 5.0)) * 5
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
    ty = py(report.threshold)
    parts.append(
        f'<line x1="{x0}" y1="{ty:.2f}" x2="{x1}" y2="{ty:.2f}" '
        f'stroke="#444444" stroke-dasharray="8,4"/>')
    parts.append(
        f'<text x="{x1 - 4}" y="{ty - 5:.2f}" text-anchor="end" font-size="11">'
        f'{report.threshold:.0f} MW threshold</text>')

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
