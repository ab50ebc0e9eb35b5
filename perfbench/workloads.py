"""The benchmark's workloads: seeded inputs, timed rounds, output checks
and traced passes.

cli-3day   one round of cold `python -m gridshave` processes: synth,
           optimize, simulate, report, fit. What a user waits for.
solve-50   optimizer.solve on 50 seeded one-day problems, in process. Only
           the solver works.

Every output is checked against refcheck, which does not call the program.
The program is called through its module attributes (`optimizer.solve`, not
a name imported here), so the tracer's wrappers see the benchmark's calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import gridshave.optimizer as optimizer
import gridshave.report as report
import gridshave.run as gs_run
import gridshave.scenario as scenario
from gridshave.cooling import DEFAULT_COP_MODEL, DEFAULT_TES
from gridshave.errors import GridShaveError
from gridshave.plant import DEFAULT_PLANT

import refcheck as ref
from tracer import Tracer, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

HOURS = 24

#: Parameter ranges of acceptance criterion 5 (tests/test_acceptance.py).
CRITERION5 = (
    ("base_level_mw", 24.0, 29.0),
    ("base_peak_amp_mw", 4.0, 9.0),
    ("cool_base_mw", 55.0, 72.0),
    ("cool_peak_amp_mw", 40.0, 70.0),
    ("twb_base_c", 19.0, 23.0),
    ("twb_amp_c", 2.0, 4.0),
    ("noise_mw", 0.0, 0.8),
)
START = datetime(2023, 6, 1)

#: Dominance slack: the solver's objective may exceed a reference by this share.
SLACK = 1e-9

FIT_SAMPLES = 60
IMPORT_PROBES = 3

E2E_UNITS = {
    "setup_s": "s",
    "unit_s_p50": "s",
    "days_per_s": "1/s",
    "max_rss_mb": "MB",
    "objective_mw2_sum": "MW2",
    "objective_vs_dp": "ratio",
    "peak_shaved_mw": "MW",
}

_CALLED = ("optimizer.solve", "optimizer.objective", "optimizer.gradient",
           "optimizer.hessian_diagonal", "optimizer.dp_oracle", "optimizer.hour_bounds",
           "optimizer.operator_heuristic", "scenario.no_storage_baseline",
           "scenario.split_days")
_BUSY = ("optimizer.solve", "run.build_problems", "run.evaluate_fixed_schedule",
         "scenario.load_scenario", "scenario.generate_synthetic", "report.build_report",
         "report.rebuild_report", "report.write_run_outputs")
CLI_COMMANDS = ("synth", "optimize", "simulate", "report", "fit")

LAYER_UNITS = {
    "import.gridshave_s": "s",
    "import.scipy_optimize_s": "s",
    **{f"{name}.calls": "count" for name in _CALLED},
    "optimizer.solve.iterations": "count",
    **{f"{name}.busy_s": "s" for name in _BUSY},
    "optimizer.solve.ms_p50": "ms",
    "optimizer.solve.ms_p80": "ms",
    "run.run_days.busy_s": "s",
    "run.run_days.self_s": "s",
    "run.cpu_s": "s",
    "report.bytes_written": "B",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "cli.optimize.cpu_s": "s",
    "cli.optimize.max_rss_mb": "MB",
    "quality.fuel_saved_mwh": "MWh",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# processes

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list, log: Path) -> dict:
    """Run one process to its end; wall time from spawn to exit, and the
    CPU time and peak RSS of its process tree (pool workers included)."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def setup_probe(name: str, seed: int) -> float:
    """Seconds one cold process takes to import gridshave and build the inputs."""
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                         env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def import_probe() -> tuple[float, float]:
    """Cumulative `-X importtime` seconds of gridshave and of scipy.optimize."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gridshave"],
                         env=child_env(), cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    cumulative = {}
    for line in out.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative["gridshave"], cumulative.get("scipy.optimize", 0.0)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _max_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# inputs

def draw_days(seed: int, count: int) -> tuple[list, int]:
    """`count` one-day synthetic scenarios on consecutive dates, parameters
    drawn from the criterion-5 ranges. A draw the generator rejects as
    infeasible (no-storage demand above plant capacity) is redrawn and
    counted."""
    rng = random.Random(seed)
    days, rejected = [], 0
    while len(days) < count:
        params = scenario.SynthParams(
            days=1, start=START + timedelta(days=len(days)),
            **{key: rng.uniform(lo, hi) for key, lo, hi in CRITERION5})
        noise_seed = rng.randrange(2 ** 31)
        try:
            days.append(scenario.generate_synthetic(params, seed=noise_seed))
        except GridShaveError:
            rejected += 1
    return days, rejected


def floats(values) -> list[float]:
    return [float(v) for v in values]


# ---------------------------------------------------------------------------
# checks

def check_days(p_base, q_cool, twb, q_stor, e_end, q_heur, claimed: dict,
               tol: dict) -> tuple[list[str], dict]:
    """Check a run of whole days against the references.

    claimed holds what the program reported: hourly `no_storage`,
    `optimized` and `baseline` generation, per-day `objectives` and
    `p_means`, and run-level `peak_shaved_mw` and `fuel_saved_mwh`; each is
    compared within the absolute tolerance of the same key in tol (plus
    1e-9 relative). Returns the problems found and the recomputed figures.
    """
    errs = []
    n = len(p_base)
    g_zero = ref.generation(p_base, q_cool, twb, [0.0] * n)
    g_opt = ref.generation(p_base, q_cool, twb, q_stor)
    g_heur = ref.generation(p_base, q_cool, twb, q_heur)
    targets = ref.previous_day_targets(g_zero)
    if max(g_zero) > ref.CAP_TOTAL + 1e-9:
        errs.append(f"no-storage generation {max(g_zero)} MW above capacity")

    def close(label, mine, theirs, key):
        if abs(mine - theirs) > tol[key] + 1e-9 * abs(mine):
            errs.append(f"{label}: reported {theirs!r}, recomputed {mine!r}")

    for key, mine in (("no_storage", g_zero), ("optimized", g_opt), ("baseline", g_heur)):
        if key in claimed:
            worst = max(range(n), key=lambda t: abs(mine[t] - claimed[key][t]))
            close(f"{key} generation at hour {worst}", mine[worst], claimed[key][worst], key)

    objectives, optima = [], []
    for d in range(n // HOURS):
        h = slice(d * HOURS, (d + 1) * HOURS)
        for label, q, e in (("optimized", q_stor[h], e_end[h]),
                            ("heuristic", q_heur[h], ref.trajectory(q_heur[h]))):
            errs += [f"day {d}: {label} schedule: {v}"
                     for v in ref.schedule_violations(q, e, q_cool[h], twb[h])]
        obj = ref.objective(g_opt[h], targets[d])
        objectives.append(obj)
        if "objectives" in claimed:
            close(f"day {d} objective", obj, claimed["objectives"][d], "objectives")
        if "p_means" in claimed:
            close(f"day {d} p_mean", targets[d], claimed["p_means"][d], "p_means")
        optima.append(ref.dp_optimum(p_base[h], q_cool[h], twb[h], targets[d]))
        references = (
            ("zero schedule", ref.objective(g_zero[h], targets[d])),
            ("operator heuristic", ref.objective(g_heur[h], targets[d])),
            ("0.5 MW DP optimum", optima[-1]),
        )
        for label, value in references:
            if obj > value + SLACK * abs(value):
                errs.append(f"day {d}: objective {obj!r} worse than the {label} {value!r}")

    mine = {"objectives": objectives, "dp_optima": optima,
            "peak_shaved_mw": max(g_heur) - max(g_opt),
            "fuel_saved_mwh": ref.fuel_saved(g_heur, g_opt)}
    for key in ("peak_shaved_mw", "fuel_saved_mwh"):
        if key in claimed:
            close(key, mine[key], claimed[key], key)
    return errs, mine


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(visible: dict, pooled: dict, extra: dict) -> dict:
    """Per-layer metrics from two trace summaries: `visible`, taken where
    every call runs in a traced process (one worker), and `pooled`, taken
    with the default pool, which gives run_days its wall and CPU time."""
    out = {}
    for name in _CALLED:
        out[f"{name}.calls"] = visible["calls"].get(name, 0)
    out["optimizer.solve.iterations"] = visible["iterations"]
    for name in _BUSY:
        out[f"{name}.busy_s"] = visible["busy_s"].get(name, 0.0)
    out["run.run_days.busy_s"] = pooled["busy_s"].get("run.run_days", 0.0)
    out["run.run_days.self_s"] = pooled["self_s"].get("run.run_days", 0.0)
    out["run.cpu_s"] = pooled["run_days_cpu_s"]
    out["report.bytes_written"] = visible["bytes_written"]
    for key in LAYER_UNITS:
        out.setdefault(key, extra.get(key, 0.0))
    return out


def import_metrics() -> dict:
    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    return {"import.gridshave_s": statistics.median(p[0] for p in probes),
            "import.scipy_optimize_s": statistics.median(p[1] for p in probes)}


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = WORK / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        """Run one round of the workload's operations."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        raise NotImplementedError

    def metrics(self) -> dict:
        raise NotImplementedError

    def traced(self) -> dict:
        """Per-layer metrics from traced passes after the untraced rounds."""
        raise NotImplementedError

    def overhead_pct(self, traced_s: float, untraced_s: float) -> float:
        pct = 100.0 * (traced_s / untraced_s - 1.0)
        self.notes.append(f"tracing overhead {pct:+.1f}% ({traced_s:.3f} s traced "
                          f"against {untraced_s:.3f} s untraced)")
        return pct


class Cli3Day(Workload):
    """Cold CLI processes on the default 3-day scenario (synth seed 1); the
    benchmark seed draws the COP samples that `fit` reads."""

    name = "cli-3day"
    DAYS = 3
    DEPENDS = {"optimize": ("synth",), "simulate": ("synth", "optimize"),
               "report": ("optimize",)}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        lines = ["plr,twb_c,cop"]
        for _ in range(FIT_SAMPLES):
            plr, twb = rng.uniform(0.0, 1.0), rng.uniform(ref.TWB_MIN, ref.TWB_MAX)
            lines.append(f"{plr!r},{twb!r},{ref.cop(plr, twb)!r}")
        (self.dir / "samples.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.rounds: list[dict] = []
        self.digests: list[str] = []

    def _argv(self, cmd: str) -> list:
        d = self.dir
        return {
            "synth": ["synth", "--out", d / "day.csv"],
            "optimize": ["optimize", "--scenario", d / "day.csv", "--out", d / "run"],
            "simulate": ["simulate", "--scenario", d / "day.csv",
                         "--schedule", d / "run" / "schedule.csv", "--out", d / "sim"],
            "report": ["report", "--run", d / "rerun"],
            "fit": ["fit", "--samples", d / "samples.csv", "--out", d / "cop.cfg",
                    "--metrics", d / "fit.txt"],
        }[cmd]

    def _clear(self) -> None:
        for sub in ("run", "run1", "sim", "rerun"):
            shutil.rmtree(self.dir / sub, ignore_errors=True)
        for f in ("day.csv", "cop.cfg", "fit.txt"):
            (self.dir / f).unlink(missing_ok=True)

    def _round(self, launcher) -> dict:
        self._clear()
        res = {}
        for cmd in CLI_COMMANDS:
            if cmd == "report" and (self.dir / "run").is_dir():
                shutil.copytree(self.dir / "run", self.dir / "rerun")
            res[cmd] = spawn(launcher(cmd) + self._argv(cmd), self.dir / f"{cmd}.out")
        self.attempted += len(res)
        self.failed += sum(r["code"] != 0 for r in res.values())
        return res

    def round(self) -> None:
        res = self._round(lambda cmd: [sys.executable, "-m", "gridshave"])
        self.rounds.append(res)
        if all(r["code"] == 0 for r in res.values()):
            d = self.dir
            self.digests.append(digest([d / "day.csv", d / "run" / "schedule.csv",
                                        d / "run" / "report.csv", d / "run" / "summary.txt",
                                        d / "run" / "profile.svg", d / "cop.cfg"]))

    def verify(self) -> list[str]:
        last = self.rounds[-1]
        ok = {cmd: last[cmd]["code"] == 0
              and all(last[dep]["code"] == 0 for dep in self.DEPENDS.get(cmd, ()))
              for cmd in CLI_COMMANDS}
        errs = []
        if len(set(self.digests)) > 1:
            errs.append("outputs differ between rounds")
        d = self.dir
        if ok["optimize"]:
            errs += self._check_optimize()
        if ok["simulate"]:
            run_opt = ref.read_csv_columns(d / "run" / "report.csv")["optimized_mw"]
            sim_opt = ref.read_csv_columns(d / "sim" / "report.csv")["optimized_mw"]
            worst = max(abs(a - b) for a, b in zip(run_opt, sim_opt))
            if len(run_opt) != len(sim_opt) or worst > 1e-6:
                errs.append(f"simulate differs from optimize by {worst} MW")
        if ok["report"]:
            def metric_lines(path):
                return [ln for ln in path.read_text(encoding="utf-8").splitlines()
                        if not ln.startswith("day ")]
            if metric_lines(d / "rerun" / "summary.txt") != metric_lines(d / "run" / "summary.txt"):
                errs.append("report does not reproduce the run's metric lines")
        if ok["fit"]:
            cfg = ref.read_key_values(d / "cop.cfg")
            worst = max(abs(float(cfg[f"c{i}"]) - c) for i, c in enumerate(ref.COP_COEFFS))
            if worst > 1e-8:
                errs.append(f"fit misses the generating coefficients by {worst}")
        return errs

    def _check_optimize(self) -> list[str]:
        d = self.dir
        sc = ref.read_csv_columns(d / "day.csv")
        sched = ref.read_csv_columns(d / "run" / "schedule.csv")
        table = ref.read_csv_columns(d / "run" / "report.csv")
        summary = ref.read_key_values(d / "run" / "summary.txt")
        day_lines = ref.read_day_lines(d / "run" / "summary.txt")
        if len(sc["p_base_mw"]) != self.DAYS * HOURS or len(day_lines) != self.DAYS:
            return [f"expected {self.DAYS} days of output"]
        # the operator heuristic is the program's reference schedule; the
        # benchmark checks it and evaluates it with its own arithmetic
        problems = gs_run.build_problems(scenario.load_scenario(str(d / "day.csv")),
                                         DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
        q_heur = [q for p, _ in problems for q in optimizer.operator_heuristic(p).q_stor.tolist()]
        claimed = {"no_storage": table["no_storage_mw"], "optimized": table["optimized_mw"],
                   "baseline": table["baseline_mw"],
                   "objectives": [x["objective"] for x in day_lines],
                   "p_means": [x["p_mean"] for x in day_lines],
                   "peak_shaved_mw": float(summary["peak_shaved_mw"]),
                   "fuel_saved_mwh": float(summary["fuel_saved_mwh"])}
        # report.csv carries 6 decimals and summary.txt 3 or 4
        tol = {"no_storage": 1e-6, "optimized": 1e-6, "baseline": 1e-6, "objectives": 5e-5,
               "p_means": 5e-4, "peak_shaved_mw": 5e-4, "fuel_saved_mwh": 5e-4}
        errs, self.checked = check_days(sc["p_base_mw"], sc["q_cool_mw"], sc["twb_c"],
                                        sched["q_stor_mw"], sched["e_stor_end_mwh"], q_heur,
                                        claimed, tol)
        return errs

    def _ok_rounds(self) -> list[dict]:
        return [r for r in self.rounds if all(x["code"] == 0 for x in r.values())]

    def metrics(self) -> dict:
        rounds = self._ok_rounds()
        self.notes.append("optimize s: " + " ".join(
            f"{r['optimize']['wall_s']:.2f}" for r in rounds))
        summary = ref.read_key_values(self.dir / "run" / "summary.txt")
        day_lines = ref.read_day_lines(self.dir / "run" / "summary.txt")
        # each command's median over the rounds, so one slow process does not
        # stand for its whole round
        round_s = sum(statistics.median(r[cmd]["wall_s"] for r in rounds)
                      for cmd in CLI_COMMANDS)
        return {
            "unit_s_p50": round_s,
            "days_per_s": self.DAYS / round_s,
            "max_rss_mb": statistics.median(max(x["rss_mb"] for x in r.values()) for r in rounds),
            "objective_mw2_sum": sum(x["objective"] for x in day_lines),
            "objective_vs_dp": sum(self.checked["objectives"]) / sum(self.checked["dp_optima"]),
            "peak_shaved_mw": float(summary["peak_shaved_mw"]),
        }

    def traced(self) -> dict:
        traces = self.dir / "traces"
        traces.mkdir(exist_ok=True)

        def launcher(cmd):
            return [sys.executable, HERE / "tracecli.py", traces / f"{cmd}.json"]

        res = self._round(launcher)
        one = spawn(launcher("optimize-workers1") + self._argv("optimize")[:-1]
                    + [self.dir / "run1", "--workers", "1"], self.dir / "optimize1.out")
        self.attempted += 1
        self.failed += one["code"] != 0

        def load(cmd):
            with open(traces / f"{cmd}.json", encoding="utf-8") as fh:
                return json.load(fh)["summary"]

        visible = merge([load(c) for c in ("synth", "simulate", "report", "fit",
                                           "optimize-workers1")])
        pooled = load("optimize")
        rounds = self._ok_rounds()
        extra = import_metrics()
        for cmd in CLI_COMMANDS:
            extra[f"cli.{cmd}_s"] = statistics.median(r[cmd]["wall_s"] for r in rounds)
        extra["cli.optimize.cpu_s"] = statistics.median(r["optimize"]["cpu_s"] for r in rounds)
        extra["cli.optimize.max_rss_mb"] = statistics.median(
            r["optimize"]["rss_mb"] for r in rounds)
        extra["quality.fuel_saved_mwh"] = float(
            ref.read_key_values(self.dir / "run" / "summary.txt")["fuel_saved_mwh"])
        # the default pool's noise would swamp the wrappers' cost, so the
        # overhead is taken on the four commands that do not fan out
        steady = ("synth", "simulate", "report", "fit")
        extra["trace.overhead_pct"] = self.overhead_pct(
            sum(res[c]["wall_s"] for c in steady),
            statistics.median(sum(r[c]["wall_s"] for c in steady) for r in rounds))
        return layer_metrics(visible, pooled, extra)


class Solve50(Workload):
    """optimizer.solve on 50 one-day problems from the criterion-5 ranges."""

    name = "solve-50"
    PROBLEMS = 50

    def setup(self) -> None:
        days, rejected = draw_days(self.seed, self.PROBLEMS)
        if rejected:
            self.notes.append(f"{rejected} infeasible parameter draws redrawn")
        self.problems = [gs_run.build_problems(day, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                               DEFAULT_TES)[0][0] for day in days]
        self.results: list = [None] * self.PROBLEMS
        self.solve_times: list[list[float]] = [[] for _ in self.problems]
        self.objectives: list[list[float]] = []
        self.round_s: list[float] = []

    def round(self) -> None:
        total, objectives = 0.0, []
        for k, problem in enumerate(self.problems):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                res = optimizer.solve(problem)
            except Exception as exc:  # a failed solve is counted, the run goes on
                self.failed += 1
                self.notes.append(f"problem {k}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            total += dt
            self.solve_times[k].append(dt)
            objectives.append(res.objective)
            if self.results[k] is None:
                self.results[k] = res
        self.objectives.append(objectives)
        self.round_s.append(total)

    def verify(self) -> list[str]:
        errs = []
        if any(o != self.objectives[0] for o in self.objectives):
            errs.append("objectives differ between rounds")
        self.peaks, self.fuel, self.optima = [], [], []
        for k, (problem, res) in enumerate(zip(self.problems, self.results)):
            if res is None:
                continue
            p_base, q_cool, twb = (floats(problem.p_base), floats(problem.q_cool),
                                   floats(problem.twb))
            claimed = {"optimized": floats(res.generation), "objectives": [res.objective],
                       "p_means": [problem.p_mean]}
            tol = {"optimized": 1e-9, "objectives": 1e-9, "p_means": 1e-9}
            q_heur = optimizer.operator_heuristic(problem).q_stor.tolist()
            found, mine = check_days(p_base, q_cool, twb, floats(res.schedule.q_stor),
                                     floats(res.schedule.e_stor[1:]), q_heur, claimed, tol)
            errs += [f"problem {k}: {e}" for e in found]
            self.peaks.append(mine["peak_shaved_mw"])
            self.fuel.append(mine["fuel_saved_mwh"])
            self.optima.append(mine["dp_optima"][0])
        return errs

    def metrics(self) -> dict:
        done = [r for r in self.results if r is not None]
        # each problem's median over the rounds, so a slow moment of the
        # machine counts once per problem at most
        per_problem = [statistics.median(times) for times in self.solve_times if times]
        return {
            "unit_s_p50": statistics.median(per_problem),
            "days_per_s": len(per_problem) / sum(per_problem),
            "max_rss_mb": _max_rss_mb(),
            "objective_mw2_sum": sum(r.objective for r in done),
            "objective_vs_dp": sum(r.objective for r in done) / sum(self.optima),
            "peak_shaved_mw": statistics.fmean(self.peaks),
        }

    def traced(self) -> dict:
        extra = {"quality.fuel_saved_mwh": sum(self.fuel)}
        solve_ms = [1000.0 * t for times in self.solve_times for t in times]
        untraced_round_s = statistics.median(self.round_s)
        tracer = Tracer()
        tracer.install()
        try:
            self.setup()
            self.round()
        finally:
            tracer.uninstall()
        tracer.dump(self.dir / "trace.json")
        summary = tracer.summary()
        extra.update(import_metrics())
        extra["optimizer.solve.ms_p50"] = statistics.median(solve_ms)
        extra["optimizer.solve.ms_p80"] = statistics.quantiles(
            solve_ms, n=5, method="inclusive")[3]
        extra["trace.overhead_pct"] = self.overhead_pct(self.round_s[-1], untraced_round_s)
        return layer_metrics(summary, summary, extra)


WORKLOADS = {w.name: w for w in (Cli3Day, Solve50)}
