import csv
import hashlib
import os
import re
import subprocess
import sys
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest

import gridshave.cooling
import gridshave.optimizer
import gridshave.run
import gridshave.scenario
from gridshave.cli import cli_main
from gridshave.cooling import (
    DEFAULT_COP_MODEL,
    DEFAULT_TES,
    CopModel,
    StorageSchedule,
    TesConfig,
    check_schedule,
    cop_values,
)
from gridshave.errors import InfeasibleScheduleError, ShapeError
from gridshave.optimizer import SolverOptions, objective, solve
from gridshave.plant import DEFAULT_PLANT, PlantConfig, fuel_savings
from gridshave.regression import SAMPLES_HEADER
from gridshave.report import (
    RunReport,
    build_report,
    load_report_table,
    load_schedule_csv,
    rebuild_report,
    write_run_outputs,
)
from gridshave.run import build_problems, evaluate_fixed_schedule, run_days
from gridshave.scenario import (
    SynthParams,
    generate_synthetic,
    load_scenario,
    no_storage_baseline,
    split_days,
    write_scenario,
)
from gridshave.tableio import write_table


@pytest.fixture(scope="module")
def run_results(synth_scenario):
    return run_days(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)


@pytest.fixture(scope="module")
def run_report(synth_scenario, run_results):
    return build_report(synth_scenario, run_results, DEFAULT_PLANT)


# ---------------------------------------------------------------------------
# report construction

def test_report_peak_metrics_consistent(run_report):
    r, m = run_report, run_report.metrics
    assert m["peak_baseline_mw"] == pytest.approx(float(np.max(r.table["baseline_mw"])))
    assert m["peak_optimized_mw"] == pytest.approx(float(np.max(r.table["optimized_mw"])))
    assert m["peak_shaved_mw"] == pytest.approx(m["peak_baseline_mw"] - m["peak_optimized_mw"])
    assert m["peak_shaved_pct"] == pytest.approx(
        100.0 * m["peak_shaved_mw"] / m["peak_baseline_mw"])
    # the default scenario crosses the threshold, and optimization clears it
    assert m["peaking_hours_baseline"] > 0
    assert m["peaking_hours_eliminated"] > 0


def test_report_identical_profiles_zero_metrics(run_report):
    table = dict(run_report.table, optimized_mw=np.array(run_report.table["baseline_mw"]))
    flat = RunReport(run_report.timestamps, table, DEFAULT_PLANT, []).metrics
    assert flat["peak_shaved_mw"] == 0.0
    assert flat["fuel_saved_mwh"] == 0.0
    assert flat["fuel_saved_pct_above_threshold"] == 0.0
    assert flat["peaking_hours_eliminated"] == 0


def test_report_fuel_metrics_match_plant_accounting(run_report):
    fs = fuel_savings(run_report.table["baseline_mw"], run_report.table["optimized_mw"],
                      DEFAULT_PLANT)
    m = run_report.metrics
    assert m["fuel_saved_mwh"] == pytest.approx(fs.saved_mwh)
    assert m["fuel_saved_pct_above_threshold"] == pytest.approx(fs.percent)
    assert m["fuel_saved_pct_total"] == pytest.approx(fs.percent_of_total)


def test_report_metrics_recomputable_from_emitted_csv(tmp_path, run_report):
    paths = write_run_outputs(run_report, str(tmp_path / "run"))
    table = load_report_table(paths["report"])
    m = run_report.metrics
    assert float(np.max(table["baseline_mw"])) == pytest.approx(
        m["peak_baseline_mw"], abs=1e-6)
    assert float(np.max(table["optimized_mw"])) == pytest.approx(
        m["peak_optimized_mw"], abs=1e-6)
    above_base = np.asarray(table["baseline_mw"]) > run_report.plant.threshold
    above_opt = np.asarray(table["optimized_mw"]) > run_report.plant.threshold
    assert int(np.sum(above_base & ~above_opt)) == m["peaking_hours_eliminated"]


def test_report_rebuild_from_run_dir(tmp_path, run_report):
    out = str(tmp_path / "run")
    write_run_outputs(run_report, out)
    rebuilt, m = rebuild_report(out, DEFAULT_PLANT).metrics, run_report.metrics
    assert rebuilt["peak_baseline_mw"] == pytest.approx(m["peak_baseline_mw"], abs=1e-6)
    assert rebuilt["fuel_saved_mwh"] == pytest.approx(m["fuel_saved_mwh"], abs=1e-3)
    assert rebuilt["peaking_hours_eliminated"] == m["peaking_hours_eliminated"]


def test_schedule_csv_round_trip(tmp_path, run_report):
    paths = write_run_outputs(run_report, str(tmp_path / "run"))
    rates, stored = load_schedule_csv(paths["schedule"], run_report.timestamps)
    assert np.array_equal(rates, run_report.table["q_stor_mw"])
    assert np.array_equal(stored, run_report.table["e_stor_end_mwh"])


def test_svg_is_deterministic_and_well_formed(tmp_path, run_report):
    out = str(tmp_path / "run")
    paths = write_run_outputs(run_report, out)
    with open(paths["profile"], "rb") as fh:
        first = fh.read()
    write_run_outputs(run_report, out)
    with open(paths["profile"], "rb") as fh:
        second = fh.read()
    assert first == second
    text = first.decode("utf-8")
    assert text.count("<polyline") == 3
    assert "threshold" in text
    assert text.startswith("<svg")


def test_daily_decomposition_matches_solo_solves(synth_scenario, run_results):
    problems = build_problems(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                              DEFAULT_TES)
    for day, (problem, _) in zip(run_results, problems):
        solo = solve(problem)
        assert solo.objective == pytest.approx(day.optimal.objective, rel=1e-12)
        assert np.array_equal(solo.schedule.q_stor, day.optimal.schedule.q_stor)


def test_evaluate_fixed_schedule_matches_optimized(synth_scenario, run_results):
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    fixed = evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT,
                                    DEFAULT_COP_MODEL, DEFAULT_TES)
    for a, b in zip(run_results, fixed):
        assert b.optimal.objective == pytest.approx(a.optimal.objective, rel=1e-12)
        # taken from the generation already computed, with the same floats
        assert b.optimal.objective == objective(b.optimal.schedule.q_stor, b.problem)


def test_days_split_and_baselined_once(monkeypatch, synth_scenario, run_results):
    split = mock.Mock(wraps=gridshave.run.split_days)
    baseline = mock.Mock(wraps=gridshave.run.no_storage_baseline)
    monkeypatch.setattr(gridshave.run, "split_days", split)
    monkeypatch.setattr(gridshave.run, "no_storage_baseline", baseline)
    # one validated chiller pass per schedule: the baseline and, in a solve,
    # the solver point and the heuristic, or the fixed schedule and the
    # heuristic
    validating = mock.Mock(wraps=gridshave.cooling.chiller_power)
    monkeypatch.setattr(gridshave.optimizer, "chiller_power", validating)
    monkeypatch.setattr(gridshave.scenario, "chiller_power", validating)
    run_days(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    assert (split.call_count, baseline.call_count) == (1, 3)
    assert validating.call_count == 9
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    assert (split.call_count, baseline.call_count) == (2, 6)
    assert validating.call_count == 9 + 9


def test_day_results_carry_each_days_baseline(synth_scenario, run_results):
    # the no-storage profile reported is the one the day targets came from
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    fixed = evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT,
                                    DEFAULT_COP_MODEL, DEFAULT_TES)
    for results in (run_results, fixed):
        assert len(results) == 3
        for day, result in zip(split_days(synth_scenario), results):
            assert result.target.no_storage.tobytes() == no_storage_baseline(day).tobytes()


def test_operator_heuristic_runs_once_per_day(monkeypatch, synth_scenario, run_results):
    heuristic = mock.Mock(wraps=gridshave.optimizer.operator_heuristic)
    monkeypatch.setattr(gridshave.optimizer, "operator_heuristic", heuristic)
    monkeypatch.setattr(gridshave.run, "operator_heuristic", heuristic)
    run_days(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    assert heuristic.call_count == 3
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    assert heuristic.call_count == 6


def test_evaluate_fixed_schedule_infeasible_names_day(synth_scenario):
    q = np.zeros(len(synth_scenario))
    q[30] = 40.0   # day 1, beyond the rate limit and the terminal state
    with pytest.raises(InfeasibleScheduleError, match="^day 1: fixed schedule infeasible"):
        evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT,
                                DEFAULT_COP_MODEL, DEFAULT_TES)


def test_evaluate_fixed_schedule_checks_the_stated_trajectory(synth_scenario, run_results):
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    e_end = np.concatenate([d.optimal.schedule.e_stor[1:] for d in run_results])
    fixed = evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                    DEFAULT_TES, e_stor_end=e_end)
    assert [d.optimal.objective for d in fixed] == [
        d.optimal.objective for d in evaluate_fixed_schedule(
            synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)]
    with pytest.raises(ShapeError, match="72 rates but 71 stored-energy values"):
        evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                DEFAULT_TES, e_stor_end=e_end[:-1])
    e_end[30] += 1e-3   # day 1, the stored energy after its hour 6
    with pytest.raises(InfeasibleScheduleError,
                       match="^day 1: fixed schedule infeasible: trajectory at hour 7"):
        evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                DEFAULT_TES, e_stor_end=e_end)


def test_evaluate_fixed_schedule_error_names_the_first_violation_only(synth_scenario,
                                                                      run_results):
    # a stored energy of -999 MWh after every hour breaks the recursion of the
    # rates and the tank bottom at hours 1-24 and the terminal state: 49 limits
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    with pytest.raises(InfeasibleScheduleError) as info:
        evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                DEFAULT_TES, e_stor_end=np.full(len(q), -999.0))
    message = str(info.value)
    assert re.fullmatch(r"day 0: fixed schedule infeasible: trajectory at hour 1: "
                        r"value -999\.000000, limit \d+\.\d{6}; and 48 more", message)
    assert len(message) < 120


def test_evaluate_fixed_schedule_non_finite_rate_names_day(synth_scenario):
    q = np.zeros(len(synth_scenario))
    q[3] = np.nan   # chiller power at hour 3 would silently read 0
    with pytest.raises(InfeasibleScheduleError, match="^day 0: .*non_finite at hour 3"):
        evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT,
                                DEFAULT_COP_MODEL, DEFAULT_TES)


# ---------------------------------------------------------------------------
# CLI

def test_cli_synth_and_optimize(tmp_path, capsys):
    scenario_path = str(tmp_path / "day.csv")
    out_dir = str(tmp_path / "run")
    assert cli_main(["synth", "--out", scenario_path, "--days", "3", "--seed", "1"]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", out_dir]) == 0
    for name in ("schedule.csv", "report.csv", "profile.svg", "summary.txt"):
        assert os.path.exists(os.path.join(out_dir, name))
    captured = capsys.readouterr()
    assert "peak_shaved_mw" in captured.out


def test_cli_fit(tmp_path):
    from gridshave.cooling import cop_values
    rng = np.random.default_rng(23)
    plr = rng.uniform(0.0, 1.0, 40)
    twb = rng.uniform(12.0, 28.0, 40)
    samples_path = str(tmp_path / "samples.csv")
    write_table(samples_path, SAMPLES_HEADER, [plr, twb, cop_values(plr, twb, DEFAULT_COP_MODEL)])
    out_path = str(tmp_path / "cop.cfg")
    metrics_path = str(tmp_path / "metrics.txt")
    assert cli_main(["fit", "--samples", samples_path, "--out", out_path,
                     "--metrics", metrics_path]) == 0
    fitted = CopModel.load(out_path)
    assert np.max(np.abs(np.array(fitted.coefficients())
                         - np.array(DEFAULT_COP_MODEL.coefficients()))) < 1e-8
    with open(metrics_path) as fh:
        assert "cvrmse_pct" in fh.read()


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
def test_cli_fit_rejects_non_finite_cop_floor(tmp_path, capsys, floor):
    rng = np.random.default_rng(23)
    plr, twb = rng.uniform(0.0, 1.0, 40), rng.uniform(12.0, 28.0, 40)
    samples_path = str(tmp_path / "samples.csv")
    write_table(samples_path, SAMPLES_HEADER, [plr, twb, cop_values(plr, twb, DEFAULT_COP_MODEL)])
    out_path = tmp_path / "cop.cfg"
    assert cli_main(["fit", "--samples", samples_path, "--out", str(out_path),
                     f"--cop-floor={floor}"]) == 1
    assert f"error: cop_floor must be finite, got {float(floor)}" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_simulate_and_report(tmp_path):
    scenario_path = str(tmp_path / "day.csv")
    run_dir = str(tmp_path / "run")
    sim_dir = str(tmp_path / "sim")
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", run_dir]) == 0
    assert cli_main(["simulate", "--scenario", scenario_path,
                     "--schedule", os.path.join(run_dir, "schedule.csv"),
                     "--out", sim_dir]) == 0
    # re-render in place
    os.remove(os.path.join(run_dir, "profile.svg"))
    assert cli_main(["report", "--run", run_dir]) == 0
    assert os.path.exists(os.path.join(run_dir, "profile.svg"))


#: summary.txt of `optimize` on the default 3-day scenario; the day lines pin
#: each day's objective, step count and certificate.
DEFAULT_SUMMARY = """\
hours = 72
peak_baseline_mw = 62.076
peak_optimized_mw = 57.131
peak_no_storage_mw = 64.572
peak_shaved_mw = 4.944
peak_shaved_pct = 7.96
fuel_saved_mwh = 45.862
fuel_saved_pct_above_threshold = 3.74
fuel_saved_pct_total = 0.55
peaking_hours_baseline = 8
peaking_hours_optimized = 1
peaking_hours_eliminated = 7
near_threshold_hours = 0
day 0: objective = 1291.6906 MW^2, iterations = 5, converged = True, p_mean = 46.375 (same-day)
day 1: objective = 1117.3586 MW^2, iterations = 5, converged = True, p_mean = 46.375 (previous-day)
day 2: objective = 949.9467 MW^2, iterations = 5, converged = True, p_mean = 45.745 (previous-day)
"""


def test_cli_report_keeps_summary_byte_identical(tmp_path):
    scenario_path = str(tmp_path / "scenario.csv")
    run_dir = str(tmp_path / "run")
    summary_path = os.path.join(run_dir, "summary.txt")
    assert cli_main(["synth", "--out", scenario_path]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", run_dir]) == 0
    with open(summary_path, "rb") as fh:
        written = fh.read()
    assert written.decode() == DEFAULT_SUMMARY
    assert cli_main(["report", "--run", run_dir]) == 0
    with open(summary_path, "rb") as fh:
        assert fh.read() == written
    assert written.count(b"\nday ") == 3


#: sha256 of report.csv and profile.svg written by `optimize` on the default
#: 3-day scenario, and by `simulate` of the schedule it writes.
DEFAULT_OUTPUT_SHA256 = {
    "report.csv": "22a7b6ef4eb659768280b8e5361c84827772e93bc954e33202922a621bdaca48",
    "profile.svg": "621200860517cccc9d88ce448958c0a4ee9a95e8ddf8721450e31c460c1b901f",
}

#: (q_stor_mw, e_stor_end_mwh) of each hour of the schedule.csv that `optimize`
#: writes on the default 3-day scenario, to 10 decimals.
DEFAULT_SCHEDULE = (
    (-4.4403301472, 171.1596698528), (-4.1610380788, 166.998631774),
    (-0.8604815927, 166.1381501813), (9.4618498187, 175.6), (-0.5608362035, 175.0391637965),
    (0.4915593145, 175.530723111), (0.069276889, 175.6), (0.0, 175.6), (0.0, 175.6),
    (0.0, 175.6), (0.0, 175.6), (0.0, 175.6), (-2.221074403, 173.378925597),
    (-19.9475969935, 153.4313286035), (-31.7, 121.7313286035), (-31.7, 90.0313286035),
    (-31.7, 58.3313286035), (-21.0301367517, 37.3011918518), (-2.7106982681, 34.5904935837),
    (15.7675907731, 50.3580843568), (30.1419156432, 80.5), (31.7, 112.2), (31.7, 143.9),
    (31.7, 175.6), (-6.1879143073, 169.4120856927), (-5.984960964, 163.4271247287),
    (-0.2861872511, 163.1409374776), (6.3286042993, 169.4695417769),
    (-0.0203323656, 169.4492094113), (6.1507905887, 175.6), (-1.7810888246, 173.8189111754),
    (1.7810888246, 175.6), (0.0, 175.6), (0.0, 175.6), (0.0, 175.6), (0.0, 175.6),
    (-3.1392362551, 172.4607637449), (-20.4621609184, 151.9986028266),
    (-29.6592905489, 122.3393122777), (-31.7, 90.6393122777), (-31.7, 58.9393122777),
    (-19.5196521921, 39.4196600856), (-4.0094289764, 35.4102311092), (13.3897688908, 48.8),
    (31.7, 80.5), (31.7, 112.2), (31.7, 143.9), (31.7, 175.6), (-6.8589219242, 168.7410780758),
    (-1.5998524743, 167.1412256015), (8.4587743985, 175.6), (-1.5281851711, 174.0718148289),
    (1.5281851711, 175.6), (-1.0032103785, 174.5967896215), (1.0032103785, 175.6),
    (0.0, 175.6), (0.0, 175.6), (0.0, 175.6), (0.0, 175.6), (0.0, 175.6),
    (-5.1184802691, 170.4815197309), (-18.7257642192, 151.7557555117),
    (-29.4702458937, 122.285509618), (-31.7, 90.585509618), (-30.978777125, 59.606732493),
    (-20.4633908414, 39.1433416516), (-3.3199260836, 35.823415568),
    (14.6437637431, 50.4671793111), (30.0328206889, 80.5), (31.7, 112.2), (31.7, 143.9),
    (31.7, 175.6),
)

#: sha256 of the scenario CSV written by `synth` with its defaults (seed 1,
#: 3 days). report.csv prints the inputs to 6 decimals only; this pins them
#: at full precision.
DEFAULT_SYNTH_SHA256 = "0ff67111fa7a30ada1e64f8e12a64111aa72a72a42a8acb9178498ae961eb311"


@pytest.fixture
def default_run(tmp_path):
    """A run directory written by `optimize` on the default 3-day scenario."""
    scenario_path = str(tmp_path / "scenario.csv")
    run_dir = tmp_path / "run"
    assert cli_main(["synth", "--out", scenario_path]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", str(run_dir)]) == 0
    return run_dir


def _day_lines(text):
    return [line for line in text.splitlines() if line.startswith("day ")]


def test_cli_report_keeps_a_day_line_of_an_older_summary(default_run):
    # summaries written before the interior-point solver carry a residual field
    older = ("day 0: objective = 1291.6906 MW^2, iterations = 10, converged = True, "
             "first_order_residual = 1.0e-09, p_mean = 46.375 (same-day)")
    summary = default_run / "summary.txt"
    lines = summary.read_text().splitlines()
    lines[13] = older    # the first day line, after the 13 metric lines
    summary.write_text("\n".join(lines) + "\n")
    assert cli_main(["report", "--run", str(default_run)]) == 0
    written = summary.read_text()
    assert written == "\n".join(lines) + "\n"
    assert _day_lines(written)[0] == older


def test_cli_report_without_summary_writes_no_day_line(default_run, capsys):
    summary = default_run / "summary.txt"
    expected = DEFAULT_SUMMARY.splitlines()[:13]
    summary.unlink()
    capsys.readouterr()
    assert cli_main(["report", "--run", str(default_run)]) == 0
    assert summary.read_text().splitlines() == expected
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_report_under_another_plant_keeps_the_day_lines(default_run, tmp_path):
    plant_path = str(tmp_path / "plant.cfg")
    PlantConfig(cap_gt=30.0, threshold=55.0).save(plant_path)
    summary = default_run / "summary.txt"
    before = summary.read_text()
    assert cli_main(["report", "--run", str(default_run), "--plant", plant_path]) == 0
    after = summary.read_text()
    assert after.splitlines()[:13] != before.splitlines()[:13]
    assert "peak_baseline_mw = 62.076" in after
    assert _day_lines(after) == _day_lines(before)
    assert after.encode().endswith("".join(f"{line}\n" for line in _day_lines(before)).encode())


def test_cli_report_all_zero_baseline_exits_0(default_run, capsys):
    report_csv = default_run / "report.csv"
    lines = report_csv.read_text().splitlines()
    header = lines[0].split(",")
    zeroed = [header.index(name) for name in ("no_storage_mw", "baseline_mw", "optimized_mw")]
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        for j in zeroed:
            cells[j] = "0.000000"
        lines[i] = ",".join(cells)
    report_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["report", "--run", str(default_run)]) == 0
    out = capsys.readouterr().out
    assert "peak_shaved_pct = 0.00" in out.splitlines()
    assert "peak_baseline_mw = 0.000" in out.splitlines()


def test_cli_default_outputs_keep_their_hashes(tmp_path):
    scenario_path = str(tmp_path / "scenario.csv")
    assert cli_main(["synth", "--out", scenario_path]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", str(tmp_path / "run")]) == 0
    assert cli_main(["simulate", "--scenario", scenario_path,
                     "--schedule", str(tmp_path / "run" / "schedule.csv"),
                     "--out", str(tmp_path / "sim")]) == 0
    for run in ("run", "sim"):
        for name, digest in DEFAULT_OUTPUT_SHA256.items():
            assert hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest() == digest, \
                f"{run}/{name}"


def test_cli_default_schedule_keeps_its_numbers(default_run):
    with open(default_run / "schedule.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(DEFAULT_SCHEDULE)
    for row, (q_stor, e_end) in zip(rows, DEFAULT_SCHEDULE):
        assert abs(float(row["q_stor_mw"]) - q_stor) <= 1e-8, row
        assert abs(float(row["e_stor_end_mwh"]) - e_end) <= 1e-8, row


def test_cli_default_synth_keeps_its_hash(tmp_path):
    path = tmp_path / "scenario.csv"
    assert cli_main(["synth", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SYNTH_SHA256


def test_cli_default_synth_keeps_its_hash_without_numpy(tmp_path):
    # a None entry in sys.modules makes every `import numpy` fail
    path = tmp_path / "scenario.csv"
    code = ("import sys; sys.modules['numpy'] = None; from gridshave.cli import main; "
            f"sys.argv = ['gridshave', 'synth', '--out', {str(path)!r}]; main()")
    src = os.path.dirname(os.path.dirname(gridshave.run.__file__))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True, capture_output=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SYNTH_SHA256


def test_cli_optimize_keeps_its_outputs_without_numpy(tmp_path):
    # a None entry in sys.modules makes every `import numpy` fail
    scenario_path, run_dir = tmp_path / "scenario.csv", tmp_path / "run"
    assert cli_main(["synth", "--out", str(scenario_path)]) == 0
    code = ("import sys; sys.modules['numpy'] = None; from gridshave.cli import main; "
            f"sys.argv = ['gridshave', 'optimize', '--scenario', {str(scenario_path)!r}, "
            f"'--out', {str(run_dir)!r}]; main()")
    src = os.path.dirname(os.path.dirname(gridshave.run.__file__))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True, capture_output=True)
    for name, digest in DEFAULT_OUTPUT_SHA256.items():
        assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest, name
    with open(run_dir / "schedule.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(DEFAULT_SCHEDULE)
    for row, (q_stor, e_end) in zip(rows, DEFAULT_SCHEDULE):
        assert abs(float(row["q_stor_mw"]) - q_stor) <= 1e-8, row
        assert abs(float(row["e_stor_end_mwh"]) - e_end) <= 1e-8, row


def test_cli_workers_flag_is_ignored(tmp_path):
    scenario_path = str(tmp_path / "scenario.csv")
    assert cli_main(["synth", "--out", scenario_path]) == 0
    for name, extra in (("plain", []), ("workers", ["--workers", "2"])):
        assert cli_main(["optimize", "--scenario", scenario_path,
                         "--out", str(tmp_path / name)] + extra) == 0
    for name in ("schedule.csv", "report.csv", "profile.svg", "summary.txt"):
        assert (tmp_path / "workers" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


def test_cli_optimize_charges_a_day_the_uniform_ramp_cannot(tmp_path, capsys):
    scenario_path, tes_path = str(tmp_path / "day.csv"), str(tmp_path / "tes.cfg")
    assert cli_main(["synth", "--out", scenario_path, "--days", "1",
                     "--base-mw", "15", "--cool-peak-mw", "84"]) == 0
    tes = TesConfig(e_initial=0.0, e_terminal=175.6)
    tes.save(tes_path)
    out = tmp_path / "run"
    assert cli_main(["optimize", "--scenario", scenario_path, "--tes", tes_path,
                     "--out", str(out)]) == 0, capsys.readouterr().err
    timestamps = load_scenario(scenario_path).timestamps
    rates, stored = load_schedule_csv(str(out / "schedule.csv"), timestamps)
    schedule = StorageSchedule(rates, [tes.e_initial, *stored])
    assert check_schedule(schedule, tes) == []


@pytest.mark.parametrize("command", ["optimize", "simulate"])
def test_cli_scenario_not_starting_at_midnight_exits_1(tmp_path, capsys, command):
    day = generate_synthetic(SynthParams(days=1), seed=1)
    scenario = day.replace(timestamps=[ts + timedelta(hours=6) for ts in day.timestamps])
    scenario_path, schedule = str(tmp_path / "dawn.csv"), tmp_path / "idle.csv"
    write_scenario(scenario, scenario_path)
    # an idle schedule stamped with the scenario's hours
    rows = [f"{ts.isoformat()},0.0,{DEFAULT_TES.e_initial!r}" for ts in scenario.timestamps]
    schedule.write_text("timestamp,q_stor_mw,e_stor_end_mwh\n" + "\n".join(rows) + "\n")
    args = [command, "--scenario", scenario_path, "--out", str(tmp_path / "out")]
    if command == "simulate":
        args += ["--schedule", str(schedule)]
    assert cli_main(args) == 1
    assert "error: scenario starts at 2023-06-12T06:00:00, not at 00:00" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_simulate_infeasible_schedule_exits_1(tmp_path, capsys):
    scenario_path = str(tmp_path / "day.csv")
    schedule = tmp_path / "schedule.csv"
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    rows = [f"2023-06-12T{h:02d}:00:00,{40.0 if h == 3 else 0.0},0.0" for h in range(24)]
    schedule.write_text("timestamp,q_stor_mw,e_stor_end_mwh\n" + "\n".join(rows) + "\n")
    assert cli_main(["simulate", "--scenario", scenario_path, "--schedule", str(schedule),
                     "--out", str(tmp_path / "sim")]) == 1
    assert "day 0: fixed schedule infeasible" in capsys.readouterr().err


def test_cli_simulate_rejects_stored_energy_off_the_rates(default_run, capsys):
    # every e_stor_end_mwh cell reads -999.0, far below an empty tank
    header, *rows = (default_run / "schedule.csv").read_text().splitlines()
    schedule = default_run / "other.csv"
    schedule.write_text("\n".join([header, *(r.rsplit(",", 1)[0] + ",-999.0" for r in rows)])
                        + "\n")
    capsys.readouterr()
    assert cli_main(["simulate", "--scenario", str(default_run.parent / "scenario.csv"),
                     "--schedule", str(schedule), "--out", str(default_run / "sim")]) == 1
    assert re.search(r"day 0: fixed schedule infeasible: trajectory at hour 1: "
                     r"value -999\.000000", capsys.readouterr().err)
    assert not (default_run / "sim").exists()


@pytest.mark.parametrize("hours, row, stamped", [
    ("a month later", 1, "2023-07-12T00:00:00"),
    ("with days 1 and 2 swapped", 25, "2023-06-14T00:00:00"),
])
def test_cli_simulate_rejects_a_schedule_for_other_hours(default_run, capsys, hours, row,
                                                         stamped):
    header, *rows = (default_run / "schedule.csv").read_text().splitlines()
    if hours == "a month later":
        rows = [r.replace("2023-06-", "2023-07-") for r in rows]
    else:
        rows = rows[:24] + rows[48:] + rows[24:48]
    schedule = default_run / "other.csv"
    schedule.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert cli_main(["simulate", "--scenario", str(default_run.parent / "scenario.csv"),
                     "--schedule", str(schedule), "--out", str(default_run / "sim")]) == 1
    assert f"row {row}: timestamp {stamped} differs from the scenario's" in \
        capsys.readouterr().err
    assert not (default_run / "sim").exists()


def test_cli_simulate_non_finite_rate_exits_1(tmp_path, capsys):
    scenario_path = str(tmp_path / "day.csv")
    schedule = tmp_path / "schedule.csv"
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    rows = [f"2023-06-12T{h:02d}:00:00,{'nan' if h == 3 else 0.0},0.0" for h in range(24)]
    schedule.write_text("timestamp,q_stor_mw,e_stor_end_mwh\n" + "\n".join(rows) + "\n")
    assert cli_main(["simulate", "--scenario", scenario_path, "--schedule", str(schedule),
                     "--out", str(tmp_path / "sim")]) == 1
    assert "row 4: q_stor_mw = nan is not finite" in capsys.readouterr().err


def test_cli_report_non_finite_cell_exits_1(tmp_path, capsys):
    scenario_path = str(tmp_path / "day.csv")
    run_dir = tmp_path / "run"
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", str(run_dir)]) == 0
    lines = (run_dir / "report.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[6] = "nan"    # baseline_mw at hour 4
    lines[5] = ",".join(cells)
    (run_dir / "report.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["report", "--run", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert "row 5: baseline_mw = nan is not finite" in captured.err
    assert "peak_baseline_mw" not in captured.out


def test_cli_unknown_flag_exits_1():
    assert cli_main(["optimize", "--bogus"]) == 1


@pytest.mark.parametrize("command", ["optimize", "simulate"])
def test_cli_p_mean_mode_flag_is_gone(tmp_path, capsys, command):
    argv = [command, "--scenario", "day.csv", "--out", str(tmp_path / "run"),
            "--p-mean-mode", "previous-day"]
    if command == "simulate":
        argv += ["--schedule", "schedule.csv"]
    assert cli_main(argv) == 1
    assert "unrecognized arguments: --p-mean-mode previous-day" in capsys.readouterr().err


def test_cli_empty_wet_bulb_window_names_the_cop_file(tmp_path, capsys):
    cop_path = tmp_path / "cop.cfg"
    CopModel(twb_min=10.0, twb_max=30.0).save(str(cop_path))
    cop_path.write_text(cop_path.read_text().replace("twb_min = 10.0", "twb_min = 30.0")
                        .replace("twb_max = 30.0", "twb_max = 10.0"))
    scenario_path = str(tmp_path / "day.csv")
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    capsys.readouterr()
    assert cli_main(["optimize", "--scenario", scenario_path, "--cop", str(cop_path),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == \
        f"error: {cop_path}: twb_min must be in (-inf, twb_max=10.0], got 30.0\n"
    assert not (tmp_path / "run").exists()


def test_cli_missing_scenario_exits_1(tmp_path):
    assert cli_main(["optimize", "--scenario", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "run")]) == 1


def test_cli_row_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,p_base_mw,q_cool_mw,q_steam_mw,twb_c\n"
                   "2023-09-10T00:00:00,30,-80,10,20\n")
    assert cli_main(["optimize", "--scenario", str(bad),
                     "--out", str(tmp_path / "run")]) == 1
    assert "row 1" in capsys.readouterr().err


@pytest.mark.parametrize("days", ["0", "-2"])
def test_cli_synth_rejects_non_positive_days(tmp_path, capsys, days):
    out = tmp_path / "day.csv"
    assert cli_main(["synth", "--out", str(out), "--days", days]) == 1
    assert f"error: days must be in [1, inf), got {days}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, field", [("--base-mw", "base_level_mw"),
                                         ("--cool-peak-mw", "cool_peak_amp_mw"),
                                         ("--noise-mw", "noise_mw")])
def test_cli_synth_rejects_non_finite_parameter(tmp_path, capsys, flag, field):
    out = tmp_path / "day.csv"
    assert cli_main(["synth", "--out", str(out), "--days", "1", flag, "nan"]) == 1
    assert f"error: {field} must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


_NEGATIVE_SPELLINGS = [
    ("fit", ["--cop-floor", "-inf"], "cop_floor must be finite, got -inf"),
    ("fit", ["--cop-floor", "-nan"], "cop_floor must be finite, got nan"),
    ("synth", ["--noise-mw", "-nan"], "noise_mw must be finite, got nan"),
    ("synth", ["--base-mw", "-inf"], "base_level_mw must be finite, got -inf"),
    ("synth", ["--cool-peak-mw", "-Infinity"], "cool_peak_amp_mw must be finite, got -inf"),
    ("synth", ["--days", "-1e3"], "argument --days: invalid int value: '-1e3'"),
    ("fit", ["--cop-floor", "-1e3"], "cop_floor must be in (0, inf), got -1000.0"),
    ("fit", ["--cop-floor", "-0.0"], "cop_floor must be in (0, inf), got -0.0"),
    ("fit", ["--cop-floor", "0"], "cop_floor must be in (0, inf), got 0.0"),
    ("synth", ["--base-mw", "-1e3"], "base_level_mw must be in [0, inf), got -1000.0"),
    ("synth", ["--noise-mw", "-.5E+1"], "noise_mw must be in [0, inf), got -5.0"),
    ("synth", ["--days", "-2"], "days must be in [1, inf), got -2"),
    ("synth", ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize("command, flags, message", _NEGATIVE_SPELLINGS,
                         ids=[" ".join([c] + f) for c, f, _ in _NEGATIVE_SPELLINGS])
def test_cli_reads_a_negative_float_after_a_flag_as_its_value(tmp_path, capsys, command,
                                                              flags, message):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)] + flags
    if command == "fit":
        rng = np.random.default_rng(23)
        plr, twb = rng.uniform(0.0, 1.0, 40), rng.uniform(12.0, 28.0, 40)
        samples_path = str(tmp_path / "samples.csv")
        write_table(samples_path, SAMPLES_HEADER,
                    [plr, twb, cop_values(plr, twb, DEFAULT_COP_MODEL)])
        argv += ["--samples", samples_path]
    assert cli_main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_convergence_exit_code(tmp_path):
    scenario_path = str(tmp_path / "day.csv")
    solver_path = str(tmp_path / "solver.cfg")
    SolverOptions(max_iterations=1).save(solver_path)
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    code = cli_main(["optimize", "--scenario", scenario_path,
                     "--out", str(tmp_path / "run"), "--solver", solver_path])
    assert code == 2


@pytest.mark.parametrize("value, message", [
    ("1.5", "max_iterations must be a whole number, got 1.5"),
    ("0", "max_iterations must be in [1, inf), got 0"),
], ids=["fraction", "zero"])
def test_cli_invalid_max_iterations_exits_1(tmp_path, capsys, value, message):
    scenario_path = str(tmp_path / "day.csv")
    solver_path = tmp_path / "solver.cfg"
    solver_path.write_text(f"max_iterations = {value}\n"
                           "feasibility_tol = 1e-06\noptimality_tol = 1e-08\n")
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    capsys.readouterr()
    assert cli_main(["optimize", "--scenario", scenario_path, "--solver", str(solver_path),
                     "--out", str(tmp_path / "run")]) == 1
    assert f"error: {solver_path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_config_round_trip_through_optimize(tmp_path):
    scenario_path = str(tmp_path / "day.csv")
    plant_path = str(tmp_path / "plant.cfg")
    cop_path = str(tmp_path / "cop.cfg")
    tes_path = str(tmp_path / "tes.cfg")
    DEFAULT_PLANT.save(plant_path)
    DEFAULT_COP_MODEL.save(cop_path)
    DEFAULT_TES.save(tes_path)
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path,
                     "--plant", plant_path, "--cop", cop_path, "--tes", tes_path,
                     "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("flag, config, key, value", [
    ("--plant", DEFAULT_PLANT, "threshold", "nan"),
    ("--cop", DEFAULT_COP_MODEL, "cop_floor", "nan"),
    ("--tes", DEFAULT_TES, "rate_max", "nan"),
    ("--solver", SolverOptions(), "feasibility_tol", "nan"),
    ("--solver", SolverOptions(), "max_iterations", "inf"),
    ("--plant", DEFAULT_PLANT, "cap_gt", "-inf"),
])
def test_cli_non_finite_config_value_exits_1(tmp_path, capsys, flag, config, key, value):
    scenario_path = str(tmp_path / "day.csv")
    config_path = tmp_path / "config.cfg"
    config.save(str(config_path))
    text, count = re.subn(f"(?m)^{key} = .*$", f"{key} = {value}", config_path.read_text())
    assert count == 1
    config_path.write_text(text)
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    capsys.readouterr()
    assert cli_main(["optimize", "--scenario", scenario_path, flag, str(config_path),
                     "--out", str(tmp_path / "run")]) == 1
    assert f"error: {config_path}: {key} must be finite, got {float(value)}" in \
        capsys.readouterr().err
    assert not (tmp_path / "run").exists()
