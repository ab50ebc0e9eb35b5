import os
from unittest import mock

import numpy as np
import pytest

import gridshave.optimizer
import gridshave.run
from gridshave.cli import cli_main
from gridshave.cooling import DEFAULT_COP_MODEL, DEFAULT_TES, CopModel
from gridshave.errors import InfeasibleScheduleError
from gridshave.optimizer import SolverOptions, objective, solve
from gridshave.plant import DEFAULT_PLANT, fuel_savings
from gridshave.report import (
    build_report,
    load_report_table,
    load_schedule_csv,
    rebuild_report,
    write_run_outputs,
)
from gridshave.run import build_problems, evaluate_fixed_schedule, run_days


@pytest.fixture(scope="module")
def run_results(synth_scenario):
    return run_days(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)


@pytest.fixture(scope="module")
def run_report(synth_scenario, run_results):
    return build_report(synth_scenario, run_results, DEFAULT_PLANT)


# ---------------------------------------------------------------------------
# report construction

def test_report_peak_metrics_consistent(run_report):
    r = run_report
    assert r.peak_baseline_mw == pytest.approx(float(np.max(r.baseline)))
    assert r.peak_optimized_mw == pytest.approx(float(np.max(r.optimized)))
    assert r.peak_shaved_mw == pytest.approx(r.peak_baseline_mw - r.peak_optimized_mw)
    assert r.peak_shaved_pct == pytest.approx(100.0 * r.peak_shaved_mw / r.peak_baseline_mw)
    # the default scenario crosses the threshold, and optimization clears it
    assert r.peaking_hours_baseline > 0
    assert r.peaking_hours_eliminated > 0


def test_report_identical_profiles_zero_metrics(run_report):
    from gridshave.report import report_from_arrays

    flat = report_from_arrays(
        run_report.timestamps, run_report.p_base, run_report.q_cool,
        run_report.q_s_c, run_report.twb, run_report.no_storage,
        run_report.baseline, run_report.baseline.copy(), run_report.q_stor,
        run_report.e_stor_end, run_report.p_ch, DEFAULT_PLANT, [])
    assert flat.peak_shaved_mw == 0.0
    assert flat.fuel_saved_mwh == 0.0
    assert flat.fuel_saved_pct == 0.0
    assert flat.peaking_hours_eliminated == 0


def test_report_fuel_metrics_match_plant_accounting(run_report):
    fs = fuel_savings(run_report.baseline, run_report.optimized, DEFAULT_PLANT)
    assert run_report.fuel_saved_mwh == pytest.approx(fs.saved_mwh)
    assert run_report.fuel_saved_pct == pytest.approx(fs.percent)
    assert run_report.fuel_saved_pct_total == pytest.approx(fs.percent_of_total)


def test_report_metrics_recomputable_from_emitted_csv(tmp_path, run_report):
    paths = write_run_outputs(run_report, str(tmp_path / "run"))
    table = load_report_table(paths["report"])
    assert float(np.max(table["baseline_mw"])) == pytest.approx(
        run_report.peak_baseline_mw, abs=1e-6)
    assert float(np.max(table["optimized_mw"])) == pytest.approx(
        run_report.peak_optimized_mw, abs=1e-6)
    above_base = table["baseline_mw"] > run_report.threshold
    above_opt = table["optimized_mw"] > run_report.threshold
    assert int(np.sum(above_base & ~above_opt)) == run_report.peaking_hours_eliminated


def test_report_rebuild_from_run_dir(tmp_path, run_report):
    out = str(tmp_path / "run")
    write_run_outputs(run_report, out)
    rebuilt = rebuild_report(out, DEFAULT_PLANT)
    assert rebuilt.peak_baseline_mw == pytest.approx(run_report.peak_baseline_mw, abs=1e-6)
    assert rebuilt.fuel_saved_mwh == pytest.approx(run_report.fuel_saved_mwh, abs=1e-3)
    assert rebuilt.peaking_hours_eliminated == run_report.peaking_hours_eliminated


def test_schedule_csv_round_trip(tmp_path, run_report):
    paths = write_run_outputs(run_report, str(tmp_path / "run"))
    rates = load_schedule_csv(paths["schedule"])
    assert np.array_equal(rates, run_report.q_stor)


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


def test_days_split_and_baselined_once(monkeypatch, synth_scenario, run_results):
    split = mock.Mock(wraps=gridshave.run.split_days)
    baseline = mock.Mock(wraps=gridshave.run.no_storage_baseline)
    monkeypatch.setattr(gridshave.run, "split_days", split)
    monkeypatch.setattr(gridshave.run, "no_storage_baseline", baseline)
    run_days(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    assert (split.call_count, baseline.call_count) == (1, 3)
    q = np.concatenate([d.optimal.schedule.q_stor for d in run_results])
    evaluate_fixed_schedule(synth_scenario, q, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    assert (split.call_count, baseline.call_count) == (2, 6)


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
    from gridshave.regression import SampleSet, save_samples

    rng = np.random.default_rng(23)
    plr = rng.uniform(0.0, 1.0, 40)
    twb = rng.uniform(12.0, 28.0, 40)
    samples = SampleSet(plr=plr, twb=twb, cop=cop_values(plr, twb, DEFAULT_COP_MODEL))
    samples_path = str(tmp_path / "samples.csv")
    save_samples(samples, samples_path)
    out_path = str(tmp_path / "cop.cfg")
    metrics_path = str(tmp_path / "metrics.txt")
    assert cli_main(["fit", "--samples", samples_path, "--out", out_path,
                     "--metrics", metrics_path]) == 0
    fitted = CopModel.load(out_path)
    assert np.max(np.abs(np.array(fitted.coefficients())
                         - np.array(DEFAULT_COP_MODEL.coefficients()))) < 1e-8
    with open(metrics_path) as fh:
        assert "cvrmse_pct" in fh.read()


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


def test_cli_report_keeps_summary_byte_identical(tmp_path):
    scenario_path = str(tmp_path / "scenario.csv")
    run_dir = str(tmp_path / "run")
    summary_path = os.path.join(run_dir, "summary.txt")
    assert cli_main(["synth", "--out", scenario_path]) == 0
    assert cli_main(["optimize", "--scenario", scenario_path, "--out", run_dir]) == 0
    with open(summary_path, "rb") as fh:
        written = fh.read()
    assert cli_main(["report", "--run", run_dir]) == 0
    with open(summary_path, "rb") as fh:
        assert fh.read() == written
    assert written.count(b"\nday ") == 3


def test_cli_workers_flag_is_ignored(tmp_path):
    scenario_path = str(tmp_path / "scenario.csv")
    assert cli_main(["synth", "--out", scenario_path]) == 0
    for name, extra in (("plain", []), ("workers", ["--workers", "2"])):
        assert cli_main(["optimize", "--scenario", scenario_path,
                         "--out", str(tmp_path / name)] + extra) == 0
    for name in ("schedule.csv", "report.csv", "profile.svg", "summary.txt"):
        assert (tmp_path / "workers" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


def test_cli_simulate_infeasible_schedule_exits_1(tmp_path, capsys):
    scenario_path = str(tmp_path / "day.csv")
    schedule = tmp_path / "schedule.csv"
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    rows = [f"2023-06-12T{h:02d}:00:00,{40.0 if h == 3 else 0.0},0.0" for h in range(24)]
    schedule.write_text("timestamp,q_stor_mw,e_stor_end_mwh\n" + "\n".join(rows) + "\n")
    assert cli_main(["simulate", "--scenario", scenario_path, "--schedule", str(schedule),
                     "--out", str(tmp_path / "sim")]) == 1
    assert "day 0: fixed schedule infeasible" in capsys.readouterr().err


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
    assert f"error: days must be at least 1, got {days}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_non_convergence_exit_code(tmp_path):
    scenario_path = str(tmp_path / "day.csv")
    solver_path = str(tmp_path / "solver.cfg")
    SolverOptions(max_iterations=1).save(solver_path)
    assert cli_main(["synth", "--out", scenario_path, "--days", "1"]) == 0
    code = cli_main(["optimize", "--scenario", scenario_path,
                     "--out", str(tmp_path / "run"), "--solver", solver_path])
    assert code == 2


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
