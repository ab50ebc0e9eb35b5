"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as part of the full suite.
"""

import time
import numpy as np
import pytest

from gridshave.cooling import DEFAULT_COP_MODEL, DEFAULT_TES, TesConfig, cop, cop_values
from gridshave.optimizer import (
    ScheduleProblem,
    dp_oracle,
    generation_profile,
    gradient,
    hour_bounds,
    objective,
    operator_heuristic,
    solve,
)
from gridshave.plant import DEFAULT_PLANT, fuel_savings
from gridshave.regression import SampleSet, fit_cop_model, mbe
from gridshave.run import build_problems
from gridshave.scenario import SynthParams, generate_synthetic, no_storage_baseline


def _report(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS - {text}")


def test_criterion_1_cop_polynomial_fidelity():
    """COP surface matches independent hand evaluation to 1e-9."""
    v1 = cop(0.5, 20.0)
    v2 = cop(1.0, 25.0)
    assert abs(v1 - 5.8275) <= 1e-9
    assert abs(v2 - 4.39) <= 1e-9
    _report(1, f"cop(0.5,20)={v1:.10f}, cop(1,25)={v2:.10f}")


def test_criterion_3_gradient_check(first_day_problem):
    """Analytic gradient matches central differences to 1e-5 at 100 points."""
    p = first_day_problem
    lo, hi = (np.asarray(v) for v in hour_bounds(p))
    rng = np.random.default_rng(333)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        x = lo + (hi - lo) * rng.uniform(0.05, 0.95, 24)
        ana = gradient(x, p)
        fd = np.empty(24)
        for t in range(24):
            e = np.zeros(24)
            e[t] = h
            fd[t] = (objective(x + e, p) - objective(x - e, p)) / (2.0 * h)
        rel = np.abs(ana - fd) / np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
        worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-5
    _report(3, f"max relative gradient error at 100 points = {worst:.3e}")


@pytest.mark.parametrize("T", [4, 6, 8])
def test_criterion_4_oracle_equivalence(T):
    """solve lands within the DP optimum +/- the reported grid bound.

    The grid bound is the oracle's first-order discretization allowance; a
    0.5 MW action grid cannot pin the continuous optimum tighter than that.
    """
    rng = np.random.default_rng(T)
    p_base = 30.0 + 8.0 * np.sin(np.linspace(0.0, np.pi, T)) + rng.uniform(-1.0, 1.0, T)
    q_cool = 80.0 + 40.0 * np.sin(np.linspace(0.0, np.pi, T))
    problem = ScheduleProblem(
        p_base=p_base, q_cool=q_cool,
        twb=np.full(T, 24.0), p_mean=float(np.mean(p_base)) + 18.0,
        tes=TesConfig(e_initial=100.0, e_terminal=100.0),
        cop_model=DEFAULT_COP_MODEL)
    dp = dp_oracle(problem, action_step=0.5, soc_step=0.5)
    res = solve(problem)
    slack = 1e-8 * (1.0 + abs(dp.objective))
    assert res.objective <= dp.objective + dp.grid_error_bound + slack
    assert res.objective >= dp.objective - dp.grid_error_bound - slack
    # the continuous solution should actually be at least as good as the grid's
    assert res.objective <= dp.objective + slack
    _report(4, f"T={T}: solve={res.objective:.4f}, dp={dp.objective:.4f}, "
               f"bound={dp.grid_error_bound:.4f}")


def test_criterion_5_dominance_on_random_scenarios():
    """solve never loses to the zero schedule or the operator heuristic."""
    rng = np.random.default_rng(55)
    checked = 0
    worst_terminal = 0.0
    for i in range(50):
        params = SynthParams(
            days=1,
            base_level_mw=float(rng.uniform(24.0, 29.0)),
            base_peak_amp_mw=float(rng.uniform(4.0, 9.0)),
            cool_base_mw=float(rng.uniform(55.0, 72.0)),
            cool_peak_amp_mw=float(rng.uniform(40.0, 70.0)),
            twb_base_c=float(rng.uniform(19.0, 23.0)),
            twb_amp_c=float(rng.uniform(2.0, 4.0)),
            noise_mw=float(rng.uniform(0.0, 0.8)),
        )
        scenario = generate_synthetic(params, seed=1000 + i)
        problem = build_problems(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                 DEFAULT_TES)[0][0]
        res = solve(problem)
        assert res.objective <= objective(np.zeros(24), problem)
        heur = operator_heuristic(problem)
        assert res.objective <= objective(heur.q_stor, problem)
        terminal_err = abs(float(res.schedule.e_stor[-1]) - 175.6)
        assert terminal_err <= 1e-6
        worst_terminal = max(worst_terminal, terminal_err)
        checked += 1
    assert checked == 50
    _report(5, f"50 scenarios dominated both references; worst terminal "
               f"error = {worst_terminal:.2e} MWh")


def test_criterion_6_fuel_savings_calibration():
    """Single-hour shaves reproduce the reference-grade 9.2% and 14.1%."""
    fs1 = fuel_savings([61.0], [58.0], DEFAULT_PLANT)
    fs2 = fuel_savings([64.0], [59.0], DEFAULT_PLANT)
    assert fs1.percent == pytest.approx(9.2, abs=0.5)
    assert fs2.percent == pytest.approx(14.1, abs=0.5)
    _report(6, f"61->58: {fs1.percent:.2f}%, 64->59: {fs2.percent:.2f}%")


def test_criterion_7_synthetic_72h_reproduction(synth_scenario, day_problems):
    """Default 72-h scenario: peak cut vs heuristic >= 3 MW and >= 5%, and
    the peaking turbine is fully idle on at least one day."""
    g0 = no_storage_baseline(synth_scenario)
    peak0 = float(np.max(g0))
    assert 64.0 <= peak0 <= 68.0

    heur_peaks = []
    opt_peaks = []
    days_below = 0
    for problem, _ in day_problems:
        heur = operator_heuristic(problem)
        heur_peaks.append(float(np.max(generation_profile(heur.q_stor, problem))))
        res = solve(problem)
        opt_peak = float(np.max(res.generation))
        opt_peaks.append(opt_peak)
        if opt_peak <= DEFAULT_PLANT.threshold:
            days_below += 1
    peak_heur = max(heur_peaks)
    peak_opt = max(opt_peaks)
    shave = peak_heur - peak_opt
    assert shave >= 3.0
    assert shave / peak_heur >= 0.05
    assert days_below >= 1
    _report(7, f"no-storage peak {peak0:.2f} MW; heuristic {peak_heur:.2f} -> "
               f"optimized {peak_opt:.2f} MW ({shave:.2f} MW, "
               f"{100.0 * shave / peak_heur:.1f}%); {days_below}/3 days below 57 MW")


def test_criterion_8_regression_round_trip():
    """Noise-free fit recovers the surface to 1e-8; noisy fit stays calibrated."""
    rng = np.random.default_rng(88)
    plr = rng.uniform(0.0, 1.0, 50)
    twb = rng.uniform(10.0, 30.0, 50)
    clean = cop_values(plr, twb, DEFAULT_COP_MODEL)

    exact = fit_cop_model(SampleSet(plr=plr, twb=twb, cop=clean))
    coeff_err = float(np.max(np.abs(np.array(exact.model.coefficients())
                                    - np.array(DEFAULT_COP_MODEL.coefficients()))))
    assert coeff_err <= 1e-8

    noisy = fit_cop_model(SampleSet(plr=plr, twb=twb,
                                    cop=clean + rng.normal(0.0, 0.1, 50)))
    assert noisy.cvrmse <= 5.0

    # underestimating model must give a positive bias metric
    assert mbe(clean - 0.2, clean) > 0.0
    _report(8, f"coefficient error {coeff_err:.2e}; noisy CVRMSE "
               f"{noisy.cvrmse:.2f}%; MBE sign convention holds")


def test_criterion_9_solve_performance(first_day_problem):
    """One 24-hour solve finishes within 5 seconds."""
    start = time.perf_counter()
    res = solve(first_day_problem)
    elapsed = time.perf_counter() - start
    assert res.converged
    assert elapsed <= 5.0
    _report(9, f"24-h solve took {elapsed:.2f} s (limit 5 s)")
