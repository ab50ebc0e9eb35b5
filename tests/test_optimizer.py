import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gridshave
import gridshave.optimizer

from gridshave.cooling import DEFAULT_COP_MODEL, CopModel, TesConfig, check_schedule, cop_values
from gridshave.errors import (
    GridResourceError,
    InfeasibleStartError,
    ShapeError,
    SynthesisError,
)
from gridshave.optimizer import (
    ScheduleProblem,
    SolverOptions,
    dp_oracle,
    feasible_start,
    generation_profile,
    gradient,
    hessian_diagonal,
    hour_bounds,
    objective,
    operator_heuristic,
    p_mean,
    solve,
)
from gridshave.scenario import SynthParams, generate_synthetic, write_scenario
from gridshave.run import build_problems
from gridshave.plant import DEFAULT_PLANT


#: A COP surface convex in PLR whose hourly cost is strongly non-convex on
#: the default day (cost curvature down to about -11 inside the box).
NON_CONVEX_COP = CopModel(c0=4.0, c1=-12.0, c2=0.0, c3=12.0, c4=0.0, c5=0.0)

#: Parameter ranges of acceptance criterion 5.
CRITERION5 = {
    "base_level_mw": (24.0, 29.0),
    "base_peak_amp_mw": (4.0, 9.0),
    "cool_base_mw": (55.0, 72.0),
    "cool_peak_amp_mw": (40.0, 70.0),
    "twb_base_c": (19.0, 23.0),
    "twb_amp_c": (2.0, 4.0),
    "noise_mw": (0.0, 0.8),
}


def _constant_problem(T=24, p_base=30.0, q_cool=80.0, twb=22.0, p_mean_offset=0.0,
                      tes=None):
    tes = tes or TesConfig()
    plr = q_cool / tes.q_ch_max
    cop = (11.87 - 8.84 * plr - 0.17 * twb - 6.89 * plr ** 2
           + 0.75 * twb * plr - 0.01 * twb ** 2)
    g0 = p_base + q_cool / cop
    return ScheduleProblem(
        p_base=np.full(T, p_base), q_cool=np.full(T, q_cool),
        twb=np.full(T, twb),
        p_mean=g0 + p_mean_offset, tes=tes, cop_model=DEFAULT_COP_MODEL)


# ---------------------------------------------------------------------------
# p_mean

def test_p_mean_constant():
    assert p_mean(np.full(24, 50.0)) == 50.0


def test_p_mean_two_level_day():
    assert p_mean(np.array([40.0] * 12 + [60.0] * 12)) == pytest.approx(50.0)


def test_p_mean_permutation_invariant():
    rng = np.random.default_rng(2)
    g = rng.uniform(30.0, 60.0, 24)
    assert p_mean(g) == pytest.approx(p_mean(g[rng.permutation(24)]), rel=1e-14)


def test_p_mean_shape_error():
    with pytest.raises(ShapeError):
        p_mean(np.full(23, 50.0))
    with pytest.raises(ValueError):
        p_mean(np.full(24, -1.0))


# ---------------------------------------------------------------------------
# objective and gradient

def test_objective_zero_at_flat_profile():
    problem = _constant_problem()
    assert objective(np.zeros(24), problem) == pytest.approx(0.0, abs=1e-18)


def test_objective_symmetric_two_hours():
    # G = [g, g-2] with target g-1: residuals are +1 and -1
    tes = TesConfig()
    base = ScheduleProblem(
        p_base=np.array([32.0, 30.0]), q_cool=np.full(2, 80.0),
        twb=np.full(2, 22.0),
        p_mean=1.0, tes=tes, cop_model=DEFAULT_COP_MODEL)
    g = generation_profile(np.zeros(2), base)
    assert g[0] - g[1] == pytest.approx(2.0, abs=1e-12)
    problem = ScheduleProblem(
        p_base=base.p_base, q_cool=base.q_cool, twb=base.twb,
        p_mean=float(g[0]) - 1.0, tes=tes, cop_model=DEFAULT_COP_MODEL)
    assert objective(np.zeros(2), problem) == pytest.approx(2.0, abs=1e-9)


def test_objective_matches_independent_recomputation(first_day_problem):
    p = first_day_problem
    ours = objective(np.zeros(24), p)
    total = 0.0
    for t in range(24):
        plr = p.q_cool[t] / p.tes.q_ch_max
        twb = p.twb[t]
        cop = (11.87 - 8.84 * plr - 0.17 * twb - 6.89 * plr * plr
               + 0.75 * twb * plr - 0.01 * twb * twb)
        g = p.p_base[t] + p.q_cool[t] / cop
        total += (g - p.p_mean) ** 2
    assert ours == pytest.approx(total, rel=1e-12)


def test_gradient_zero_at_flat_optimum():
    problem = _constant_problem()
    assert np.max(np.abs(gradient(np.zeros(24), problem))) <= 1e-8


def test_gradient_matches_central_differences(first_day_problem):
    p = first_day_problem
    lo, hi = hour_bounds(p)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        x = lo + (hi - lo) * rng.uniform(0.1, 0.9, 24)
        ana = gradient(x, p)
        h = 1e-4
        fd = np.empty(24)
        for t in range(24):
            e = np.zeros(24)
            e[t] = h
            fd[t] = (objective(x + e, p) - objective(x - e, p)) / (2.0 * h)
        rel = np.abs(ana - fd) / np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
        worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-5


def test_gradient_sign_follows_deviation(first_day_problem):
    # dp_ch/dq_ch > 0 on the summer domain, so each component's sign matches
    # the sign of (G - p_mean)
    p = first_day_problem
    g = generation_profile(np.zeros(24), p)
    grad = gradient(np.zeros(24), p)
    mask = np.abs(g - p.p_mean) > 1e-9
    assert np.all(np.sign(grad[mask]) == np.sign((g - p.p_mean)[mask]))


@pytest.mark.parametrize("cop_model", [DEFAULT_COP_MODEL, NON_CONVEX_COP],
                         ids=["default-cop", "non-convex-cop"])
def test_hessian_diagonal_matches_central_differences(first_day_problem, cop_model):
    # every column of the finite-difference Jacobian of the gradient: the
    # diagonal must match and the off-diagonal entries must vanish
    p = replace(first_day_problem, cop_model=cop_model)
    lo, hi = hour_bounds(p)
    rng = np.random.default_rng(334)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        x = lo + (hi - lo) * rng.uniform(0.05, 0.95, 24)
        fd = np.empty((24, 24))
        for t in range(24):
            e = np.zeros(24)
            e[t] = h
            fd[:, t] = (gradient(x + e, p) - gradient(x - e, p)) / (2.0 * h)
        ana = np.diag(hessian_diagonal(x, p))
        rel = np.abs(ana - fd) / np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
        worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-5


def test_hessian_diagonal_shape_error(first_day_problem):
    with pytest.raises(ShapeError):
        hessian_diagonal(np.zeros(23), first_day_problem)


# ---------------------------------------------------------------------------
# solve

def test_solve_constant_scenario_returns_zero_schedule():
    problem = _constant_problem()
    res = solve(problem)
    assert res.objective <= objective(np.zeros(24), problem) + 1e-12
    assert np.max(np.abs(res.schedule.q_stor)) < 0.5
    assert res.converged


def test_solve_dominates_references(first_day_problem):
    p = first_day_problem
    res = solve(p)
    assert res.objective <= objective(np.zeros(24), p)
    heur = operator_heuristic(p)
    assert res.objective <= objective(heur.q_stor, p)
    assert check_schedule(res.schedule, p.tes, tol=1e-6) == []
    assert res.schedule.e_stor[-1] == pytest.approx(p.tes.e_terminal, abs=1e-6)


def test_solve_zero_sum_storage(first_day_problem):
    res = solve(first_day_problem)
    assert float(np.sum(res.schedule.q_stor)) == pytest.approx(0.0, abs=1e-6)


def test_solve_deterministic(first_day_problem):
    a = solve(first_day_problem)
    b = solve(first_day_problem)
    assert np.array_equal(a.schedule.q_stor, b.schedule.q_stor)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_solve_objective_recomputed_at_returned_point(first_day_problem):
    res = solve(first_day_problem)
    assert res.objective == pytest.approx(
        objective(res.schedule.q_stor, first_day_problem), rel=1e-12)


def test_solve_infeasible_boundary_bridge():
    tes = TesConfig(e_initial=0.0, e_terminal=175.6)
    problem = _constant_problem(T=2, tes=tes)
    with pytest.raises(InfeasibleStartError):
        solve(problem)


def test_solve_ramp_start_when_boundaries_differ():
    tes = TesConfig(e_initial=100.0, e_terminal=150.0)
    problem = _constant_problem(T=24, tes=tes)
    res = solve(problem)
    assert res.schedule.e_stor[-1] == pytest.approx(150.0, abs=1e-6)


def test_solve_iteration_cap_returns_best_start(first_day_problem):
    res = solve(first_day_problem, SolverOptions(max_iterations=1))
    assert res.converged is False
    assert res.iterations == 1
    assert check_schedule(res.schedule, first_day_problem.tes) == []
    # the result is never worse than either raw start
    heur = operator_heuristic(first_day_problem)
    assert res.objective <= objective(np.zeros(24), first_day_problem) + 1e-12
    assert res.objective <= objective(heur.q_stor, first_day_problem) + 1e-12


def _residuals(message: str) -> dict[str, float]:
    match = re.search(r"dual residual (\S+), primal (\S+), terminal (\S+), "
                      r"complementarity (\S+)$", message)
    assert match, message
    return dict(zip(("dual", "primal", "terminal", "complementarity"),
                    map(float, match.groups())))


@st.composite
def criterion5_days(draw):
    """First-day problems of synthetic days drawn like acceptance criterion 5."""
    params = SynthParams(days=1, **{key: draw(st.floats(lo, hi))
                                    for key, (lo, hi) in CRITERION5.items()})
    seed = draw(st.integers(0, 2 ** 31 - 1))
    try:
        scenario = generate_synthetic(params, seed=seed)
    except SynthesisError:
        assume(False)
    return build_problems(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, TesConfig())[0][0]


@settings(max_examples=40, deadline=None)
@given(criterion5_days())
def test_solve_properties_on_random_days(problem):
    opts = SolverOptions()
    res = solve(problem, opts)
    assert check_schedule(res.schedule, problem.tes, tol=opts.feasibility_tol) == []
    assert res.objective <= objective(np.zeros(24), problem)
    assert res.objective <= objective(res.heuristic.q_stor, problem)
    assert res.converged
    residuals = _residuals(res.message)
    assert residuals["dual"] <= opts.optimality_tol
    assert residuals["primal"] <= opts.feasibility_tol
    assert residuals["terminal"] <= opts.feasibility_tol
    assert residuals["complementarity"] <= opts.optimality_tol


@settings(max_examples=200, deadline=None)
@given(q_cool=st.lists(st.floats(0.0, 156.5), min_size=4, max_size=4),
       twb=st.lists(st.floats(10.0, 30.0), min_size=4, max_size=4),
       rate_max=st.floats(0.0, 40.0),
       c1=st.floats(-12.0, 4.0), c3=st.floats(-10.0, 12.0),
       cop_floor=st.floats(0.5, 4.0))
def test_hour_bounds_contain_zero_when_zero_storage_admissible(q_cool, twb, rate_max,
                                                               c1, c3, cop_floor):
    model = replace(DEFAULT_COP_MODEL, c1=c1, c3=c3, cop_floor=cop_floor)
    tes = TesConfig(rate_max=rate_max)
    problem = ScheduleProblem(
        p_base=np.full(4, 30.0), q_cool=np.array(q_cool),
        twb=np.array(twb), p_mean=40.0, tes=tes, cop_model=model)
    margin = cop_values(problem.q_cool / tes.q_ch_max, problem.twb, model) - cop_floor
    assume(np.all(np.abs(margin) > 1e-9))
    bad = np.flatnonzero(margin < 0.0)
    if bad.size:
        with pytest.raises(InfeasibleStartError, match=f"hour {bad[0]}:"):
            hour_bounds(problem)
    else:
        lo, hi = hour_bounds(problem)
        assert np.all(lo <= 0.0) and np.all(hi >= 0.0)
        for edge in (lo, hi):   # the COP floor holds up to the box edges
            plr = (problem.q_cool + edge) / tes.q_ch_max
            assert np.all(cop_values(plr, problem.twb, model) >= cop_floor - 1e-9)


def _reference_plr_interval(twb: float, m: CopModel, plr_ref: float) -> tuple[float, float]:
    """Scalar reference: the connected {plr in [0, 1]: cop >= floor} segment
    holding plr_ref, from the cancellation-free root formula."""
    a = m.c3
    b = m.c1 + m.c4 * twb
    c = m.c0 + m.c2 * twb + m.c5 * twb * twb - m.cop_floor
    if a == 0.0:
        if b == 0.0:
            return (0.0, 1.0)
        root = -c / b
        return (max(0.0, root), 1.0) if b > 0.0 else (0.0, min(1.0, root))
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return (0.0, 1.0)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = q / a, c / q
    lo_root, hi_root = min(r1, r2), max(r1, r2)
    if a < 0.0:
        return (max(0.0, lo_root), min(1.0, hi_root))
    if plr_ref <= lo_root:
        return (0.0, min(1.0, lo_root))
    return (max(0.0, hi_root), 1.0)


def _reference_hour_bounds(problem: ScheduleProblem) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference of `hour_bounds`: one hour at a time, first error wins."""
    tes, m = problem.tes, problem.cop_model
    lo, hi = np.empty(problem.horizon), np.empty(problem.horizon)
    for t in range(problem.horizon):
        q_cool, twb = problem.q_cool[t], float(problem.twb[t])
        if not 0.0 <= q_cool <= tes.q_ch_max:
            raise InfeasibleStartError(
                f"hour {t}: cooling demand {q_cool} MW outside [0, {tes.q_ch_max}] MW")
        p = q_cool / tes.q_ch_max
        if m.c3 * p * p + (m.c1 + m.c4 * twb) * p \
                + (m.c0 + m.c2 * twb + m.c5 * twb * twb - m.cop_floor) <= 0.0:
            raise InfeasibleStartError(
                f"hour {t}: zero-storage operating point violates the COP floor (COP at "
                f"plr={p:.4f}, twb={twb:.2f} is at or below the floor)")
        plr_lo, plr_hi = _reference_plr_interval(twb, m, p)
        lo[t] = max(-tes.rate_max, plr_lo * tes.q_ch_max - q_cool)
        hi[t] = min(tes.rate_max, plr_hi * tes.q_ch_max - q_cool)
        if lo[t] > hi[t]:
            raise InfeasibleStartError(f"hour {t}: empty feasible storage-rate interval")
    return lo, hi


#: COP curvatures near zero of both signs, subnormals included.
NEAR_ZERO_C3 = st.one_of(st.floats(-1e-6, 1e-6),
                         st.sampled_from([5e-324, -5e-324, 1e-320, -1e-320, 1e-300, -1e-300]))


@settings(max_examples=300, deadline=None)
@given(q_cool=st.lists(st.floats(-1.0, 160.0), min_size=4, max_size=4),
       twb=st.lists(st.floats(10.0, 30.0), min_size=4, max_size=4),
       rate_max=st.floats(0.0, 40.0),
       c1=st.floats(-12.0, 4.0), c3=st.one_of(st.floats(-10.0, 12.0), NEAR_ZERO_C3),
       cop_floor=st.floats(0.5, 4.0))
def test_hour_bounds_match_scalar_reference(q_cool, twb, rate_max, c1, c3, cop_floor):
    model = replace(DEFAULT_COP_MODEL, c1=c1, c3=c3, cop_floor=cop_floor)
    problem = ScheduleProblem(
        p_base=np.full(4, 30.0), q_cool=np.array(q_cool), twb=np.array(twb),
        p_mean=40.0, tes=TesConfig(rate_max=rate_max), cop_model=model)
    try:
        expected = _reference_hour_bounds(problem)
    except InfeasibleStartError as exc:
        # the same error for the same first hour
        with pytest.raises(type(exc)) as got:
            hour_bounds(problem)
        assert str(got.value) == str(exc)
        return
    for ours, ref in zip(hour_bounds(problem), expected):
        assert np.all(np.abs(ours - ref) <= np.spacing(np.abs(ref)))   # 1 ulp


def test_solve_calls_hour_bounds_once(first_day_problem, monkeypatch):
    counted = mock.Mock(wraps=hour_bounds)
    monkeypatch.setattr(gridshave.optimizer, "hour_bounds", counted)
    solve(first_day_problem)
    assert counted.call_count == 1


@pytest.mark.parametrize("c3", [0.0, 1e-320, 1e-300, -1e-300, 1e-12, -1e-12])
def test_hour_bounds_tiny_quadratic_cop_term(c3):
    # COP falls through the floor at plr = 0.74 on a near-linear surface; a
    # tiny c3 must not move that root or raise
    model = replace(DEFAULT_COP_MODEL, c1=-8.0, c3=c3, cop_floor=8.8)
    tes = TesConfig(rate_max=150.0)
    problem = ScheduleProblem(
        p_base=np.full(2, 30.0), q_cool=np.full(2, 0.1 * tes.q_ch_max),
        twb=np.full(2, 10.0), p_mean=40.0, tes=tes,
        cop_model=model)
    _, hi = hour_bounds(problem)
    assert hi == pytest.approx(np.full(2, 0.64 * tes.q_ch_max), rel=1e-9)


def test_solve_hour_with_equal_bounds_stays_at_start(first_day_problem, monkeypatch):
    real = hour_bounds

    def pinned(problem):
        lo, hi = real(problem)
        lo, hi = lo.copy(), hi.copy()
        lo[15] = hi[15] = 0.0
        return lo, hi

    free = solve(first_day_problem)
    assert abs(free.schedule.q_stor[15]) > 1.0   # the peak hour discharges when free
    monkeypatch.setattr(gridshave.optimizer, "hour_bounds", pinned)
    res = solve(first_day_problem)
    assert res.converged
    assert res.schedule.q_stor[15] == pytest.approx(0.0, abs=1e-12)
    assert check_schedule(res.schedule, first_day_problem.tes) == []
    assert free.objective <= res.objective <= objective(np.zeros(24), first_day_problem)


def test_solve_all_hours_fixed_takes_no_step():
    problem = _constant_problem(tes=TesConfig(rate_max=0.0), p_mean_offset=2.0)
    res = solve(problem)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.schedule.q_stor, np.zeros(24))


def test_solve_non_convex_cop_surface_returns_feasible_schedule(first_day_problem):
    p = replace(first_day_problem, cop_model=NON_CONVEX_COP)
    lo, hi = hour_bounds(p)
    curvature = min(float(np.min(hessian_diagonal(lo + f * (hi - lo), p)))
                    for f in np.linspace(0.05, 0.95, 19))
    assert curvature < -1.0   # the hourly cost really is non-convex
    res = solve(p)
    assert check_schedule(res.schedule, p.tes) == []
    assert res.objective <= objective(np.zeros(24), p)
    assert res.objective <= objective(operator_heuristic(p).q_stor, p)


def test_solve_converges_on_multi_day_horizon(synth_scenario):
    # one 72-hour problem: a larger cost than a day's, same tolerances
    sc = synth_scenario
    problem = ScheduleProblem(p_base=sc.p_base, q_cool=sc.q_cool,
                              twb=sc.twb, p_mean=46.0, tes=TesConfig(),
                              cop_model=DEFAULT_COP_MODEL)
    res = solve(problem)
    assert res.converged, res.message
    assert check_schedule(res.schedule, problem.tes) == []
    assert res.objective <= objective(np.zeros(72), problem)


def test_solve_unreachable_tolerance_stops_unconverged(first_day_problem):
    # complementarity 1e-15 is beyond floating point: the solve must end
    # early, unconverged, with a feasible schedule as good as a normal solve
    res = solve(first_day_problem, SolverOptions(optimality_tol=1e-15))
    assert res.converged is False
    assert res.iterations < 50
    assert check_schedule(res.schedule, first_day_problem.tes) == []
    assert res.objective <= solve(first_day_problem).objective + 1e-6


def test_solve_peak_dominance_with_discharge_headroom():
    rng = np.random.default_rng(17)
    checked = 0
    for seed in range(10):
        scenario = generate_synthetic(
            SynthParams(days=1, noise_mw=0.4), seed=100 + seed)
        p = build_problems(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                           TesConfig())[0][0]
        g0 = generation_profile(np.zeros(24), p)
        lo, _ = hour_bounds(p)
        t_peak = int(np.argmax(g0))
        if lo[t_peak] >= -1e-9 or p.p_mean >= float(np.max(g0)):
            continue
        res = solve(p)
        assert float(np.max(res.generation)) <= float(np.max(g0)) + 1e-6
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# dp oracle

def test_dp_singleton_action_grid_returns_zero_schedule():
    tes = TesConfig(e_initial=100.0, e_terminal=100.0)
    problem = _constant_problem(T=4, tes=tes)
    res = dp_oracle(problem, action_step=50.0, soc_step=50.0)
    assert np.array_equal(res.schedule.q_stor, np.zeros(4))


def test_dp_matches_exhaustive_enumeration():
    tes = TesConfig(e_max=175.6, rate_max=10.0, e_initial=100.0,
                    e_terminal=100.0, q_ch_max=156.5)
    problem = ScheduleProblem(
        p_base=np.array([30.0, 34.0]), q_cool=np.array([70.0, 90.0]),
        twb=np.full(2, 22.0),
        p_mean=40.0, tes=tes, cop_model=DEFAULT_COP_MODEL)
    res = dp_oracle(problem, action_step=10.0, soc_step=10.0)

    actions = [-10.0, 0.0, 10.0]
    best = np.inf
    for a0 in actions:
        for a1 in actions:
            e1 = 100.0 + a0
            e2 = e1 + a1
            if not (0.0 <= e1 <= 175.6 and abs(e2 - 100.0) < 1e-9):
                continue
            cost = 0.0
            for t, a in enumerate((a0, a1)):
                q_ch = problem.q_cool[t] + a
                plr = q_ch / tes.q_ch_max
                twb = 22.0
                cop = (11.87 - 8.84 * plr - 0.17 * twb - 6.89 * plr * plr
                       + 0.75 * twb * plr - 0.01 * twb * twb)
                cost += (problem.p_base[t] + q_ch / cop - 40.0) ** 2
            best = min(best, cost)
    assert res.objective == pytest.approx(best, rel=1e-12)


def test_dp_refinement_never_increases_objective():
    tes = TesConfig(e_initial=100.0, e_terminal=100.0)
    scenario = generate_synthetic(SynthParams(days=1), seed=5)
    p24 = build_problems(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, tes)[0][0]
    problem = ScheduleProblem(
        p_base=p24.p_base[10:16], q_cool=p24.q_cool[10:16],
        twb=p24.twb[10:16],
        p_mean=p24.p_mean, tes=tes, cop_model=DEFAULT_COP_MODEL)
    coarse = dp_oracle(problem, action_step=2.0, soc_step=1.0)
    fine = dp_oracle(problem, action_step=1.0, soc_step=0.5)
    assert fine.objective <= coarse.objective + 1e-12


def test_dp_memory_cap():
    problem = _constant_problem(T=8)
    with pytest.raises(GridResourceError):
        dp_oracle(problem, action_step=0.5, soc_step=0.5, max_table_entries=100)


def test_dp_incommensurate_grids_rejected():
    problem = _constant_problem(T=4)
    with pytest.raises(ValueError):
        dp_oracle(problem, action_step=0.7, soc_step=0.5)


@pytest.mark.parametrize("T", [4, 6, 8])
def test_solve_consistent_with_dp(T):
    rng = np.random.default_rng(T)
    p_base = 30.0 + 8.0 * np.sin(np.linspace(0.0, np.pi, T)) + rng.uniform(-1.0, 1.0, T)
    q_cool = 80.0 + 40.0 * np.sin(np.linspace(0.0, np.pi, T))
    tes = TesConfig(e_initial=100.0, e_terminal=100.0)
    problem = ScheduleProblem(
        p_base=p_base, q_cool=q_cool,
        twb=np.full(T, 24.0), p_mean=float(np.mean(p_base)) + 18.0,
        tes=tes, cop_model=DEFAULT_COP_MODEL)
    dp = dp_oracle(problem, action_step=0.5, soc_step=0.5)
    res = solve(problem)
    slack = 1e-8 * (1.0 + abs(dp.objective))
    assert res.objective <= dp.objective + slack
    assert res.objective >= dp.objective - dp.grid_error_bound - slack


# ---------------------------------------------------------------------------
# operator heuristic

def test_heuristic_feasible_by_construction(first_day_problem):
    heur = operator_heuristic(first_day_problem)
    assert check_schedule(heur, first_day_problem.tes) == []


def test_heuristic_full_tank_discharges_afternoon_refills_evening(first_day_problem):
    heur = operator_heuristic(first_day_problem)
    q = heur.q_stor
    assert np.all(q[0:6] == 0.0)           # tank already full at midnight
    assert np.all(q[13:20] < 0.0)          # afternoon discharge
    assert np.all(q[13:20] == q[13])       # even discharge
    assert np.all(q[20:22] == 0.0)
    assert np.all(q[22:24] > 0.0)          # evening refill
    assert heur.e_stor[-1] == pytest.approx(first_day_problem.tes.e_terminal)


def test_heuristic_zero_rate_limit():
    tes = TesConfig(rate_max=0.0)
    problem = _constant_problem(tes=tes)
    heur = operator_heuristic(problem)
    assert np.array_equal(heur.q_stor, np.zeros(24))


def test_heuristic_partial_tank_tops_up_in_morning():
    tes = TesConfig(e_initial=120.0, e_terminal=175.6)
    problem = _constant_problem(tes=tes)
    heur = operator_heuristic(problem)
    assert heur.q_stor[0] > 0.0
    assert check_schedule(heur, tes) == []


def test_heuristic_requires_24_hours():
    problem = _constant_problem(T=12)
    with pytest.raises(InfeasibleStartError):
        operator_heuristic(problem)


# ---------------------------------------------------------------------------
# plumbing

def test_feasible_start_zero_when_boundaries_equal(first_day_problem):
    lo, hi = hour_bounds(first_day_problem)
    assert np.array_equal(feasible_start(first_day_problem, lo, hi), np.zeros(24))


def test_schedule_problem_validation():
    with pytest.raises(ShapeError):
        ScheduleProblem(p_base=np.array([30.0]), q_cool=np.array([50.0]),
                        twb=np.array([20.0]),
                        p_mean=40.0, tes=TesConfig(), cop_model=DEFAULT_COP_MODEL)
    with pytest.raises(ShapeError):
        ScheduleProblem(p_base=np.full(4, 30.0), q_cool=np.full(3, 50.0),
                        twb=np.full(4, 20.0),
                        p_mean=40.0, tes=TesConfig(), cop_model=DEFAULT_COP_MODEL)
    with pytest.raises(ValueError):
        ScheduleProblem(p_base=np.full(4, 30.0), q_cool=np.full(4, 50.0),
                        twb=np.full(4, 20.0),
                        p_mean=0.0, tes=TesConfig(), cop_model=DEFAULT_COP_MODEL)


def test_solver_options_defaults():
    opts = SolverOptions()
    assert opts.max_iterations == 200
    assert opts.feasibility_tol == 1e-6
    assert opts.optimality_tol == 1e-8


def test_solver_options_round_trip(tmp_path):
    opts = SolverOptions(max_iterations=5000, feasibility_tol=1e-7, optimality_tol=1e-9)
    path = tmp_path / "solver.cfg"
    opts.save(str(path))
    assert SolverOptions.load(str(path)) == opts


def test_solver_options_load_ignores_retired_keys(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text("max_iterations = 5000\n"
                    "max_function_evals = 6000\n"
                    "feasibility_tol = 1e-07\n"
                    "optimality_tol = 1e-09\n"
                    "initial_tr_radius = 2.0\n"
                    "initial_barrier_parameter = 0.2\n")
    assert SolverOptions.load(str(path)) == SolverOptions(
        max_iterations=5000, feasibility_tol=1e-7, optimality_tol=1e-9)


def test_import_and_optimize_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(gridshave.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, gridshave; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"

    # every module a full optimize run imports, from `-X importtime` on stderr
    scenario_path = str(tmp_path / "day.csv")
    write_scenario(generate_synthetic(seed=1), scenario_path)
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "gridshave", "optimize",
                          "--scenario", scenario_path, "--out", str(tmp_path / "run")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "gridshave.optimizer" in imported
    assert [m for m in imported if m.startswith("scipy")] == []


def test_import_leaves_process_pool_modules_unloaded():
    src = os.path.dirname(os.path.dirname(gridshave.__file__))
    code = ("import sys, gridshave; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
