import itertools
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gridshave
import gridshave._levels
from gridshave import configio
import gridshave.optimizer

from gridshave.cooling import (
    DEFAULT_COP_MODEL,
    CopModel,
    StorageSchedule,
    TesConfig,
    Violation,
    check_schedule,
    chiller_power,
    cop_values,
)
from gridshave.errors import (
    CopDomainError,
    DegenerateCopError,
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
    flatness,
    generation_profile,
    gradient,
    hessian_diagonal,
    hour_bounds,
    objective,
    operator_heuristic,
    solve,
)
from gridshave.regression import SAMPLES_HEADER
from gridshave.scenario import SynthParams, generate_synthetic, write_scenario
from gridshave.run import build_problems
from gridshave.plant import DEFAULT_PLANT
from gridshave.tableio import write_table


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
    lo, hi = (np.asarray(v) for v in hour_bounds(p))
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
    g = np.asarray(generation_profile(np.zeros(24), p))
    grad = gradient(np.zeros(24), p)
    mask = np.abs(g - p.p_mean) > 1e-9
    assert np.all(np.sign(grad[mask]) == np.sign((g - p.p_mean)[mask]))


@pytest.mark.parametrize("cop_model", [DEFAULT_COP_MODEL, NON_CONVEX_COP],
                         ids=["default-cop", "non-convex-cop"])
def test_hessian_diagonal_matches_central_differences(first_day_problem, cop_model):
    # every column of the finite-difference Jacobian of the gradient: the
    # diagonal must match and the off-diagonal entries must vanish
    p = first_day_problem.replace(cop_model=cop_model)
    lo, hi = (np.asarray(v) for v in hour_bounds(p))
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


def test_solve_charges_a_day_the_uniform_ramp_cannot():
    # a light day: some hours (hour 15 among them) admit less charge than the
    # ramp's 175.0 / 24 MWh, though the whole day admits far more
    scenario = generate_synthetic(SynthParams(days=1, base_level_mw=15.0,
                                              cool_peak_amp_mw=84.0), seed=1)
    tes = TesConfig(e_initial=0.0, e_terminal=175.0)
    problem = build_problems(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, tes)[0][0]
    lo, hi = hour_bounds(problem)
    assert min(hi) < 175.0 / 24 < sum(hi)
    res = solve(problem)
    assert check_schedule(res.schedule, tes) == []
    oracle = dp_oracle(problem, action_step=0.5, soc_step=0.5)
    assert res.objective <= oracle.objective * (1.0 + 1e-8)


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
    match = re.search(r"dual residual (\S+), primal (\S+), complementarity (\S+)$", message)
    assert match, message
    return dict(zip(("dual", "primal", "complementarity"), map(float, match.groups())))


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
    assert res.objective <= flatness(res.heuristic_generation, problem.p_mean)
    assert res.converged
    residuals = _residuals(res.message)
    assert residuals["dual"] <= opts.optimality_tol
    assert residuals["primal"] <= opts.feasibility_tol
    assert abs(res.schedule.e_stor[-1] - problem.tes.e_terminal) <= 1e-9
    assert residuals["complementarity"] <= opts.optimality_tol


@settings(max_examples=40, deadline=None)
@given(criterion5_days(), st.data())
def test_solve_never_worse_than_a_ramp_start(problem, data):
    # the start is no candidate of solve: the Newton loop descends from it,
    # also where it is a ramp between unequal boundary states
    stored = st.floats(0.0, problem.tes.e_max)
    tes = problem.tes.replace(e_initial=data.draw(stored), e_terminal=data.draw(stored))
    problem = problem.replace(tes=tes)
    try:
        start = feasible_start(problem, *hour_bounds(problem))
    except InfeasibleStartError:
        assume(False)
    opts = SolverOptions()
    res = solve(problem, opts)
    assert res.converged, res.message
    assert check_schedule(res.schedule, tes, tol=opts.feasibility_tol) == []
    assert res.objective <= objective(start, problem) * (1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(criterion5_days())
def test_no_small_transfer_improves_the_solve(problem):
    # independent of the solver's certificate: moving 1e-3 MWh from one hour
    # to another, within the hours' intervals and the tank, never lowers the
    # objective by more than 1e-9 relative
    delta, tes = 1e-3, problem.tes
    q = list(solve(problem).schedule.q_stor)
    best = objective(q, problem)
    lo, hi = hour_bounds(problem)
    for i in range(24):
        for j in range(24):
            if i == j or q[i] - delta < lo[i] or q[j] + delta > hi[j]:
                continue
            moved = list(q)
            moved[i] -= delta
            moved[j] += delta
            states = StorageSchedule.from_rates(moved, tes).e_stor[1:-1]
            if min(states) < 0.0 or max(states) > tes.e_max:
                continue
            assert objective(moved, problem) >= best * (1.0 - 1e-9), (i, j)


@settings(max_examples=200, deadline=None)
@given(q_cool=st.lists(st.floats(0.0, 156.5), min_size=4, max_size=4),
       twb=st.lists(st.floats(10.0, 30.0), min_size=4, max_size=4),
       rate_max=st.floats(0.0, 40.0),
       c1=st.floats(-12.0, 4.0), c3=st.floats(-10.0, 12.0),
       cop_floor=st.floats(0.5, 4.0))
def test_hour_bounds_contain_zero_when_zero_storage_admissible(q_cool, twb, rate_max,
                                                               c1, c3, cop_floor):
    model = DEFAULT_COP_MODEL.replace(c1=c1, c3=c3, cop_floor=cop_floor)
    tes = TesConfig(rate_max=rate_max)
    problem = ScheduleProblem(
        p_base=np.full(4, 30.0), q_cool=np.array(q_cool),
        twb=np.array(twb), p_mean=40.0, tes=tes, cop_model=model)
    q_cool, twb = np.asarray(problem.q_cool), np.asarray(problem.twb)
    margin = cop_values(q_cool / tes.q_ch_max, twb, model) - cop_floor
    assume(np.all(np.abs(margin) > 1e-9))
    bad = np.flatnonzero(margin < 0.0)
    if bad.size:
        with pytest.raises(InfeasibleStartError, match=f"hour {bad[0]}:"):
            hour_bounds(problem)
    else:
        lo, hi = (np.asarray(v) for v in hour_bounds(problem))
        assert np.all(lo <= 0.0) and np.all(hi >= 0.0)
        for edge in (lo, hi):   # the COP floor holds up to the box edges
            plr = (q_cool + edge) / tes.q_ch_max
            assert np.all(cop_values(plr, twb, model) >= cop_floor - 1e-9)


@settings(max_examples=200, deadline=None)
@given(q_cool=st.lists(st.floats(0.0, 156.5), min_size=4, max_size=4),
       twb=st.lists(st.floats(10.0, 30.0), min_size=4, max_size=4),
       rate_max=st.floats(0.0, 40.0),
       c1=st.floats(-12.0, 4.0), c3=st.floats(-10.0, 12.0),
       cop_floor=st.floats(0.5, 4.0))
def test_hour_bounds_edges_pass_chiller_power(q_cool, twb, rate_max, c1, c3, cop_floor):
    model = DEFAULT_COP_MODEL.replace(c1=c1, c3=c3, cop_floor=cop_floor)
    tes = TesConfig(rate_max=rate_max)
    problem = ScheduleProblem(
        p_base=np.full(4, 30.0), q_cool=np.array(q_cool),
        twb=np.array(twb), p_mean=40.0, tes=tes, cop_model=model)
    try:
        lo, hi = hour_bounds(problem)
    except InfeasibleStartError:
        assume(False)
    for t in range(4):
        for edge in (lo[t], hi[t]):   # raises if the COP there is at the floor
            chiller_power(problem.q_cool[t] + edge, problem.twb[t], model, tes)


@pytest.mark.parametrize("e_initial", [0.0, 175.6], ids=["empty-start", "full-tank"])
def test_solve_a_day_whose_cop_floor_sets_its_edges(e_initial):
    # a floor of 5.3 sets both edges of every hour: the COP there evaluates to
    # 5.299999999999999 and 5.3, so the edges move inward to be accepted
    tes = TesConfig(e_initial=e_initial)
    problem = _constant_problem(tes=tes).replace(
        cop_model=DEFAULT_COP_MODEL.replace(cop_floor=5.3))
    lo, hi = hour_bounds(problem)
    assert -tes.rate_max < lo[0] and hi[0] < tes.rate_max   # the floor binds
    res = solve(problem)
    assert check_schedule(res.schedule, tes) == []
    assert res.converged, res.message


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


def _reference_accepted_edge(edge, sign, q_cool, twb, m, tes):
    """The edge moved by the fewest floats towards sign (+1 or -1) at which
    `chiller_power` accepts q_cool + edge, stepping the chiller output."""
    while True:
        try:
            chiller_power(q_cool + edge, twb, m, tes)
            return edge
        except DegenerateCopError:
            moved = math.nextafter(q_cool + edge, sign * math.inf) - q_cool
            edge = moved if (moved - edge) * sign > 0.0 else math.nextafter(edge, sign * math.inf)


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
        lo[t] = _reference_accepted_edge(
            max(-tes.rate_max, plr_lo * tes.q_ch_max - q_cool), 1.0, q_cool, twb, m, tes)
        hi[t] = _reference_accepted_edge(
            min(tes.rate_max, plr_hi * tes.q_ch_max - q_cool), -1.0, q_cool, twb, m, tes)
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
    model = DEFAULT_COP_MODEL.replace(c1=c1, c3=c3, cop_floor=cop_floor)
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


@st.composite
def tube_problems(draw):
    """A Newton model's tube problem (a, w, lo, hi, zlo, zhi, total) around a
    feasible point, the tank often exactly as wide as the point needs."""
    m = draw(st.integers(2, 24))
    lo = draw(st.lists(st.floats(-40.0, -0.1), min_size=m, max_size=m))
    hi = draw(st.lists(st.floats(0.1, 40.0), min_size=m, max_size=m))
    point = [l + f * (h - l) for l, h, f in
             zip(lo, hi, draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))]
    path = list(itertools.accumulate(point))
    slack = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
    bottom = min(0.0, *path[:-1]) - draw(slack)
    top = max(0.0, *path[:-1]) + draw(slack)
    w = draw(st.lists(st.one_of(st.floats(0.01, 50.0), st.floats(1e3, 1e6)),
                      min_size=m, max_size=m))
    a = draw(st.lists(st.floats(-60.0, 60.0), min_size=m, max_size=m))
    zlo = [-math.inf] + [bottom] * (m - 1) + [-math.inf]
    zhi = [math.inf] + [top] * (m - 1) + [math.inf]
    return a, w, lo, hi, zlo, zhi, path[-1], point


# shaped like a draw that once broke a comparison of two model solvers at
# 1e-6: w up to 61037 and a tank of [-3, 0] that the point fills and empties
STIFF_TUBE = ([30.0, -20.0, 5.0, -40.0], [61037.0, 1.5, 0.02, 61037.0],
              [-10.0] * 4, [10.0] * 4, [-math.inf, -3.0, -3.0, -3.0, -math.inf],
              [math.inf, 0.0, 0.0, 0.0, math.inf], 0.0, [-1.0, -2.0, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(tube_problems())
@example(STIFF_TUBE)
def test_tube_solver_meets_the_optimality_conditions(tube):
    # the model is convex, so rates that meet these conditions minimize it,
    # whichever solver found them
    *model, point = tube
    a, w, lo, hi, zlo, zhi, total = model
    y, levels, touches = gridshave._levels._tube(*model)
    m = len(a)
    # a walk of the solver sums slopes up to max w over levels up to max |lam|
    tol = 1e-12 * (1.0 + m * max(w) * max(map(abs, levels)))
    # feasible: rates inside their intervals, states inside the tank
    assert all(l <= q <= h for q, l, h in zip(y, lo, hi))
    z = [0.0, *itertools.accumulate(y)]
    assert all(zlo[k] - tol <= z[k] <= zhi[k] + tol for k in range(1, m))
    assert abs(z[m] - total) <= tol
    # each rate is its level's clipped model rate
    for q, b, c, lam, l, h in zip(y, a, w, levels, lo, hi):
        assert abs(q - min(max(b + lam * c, l), h)) <= 2.0 * tol
    # the level changes only at a touched state: it rises across a full one
    # and falls across an empty one, and a touched state sits on its limit
    kinds = dict(touches)
    assert all(0 < k < m and kind in (1, -1) for k, kind in touches)
    for k in range(1, m):
        jump = levels[k] - levels[k - 1]
        if k not in kinds:
            assert jump == 0.0
        elif kinds[k] > 0:
            assert jump >= 0.0 and abs(z[k] - zhi[k]) <= tol
        else:
            assert jump <= 0.0 and abs(z[k] - zlo[k]) <= tol

    def cost(rates):
        return sum((q - b) ** 2 / (2.0 * c) for q, b, c in zip(rates, a, w))

    # no worse than the feasible point, within the rounding of the rates
    # (a rate's marginal cost is its level)
    assert cost(y) <= cost(point) + 1e-9 * (1.0 + cost(point)) + m * max(map(abs, levels)) * tol


def test_solve_calls_hour_bounds_once(first_day_problem, monkeypatch):
    counted = mock.Mock(wraps=hour_bounds)
    monkeypatch.setattr(gridshave.optimizer, "hour_bounds", counted)
    solve(first_day_problem)
    assert counted.call_count == 1


def test_solve_counts_its_work(first_day_problem, monkeypatch):
    per_day = mock.Mock(wraps=gridshave._levels.day_terms)
    per_hour = mock.Mock(wraps=gridshave._levels.hour_terms)
    model = mock.Mock(wraps=gridshave._levels._tube)
    validating = mock.Mock(wraps=gridshave.optimizer.chiller_power)
    scalar = mock.Mock(wraps=objective)
    monkeypatch.setattr(gridshave._levels, "day_terms", per_day)
    monkeypatch.setattr(gridshave._levels, "_tube", model)
    monkeypatch.setattr(gridshave._levels, "hour_terms", per_hour)
    monkeypatch.setattr(gridshave.optimizer, "chiller_power", validating)
    monkeypatch.setattr(gridshave.optimizer, "objective", scalar)
    monkeypatch.setitem(sys.modules, "numpy", None)   # any numpy import now fails
    res = solve(first_day_problem)
    # one pass over the free hours at the start and one per step, and no
    # per-hour call; one model solve per step; one validating pass per
    # candidate (solver point, heuristic) and no separate objective pass
    assert res.iterations == 5
    assert per_day.call_count == res.iterations + 1
    assert model.call_count == res.iterations
    assert per_hour.call_count == 0
    assert validating.call_count == 2
    assert scalar.call_count == 0


def test_solve_raises_when_the_solver_point_fails_its_check(first_day_problem, monkeypatch):
    p = first_day_problem
    limit = Violation("terminal_soc", -1, 0.0, p.tes.e_terminal)
    heuristic = operator_heuristic(p).q_stor
    checked = mock.Mock(return_value=[limit])
    monkeypatch.setattr(gridshave.optimizer, "check_schedule", checked)
    # every iterate lies in the tube: a broken limit is the solver's fault
    with pytest.raises(RuntimeError, match=f"^internal error: .*: {re.escape(str(limit))}$"):
        solve(p)
    assert checked.call_count == 1
    # the heuristic is scored though it fails its own check, and loses
    checked.side_effect = lambda schedule, *args, **kw: (
        [limit] if schedule.q_stor == heuristic else [])
    res = solve(p)
    assert checked.call_count == 3
    assert res.heuristic_generation == generation_profile(heuristic, p)
    assert res.objective < flatness(res.heuristic_generation, p.p_mean)
    assert res.schedule.q_stor != heuristic


def test_day_terms_match_hour_terms_bit_for_bit():
    # the Newton loop's one pass and the per-hour reference of the numpy path
    # are two writings of one formula; they must give the same floats
    rng = np.random.default_rng(7)
    for model in (DEFAULT_COP_MODEL, NON_CONVEX_COP):
        n = 200
        q_cool = rng.uniform(0.0, 150.0, n).tolist()
        twb = rng.uniform(model.twb_min, model.twb_max, n).tolist()
        p_base = rng.uniform(10.0, 50.0, n).tolist()
        tes = TesConfig()
        problem = ScheduleProblem(p_base=p_base, q_cool=q_cool, twb=twb, p_mean=45.0,
                                  tes=tes, cop_model=model)
        rates = [rng.uniform(-min(tes.rate_max, qc), min(tes.rate_max, tes.q_ch_max - qc))
                 for qc in q_cool]
        table = [(qc, pb, *gridshave.cooling.cop_coefficients(wet_bulb, model))
                 for qc, pb, wet_bulb in zip(q_cool, p_base, twb)]
        cost, g, h, w, a = gridshave._levels.day_terms(rates, table, model.c3, tes.q_ch_max,
                                                       problem.p_mean)
        expected_cost = 0.0
        for t, q in enumerate(rates):
            r, dp, d2p = gridshave._levels.hour_terms(
                q, q_cool[t], p_base[t], twb[t], table[t][2:], problem)
            expected_cost += r * r
            curvature = max(2.0 * (dp * dp + r * d2p), gridshave._levels.HESSIAN_FLOOR)
            assert g[t].hex() == (2.0 * r * dp).hex()
            assert h[t].hex() == curvature.hex()
            assert w[t].hex() == (1.0 / curvature).hex()
            assert a[t].hex() == (q - g[t] * w[t]).hex()
        assert cost.hex() == expected_cost.hex()
        # the floor binds on some hours of the non-convex surface
        assert model is DEFAULT_COP_MODEL or gridshave._levels.HESSIAN_FLOOR in h


@pytest.mark.parametrize("c3", [0.0, 1e-320, 1e-300, -1e-300, 1e-12, -1e-12])
def test_hour_bounds_tiny_quadratic_cop_term(c3):
    # COP falls through the floor at plr = 0.74 on a near-linear surface; a
    # tiny c3 must not move that root or raise
    model = DEFAULT_COP_MODEL.replace(c1=-8.0, c3=c3, cop_floor=8.8)
    tes = TesConfig(rate_max=150.0)
    problem = ScheduleProblem(
        p_base=np.full(2, 30.0), q_cool=np.full(2, 0.1 * tes.q_ch_max),
        twb=np.full(2, 10.0), p_mean=40.0, tes=tes,
        cop_model=model)
    _, hi = hour_bounds(problem)
    assert hi == pytest.approx(np.full(2, 0.64 * tes.q_ch_max), rel=1e-9)


#: Hours pinned to a zero rate: one hour, runs of them, both ends of the day
#: (a pinned last hour holds the stored energy before it at e_terminal), and
#: every other hour.
PINNED_HOURS = {"15": [15], "0": [0], "23": [23], "14-16": [14, 15, 16], "0-2": [0, 1, 2],
                "21-23": [21, 22, 23], "0+23": [0, 23], "even": list(range(0, 24, 2))}


@pytest.mark.parametrize("hours", PINNED_HOURS.values(), ids=PINNED_HOURS.keys())
def test_solve_hour_with_equal_bounds_stays_at_start(first_day_problem, monkeypatch, hours):
    real = hour_bounds

    def pinned(problem):
        lo, hi = real(problem)
        lo, hi = np.array(lo), np.array(hi)
        lo[hours] = hi[hours] = 0.0
        return lo, hi

    free = solve(first_day_problem)
    assert max(abs(free.schedule.q_stor[t]) for t in hours) > 1.0   # the pinning binds
    monkeypatch.setattr(gridshave.optimizer, "hour_bounds", pinned)
    res = solve(first_day_problem)
    assert res.converged, res.message
    assert [res.schedule.q_stor[t] for t in hours] == [0.0] * len(hours)
    assert check_schedule(res.schedule, first_day_problem.tes) == []
    assert free.objective <= res.objective <= objective(np.zeros(24), first_day_problem)


def test_solve_all_hours_fixed_takes_no_step():
    problem = _constant_problem(tes=TesConfig(rate_max=0.0), p_mean_offset=2.0)
    res = solve(problem)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.schedule.q_stor, np.zeros(24))


def test_solve_non_convex_cop_surface_returns_feasible_schedule(first_day_problem):
    p = first_day_problem.replace(cop_model=NON_CONVEX_COP)
    lo, hi = (np.asarray(v) for v in hour_bounds(p))
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


def test_solve_converges_on_a_720_hour_horizon(synth_scenario):
    # the default three days repeated ten times: one 30-day problem
    sc = synth_scenario
    problem = ScheduleProblem(p_base=np.tile(sc.p_base, 10), q_cool=np.tile(sc.q_cool, 10),
                              twb=np.tile(sc.twb, 10), p_mean=46.0, tes=TesConfig(),
                              cop_model=DEFAULT_COP_MODEL)
    assert problem.horizon == 720
    res = solve(problem)
    assert res.converged, res.message
    assert check_schedule(res.schedule, problem.tes) == []
    assert res.objective <= objective(np.zeros(720), problem)


def test_solve_unreachable_tolerance_stops_unconverged(first_day_problem):
    # a relative dual residual of 1e-17 is below the gradients' rounding (one
    # ulp of a marginal cost near 3 is 4.4e-16): the solve must end early,
    # unconverged, with a feasible schedule as good as a normal solve
    res = solve(first_day_problem, SolverOptions(optimality_tol=1e-17))
    assert res.converged is False
    assert res.iterations < 50
    assert check_schedule(res.schedule, first_day_problem.tes) == []
    assert res.objective <= solve(first_day_problem).objective + 1e-6


def test_solve_tolerance_below_floating_point_stops_unconverged(first_day_problem):
    # the mean complementarity never reaches 1e-50 while the steps stay
    # finite: the stall test starts once it is below what floating point
    # resolves of its start, and ends the solve before W overflows
    res = solve(first_day_problem, SolverOptions(optimality_tol=1e-50))
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
    q = np.asarray(heur.q_stor)
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


@st.composite
def start_cases(draw):
    """(tes, lo, hi): boundary states in [0, e_max] and hourly intervals
    lo <= 0 <= hi inside the rate box, zero-width hours and a zero rate
    limit included; in one case of four every interval is the whole rate box."""
    T = draw(st.integers(2, 30))
    rate_max = draw(st.sampled_from([0.0, 31.7]) | st.floats(0.0, 40.0))
    e_max = draw(st.just(175.6) | st.floats(0.0, 400.0))
    level = st.floats(0.0, e_max) | st.sampled_from([0.0, e_max])
    tes = TesConfig(e_max=e_max, rate_max=rate_max,
                    e_initial=draw(level), e_terminal=draw(level))
    if draw(st.integers(0, 3)) == 0:
        return tes, [-rate_max] * T, [rate_max] * T
    share = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    lo = [-rate_max * draw(share) for _ in range(T)]
    hi = [rate_max * draw(share) for _ in range(T)]
    return tes, lo, hi


@settings(max_examples=300, deadline=None)
@given(start_cases())
def test_feasible_start_exists_exactly_when_the_intervals_bridge_the_states(case):
    tes, lo, hi = case
    T = len(lo)
    problem = _constant_problem(T=T, tes=tes)
    delta = tes.e_terminal - tes.e_initial
    rooms = [max(h, 0.0) if delta >= 0.0 else max(-l, 0.0) for l, h in zip(lo, hi)]
    if sum(rooms) < abs(delta):
        message = (f"the boundary states need {abs(delta):.4f} MWh of "
                   f"{'discharge' if delta < 0.0 else 'charge'}, but the hourly "
                   f"intervals admit at most {sum(rooms):.4f} MWh")
        with pytest.raises(InfeasibleStartError, match=f"^{re.escape(message)}$"):
            feasible_start(problem, lo, hi)
        return
    start = feasible_start(problem, lo, hi)
    assert all(l <= x <= h for l, x, h in zip(lo, start, hi))
    assert abs(sum(start) - delta) <= 1e-9
    assert check_schedule(StorageSchedule.from_rates(start, tes), tes) == []
    if delta == 0.0:
        assert start.tolist() == [0.0] * T
    if all(l <= delta / T <= h for l, h in zip(lo, hi)):
        assert start.tolist() == [delta / T] * T


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["p_base", "q_cool", "twb"])
def test_schedule_problem_rejects_non_finite_series(first_day_problem, name, value):
    series = np.array(getattr(first_day_problem, name))
    series[5] = value
    with pytest.raises(ValueError, match=f"^hour 5: {name} is "):
        first_day_problem.replace(**{name: series})


@pytest.mark.parametrize("value", [31.0, 9.5])
def test_schedule_problem_rejects_wet_bulb_outside_cop_window(first_day_problem, value):
    twb = np.array(first_day_problem.twb)
    twb[5] = value
    with pytest.raises(CopDomainError, match="^hour 5: twb=") as got:
        first_day_problem.replace(twb=twb)
    assert got.value.hour == 5


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("evaluate", [generation_profile, objective, gradient])
def test_non_finite_rate_names_its_hour(first_day_problem, evaluate, value):
    q = np.zeros(24)
    q[3] = value
    with pytest.raises(CopDomainError, match="^hour 3: chiller output .* not a finite number"):
        evaluate(q, first_day_problem)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_schedule_problem_rejects_non_finite_p_mean(first_day_problem, value):
    with pytest.raises(ValueError, match="^p_mean must be positive and finite"):
        first_day_problem.replace(p_mean=value)


def test_solver_options_defaults():
    opts = SolverOptions()
    assert opts.max_iterations == 200
    assert opts.feasibility_tol == 1e-6
    assert opts.optimality_tol == 1e-8


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 0),
    ("max_iterations", -5),
    ("max_iterations", 1.5),
    ("max_iterations", math.inf),
    ("max_iterations", math.nan),
    ("feasibility_tol", math.nextafter(1e-9, 0.0)),
    ("feasibility_tol", 0.0),
    ("feasibility_tol", -1e-6),
    ("feasibility_tol", math.inf),
    ("optimality_tol", math.nan),
    ("optimality_tol", -math.inf),
])
def test_solver_options_reject_invalid_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        SolverOptions(**{field: value})


def test_feasibility_tol_floor_is_the_loop_rounding():
    # a finer tolerance would judge the rates and states the loop places
    # within its rounding slack as breaking their limits
    interval = next(f.interval for f in configio.fields(SolverOptions)
                    if f.name == "feasibility_tol")
    assert interval[1] == gridshave._levels.ROUNDING
    assert SolverOptions(feasibility_tol=gridshave._levels.ROUNDING).feasibility_tol == 1e-9


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


def test_no_command_loads_numpy(tmp_path):
    # importing the package and the CLI, and every command, leaves numpy
    # unloaded
    src = os.path.dirname(os.path.dirname(gridshave.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, gridshave, gridshave.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"

    scenario_path = str(tmp_path / "day.csv")
    write_scenario(generate_synthetic(seed=1), scenario_path)
    run_dir = str(tmp_path / "run")
    samples_path = str(tmp_path / "samples.csv")
    plr = np.linspace(0.0, 1.0, 20)
    twb = np.resize([12.0, 20.0, 28.0], 20)
    write_table(samples_path, SAMPLES_HEADER, [plr, twb, cop_values(plr, twb, DEFAULT_COP_MODEL)])
    commands = {
        "optimize": ["--scenario", scenario_path, "--out", run_dir],
        "simulate": ["--scenario", scenario_path, "--out", str(tmp_path / "sim"),
                     "--schedule", os.path.join(run_dir, "schedule.csv")],
        "report": ["--run", run_dir],
        "fit": ["--samples", samples_path, "--out", str(tmp_path / "cop.cfg")],
        "synth": ["--out", str(tmp_path / "synth.csv")],
    }
    loads_numpy = {}
    for command, flags in commands.items():
        run = subprocess.run([sys.executable, "-X", "importtime", "-m", "gridshave", command,
                              *flags], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                    if line.startswith("import time:")]
        loads_numpy[command] = "numpy" in imported
    assert loads_numpy == {"optimize": False, "simulate": False, "report": False,
                           "fit": False, "synth": False}


def test_import_leaves_process_pool_modules_unloaded():
    src = os.path.dirname(os.path.dirname(gridshave.__file__))
    code = ("import sys, gridshave; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
