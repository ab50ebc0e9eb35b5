"""Hourly storage scheduling to flatten the campus generation profile.

The only decision variables are the storage rates q_stor(1..T); every other
plant and cooling quantity follows deterministically from them. The solver
minimizes

    sum_t (G(t) - p_mean)^2,
    G(t) = p_base(t) + p_ch(q_cool(t) + q_stor(t), twb(t)),

subject to the rate box, the stored-energy chain 0 <= e(t) <= e_max, the
terminal state e(T) = e_terminal, per-hour chiller capacity and the COP
floor. Capacity is linear and the COP surface quadratic in PLR, so both
reduce to per-hour intervals on q_stor (`hour_bounds`); the stored-energy
limits are the cumulative-sum rows of the rates, and the terminal state is
one equality on their sum.

Each hour's cost depends on that hour's rate alone, so the Hessian of the
objective is diagonal and known in closed form (`hessian_diagonal`). `solve`
uses this structure in a primal-dual interior-point Newton method with
Mehrotra's predictor-corrector (Boyd & Vandenberghe, Convex Optimization,
ch. 11; Mehrotra 1992). The box and stored-energy rows form one dense
constraint matrix, built once per solve, so every product with it is one
matrix product; each step solves two (T+1) x (T+1) linear systems with numpy
(predictor and corrector), and nothing beyond numpy is needed. The chiller
model is `cooling`'s: `_HourlyCost` takes the per-hour COP coefficients once
per solve (`cop_coefficients`) and the COP from `cop_values`, and p_ch is
validated only by `chiller_power`. The slacks and duals are the two halves
of one buffer. The start, the solver point and the operator heuristic are
each checked once (`check_schedule`) and scored by one validated
`chiller_power` pass; the best feasible one is returned.

A dynamic-programming oracle on a discretized (action, stored energy) grid
provides an independent optimum for small horizons: the stage cost at hour t
depends only on q_stor(t), and hours couple only through the stored-energy
chain, so backward induction is exact on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configio import ConfigFile
from .cooling import (
    CopModel,
    StorageSchedule,
    TesConfig,
    check_schedule,
    chiller_power,
    cop_coefficients,
    cop_values,
)
from .errors import (
    CopDomainError,
    GridResourceError,
    InfeasibleStartError,
    ShapeError,
)

HOURS_PER_DAY = 24

#: Floor on each hour's cost curvature inside the Newton step, so that a COP
#: surface making the cost non-convex cannot make the step system indefinite.
HESSIAN_FLOOR = 1e-6

#: Fraction of each hour's [lo, hi] width kept between the starting rate and
#: the box edge.
BOX_MARGIN = 0.05

#: Fraction of the way to the slack and dual boundary a step may go.
STEP_TO_BOUNDARY = 0.995


@dataclass(frozen=True)
class ScheduleProblem:
    """One optimization horizon: exogenous series, target level and configs."""

    p_base: np.ndarray      # MW, base electric load (everything but chillers)
    q_cool: np.ndarray      # MW thermal, cooling delivered to campus
    twb: np.ndarray         # deg C, wet-bulb temperature
    p_mean: float           # MW, flat generation target
    tes: TesConfig
    cop_model: CopModel

    def __post_init__(self):
        for name in ("p_base", "q_cool", "twb"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        T = self.p_base.shape[0]
        if T < 2:
            raise ShapeError(f"horizon must be at least 2 hours, got {T}")
        for name in ("q_cool", "twb"):
            if getattr(self, name).shape != (T,):
                raise ShapeError(f"{name} length differs from p_base length {T}")
        for name in ("p_base", "q_cool", "twb"):
            arr = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                t = int(bad[0])
                raise ValueError(f"hour {t}: {name} is {arr[t]}, not a finite number")
        m = self.cop_model
        bad = np.flatnonzero((self.twb < m.twb_min) | (self.twb > m.twb_max))
        if bad.size:
            t = int(bad[0])
            raise CopDomainError(
                f"hour {t}: twb={self.twb[t]} outside validity range "
                f"[{m.twb_min}, {m.twb_max}] C", hour=t)
        if not 0.0 < self.p_mean < math.inf:
            raise ValueError(f"p_mean must be positive and finite, got {self.p_mean}")

    @property
    def horizon(self) -> int:
        return int(self.p_base.shape[0])


@dataclass(frozen=True)
class SolverOptions(ConfigFile):
    max_iterations: int = 200           # Newton-step cap of the interior-point solve
    feasibility_tol: float = 1e-6       # MWh, primal residuals and schedule checks
    optimality_tol: float = 1e-8        # mean complementarity (MW^2), relative dual residual

    def __post_init__(self):
        if not (self.max_iterations >= 1 and float(self.max_iterations).is_integer()):
            raise ValueError(
                f"max_iterations must be a whole number >= 1, got {self.max_iterations!r}")
        for name in ("feasibility_tol", "optimality_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class OptimalSchedule:
    """Solver output: feasible schedule plus diagnostics."""

    schedule: StorageSchedule
    objective: float                   # MW^2, recomputed at the returned point
    p_ch: np.ndarray                   # MW electric per hour
    generation: np.ndarray             # MW per hour
    iterations: int
    converged: bool
    grid_error_bound: float | None = None
    message: str = ""
    heuristic: StorageSchedule | None = None   # operator heuristic (24-hour days)


def hour_bounds(problem: ScheduleProblem) -> tuple[np.ndarray, np.ndarray]:
    """Per-hour [lo, hi] bounds on q_stor from rate, capacity and COP floor.

    cop(plr) at fixed twb is quadratic in plr, so {plr in [0, 1]: cop >=
    floor} is a union of at most two intervals; each hour keeps the one
    holding its zero-storage point plr_ref = q_cool / q_ch_max. Raises
    InfeasibleStartError naming the first hour whose demand is outside the
    chiller range, whose zero-storage point breaks the floor, or whose
    interval is empty.
    """
    tes = problem.tes
    m = problem.cop_model
    q_cool, twb = problem.q_cool, problem.twb
    plr_ref = q_cool / tes.q_ch_max
    a = m.c3
    b, c = cop_coefficients(twb, m)
    bad_cop = cop_values(plr_ref, twb, m, (b, c)) <= m.cop_floor
    c = c - m.cop_floor   # the roots of cop = cop_floor
    # on hours whose branch np.where discards, the root formulas may divide by
    # zero or take the root of a negative number; a tiny c3 overflows to inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if a == 0.0:
            root = -c / b
            plr_lo = np.where(b > 0.0, np.maximum(0.0, root), 0.0)
            plr_hi = np.where(b < 0.0, np.minimum(1.0, root), 1.0)
        else:
            # the root formula without cancellation: a tiny c3 puts one root
            # far outside [0, 1] (possibly at inf) and keeps the other accurate
            disc = b * b - 4.0 * a * c
            q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
            r1, r2 = q / a, c / q
            lo_root, hi_root = np.minimum(r1, r2), np.maximum(r1, r2)
            if a < 0.0:    # concave: admissible between the roots
                plr_lo, plr_hi = np.maximum(0.0, lo_root), np.minimum(1.0, hi_root)
            else:          # convex: admissible on the side of the roots holding plr_ref
                left = plr_ref <= lo_root
                plr_lo = np.where(left, 0.0, np.maximum(0.0, hi_root))
                plr_hi = np.where(left, np.minimum(1.0, lo_root), 1.0)
            # no real roots: the sign is constant, and positive at plr_ref
            plr_lo = np.where(disc > 0.0, plr_lo, 0.0)
            plr_hi = np.where(disc > 0.0, plr_hi, 1.0)
        lo = np.maximum(-tes.rate_max, plr_lo * tes.q_ch_max - q_cool)
        hi = np.minimum(tes.rate_max, plr_hi * tes.q_ch_max - q_cool)
        bad_demand = ~((q_cool >= 0.0) & (q_cool <= tes.q_ch_max))
    bad = np.flatnonzero(bad_demand | bad_cop | (lo > hi))
    if bad.size:
        t = int(bad[0])
        if bad_demand[t]:
            raise InfeasibleStartError(
                f"hour {t}: cooling demand {q_cool[t]} MW outside [0, {tes.q_ch_max}] MW")
        if bad_cop[t]:
            raise InfeasibleStartError(
                f"hour {t}: zero-storage operating point violates the COP floor (COP at "
                f"plr={plr_ref[t]:.4f}, twb={twb[t]:.2f} is at or below the floor)")
        raise InfeasibleStartError(f"hour {t}: empty feasible storage-rate interval")
    return lo, hi


def _checked_rates(q_stor, problem: ScheduleProblem) -> np.ndarray:
    q = np.asarray(q_stor, dtype=float)
    if q.shape != (problem.horizon,):
        raise ShapeError(f"q_stor shape {q.shape} != horizon {problem.horizon}")
    return q


def generation_profile(q_stor, problem: ScheduleProblem) -> np.ndarray:
    """Total generation G(t) for a storage schedule, validated hour by hour
    by `chiller_power`."""
    q = _checked_rates(q_stor, problem)
    return problem.p_base + chiller_power(problem.q_cool + q, problem.twb,
                                          problem.cop_model, problem.tes)


def flatness(generation: np.ndarray, p_mean: float) -> float:
    """Sum of squared deviations of a generation profile from the flat target, MW^2."""
    r = generation - p_mean
    return float(np.dot(r, r))


def _score(q_stor: np.ndarray, problem: ScheduleProblem) -> tuple[float, np.ndarray]:
    """(objective, p_ch) of a schedule from one validated `chiller_power` pass."""
    p_ch = chiller_power(problem.q_cool + q_stor, problem.twb, problem.cop_model, problem.tes)
    return flatness(problem.p_base + p_ch, problem.p_mean), p_ch


class _HourlyCost:
    """Each hour's cost (G(t) - p_mean)^2 and its derivatives in q_stor(t),
    from the per-hour COP coefficients b(t), c(t) of `cop_coefficients`,
    computed once per problem; the COP itself comes from `cop_values`.

    Chain rule through p_ch = q_ch / cop(plr), plr = q_ch / q_ch_max, with
    cop' = dcop/dplr = b(t) + 2 c3 plr and cop'' = 2 c3:
        dp_ch/dq_ch   = (cop - plr cop') / cop^2
        d2p_ch/dq_ch2 = (2 plr cop'^2 - cop (2 cop' + plr cop'')) / (q_ch_max cop^3)
    `gradient` keeps what `hessian` needs at its point, so a pass that needs
    no second derivatives computes none. The rates are not validated: they
    must lie in `hour_bounds`.
    """

    def __init__(self, problem: ScheduleProblem):
        self.problem = problem
        self.coefficients = cop_coefficients(problem.twb, problem.cop_model)
        self.c3_2 = 2.0 * problem.cop_model.c3
        self.point = None

    def gradient(self, q_stor: np.ndarray) -> np.ndarray:
        problem = self.problem
        q_ch = problem.q_cool + q_stor
        plr = q_ch / problem.tes.q_ch_max
        cop = cop_values(plr, problem.twb, problem.cop_model, self.coefficients)
        curvature = self.c3_2 * plr          # plr cop''
        slope = self.coefficients[0] + curvature   # cop'
        dp = (cop - plr * slope) / (cop * cop)
        r = problem.p_base + q_ch / cop - problem.p_mean
        self.point = plr, cop, curvature, slope, dp, r
        return 2.0 * r * dp

    def hessian(self) -> np.ndarray:
        """Second derivatives at the point of the last `gradient` call."""
        plr, cop, curvature, slope, dp, r = self.point
        d2p = ((2.0 * plr * slope * slope - cop * (2.0 * slope + curvature))
               / (self.problem.tes.q_ch_max * cop * cop * cop))
        return 2.0 * (dp * dp + r * d2p)


def objective(q_stor, problem: ScheduleProblem) -> float:
    """Sum of squared deviations of generation from the flat target, MW^2."""
    return flatness(generation_profile(q_stor, problem), problem.p_mean)


def _validated_cost(q_stor, problem: ScheduleProblem) -> tuple[_HourlyCost, np.ndarray]:
    """(cost terms, gradient) at q_stor after the checks of `chiller_power`."""
    q = _checked_rates(q_stor, problem)
    _score(q, problem)
    cost = _HourlyCost(problem)
    return cost, cost.gradient(q)


def gradient(q_stor, problem: ScheduleProblem) -> np.ndarray:
    """Analytic d(objective)/d(q_stor), matching central finite differences."""
    _, grad = _validated_cost(q_stor, problem)
    if not np.all(np.isfinite(grad)):
        t = int(np.nonzero(~np.isfinite(grad))[0][0])
        raise FloatingPointError(f"non-finite gradient component at hour {t}")
    return grad


def hessian_diagonal(q_stor, problem: ScheduleProblem) -> np.ndarray:
    """Analytic d2(objective)/d(q_stor)^2; the Hessian is diagonal because
    each hour's cost depends on that hour's rate alone."""
    cost, _ = _validated_cost(q_stor, problem)
    return cost.hessian()


def feasible_start(problem: ScheduleProblem,
                   lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Zero schedule, or a uniform ramp when the boundary states differ."""
    T = problem.horizon
    tes = problem.tes
    delta = tes.e_terminal - tes.e_initial
    if abs(delta) <= 1e-12:
        x0 = np.zeros(T)
    else:
        step = delta / T
        if abs(step) > tes.rate_max + 1e-12:
            raise InfeasibleStartError(
                f"cannot move stored energy by {delta:.2f} MWh in {T} h at "
                f"rate limit {tes.rate_max} MW")
        x0 = np.full(T, step)
    if np.any(x0 < lo - 1e-12) or np.any(x0 > hi + 1e-12):
        t = int(np.nonzero((x0 < lo - 1e-12) | (x0 > hi + 1e-12))[0][0])
        raise InfeasibleStartError(
            f"hour {t}: starting schedule violates the hourly feasible interval")
    return x0


def solve(problem: ScheduleProblem,
          opts: SolverOptions = SolverOptions()) -> OptimalSchedule:
    """Minimize the flatness objective over feasible storage schedules.

    One interior-point Newton solve (`_interior_point`) from the zero/ramp
    start, capped at `max_iterations` steps. The candidates are the start,
    the solver point and (for 24-hour problems) the operator heuristic; each
    is checked once with `check_schedule` and scored by one validated
    `chiller_power` pass, and the best one that passes is returned, so the
    result never loses to either reference schedule. `converged` is True
    when the dual, primal and terminal residuals and the mean
    complementarity all fell below tolerance; `message` records them.
    Deterministic for identical inputs and options.
    """
    T = problem.horizon
    tes = problem.tes
    lo, hi = hour_bounds(problem)
    x0 = feasible_start(problem, lo, hi)
    x, iterations, converged, message = _interior_point(problem, lo, hi, x0, opts)
    # restore the terminal state exactly; the uniform shift is orders of
    # magnitude below feasibility_tol and keeps all other limits within it
    x = x + (tes.e_terminal - tes.e_initial - float(np.sum(x))) / T
    candidates = [StorageSchedule.from_rates(x0, tes), StorageSchedule.from_rates(x, tes)]
    heur = None
    if T == HOURS_PER_DAY:
        heur = operator_heuristic(problem, bounds=(lo, hi))
        candidates.append(heur)
    # a capped solve may stop short of the stored-energy limits
    best, rejected = None, []
    for schedule in candidates:
        violations = check_schedule(schedule, tes, tol=opts.feasibility_tol)
        if violations:
            rejected.append(violations)
            continue
        obj, p_ch = _score(schedule.q_stor, problem)
        if best is None or obj < best[0]:   # the first of equal objectives wins
            best = obj, schedule, p_ch
    if best is None:
        raise InfeasibleStartError(
            "every candidate schedule is infeasible; the start: "
            + "; ".join(str(v) for v in rejected[0]))
    best_obj, schedule, p_ch = best
    return OptimalSchedule(
        schedule=schedule,
        objective=best_obj,
        p_ch=p_ch,
        generation=problem.p_base + p_ch,
        iterations=iterations,
        converged=converged,
        message=message,
        heuristic=heur,
    )


def _interior_point(problem: ScheduleProblem, lo: np.ndarray, hi: np.ndarray,
                    x0: np.ndarray, opts: SolverOptions) -> tuple[np.ndarray, int, bool, str]:
    """Primal-dual interior-point Newton method with Mehrotra's predictor-corrector.

    The inequalities are the box lo <= x <= hi on the hours whose interval is
    wider than feasibility_tol (a narrower hour stays at its start value, so
    an hour with lo == hi needs no slack) and the stored-energy rows
    0 <= e_initial + (L x)(t) <= e_max for t < T-1, where L = np.tri(T-1, T)
    is the lower-triangular matrix of ones. They are the rows of one dense
    matrix G = [I_f; -I_f; L; -L], built once per solve, in G x + s = h with
    slack s >= 0 and dual z >= 0 (I_f: the identity rows of the free hours);
    the terminal row sum(x) = delta has multiplier y. s and z are the two
    halves of one buffer, and so are their steps ds and dz, so the step to
    the boundary is one masked minimum and the update one in-place add.

    Eliminating s and z leaves the reduced KKT system over the free hours

        [ H + Gf'WGf  1 ] [dx]   [rhs]
        [ 1'          0 ] [dy] = [-r_e],   W = diag(z / s),

    where Gf holds G's columns of the free hours and H is the diagonal of
    `hessian_diagonal` (floored at HESSIAN_FLOOR). Every product with G, Gf'
    (kept contiguous) or Gf'WGf is one matrix product.

    The hourly cost terms come from one `_HourlyCost`, whose per-hour
    constants are computed once per solve; its second derivatives are
    evaluated only on the steps actually taken. The residual norms are
    computed only once the mean complementarity and the terminal residual
    are within tolerance, and for `message` at exit.

    The start is strictly inside the box. A full tank puts the zero schedule
    on the e_max edge, so every stored-energy row starts with a slack of at
    least one hour at the rate limit; the primal residual this leaves decays
    to zero with the steps. Returns (x, steps, converged, message).
    """
    T = problem.horizon
    tes = problem.tes
    delta = tes.e_terminal - tes.e_initial
    free = np.flatnonzero(hi - lo > opts.feasibility_tol)
    n = free.size
    x = x0.copy()
    if n == 0:
        return x, 0, True, "no free hour: every rate is fixed by its bounds"
    margin = BOX_MARGIN * (hi[free] - lo[free])
    x[free] = np.clip(x0[free], lo[free] + margin, hi[free] - margin)
    # rows of G x + s = h: box upper, box lower, tank upper, tank lower
    box, tri = np.eye(T)[free], np.tri(T - 1, T)
    G = np.vstack([box, -box, tri, -tri])
    Gf = G[:, free]
    GfT = np.ascontiguousarray(Gf.T)
    h = np.concatenate([hi[free], -lo[free], np.full(T - 1, tes.e_max - tes.e_initial),
                        np.full(T - 1, tes.e_initial)])
    k = h.size
    sz, dsz = np.empty(2 * k), np.empty(2 * k)
    s, z, ds, dz = sz[:k], sz[k:], dsz[:k], dsz[k:]
    s[:] = h - G @ x
    s[2 * n:] = np.maximum(s[2 * n:], tes.rate_max)
    z[:] = 1.0
    y = 0.0
    kkt = np.zeros((n + 1, n + 1))
    kkt[n, :n] = kkt[:n, n] = 1.0
    kkt_diag = kkt.reshape(-1)[:n * (n + 2):n + 2]   # a view of the first n diagonal entries
    rhs = np.empty(n + 1)
    cost = _HourlyCost(problem)

    def residual_norms():
        # the dual one relative to the gradient, so that the test is
        # reachable in floating point on horizons whose cost is larger
        return (float(np.abs(neg_r_d).max()) / max(1.0, float(np.abs(grad).max())),
                float(np.abs(neg_r_p).max()))

    def direction(r_c):
        """Newton step for complementarity target r_c = s z - target; fills ds, dz."""
        np.subtract(neg_r_d, GfT @ ((z_neg_r_p + r_c) / neg_s), out=rhs[:n])
        sol = np.linalg.solve(kkt, rhs)
        np.subtract(neg_r_p, Gf @ sol[:n], out=ds)
        np.divide(r_c + z * ds, neg_s, out=dz)
        return sol

    step = 0
    while True:
        grad = cost.gradient(x)
        # the residuals are kept negated, as the right-hand sides use them
        neg_r_d = -(grad[free] + GfT @ z + y)
        neg_r_p = h - (G @ x + s)
        r_e = float(x.sum()) - delta
        mu = float(s @ z) / k
        converged = False
        if mu <= opts.optimality_tol and abs(r_e) <= opts.feasibility_tol:
            res_d, res_p = residual_norms()
            converged = res_d <= opts.optimality_tol and res_p <= opts.feasibility_tol
        if converged or step >= opts.max_iterations:
            break

        kkt[:n, :n] = (GfT * (z / s)) @ Gf
        kkt_diag += np.maximum(cost.hessian()[free], HESSIAN_FLOOR)
        rhs[n] = -r_e
        z_neg_r_p, neg_s = z * neg_r_p, -s
        # predictor: the pure Newton step, which sets the centring weight
        r_c = s * z
        try:
            direction(r_c)
        except np.linalg.LinAlgError:
            break   # W outgrew floating point before the tolerances were met
        alpha = min(1.0, _max_step(sz, dsz))
        trial = sz + alpha * dsz
        mu_aff = float(trial[:k] @ trial[k:]) / k
        sigma = min(1.0, (mu_aff / mu) ** 3)
        # corrector: centre towards sigma * mu and cancel the second-order term
        sol = direction(r_c + ds * dz - sigma * mu)
        alpha = min(1.0, STEP_TO_BOUNDARY * _max_step(sz, dsz))
        x[free] += alpha * sol[:n]
        sz += alpha * dsz
        y += alpha * sol[n]
        step += 1

    res_d, res_p = residual_norms()
    message = (f"interior point, {step} steps: relative dual residual {res_d:.2e}, primal "
               f"{res_p:.2e}, terminal {abs(r_e):.2e}, complementarity {mu:.2e}")
    return x, step, converged, message


def _max_step(v, dv) -> float:
    """Largest alpha in (0, inf] keeping v + alpha dv >= 0."""
    neg = dv < 0.0
    return -float((v[neg] / dv[neg]).max(initial=-np.inf))


def operator_heuristic(problem: ScheduleProblem,
                       bounds: tuple[np.ndarray, np.ndarray] | None = None) -> StorageSchedule:
    """Rule-of-thumb schedule mirroring manual tank operation.

    Top up the tank in the early morning (hours 0-5), discharge evenly over
    the afternoon (hours 13-19), and refill late evening (hours 22-23) back
    to the terminal state. Every step clamps to the rate, tank and chiller
    limits; the discharge budget is sized to what the evening hours can put
    back, so the result is feasible whenever the boundary states can be
    bridged within this phase structure at all. `bounds` is the problem's
    `hour_bounds` when the caller has them already; they are computed if None.
    """
    T = problem.horizon
    if T != HOURS_PER_DAY:
        raise InfeasibleStartError(
            f"operator heuristic needs a 24-hour midnight-aligned day, got T={T}")
    tes = problem.tes
    lo, hi = hour_bounds(problem) if bounds is None else bounds

    q = np.zeros(T)
    e = tes.e_initial

    for t in range(0, 6):
        q[t] = min(max(hi[t], 0.0), tes.e_max - e)
        e += q[t]
    e_morning = e

    refill_hours = (22, 23)
    refill_cap = sum(min(max(hi[t], 0.0), tes.e_max) for t in refill_hours)

    discharge_hours = list(range(13, 20))
    per_hour_limit = min(max(-lo[t], 0.0) for t in discharge_hours)
    total = min(
        refill_cap + e_morning - tes.e_terminal,
        e_morning,
        per_hour_limit * len(discharge_hours),
    )
    total = max(total, 0.0)
    d = total / len(discharge_hours)
    for t in discharge_hours:
        q[t] = -d
        e -= d

    needed = tes.e_terminal - e
    for t in refill_hours:
        step = min(max(hi[t], 0.0), needed, tes.e_max - e)
        step = max(step, 0.0)
        q[t] = step
        e += step
        needed -= step

    return StorageSchedule.from_rates(q, tes)


def dp_oracle(problem: ScheduleProblem,
              action_step: float = 0.5,
              soc_step: float = 0.5,
              max_table_entries: int = 50_000_000) -> OptimalSchedule:
    """Exact optimum over discretized storage rates, by backward induction.

    Actions are multiples of action_step inside the per-hour feasible
    interval; stored-energy states are multiples of soc_step anchored at
    e_initial so every transition stays on the grid (action_step must be an
    integer multiple of soc_step). The reported grid_error_bound is a
    first-order estimate of how far the continuous optimum can undercut the
    grid optimum: sum_t max|dcost_t/dq| * action_step / 2.
    """
    T = problem.horizon
    if T > HOURS_PER_DAY:
        raise ShapeError(f"dp oracle supports horizons up to 24 h, got {T}")
    if action_step <= 0.0 or soc_step <= 0.0:
        raise ValueError("grid steps must be positive")
    ratio = action_step / soc_step
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("action_step must be an integer multiple of soc_step")
    ratio = int(round(ratio))

    tes = problem.tes
    lo, hi = hour_bounds(problem)

    k_min = -math.floor(tes.e_initial / soc_step + 1e-9)
    k_max = math.floor((tes.e_max - tes.e_initial) / soc_step + 1e-9)
    n_states = k_max - k_min + 1
    m = math.floor(tes.rate_max / action_step + 1e-9)
    actions = np.arange(-m, m + 1, dtype=float) * action_step
    n_actions = actions.shape[0]

    if n_states * n_actions + T * n_states > max_table_entries:
        raise GridResourceError(
            f"DP table of {n_states} states x {n_actions} actions over {T} h "
            f"exceeds the cap of {max_table_entries} entries; use coarser steps")

    k_term = round((tes.e_terminal - tes.e_initial) / soc_step)
    if abs(tes.e_terminal - (tes.e_initial + k_term * soc_step)) > 1e-9:
        raise ValueError(
            "terminal stored energy is not on the SOC grid; pick soc_step "
            "dividing (e_terminal - e_initial)")
    idx_term = k_term - k_min
    if not 0 <= idx_term < n_states:
        raise InfeasibleStartError("terminal stored energy outside the grid range")

    admissible = (actions[:, None] >= lo - 1e-12) & (actions[:, None] <= hi + 1e-12)
    empty = np.flatnonzero(~admissible.any(axis=0))
    if empty.size:
        raise InfeasibleStartError(f"hour {int(empty[0])}: no admissible action on the grid")
    # every hour's cost at every action on the grid; an inadmissible action is
    # evaluated at the admissible zero rate instead and priced at inf
    cost = _HourlyCost(problem)
    slope = np.abs(cost.gradient(np.where(admissible, actions[:, None], 0.0)))
    r = cost.point[-1]
    stage_cost = np.where(admissible, r * r, np.inf).T
    grid_bound = float(np.where(admissible, slope, 0.0).max(axis=0).sum()) * action_step / 2.0

    shifts = np.arange(-m, m + 1) * ratio
    value = np.full(n_states, np.inf)
    value[idx_term] = 0.0
    policy = np.zeros((T, n_states), dtype=np.int32)

    for t in range(T - 1, -1, -1):
        table = np.full((n_actions, n_states), np.inf)
        for j, shift in enumerate(shifts):
            c = stage_cost[t, j]
            if not np.isfinite(c):
                continue
            if shift >= 0:
                hi_slice = n_states - shift
                if hi_slice > 0:
                    table[j, :hi_slice] = c + value[shift:]
            else:
                if n_states + shift > 0:
                    table[j, -shift:] = c + value[: n_states + shift]
        policy[t] = np.argmin(table, axis=0)
        value = table[policy[t], np.arange(n_states)]

    start_idx = -k_min
    if not np.isfinite(value[start_idx]):
        raise InfeasibleStartError(
            "terminal stored energy unreachable on the chosen grids")

    q = np.zeros(T)
    idx = start_idx
    for t in range(T):
        j = int(policy[t][idx])
        q[t] = actions[j]
        idx += shifts[j]

    obj, p_ch = _score(q, problem)
    return OptimalSchedule(
        schedule=StorageSchedule.from_rates(q, tes),
        objective=obj,
        p_ch=p_ch,
        generation=problem.p_base + p_ch,
        iterations=T,
        converged=True,
        grid_error_bound=grid_bound,
        message=f"dp grid: {n_states} states, {n_actions} actions",
    )
