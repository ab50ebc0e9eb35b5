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
ch. 11; Mehrotra 1992): every step solves one (T+1) x (T+1) linear system
with numpy, and nothing beyond numpy is needed.

A dynamic-programming oracle on a discretized (action, stored energy) grid
provides an independent optimum for small horizons: the stage cost at hour t
depends only on q_stor(t), and hours couple only through the stored-energy
chain, so backward induction is exact on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configio import get_float, read_config, write_config
from .cooling import (
    CopModel,
    StorageSchedule,
    TesConfig,
    check_schedule,
    cop_plr_slope,
    cop_values,
)
from .errors import (
    ChillerCapacityError,
    DegenerateCopError,
    GridResourceError,
    InfeasibleDischargeError,
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
    q_s_c: np.ndarray       # MW thermal, campus steam demand
    twb: np.ndarray         # deg C, wet-bulb temperature
    p_mean: float           # MW, flat generation target
    tes: TesConfig
    cop_model: CopModel

    def __post_init__(self):
        for name in ("p_base", "q_cool", "q_s_c", "twb"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        T = self.p_base.shape[0]
        if T < 2:
            raise ShapeError(f"horizon must be at least 2 hours, got {T}")
        for name in ("q_cool", "q_s_c", "twb"):
            if getattr(self, name).shape != (T,):
                raise ShapeError(f"{name} length differs from p_base length {T}")
        if not self.p_mean > 0.0:
            raise ValueError(f"p_mean must be positive, got {self.p_mean}")

    @property
    def horizon(self) -> int:
        return int(self.p_base.shape[0])


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 200           # Newton-step cap of the interior-point solve
    feasibility_tol: float = 1e-6       # MWh, primal residuals and schedule checks
    optimality_tol: float = 1e-8        # mean complementarity (MW^2), relative dual residual

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.optimality_tol <= 0:
            raise ValueError("tolerances must be positive")

    def to_entries(self) -> dict[str, str]:
        return {
            "max_iterations": str(self.max_iterations),
            "feasibility_tol": repr(self.feasibility_tol),
            "optimality_tol": repr(self.optimality_tol),
        }

    @classmethod
    def load(cls, path: str) -> "SolverOptions":
        """Read the known keys; keys of older formats are ignored."""
        cfg = read_config(path)
        return cls(
            max_iterations=int(get_float(cfg, "max_iterations", path)),
            feasibility_tol=get_float(cfg, "feasibility_tol", path),
            optimality_tol=get_float(cfg, "optimality_tol", path),
        )

    def save(self, path: str, header: str | None = None) -> None:
        write_config(path, self.to_entries(), header=header)


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


def p_mean(prev_day_generation) -> float:
    """Flat target: arithmetic mean of the previous day's 24 hourly values."""
    g = np.asarray(prev_day_generation, dtype=float)
    if g.shape != (HOURS_PER_DAY,):
        raise ShapeError(f"expected 24 hourly values, got shape {g.shape}")
    if np.any(g <= 0.0):
        raise ValueError("generation values must be positive")
    return float(np.mean(g))


def _plr_floor_interval(twb: float, m: CopModel, plr_ref: float) -> tuple[float, float]:
    """Connected {plr in [0,1]: cop >= floor} segment containing plr_ref.

    cop(plr) at fixed twb is quadratic in plr; the admissible set is a union
    of at most two intervals. Returns the one holding the reference point, or
    raises if the reference itself is inadmissible.
    """
    twb = float(twb)
    a = m.c3
    b = m.c1 + m.c4 * twb
    c = m.c0 + m.c2 * twb + m.c5 * twb * twb - m.cop_floor

    def val(p):
        return a * p * p + b * p + c

    if val(plr_ref) <= 0.0:
        raise DegenerateCopError(
            f"COP at plr={plr_ref:.4f}, twb={twb:.2f} is at or below the floor")

    if a == 0.0:
        if b == 0.0:
            return (0.0, 1.0)  # constant and positive at plr_ref
        root = -c / b
        if b > 0.0:
            return (max(0.0, root), 1.0)
        return (0.0, min(1.0, root))

    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        # no real roots: sign is constant, and it is positive at plr_ref
        return (0.0, 1.0)
    # the root formula without cancellation: a tiny c3 puts one root far
    # outside [0, 1] (possibly at inf) and keeps the other accurate
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = q / a, c / q
    lo_root, hi_root = min(r1, r2), max(r1, r2)
    if a < 0.0:
        # concave: admissible between the roots
        return (max(0.0, lo_root), min(1.0, hi_root))
    # convex: admissible outside the roots; pick the side holding plr_ref
    if plr_ref <= lo_root:
        return (0.0, min(1.0, lo_root))
    return (max(0.0, hi_root), 1.0)


def hour_bounds(problem: ScheduleProblem) -> tuple[np.ndarray, np.ndarray]:
    """Per-hour [lo, hi] bounds on q_stor from rate, capacity and COP floor."""
    T = problem.horizon
    tes = problem.tes
    lo = np.empty(T)
    hi = np.empty(T)
    for t in range(T):
        q_cool = problem.q_cool[t]
        if not 0.0 <= q_cool <= tes.q_ch_max:
            raise InfeasibleStartError(
                f"hour {t}: cooling demand {q_cool} MW outside [0, {tes.q_ch_max}] MW")
        plr_ref = q_cool / tes.q_ch_max
        try:
            plr_lo, plr_hi = _plr_floor_interval(problem.twb[t], problem.cop_model, plr_ref)
        except DegenerateCopError as exc:
            raise InfeasibleStartError(
                f"hour {t}: zero-storage operating point violates the COP floor "
                f"({exc})") from exc
        lo[t] = max(-tes.rate_max, plr_lo * tes.q_ch_max - q_cool)
        hi[t] = min(tes.rate_max, plr_hi * tes.q_ch_max - q_cool)
        if lo[t] > hi[t]:
            raise InfeasibleStartError(f"hour {t}: empty feasible storage-rate interval")
    return lo, hi


def _power_arrays(q_stor: np.ndarray, problem: ScheduleProblem,
                  check: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q_ch, cop, p_ch) per hour; validates capacity and COP floor."""
    tes = problem.tes
    m = problem.cop_model
    q_ch = problem.q_cool + q_stor
    if check:
        bad = np.nonzero(q_ch < -1e-9)[0]
        if bad.size:
            t = int(bad[0])
            raise InfeasibleDischargeError(
                f"hour {t}: discharge {-q_stor[t]:.3f} MW exceeds cooling demand "
                f"{problem.q_cool[t]:.3f} MW")
        bad = np.nonzero(q_ch > tes.q_ch_max + 1e-9)[0]
        if bad.size:
            t = int(bad[0])
            raise ChillerCapacityError(
                f"hour {t}: chiller output {q_ch[t]:.3f} MW exceeds capacity "
                f"{tes.q_ch_max} MW")
    plr = np.clip(q_ch, 0.0, tes.q_ch_max) / tes.q_ch_max
    cop = cop_values(plr, problem.twb, m)
    if check:
        bad = np.nonzero(cop <= m.cop_floor)[0]
        if bad.size:
            t = int(bad[0])
            raise DegenerateCopError(
                f"hour {t}: COP {cop[t]:.4f} at plr={plr[t]:.4f}, twb={problem.twb[t]:.2f} "
                f"is at or below floor {m.cop_floor}")
    p_ch = np.where(q_ch > 0.0, q_ch / cop, 0.0)
    return q_ch, cop, p_ch


def generation_profile(q_stor, problem: ScheduleProblem) -> np.ndarray:
    """Total generation G(t) for a storage schedule."""
    q = np.asarray(q_stor, dtype=float)
    if q.shape != (problem.horizon,):
        raise ShapeError(f"q_stor shape {q.shape} != horizon {problem.horizon}")
    _, _, p_ch = _power_arrays(q, problem)
    return problem.p_base + p_ch


def _hourly_terms(q_stor, problem: ScheduleProblem,
                  check: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over `_power_arrays`: the residual G(t) - p_mean and the first
    and second derivative of each hour's cost (G(t) - p_mean)^2 in q_stor(t).

    Chain rule through p_ch = q_ch / cop(plr), plr = q_ch / q_ch_max, with
    cop' = dcop/dplr and cop'' = 2 c3:
        dp_ch/dq_ch   = (cop - plr cop') / cop^2
        d2p_ch/dq_ch2 = (2 plr cop'^2 - cop (2 cop' + plr cop'')) / (q_ch_max cop^3)
    """
    q = np.asarray(q_stor, dtype=float)
    if q.shape != (problem.horizon,):
        raise ShapeError(f"q_stor shape {q.shape} != horizon {problem.horizon}")
    q_ch, cop, p_ch = _power_arrays(q, problem, check)
    m = problem.cop_model
    plr = q_ch / problem.tes.q_ch_max
    slope = cop_plr_slope(plr, problem.twb, m)
    dp = (cop - plr * slope) / (cop * cop)
    d2p = ((2.0 * plr * slope * slope - cop * (2.0 * slope + 2.0 * m.c3 * plr))
           / (problem.tes.q_ch_max * cop * cop * cop))
    r = problem.p_base + p_ch - problem.p_mean
    return r, 2.0 * r * dp, 2.0 * (dp * dp + r * d2p)


def objective(q_stor, problem: ScheduleProblem) -> float:
    """Sum of squared deviations of generation from the flat target, MW^2."""
    r, _, _ = _hourly_terms(q_stor, problem)
    return float(np.dot(r, r))


def gradient(q_stor, problem: ScheduleProblem) -> np.ndarray:
    """Analytic d(objective)/d(q_stor), matching central finite differences."""
    _, grad, _ = _hourly_terms(q_stor, problem)
    if not np.all(np.isfinite(grad)):
        t = int(np.nonzero(~np.isfinite(grad))[0][0])
        raise FloatingPointError(f"non-finite gradient component at hour {t}")
    return grad


def hessian_diagonal(q_stor, problem: ScheduleProblem) -> np.ndarray:
    """Analytic d2(objective)/d(q_stor)^2; the Hessian is diagonal because
    each hour's cost depends on that hour's rate alone."""
    _, _, hess = _hourly_terms(q_stor, problem)
    return hess


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
    start, capped at `max_iterations` steps. The returned point is the best
    of the solver point (when it passes `check_schedule`), the start and (for
    24-hour problems) the operator heuristic, so it never loses to either
    reference schedule. `converged` is True when the dual, primal and
    terminal residuals and the mean complementarity all fell below
    tolerance; `message` records them. Deterministic for identical inputs
    and options.
    """
    T = problem.horizon
    tes = problem.tes
    lo, hi = hour_bounds(problem)
    x0 = feasible_start(problem, lo, hi)
    x, iterations, converged, message = _interior_point(problem, lo, hi, x0, opts)
    # restore the terminal state exactly; the uniform shift is orders of
    # magnitude below feasibility_tol and keeps all other limits within it
    x = x + (tes.e_terminal - tes.e_initial - float(np.sum(x))) / T
    # a capped solve may stop short of the stored-energy limits
    candidates = [x0]
    if not check_schedule(StorageSchedule.from_rates(x, tes), tes, tol=opts.feasibility_tol):
        candidates.append(x)
    heur = operator_heuristic(problem) if T == HOURS_PER_DAY else None
    if heur is not None and not check_schedule(heur, tes, tol=opts.feasibility_tol):
        candidates.append(heur.q_stor)
    best_obj, best = min(((objective(q, problem), q) for q in candidates),
                         key=lambda c: c[0])

    schedule = StorageSchedule.from_rates(best, tes)
    violations = check_schedule(schedule, tes, tol=opts.feasibility_tol)
    if violations:
        raise InfeasibleStartError(
            "solver returned an infeasible schedule: "
            + "; ".join(str(v) for v in violations))
    _, _, p_ch = _power_arrays(best, problem)
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
    an hour with lo == hi needs no slack) and the stored-energy
    rows 0 <= e_initial + (L x)(t) <= e_max for t < T-1, where L is the
    lower-triangular matrix of ones. Each is a row of G x + s = h with slack
    s >= 0 and dual z >= 0; the terminal row sum(x) = delta has multiplier y.

    Eliminating s and z leaves the reduced KKT system

        [ H + G'WG  1 ] [dx]   [rhs]
        [ 1'        0 ] [dy] = [-r_e],   W = diag(z / s),

    where H is the diagonal of `hessian_diagonal` (floored at HESSIAN_FLOOR),
    the box rows add W to the diagonal, and L'WL has entry [i, j] equal to the
    suffix sum of the stored-energy weights from max(i, j), so it is one
    fancy index into a suffix-sum vector.

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
    upper, lower = slice(0, n), slice(n, 2 * n)
    tank, full, empty = slice(2 * n, None), slice(2 * n, 2 * n + T - 1), slice(2 * n + T - 1, None)
    h = np.concatenate([hi[free], -lo[free], np.full(T - 1, tes.e_max - tes.e_initial),
                        np.full(T - 1, tes.e_initial)])

    def g_mul(dx):
        c = np.cumsum(dx)[:-1]
        return np.concatenate([dx[free], -dx[free], c, -c])

    def suffix(u):
        out = np.zeros(T)
        out[:-1] = np.cumsum(u[::-1])[::-1]
        return out

    def gt_mul(v):
        return v[upper] - v[lower] + suffix(v[full] - v[empty])[free]

    s = h - g_mul(x)
    s[tank] = np.maximum(s[tank], tes.rate_max)
    z = np.ones_like(s)
    y = 0.0
    corner = np.maximum.outer(free, free)
    diag = np.arange(n)
    kkt = np.zeros((n + 1, n + 1))
    kkt[n, :n] = kkt[:n, n] = 1.0

    def direction(r_c):
        """Newton step for complementarity target r_c = s z - target."""
        rhs = np.append(-r_d - gt_mul((z * r_p - r_c) / s), -r_e)
        sol = np.linalg.solve(kkt, rhs)
        dx = np.zeros(T)
        dx[free] = sol[:n]
        ds = -r_p - g_mul(dx)
        return dx, sol[n], ds, -(r_c + z * ds) / s

    step = 0
    while True:
        _, grad, hess = _hourly_terms(x, problem, check=False)
        r_d = grad[free] + gt_mul(z) + y
        r_p = g_mul(x) + s - h
        r_e = float(np.sum(x)) - delta
        mu = float(np.dot(s, z)) / s.size
        # relative to the gradient, so that the test is reachable in floating
        # point on horizons whose cost is larger
        res_d = float(np.max(np.abs(r_d))) / max(1.0, float(np.max(np.abs(grad))))
        res_p = float(np.max(np.abs(r_p)))
        converged = (res_d <= opts.optimality_tol and res_p <= opts.feasibility_tol
                     and abs(r_e) <= opts.feasibility_tol and mu <= opts.optimality_tol)
        if converged or step >= opts.max_iterations:
            break

        w = z / s
        kkt[:n, :n] = suffix(w[full] + w[empty])[corner]
        kkt[diag, diag] += np.maximum(hess[free], HESSIAN_FLOOR) + w[upper] + w[lower]
        # predictor: the pure Newton step, which sets the centring weight
        r_c = s * z
        try:
            dx, dy, ds, dz = direction(r_c)
        except np.linalg.LinAlgError:
            break   # W outgrew floating point before the tolerances were met
        alpha = min(1.0, _max_step(s, ds, z, dz))
        mu_aff = float(np.dot(s + alpha * ds, z + alpha * dz)) / s.size
        sigma = min(1.0, (mu_aff / mu) ** 3)
        # corrector: centre towards sigma * mu and cancel the second-order term
        dx, dy, ds, dz = direction(r_c + ds * dz - sigma * mu)
        alpha = min(1.0, STEP_TO_BOUNDARY * _max_step(s, ds, z, dz))
        x += alpha * dx
        s += alpha * ds
        z += alpha * dz
        y += alpha * dy
        step += 1

    message = (f"interior point, {step} steps: relative dual residual {res_d:.2e}, primal "
               f"{res_p:.2e}, terminal {abs(r_e):.2e}, complementarity {mu:.2e}")
    return x, step, converged, message


def _max_step(s, ds, z, dz) -> float:
    """Largest alpha in (0, inf) keeping s + alpha ds and z + alpha dz >= 0."""
    v = np.concatenate([s, z])
    dv = np.concatenate([ds, dz])
    neg = dv < 0.0
    return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf


def operator_heuristic(problem: ScheduleProblem) -> StorageSchedule:
    """Rule-of-thumb schedule mirroring manual tank operation.

    Top up the tank in the early morning (hours 0-5), discharge evenly over
    the afternoon (hours 13-19), and refill late evening (hours 22-23) back
    to the terminal state. Every step clamps to the rate, tank and chiller
    limits; the discharge budget is sized to what the evening hours can put
    back, so the result is feasible whenever the boundary states can be
    bridged within this phase structure at all.
    """
    T = problem.horizon
    if T != HOURS_PER_DAY:
        raise InfeasibleStartError(
            f"operator heuristic needs a 24-hour midnight-aligned day, got T={T}")
    tes = problem.tes
    lo, hi = hour_bounds(problem)

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

    stage_cost = np.full((T, n_actions), np.inf)
    grid_bound = 0.0
    for t in range(T):
        ok = (actions >= lo[t] - 1e-12) & (actions <= hi[t] + 1e-12)
        if not np.any(ok):
            raise InfeasibleStartError(f"hour {t}: no admissible action on the grid")
        q_sel = actions[ok]
        q_ch = problem.q_cool[t] + q_sel
        plr = q_ch / tes.q_ch_max
        cop = cop_values(plr, np.full_like(plr, problem.twb[t]), problem.cop_model)
        p_ch = np.where(q_ch > 0.0, q_ch / cop, 0.0)
        g = problem.p_base[t] + p_ch
        stage_cost[t, ok] = (g - problem.p_mean) ** 2
        slope = cop_plr_slope(plr, np.full_like(plr, problem.twb[t]), problem.cop_model)
        dpch = (cop - plr * slope) / (cop * cop)
        grid_bound += float(np.max(np.abs(2.0 * (g - problem.p_mean) * dpch))) \
            * action_step / 2.0

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

    schedule = StorageSchedule.from_rates(q, tes)
    _, _, p_ch = _power_arrays(q, problem)
    return OptimalSchedule(
        schedule=schedule,
        objective=objective(q, problem),
        p_ch=p_ch,
        generation=problem.p_base + p_ch,
        iterations=T,
        converged=True,
        grid_error_bound=grid_bound,
        message=f"dp grid: {n_states} states, {n_actions} actions",
    )
