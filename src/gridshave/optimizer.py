"""Hourly storage scheduling to flatten the campus generation profile.

The only decision variables are the storage rates q_stor(1..T); every other
plant and cooling quantity follows deterministically from them. The solver
minimizes

    sum_t (G(t) - p_mean)^2,
    G(t) = p_base(t) + p_ch(q_cool(t) + q_stor(t), twb(t)),

subject to the rate box, the stored-energy chain 0 <= e(t) <= e_max, the
terminal state e(T) = e_terminal, per-hour chiller capacity and the COP
floor. Capacity is linear and the COP surface quadratic in PLR, so both
reduce to per-hour intervals on q_stor (`hour_bounds`).

Each hour's cost depends on that hour's rate alone, so the Hessian in the
rates is diagonal and known in closed form (`hessian_diagonal`), and the
problem is separable convex under nested lower and upper bounds on the
partial sums of the rates: the tank limits (Vidal, Gribel & Jaillet,
"Separable convex optimization with nested lower and upper constraints",
INFORMS J. Optim. 1(1), 2019). At its optimum every rate off its interval's
edges sits where its marginal cost equals one level lam, and lam changes
only across stored-energy states where the tank is full (it rises) or empty
(it falls). `solve` takes Newton steps on each hour's quadratic model and
solves each model exactly with that structure, in one two-pass dynamic
program on the levels' kinks (`_levels._tube`; Johnson, "A dynamic
programming algorithm for the fused lasso and L0-segmentation", JCGS 22(2),
2013): backward, the energy the remaining hours take as a function of the
level is clipped to each state's tank limits, and forward, the level is
clipped at each state to the two levels where those clips bind. Each step
is backtracked on the true flatness, so every iterate is feasible and none
is worse than the start beyond rounding. That loop lives in `_levels`, which `solve`,
`gradient`, `hessian_diagonal` and `dp_oracle` import when called, so
importing gridshave compiles none of it. It is plain Python on
`array('d')` series and lists, and no command loads numpy: each Newton step
makes one pass over a table of the free hours' constants
(`_levels.day_terms`), and `gradient`, `hessian_diagonal` and `dp_oracle`
evaluate the same derivatives (`_levels.hour_terms`, the same arithmetic)
on numpy arrays and import numpy when called. The chiller model is
`cooling`'s: the per-hour COP coefficients come once per solve from
`cop_coefficients`, and p_ch is validated only by `chiller_power`. The
start (`feasible_start`) exists exactly when the day is feasible. The
solver point must pass `check_schedule` (a failure is a bug and raises),
and the operator heuristic is kept only if it passes; each of the two is
scored by one validated `chiller_power` pass, and the better one is
returned.

A dynamic-programming oracle on a discretized (action, stored energy) grid
provides an independent optimum for small horizons: the stage cost at hour t
depends only on q_stor(t), and hours couple only through the stored-energy
chain, so backward induction is exact on the grid.
"""

from __future__ import annotations

import math
from array import array
from operator import add, itemgetter

from .configio import ConfigFile, Record, ranged
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


class ScheduleProblem(Record):
    """One optimization horizon: exogenous series, target level and configs.

    The hourly series are stored as `array('d')` copies of the given ones.
    """

    p_base: array           # MW, base electric load (everything but chillers)
    q_cool: array           # MW thermal, cooling delivered to campus
    twb: array              # deg C, wet-bulb temperature
    p_mean: float           # MW, flat generation target
    tes: TesConfig
    cop_model: CopModel

    def __post_init__(self):
        for name in ("p_base", "q_cool", "twb"):
            object.__setattr__(self, name, array("d", getattr(self, name)))
        T = len(self.p_base)
        if T < 2:
            raise ShapeError(f"horizon must be at least 2 hours, got {T}")
        for name in ("q_cool", "twb"):
            if len(getattr(self, name)) != T:
                raise ShapeError(f"{name} length differs from p_base length {T}")
        for name in ("p_base", "q_cool", "twb"):
            for t, value in enumerate(getattr(self, name)):
                if not math.isfinite(value):
                    raise ValueError(f"hour {t}: {name} is {value}, not a finite number")
        m = self.cop_model
        for t, w in enumerate(self.twb):
            if not m.twb_min <= w <= m.twb_max:
                raise CopDomainError(
                    f"hour {t}: twb={w} outside validity range "
                    f"[{m.twb_min}, {m.twb_max}] C", hour=t)
        if not 0.0 < self.p_mean < math.inf:
            raise ValueError(f"p_mean must be positive and finite, got {self.p_mean}")

    @property
    def horizon(self) -> int:
        return len(self.p_base)


class SolverOptions(ConfigFile):
    # Newton-step cap of the solve
    max_iterations: int = ranged(200, "[1, inf)")
    # MWh, primal residuals and schedule checks; no finer than the slack,
    # `_levels.ROUNDING`, with which the loop places rates and states
    feasibility_tol: float = ranged(1e-6, "[1e-9, inf)")
    # relative dual residual and complementarity of the solve's certificate
    optimality_tol: float = ranged(1e-8, "(0, inf)")


class OptimalSchedule(Record):
    """Solver output: feasible schedule plus diagnostics."""

    schedule: StorageSchedule
    objective: float                   # MW^2, recomputed at the returned point
    p_ch: array                        # MW electric per hour
    generation: array                  # MW per hour
    iterations: int
    converged: bool
    grid_error_bound: float | None = None
    message: str = ""
    heuristic_generation: array | None = None   # MW per hour, operator heuristic (24-hour days)


def hour_bounds(problem: ScheduleProblem) -> tuple[array, array]:
    """Per-hour [lo, hi] bounds on q_stor from rate, capacity and COP floor.

    cop(plr) at fixed twb is quadratic in plr, so {plr in [0, 1]: cop >=
    floor} is a union of at most two intervals; each hour keeps the one
    holding its zero-storage point plr_ref = q_cool / q_ch_max.
    `chiller_power` accepts q_cool + lo and q_cool + hi: an edge the floor
    sets, where the COP evaluates to the floor up to rounding, moves inward
    to the nearest float at which the COP exceeds the floor. Raises
    InfeasibleStartError naming the first hour whose demand is outside the
    chiller range, whose zero-storage point breaks the floor, or whose
    interval is empty.
    """
    m = problem.cop_model
    a, floor, q_max, rate_max = m.c3, m.cop_floor, problem.tes.q_ch_max, problem.tes.rate_max
    lo, hi = array("d"), array("d")
    for t, (q_cool, twb) in enumerate(zip(problem.q_cool, problem.twb)):
        if not 0.0 <= q_cool <= q_max:
            raise InfeasibleStartError(
                f"hour {t}: cooling demand {q_cool} MW outside [0, {q_max}] MW")
        plr_ref = q_cool / q_max
        coefficients = b, c = cop_coefficients(twb, m)
        if cop_values(plr_ref, twb, m, coefficients) <= floor:
            raise InfeasibleStartError(
                f"hour {t}: zero-storage operating point violates the COP floor (COP at "
                f"plr={plr_ref:.4f}, twb={twb:.2f} is at or below the floor)")
        c -= floor   # the roots of cop = cop_floor
        # no real root (a zero b, or a discriminant at or below zero) leaves
        # the sign of cop - floor constant, and positive at plr_ref
        plr_lo, plr_hi = 0.0, 1.0
        if a == 0.0:
            if b > 0.0:
                plr_lo = max(0.0, -c / b)
            elif b < 0.0:
                plr_hi = min(1.0, -c / b)
        else:
            disc = b * b - 4.0 * a * c
            if disc > 0.0:
                # the root formula without cancellation: a tiny c3 puts one
                # root far outside [0, 1] (possibly at inf, as a float
                # division overflows to inf) and keeps the other accurate
                q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
                r1, r2 = q / a, c / q
                lo_root, hi_root = min(r1, r2), max(r1, r2)
                if a < 0.0:    # concave: admissible between the roots
                    plr_lo, plr_hi = max(0.0, lo_root), min(1.0, hi_root)
                elif plr_ref <= lo_root:   # convex: the side of the roots holding plr_ref
                    plr_hi = min(1.0, lo_root)
                else:
                    plr_lo = max(0.0, hi_root)
        lo_t, hi_t = plr_lo * q_max - q_cool, plr_hi * q_max - q_cool
        # only a root sets an edge where the COP may evaluate to the floor
        if plr_lo > 0.0 and lo_t > -rate_max:
            lo_t = _inside_floor(lo_t, math.inf, q_cool, twb, m, coefficients, q_max)
        if plr_hi < 1.0 and hi_t < rate_max:
            hi_t = _inside_floor(hi_t, -math.inf, q_cool, twb, m, coefficients, q_max)
        lo_t, hi_t = max(-rate_max, lo_t), min(rate_max, hi_t)
        if lo_t > hi_t:
            raise InfeasibleStartError(f"hour {t}: empty feasible storage-rate interval")
        lo.append(lo_t)
        hi.append(hi_t)
    return lo, hi


def _inside_floor(edge, inward, q_cool, twb, model, coefficients, q_max) -> float:
    """The rate edge moved towards `inward` (+inf or -inf) by the fewest
    floats that make `chiller_power`'s COP at q_cool + edge exceed the
    floor, in `chiller_power`'s arithmetic; each move steps the chiller
    output q_cool + edge, as a step of edge alone may not change it."""
    while cop_values(min(max((q_cool + edge) / q_max, 0.0), 1.0), twb, model,
                     coefficients) <= model.cop_floor:
        moved = math.nextafter(q_cool + edge, inward) - q_cool
        progressed = moved > edge if inward > 0.0 else moved < edge
        edge = moved if progressed else math.nextafter(edge, inward)
    return edge


def _checked_rates(q_stor, problem: ScheduleProblem) -> array:
    q = array("d", q_stor)
    if len(q) != problem.horizon:
        raise ShapeError(f"q_stor has {len(q)} hours, horizon is {problem.horizon}")
    return q


def _chiller_pass(q_stor: array, problem: ScheduleProblem) -> tuple[array, array]:
    """(p_ch, generation) of a schedule from one validated `chiller_power` pass."""
    p_ch = chiller_power(array("d", map(add, problem.q_cool, q_stor)), problem.twb,
                         problem.cop_model, problem.tes)
    return p_ch, array("d", map(add, problem.p_base, p_ch))


def generation_profile(q_stor, problem: ScheduleProblem) -> array:
    """Total generation G(t) for a storage schedule, validated hour by hour
    by `chiller_power`."""
    return _chiller_pass(_checked_rates(q_stor, problem), problem)[1]


def flatness(generation, p_mean: float) -> float:
    """Sum of squared deviations of a generation profile from the flat target, MW^2."""
    return sum((g - p_mean) * (g - p_mean) for g in generation)


def objective(q_stor, problem: ScheduleProblem) -> float:
    """Sum of squared deviations of generation from the flat target, MW^2."""
    return flatness(generation_profile(q_stor, problem), problem.p_mean)


def _array_terms(q_stor, problem: ScheduleProblem):
    """`_levels.hour_terms` of every hour at once, on numpy arrays; this
    loads numpy."""
    import numpy as np

    from ._levels import hour_terms

    twb = np.asarray(problem.twb)
    return hour_terms(np.asarray(q_stor, dtype=float), np.asarray(problem.q_cool),
                      np.asarray(problem.p_base), twb,
                      cop_coefficients(twb, problem.cop_model), problem)


def _validated_terms(q_stor, problem: ScheduleProblem):
    """`_array_terms` at q_stor after the checks of `chiller_power`."""
    q = _checked_rates(q_stor, problem)
    _chiller_pass(q, problem)
    return _array_terms(q, problem)


def gradient(q_stor, problem: ScheduleProblem):
    """Analytic d(objective)/d(q_stor), matching central finite differences;
    a numpy array, as this loads numpy."""
    r, dp, _ = _validated_terms(q_stor, problem)
    grad = 2.0 * r * dp
    for t, g in enumerate(grad):
        if not math.isfinite(g):
            raise FloatingPointError(f"non-finite gradient component at hour {t}")
    return grad


def hessian_diagonal(q_stor, problem: ScheduleProblem):
    """Analytic d2(objective)/d(q_stor)^2, a numpy array; the Hessian is
    diagonal because each hour's cost depends on that hour's rate alone."""
    r, dp, d2p = _validated_terms(q_stor, problem)
    return 2.0 * (dp * dp + r * d2p)


def feasible_start(problem: ScheduleProblem, lo, hi) -> array:
    """The ramp of delta = e_terminal - e_initial over T hours, each hour's
    rate capped at its interval edge in the direction of delta and the rest
    spread evenly over the other hours (water-filling). So the stored energy
    moves monotonically between the two admissible boundary states. Raises
    InfeasibleStartError when the edges sum to less than |delta|, which is
    exactly when no schedule bridges the boundary states."""
    delta = problem.tes.e_terminal - problem.tes.e_initial
    room = [max(h if delta >= 0.0 else -l, 0.0) for l, h in zip(lo, hi)]
    need, total = abs(delta), sum(room)
    if total < need:
        raise InfeasibleStartError(
            f"the boundary states need {need:.4f} MWh of "
            f"{'discharge' if delta < 0.0 else 'charge'}, "
            f"but the hourly intervals admit at most {total:.4f} MWh")
    level = math.inf   # no level below the largest room: every hour takes its room
    for n, r in zip(range(len(room), 0, -1), sorted(room)):
        if r >= need / n:
            level = need / n
            break
        need -= r
    return array("d", (math.copysign(min(level, r), delta) for r in room))


def solve(problem: ScheduleProblem,
          opts: SolverOptions = SolverOptions()) -> OptimalSchedule:
    """Minimize the flatness objective over feasible storage schedules.

    Newton steps from `feasible_start` (`_levels.newton_levels`), capped at
    `max_iterations`: each minimizes every hour's quadratic model exactly
    over the rate intervals, the tank limits and the terminal state, and is
    backtracked on the true flatness, so the solver point is feasible and
    no worse than the start beyond rounding. It is checked once with
    `check_schedule`, and a broken limit raises RuntimeError naming the
    first violation, as a fault of the solver. For 24-hour problems the
    operator heuristic is a second candidate if it passes its own check.
    Each is scored by one validated `chiller_power` pass, and the better one
    is returned with the heuristic's generation. The certificate is taken at
    the solver point against its last step's levels: `converged` is True
    when the relative dual residual (the gap between each free hour's
    marginal cost and its level), the primal residual and the
    complementarity (each touched tank limit's slack times the jump of the
    level across it) all fell below tolerance; `message` records them. On a
    convex day a converged point is the optimum. Deterministic for
    identical inputs and options.
    """
    from ._levels import newton_levels

    tes = problem.tes
    lo, hi = hour_bounds(problem)
    x0 = feasible_start(problem, lo, hi)
    x, iterations, converged, message = newton_levels(problem, lo, hi, x0, opts)

    def scored(schedule):
        p_ch, generation = _chiller_pass(schedule.q_stor, problem)
        return flatness(generation, problem.p_mean), schedule, p_ch, generation

    # every iterate lies in the tube, so a broken limit is a fault of the solver
    tol = opts.feasibility_tol
    point = StorageSchedule.from_rates(x, tes)
    violations = check_schedule(point, tes, tol=tol)
    if violations:
        raise RuntimeError(f"internal error: the solver point breaks a limit: {violations[0]}")
    candidates = [scored(point)]
    heuristic_generation = None
    if problem.horizon == HOURS_PER_DAY:
        heuristic = scored(operator_heuristic(problem, bounds=(lo, hi)))
        heuristic_generation = heuristic[3]
        if not check_schedule(heuristic[1], tes, tol=tol):
            candidates.append(heuristic)
    # the first of equal objectives wins
    best_obj, schedule, p_ch, generation = min(candidates, key=itemgetter(0))
    return OptimalSchedule(
        schedule=schedule,
        objective=best_obj,
        p_ch=p_ch,
        generation=generation,
        iterations=iterations,
        converged=converged,
        message=message,
        heuristic_generation=heuristic_generation,
    )


def operator_heuristic(problem: ScheduleProblem, bounds=None) -> StorageSchedule:
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

    q = array("d", [0.0]) * T
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
    grid optimum: sum_t max|dcost_t/dq| * action_step / 2. It loads numpy.
    """
    import numpy as np

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
    lo, hi = (np.asarray(v) for v in hour_bounds(problem))

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
    r, dp, _ = _array_terms(np.where(admissible, actions[:, None], 0.0), problem)
    slope = np.abs(2.0 * r * dp)
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

    q = array("d", [0.0]) * T
    idx = start_idx
    for t in range(T):
        j = int(policy[t][idx])
        q[t] = actions[j]
        idx += shifts[j]

    p_ch, generation = _chiller_pass(q, problem)
    return OptimalSchedule(
        schedule=StorageSchedule.from_rates(q, tes),
        objective=flatness(generation, problem.p_mean),
        p_ch=p_ch,
        generation=generation,
        iterations=T,
        converged=True,
        grid_error_bound=grid_bound,
        message=f"dp grid: {n_states} states, {n_actions} actions",
    )
