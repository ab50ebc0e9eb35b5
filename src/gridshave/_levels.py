"""The Newton loop of `optimizer.solve` and its per-hour cost terms.

`optimizer` imports this module inside `solve`, `gradient`,
`hessian_diagonal` and `dp_oracle`, so that importing gridshave compiles
and loads none of it. See `optimizer` for the method.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING

from .cooling import cop_coefficients, cop_values

if TYPE_CHECKING:
    from .optimizer import ScheduleProblem, SolverOptions


def hour_terms(q_stor, q_cool, p_base, twb, coefficients, problem: ScheduleProblem):
    """An hour's deviation r = G - p_mean from the flat target and the first
    two derivatives dp, d2p of its chiller draw p_ch in q_stor: the hour's
    cost r^2 has gradient 2 r dp and curvature 2 (dp^2 + r d2p).

    Chain rule through p_ch = q_ch / cop(plr), plr = q_ch / q_ch_max, with
    cop' = dcop/dplr = b + 2 c3 plr and cop'' = 2 c3:
        dp_ch/dq_ch   = (cop - plr cop') / cop^2
        d2p_ch/dq_ch2 = (2 plr cop'^2 - cop (2 cop' + plr cop'')) / (q_ch_max cop^3)
    Written with plain operators, as `cop_values` is, so it takes one hour's
    floats or numpy arrays of hours alike; `coefficients` is
    `cop_coefficients(twb, problem.cop_model)`. Not validated: q_stor must
    lie in `hour_bounds`. The numpy path's reference; `day_terms` repeats
    its arithmetic for the Newton loop.
    """
    model, q_max = problem.cop_model, problem.tes.q_ch_max
    q_ch = q_cool + q_stor
    plr = q_ch / q_max
    cop = cop_values(plr, twb, model, coefficients)
    curvature = 2.0 * model.c3 * plr           # plr cop''
    slope = coefficients[0] + curvature         # cop'
    dp = (cop - plr * slope) / (cop * cop)
    d2p = ((2.0 * plr * slope * slope - cop * (2.0 * slope + curvature))
           / (q_max * cop * cop * cop))
    return p_base + q_ch / cop - problem.p_mean, dp, d2p


def day_terms(rates, table, c3, q_max, p_mean):
    """The Newton model of a day's free hours at `rates`, in one loop:
    (cost, g, h, w, a), the flatness sum of r^2, each hour's gradient
    g = 2 r dp and curvature h = max(2 (dp^2 + r d2p), HESSIAN_FLOOR), and
    the model's w = 1/h and a = rate - g w. `table` holds each hour's
    (q_cool, p_base, b, c), (b, c) its `cop_coefficients`; c3 and q_max are
    the COP model's c3 and the chiller capacity. The arithmetic is
    `hour_terms`', operation for operation, so both give the same floats.
    """
    cost, g, h, w, a = 0.0, [], [], [], []
    twice_c3 = 2.0 * c3
    for q, (q_cool, p_base, b, c) in zip(rates, table):
        q_ch = q_cool + q
        plr = q_ch / q_max
        cop = c + (b + c3 * plr) * plr
        curvature = twice_c3 * plr
        slope = b + curvature
        dp = (cop - plr * slope) / (cop * cop)
        d2p = ((2.0 * plr * slope * slope - cop * (2.0 * slope + curvature))
               / (q_max * cop * cop * cop))
        r = p_base + q_ch / cop - p_mean
        cost += r * r
        gq = 2.0 * r * dp
        hq = 2.0 * (dp * dp + r * d2p)
        if hq < HESSIAN_FLOOR:
            hq = HESSIAN_FLOOR
        wq = 1.0 / hq
        g.append(gq)
        h.append(hq)
        w.append(wq)
        a.append(q - gq * wq)
    return cost, g, h, w, a


#: Floor on each hour's cost curvature in the Newton model, so that a COP
#: surface making the cost non-convex cannot make the model unbounded.
HESSIAN_FLOOR = 1e-6

#: Rounding slack, MW or MWh, of the comparisons that place a model rate on
#: an edge or a stored energy on a tank limit; far below any tolerance of
#: `SolverOptions`.
ROUNDING = 1e-9

#: Repair rounds of a guessed segment structure before the sweep takes over.
REPAIRS = 8

#: Halvings of a Newton step after which it is given up as making no descent.
MAX_HALVINGS = 40


def _level(a, w, lo, hi, hours, target, least):
    """The least (or, with least False, the greatest) level lam at which the
    model rates clip(a_t + lam w_t, lo_t, hi_t) of `hours` sum to target;
    the nearest kink when the target is out of reach.

    The sum is non-decreasing and linear between the kinks, the levels at
    which an hour reaches an edge, so a bisection over the sorted kinks
    finds the piece that crosses the target.
    """
    def total(lam):
        return sum(min(max(a[t] + lam * w[t], lo[t]), hi[t]) for t in hours)

    # the first kink whose sum passes the target (within rounding, so that a
    # flat piece at the target counts as reaching it)
    passed = target - ROUNDING if least else target + ROUNDING
    kinks = sorted({(e - a[t]) / w[t] for t in hours for e in (lo[t], hi[t])})
    first, last = 0, len(kinks)
    while first < last:
        mid = (first + last) // 2
        if total(kinks[mid]) >= passed if least else total(kinks[mid]) > passed:
            last = mid
        else:
            first = mid + 1
    if first in (0, len(kinks)):
        return kinks[min(first, len(kinks) - 1)]
    k0, k1 = kinks[first - 1], kinks[first]
    s0 = total(k0)
    return k0 + min(max((target - s0) / (total(k1) - s0), 0.0), 1.0) * (k1 - k0)


def _sweep(a, w, lo, hi, zlo, zhi, total):
    """The exact minimizer of sum_t (y_t - a_t)^2 / (2 w_t) over the tube:
    lo_t <= y_t <= hi_t, z_k = y_0 + ... + y_(k-1) within [zlo[k], zhi[k]]
    for 0 < k < m, and z_m = total. Returns (y, levels, touches).

    At the optimum y_t = clip(a_t + lam w_t, lo_t, hi_t), with a level lam
    that is constant between the states the string touches: it rises across
    a full state (at zhi) and falls across an empty one (at zlo). From each
    touched state the sweep narrows the range [lam_lo, lam_hi] of levels that
    keep the states so far inside the tube; when the next state rules out
    the whole range, the string touches the state that set the range's
    violated end, at that end's level (a taut string). `touches` lists the
    touched (k, +1 full or -1 empty) states.
    """
    inf, m = math.inf, len(a)
    y, levels, touches = [0.0] * m, [0.0] * m, []
    first, z0 = 0, 0.0
    while first < m:
        lam_lo, lam_hi, s_lo, s_hi, k_lo, k_hi = -inf, inf, 0.0, 0.0, -1, -1
        for k in range(first, m):
            s_lo += min(max(a[k] + lam_lo * w[k], lo[k]), hi[k])
            s_hi += min(max(a[k] + lam_hi * w[k], lo[k]), hi[k])
            bottom, top = ((total, total) if k == m - 1 else (zlo[k + 1], zhi[k + 1]))
            bottom, top = bottom - z0, top - z0
            if s_hi < bottom - ROUNDING and k_hi >= 0:
                end, lam, z1, kind = k_hi, lam_hi, zhi[k_hi + 1], 1
                break
            if s_lo > top + ROUNDING and k_lo >= 0:
                end, lam, z1, kind = k_lo, lam_lo, zlo[k_lo + 1], -1
                break
            hours = range(first, k + 1)
            if s_lo < bottom:
                lam_lo = min(_level(a, w, lo, hi, hours, bottom, True), lam_hi)
                s_lo, k_lo = bottom, k
            if s_hi > top:
                lam_hi = max(_level(a, w, lo, hi, hours, top, False), lam_lo)
                s_hi, k_hi = top, k
        else:
            end, lam, z1, kind = m - 1, lam_lo if lam_lo > -inf else lam_hi, total, 0
        for t in range(first, end + 1):
            y[t] = min(max(a[t] + lam * w[t], lo[t]), hi[t])
            levels[t] = lam
        if kind:
            touches.append((end + 1, kind))
        first, z0 = end + 1, z1
    return y, levels, touches


def _repair(a, w, lo, hi, zlo, zhi, total, touches, status):
    """The minimizer of `_sweep`'s problem from a guess of its touched states
    and clipped hours (`status` -1 at lo, +1 at hi, 0 free), or None.

    A guess gives one closed-form level per segment. If every optimality
    condition then holds, the guess is the minimizer. Otherwise it is
    repaired, as in a primal-dual active-set method: a touch whose level
    jump has the wrong sign is dropped and its two segments pooled (their
    sums add, so the pooled level is closed-form too, and it is checked
    against the touch before it), each hour takes the status its model rate
    asks for (a segment with no free hour frees them all), and every state
    outside the tube is touched. A guess not settled after REPAIRS rounds
    gives None.
    """
    m, status = len(a), list(status)
    for _ in range(REPAIRS):
        changed, pooled = False, []   # (first, z0, kind of the touch at first, fixed, slope, lam)
        first, z0, kind0 = 0, 0.0, 0
        for k, kind in [*touches, (m, 0)]:
            z1 = total if kind == 0 else zhi[k] if kind > 0 else zlo[k]
            fixed = slope = 0.0
            for t in range(first, k):
                s = status[t]
                if s:
                    fixed += hi[t] if s > 0 else lo[t]
                else:
                    fixed += a[t]
                    slope += w[t]
            seg = first, z0, kind0
            if slope > 0.0:
                lam = (z1 - z0 - fixed) / slope
            else:   # every hour on an edge: any level keeping them there serves
                edges = range(first, k)
                least = max(((hi[t] - a[t]) / w[t] for t in edges if status[t] > 0),
                            default=-math.inf)
                most = min(((lo[t] - a[t]) / w[t] for t in edges if status[t] < 0),
                           default=math.inf)
                lam = min(max(pooled[-1][5] if pooled else 0.0, least), most)
                if abs(z1 - z0 - fixed) > ROUNDING or least > most:
                    status[first:k], changed = [0] * (k - first), True
                    fixed, slope = sum(a[first:k]), sum(w[first:k])
                    lam = (z1 - z0 - fixed) / slope
            # the level falls across a full state or rises across an empty one
            while pooled and (lam - pooled[-1][5]) * seg[2] < -ROUNDING:
                *seg, fixed_p, slope_p, _ = pooled.pop()
                fixed, slope = fixed + fixed_p, slope + slope_p
                if slope == 0.0:   # two segments on their edges: the sweep decides
                    return None
                lam = (z1 - seg[1] - fixed) / slope
                changed = True
            pooled.append((*seg, fixed, slope, lam))
            first, z0, kind0 = k, z1, kind
        touches = [(first, kind) for first, _, kind, *_ in pooled[1:]]
        y, levels, added = [0.0] * m, [0.0] * m, []
        for (first, z, *_, lam), (k, _) in zip(pooled, [*touches, (m, 0)]):
            for t in range(first, k):
                v, l, h, s = a[t] + lam * w[t], lo[t], hi[t], status[t]
                if s > 0 and v >= h - ROUNDING:
                    v = h
                elif s < 0 and v <= l + ROUNDING:
                    v = l
                elif not s and l - ROUNDING <= v <= h + ROUNDING:
                    v = l if v < l else h if v > h else v
                else:   # the model rate asks for another status
                    s = status[t] = 1 if v > h else -1 if v < l else 0
                    v = h if s > 0 else l if s < 0 else v
                    changed = True
                y[t], levels[t] = v, lam
                z += v
                if t + 1 < k:
                    if z > zhi[t + 1] + ROUNDING:
                        added.append((t + 1, 1))
                    elif z < zlo[t + 1] - ROUNDING:
                        added.append((t + 1, -1))
        if not (changed or added):
            return y, levels, touches
        touches = sorted(touches + added)
    return None


def _residuals(x, g, levels, touches, lo, hi, zlo, zhi, total):
    """The certificate at the free rates x with gradient g, against the last
    step's levels and touched states: (relative dual residual, primal
    residual, complementarity).

    The dual residual is |g - lam| on an hour off its edges and the wrongly
    signed part of g - lam on an edge, relative to max(1, max |g|); the
    primal residual is the largest breach of an interval, a tank limit or
    the terminal state; the complementarity is the largest product of a
    touched state's slack and the jump of lam across it."""
    dual = primal = 0.0
    scale, states = 1.0, list(accumulate(x, initial=0.0))
    for q, gq, lam, l, h, z, bottom, top in zip(x, g, levels, lo, hi, states[1:],
                                               zlo[1:], zhi[1:]):
        d = gq - lam
        if q <= l:      # at lo the cost may only rise upwards: d >= 0, so -d counts
            d = -d
            if l - q > primal:
                primal = l - q
        elif q >= h:
            if q - h > primal:
                primal = q - h
        elif d < 0.0:
            d = -d
        if d > dual:
            dual = d
        if z - top > primal:
            primal = z - top
        if bottom - z > primal:
            primal = bottom - z
        if gq > scale:
            scale = gq
        elif -gq > scale:
            scale = -gq
    primal = max(primal, abs(states[-1] - total))
    comp = max((abs(states[k] - (zhi[k] if kind > 0 else zlo[k]))
                * abs(levels[k] - levels[k - 1]) for k, kind in touches), default=0.0)
    return dual / scale, primal, comp


def newton_levels(problem: ScheduleProblem, lo, hi, x0,
                  opts: SolverOptions) -> tuple[list, int, bool, str]:
    """Newton steps on each hour's quadratic model, each minimized exactly
    over the tube, then backtracked on the true flatness.

    An hour whose interval is no wider than feasibility_tol keeps its start
    rate, and the stored energies it ties together bound the energy z_k
    that the first k free hours move: each such state's [0, e_max] becomes
    one interval on z_k. At the free rates x with gradient g and curvature
    h = max(hessian, HESSIAN_FLOOR), the model rates are
    x + (lam - g) / h = a + lam w clipped to the hour's interval; a table
    of the free hours' constants is built once, and `day_terms` gives the
    cost, g, h, w and a in one pass over it at each trial point. A step
    repairs the previous step's touched states and clipped hours
    (`_repair`; the first step starts from none) and sweeps (`_sweep`) only
    when the repair does not settle. The feasible set is convex, so each
    point between x and the model's minimizer is feasible; the step is
    halved until the flatness does not rise, unless its model decrease is
    below the flatness's rounding, where no value of the flatness can judge
    it and the whole step is taken. So no iterate is worse than x0 beyond
    rounding, and each lies in the tube.

    After each step, `_residuals` measures the new point against the step's
    levels; `converged` is all three residuals within tolerance, and a step
    that shrinks none of them ends the solve unconverged. On a convex day a
    fixed point is the exact optimum; on a non-convex one the floored
    curvature makes this a damped Newton method. Returns (x, steps,
    converged, message), x the rates as a list.
    """
    tes, tol = problem.tes, opts.feasibility_tol
    x = list(x0)
    free = [t for t, (l, h) in enumerate(zip(lo, hi)) if h - l > tol]
    m = len(free)
    if m < 2:
        return x, 0, True, "no free stored energy: the fixed hours set every rate"
    zlo, zhi = [-math.inf] * (m + 1), [math.inf] * (m + 1)
    base, k = tes.e_initial, 0
    for l, h, q in zip(lo, hi, x0):
        if h - l > tol:
            k += 1
        else:
            base += q
        if 0 < k < m:
            zlo[k], zhi[k] = max(zlo[k], -base), min(zhi[k], tes.e_max - base)
    total = tes.e_terminal - base
    lo, hi = [lo[t] for t in free], [hi[t] for t in free]
    model = problem.cop_model
    day = ([(problem.q_cool[t], problem.p_base[t], *cop_coefficients(problem.twb[t], model))
            for t in free], model.c3, tes.q_ch_max, problem.p_mean)
    xf = [x[t] for t in free]
    cost, g, h, w, a = day_terms(xf, *day)
    touches, status = [], [0] * m    # the first guess: no touched state, no clipped hour
    step, res = 0, (math.inf,) * 3
    while True:
        found = _repair(a, w, lo, hi, zlo, zhi, total, touches, status)
        y, levels, touches = found or _sweep(a, w, lo, hi, zlo, zhi, total)
        status = [1 if q >= u else -1 if q <= l else 0 for q, l, u in zip(y, lo, hi)]
        # a step whose model decrease is below the flatness's rounding is
        # taken whole: no value of the flatness could judge it
        whole = (sum(c * (v - q) ** 2 for c, v, q in zip(h, y, xf))
                 <= math.ulp(1.0) * m * cost)
        trial, alpha = y, 1.0
        for _ in range(MAX_HALVINGS):
            new = day_terms(trial, *day)
            if whole or new[0] <= cost:
                xf, (cost, g, h, w, a) = trial, new
                break
            alpha *= 0.5
            trial = [q + alpha * (v - q) for q, v in zip(xf, y)]
        step += 1
        last, res = res, _residuals(xf, g, levels, touches, lo, hi, zlo, zhi, total)
        converged = (res[0] <= opts.optimality_tol and res[1] <= tol
                     and res[2] <= opts.optimality_tol)
        # checked before the next backtracking: at rounding level the
        # flatness cannot fall
        stalled = not any(now < before for now, before in zip(res, last))
        if converged or stalled or step >= opts.max_iterations:
            break
    for t, q in zip(free, xf):
        x[t] = q
    message = (f"level sweep, {step} Newton steps: relative dual residual {res[0]:.2e}, "
               f"primal {res[1]:.2e}, complementarity {res[2]:.2e}")
    return x, step, converged, message
