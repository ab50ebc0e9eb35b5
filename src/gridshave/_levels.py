"""The Newton loop of `optimizer.solve`, its per-hour cost terms and the
exact solver of each Newton step's model (`_tube`, a two-pass dynamic
program), in plain Python on floats and lists.

`optimizer` imports this module inside `solve`, `gradient`,
`hessian_diagonal` and `dp_oracle`, so that importing gridshave compiles
and loads none of it. See `optimizer` for the method.
"""

from __future__ import annotations

import math
from bisect import insort
from itertools import accumulate
from typing import TYPE_CHECKING

from .cooling import cop_values

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
    Takes one hour's floats; `coefficients` is the hour's
    `cop_coefficients(twb, problem.cop_model)`. Not validated: q_stor must
    lie in `hour_bounds`. `gradient`, `hessian_diagonal` and `dp_oracle`
    evaluate it hour by hour; `day_terms` repeats its arithmetic for the
    Newton loop.
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
    (q_cool, p_base, b, c), (b, c) its `ScheduleProblem.coefficients`; c3
    and q_max are the COP model's c3 and the chiller capacity. The
    arithmetic is `hour_terms`', operation for operation, so both give the
    same floats.
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

#: Slack, MW or MWh, above the rounding with which `_tube` places a day's
#: stored energies on the limits they meet (at most 2e-13 on 400 sampled
#: days, with w up to 36 and levels up to 3.5); far below any tolerance of
#: `SolverOptions`, and the floor of `feasibility_tol`.
ROUNDING = 1e-9

#: Halvings of a Newton step after which it is given up as making no descent.
MAX_HALVINGS = 40


def _tube(a, w, lo, hi, zlo, zhi, total):
    """The exact minimizer of sum_t (y_t - a_t)^2 / (2 w_t) over the tube:
    lo_t <= y_t <= hi_t, z_k = y_0 + ... + y_(k-1) within [zlo[k], zhi[k]]
    for 0 < k < m, and z_m = total. Returns (y, levels, touches): the rates,
    each hour's level and the touched (k, +1 full or -1 empty) states.

    At the optimum y_t = clip(a_t + lam_t w_t, lo_t, hi_t), and the level
    lam_t is constant between touched states: it rises across a full state
    (z_k = zhi[k]) and falls across an empty one (z_k = zlo[k]). A chain
    dynamic program on the levels' kinks (Johnson, "A dynamic programming
    algorithm for the fused lasso and L0-segmentation", JCGS 22(2), 2013)
    finds these levels in two passes.

    Backward, over the hours m-1..0: R(lam) is the energy that hours t..m-1
    take when hour t's level is lam and the later levels follow the rule
    below. R is non-decreasing, piecewise linear and flat at both ends, so
    it is kept as its values `low` and `high` there and a sorted list of
    (kink, slope change). Hour t adds clip(a_t + lam w_t, lo_t, hi_t), a
    slope w_t between the kinks `rise` and `fall`. State t holds
    z_t = total - R(lam_t): below the least level `below[t]` at which R
    reaches total - zhi[t] the tank would overfill, so it is full and the
    level rises to `below[t]`; above the greatest level `above[t]` at which
    R reaches total - zlo[t] it is empty, and the level falls to
    `above[t]`. So R is clipped to that range: a walk from the list's left
    end sums slopes up to the bottom, drops the kinks it passed and leaves
    one where it stopped, and a walk from the right end does the same down
    to the top. An hour's kinks beyond the list's ends join it only if a
    walk stops short of them. State 0 holds z_0 = 0, so `below[0]` is the
    least root of R(lam) = total.

    Forward: each level is the previous one clipped to [below[t],
    above[t]], from `below[0]`; a clip that binds is a touch. An hour
    between two touched states takes exactly the difference of their
    limits, so an idle hour of a full tank moves 0.0, not a rounding error.

    Exact: the rates are the clipped a + lam w, each level changes only at
    a touched state and in its direction, every state lies in its tube and
    z_m = total. These optimality conditions of a convex problem are
    sufficient. Terminating: nothing is guessed or iterated to a tolerance;
    each pass visits each hour once. Cost O(m log m) comparisons: each hour
    puts at most two kinks in the list and each clip one, by bisection or
    at an end, and a walk drops every kink it passes, so all walks together
    pass O(m) kinks. Insertions and clips also shift the list, O(m^2) at
    worst, but it held at most 16 kinks on 400 sampled days and 14 over 720
    hours. Rounding alone limits the result: a walk sums slopes up to max w
    over level gaps up to max |lam|, so the states meet their limits to a
    few ulps of m max w max |lam|.
    """
    m = len(a)
    knots, low, high, left, right = [], 0.0, 0.0, math.inf, -math.inf
    below, above = [-math.inf] * m, [math.inf] * m
    # state 0 holds z_0 = 0: its bottom is total, and its top never binds
    for t, zl, zh, at, wt, l, h in zip(range(m - 1, -1, -1), [*zlo[m - 1:0:-1], -math.inf],
                                       [*zhi[m - 1:0:-1], 0.0], a[::-1], w[::-1],
                                       lo[::-1], hi[::-1]):
        rise, fall = (l - at) / wt, (h - at) / wt
        low += l
        high += h
        # each of the hour's kinks beyond the list's ends is held aside
        first = rise <= left
        if not first:
            insort(knots, (rise, wt))
            if rise > right:
                right = rise
        last = fall >= right
        if not last:
            insort(knots, (fall, -wt))
            if fall < left:
                left = fall
        bottom = total - zh
        if low < bottom:        # walk up from the left end to R = bottom
            v, it = low, iter(knots)
            if first:
                p, s, i = rise, wt, 0
            else:
                p, s = next(it)
                i = 1
            for q, d in it:
                u = v + s * (q - p)
                if u >= bottom:     # so s > 0: v < bottom at every step
                    p = q - (u - bottom) / s
                    break
                v, s, p, i = u, s + d, q, i + 1
            else:
                u = v + s * (fall - p) if last else v
                if u >= bottom:
                    p = fall - (u - bottom) / s
                else:               # out of reach: the state is full at every level
                    if last:
                        p, s, last = fall, s - wt, False
                    high = bottom
                right = p
            knots[:i] = [(p, s)]
            below[t], low, left = p, bottom, p
        elif first:
            knots.insert(0, (rise, wt))
            left = rise
        top = total - zl
        if high > top:          # walk down from the right end to R = top
            v, it, i = high, reversed(knots), 0
            if last:
                p, s = fall, wt
            else:
                p, s = next(it)
                s, i = -s, -1
            for q, d in it:
                u = v - s * (p - q)
                if u <= top:
                    p = q + (top - u) / s
                    break
                v, s, p, i = u, s - d, q, i - 1
            else:                   # out of reach: the state is empty at every level
                low, left = top, p
            if i:
                del knots[i:]
            knots.append((p, -s))
            above[t], high, right = p, top, p
        elif last:
            knots.append((fall, -wt))
            right = fall
    lam, levels, touches = left, [], []    # below[0], or R's first kink if R >= total
    for t, b, u in zip(range(m), below, above):
        if lam < b:
            lam = b
            touches.append((t, 1))
        elif lam > u:
            lam = u
            touches.append((t, -1))
        levels.append(lam)
    y = [l if (v := at + lam * wt) < l else h if v > h else v
         for at, wt, lam, l, h in zip(a, w, levels, lo, hi)]
    for (k, kind), (n, next_kind) in zip(touches, touches[1:]):
        if n == k + 1:
            v = (zhi[n] if next_kind > 0 else zlo[n]) - (zhi[k] if kind > 0 else zlo[k])
            y[k] = lo[k] if v < lo[k] else hi[k] if v > hi[k] else v
    return y, levels, touches


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
    comp = 0.0
    for k, kind in touches:
        c = abs(states[k] - (zhi[k] if kind > 0 else zlo[k])) * abs(levels[k] - levels[k - 1])
        if c > comp:
            comp = c
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
    cost, g, h, w and a in one pass over it at each trial point. Each step
    solves its model once, exactly, with `_tube`. The feasible set is
    convex, so each point between x and the model's minimizer is feasible;
    the step is halved until the flatness does not rise, unless its model
    decrease is below the flatness's rounding, where no value of the
    flatness can judge it and the whole step is taken. So no iterate is
    worse than x0 beyond rounding, and each lies in the tube.

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
    base, k, e_max = tes.e_initial, 0, tes.e_max
    for l, h, q in zip(lo, hi, x0):
        if h - l > tol:
            k += 1
        else:
            base += q
        if 0 < k < m:
            if -base > zlo[k]:
                zlo[k] = -base
            if e_max - base < zhi[k]:
                zhi[k] = e_max - base
    total = tes.e_terminal - base
    lo, hi = [lo[t] for t in free], [hi[t] for t in free]
    q_cool, p_base, coefficients = problem.q_cool, problem.p_base, problem.coefficients
    day = ([(q_cool[t], p_base[t], *coefficients[t]) for t in free],
           problem.cop_model.c3, tes.q_ch_max, problem.p_mean)
    xf = [x[t] for t in free]
    cost, g, h, w, a = day_terms(xf, *day)
    step, res = 0, (math.inf,) * 3
    while True:
        y, levels, touches = _tube(a, w, lo, hi, zlo, zhi, total)
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
        stalled = not (res[0] < last[0] or res[1] < last[1] or res[2] < last[2])
        if converged or stalled or step >= opts.max_iterations:
            break
    for t, q in zip(free, xf):
        x[t] = q
    message = (f"tube DP, {step} Newton steps: relative dual residual {res[0]:.2e}, "
               f"primal {res[1]:.2e}, complementarity {res[2]:.2e}")
    return x, step, converged, message
