"""The interior-point Newton loop of `optimizer.solve` and its hourly cost
terms: the one gridshave module that imports numpy at its top.

`optimizer` imports this module inside `solve`, `gradient`, `hessian_diagonal`
and `dp_oracle`, so that importing gridshave, and every command that solves
nothing, does not load numpy. See `optimizer` for the method.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .cooling import cop_coefficients, cop_values

if TYPE_CHECKING:
    from .optimizer import ScheduleProblem, SolverOptions

#: Floor on each hour's cost curvature inside the Newton step, so that a COP
#: surface making the cost non-convex cannot make the step system indefinite.
HESSIAN_FLOOR = 1e-6

#: Fraction of each hour's [lo, hi] width kept between the starting rate and
#: the box edge.
BOX_MARGIN = 0.05

#: Fraction of the way to the slack and dual boundary a step may go.
STEP_TO_BOUNDARY = 0.995


class _HourlyCost:
    """Each hour's cost (G(t) - p_mean)^2 and its derivatives in q_stor(t),
    from the per-hour COP coefficients b(t), c(t) of `cop_coefficients`,
    computed once per problem; the COP itself comes from `cop_values`.

    Chain rule through p_ch = q_ch / cop(plr), plr = q_ch / q_ch_max, with
    cop' = dcop/dplr = b(t) + 2 c3 plr and cop'' = 2 c3:
        dp_ch/dq_ch   = (cop - plr cop') / cop^2
        d2p_ch/dq_ch2 = (2 plr cop'^2 - cop (2 cop' + plr cop'')) / (q_ch_max cop^3)
    `gradient` keeps what `hessian` needs at its point, so a pass that needs
    no second derivatives computes none. The problem's hourly series are
    held as numpy views of their `array('d')` buffers; the rates may be any
    float array whose last axis is the horizon. They are not validated:
    they must lie in `hour_bounds`.
    """

    def __init__(self, problem: ScheduleProblem):
        self.problem = problem
        self.p_base, self.q_cool, self.twb = (
            np.asarray(v) for v in (problem.p_base, problem.q_cool, problem.twb))
        self.coefficients = cop_coefficients(self.twb, problem.cop_model)
        self.c3_2 = 2.0 * problem.cop_model.c3
        self.point = None

    def gradient(self, q_stor: np.ndarray) -> np.ndarray:
        problem = self.problem
        q_ch = self.q_cool + q_stor
        plr = q_ch / problem.tes.q_ch_max
        cop = cop_values(plr, self.twb, problem.cop_model, self.coefficients)
        curvature = self.c3_2 * plr          # plr cop''
        slope = self.coefficients[0] + curvature   # cop'
        dp = (cop - plr * slope) / (cop * cop)
        r = self.p_base + q_ch / cop - problem.p_mean
        self.point = plr, cop, curvature, slope, dp, r
        return 2.0 * r * dp

    def hessian(self) -> np.ndarray:
        """Second derivatives at the point of the last `gradient` call."""
        plr, cop, curvature, slope, dp, r = self.point
        d2p = ((2.0 * plr * slope * slope - cop * (2.0 * slope + curvature))
               / (self.problem.tes.q_ch_max * cop * cop * cop))
        return 2.0 * (dp * dp + r * d2p)


def _interior_point(problem: ScheduleProblem, lo, hi, x0,
                    opts: SolverOptions) -> tuple[np.ndarray, int, bool, str]:
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
    to zero with the steps. Returns (x, steps, converged, message), x a numpy
    array; lo, hi and x0 may be any float sequences.
    """
    lo, hi, x0 = (np.asarray(v, dtype=float) for v in (lo, hi, x0))
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
