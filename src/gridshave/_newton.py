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

#: Least starting slack of a rate row, as a fraction of the hour's [lo, hi]
#: width.
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
    """Primal-dual interior-point Newton method with Mehrotra's predictor-corrector,
    in stored-energy coordinates.

    The variables are the stored energies e(1..T-1) between the fixed
    e(0) = e_initial and e(T) = e_terminal, and each rate is a difference
    e(t+1) - e(t), so the terminal state holds by construction: there is no
    equality constraint. An hour whose interval is no wider than
    feasibility_tol keeps its start rate, which ties e(t+1) to e(t); the
    energies are labelled by the chains such hours link, each chain moves as
    one variable, and a chain holding e(0) or e(T) is no variable. With u
    the chains' displacements from the start, the rates are x0 + A u (a row
    per free hour, +1 and -1 at the two chains it joins) and the moving
    energies e0 + E u (a row each, 1 at its chain).

    The inequalities are the rate box lo <= x0 + A u <= hi and the tank
    limits 0 <= e0 + E u <= e_max: with B = [A; E], G u + s = h for
    G = [B; -B], slack s >= 0 and dual z >= 0. s and z are the two halves of
    one buffer, and so are their steps ds and dz, so the step to the
    boundary is one masked minimum and the update one in-place add.
    Eliminating s and z leaves the Newton system, at most (T-1) x (T-1),

        (A'HA + G'WG) du = rhs,   W = diag(z / s),

    H the diagonal of `hessian_diagonal` floored at HESSIAN_FLOOR. Its
    matrix is one product B'DB, D the sum of each B row's two weights plus
    H on A's rows.

    The hourly cost terms come from one `_HourlyCost`, whose per-hour
    constants are computed once per solve; its second derivatives are
    evaluated only on the steps actually taken. The residual norms are
    computed only once the mean complementarity is within optimality_tol,
    or within eps times its start value if that is higher; from then on, a
    step that shrinks neither of them ends the solve unconverged.

    Each slack starts at its row's distance to the limit, raised to at least
    BOX_MARGIN of the hour's width on a rate row and to rate_max on a tank
    row (a full tank puts the zero schedule on the e_max edge); the primal
    residual this leaves decays to zero with the steps. Returns (x, steps,
    converged, message), x the rates as a numpy array; lo, hi and x0 may be
    any float sequences.
    """
    lo, hi, x0 = (np.asarray(v, dtype=float) for v in (lo, hi, x0))
    tes = problem.tes
    free = hi - lo > opts.feasibility_tol
    chain = np.concatenate([[0], np.cumsum(free)])   # e(j)'s chain: free hours before j
    n = chain[-1] - 1    # the chains of e(0) and e(T) do not move
    x = x0.copy()
    if n <= 0:
        return x, 0, True, "no free stored energy: the fixed hours set every rate"
    moves = np.vstack([np.zeros(n), np.eye(n), np.zeros(n)])[chain]   # e(0..T) per unit u
    A = (moves[1:] - moves[:-1])[free]
    inner = (chain[1:-1] > 0) & (chain[1:-1] <= n)
    E = moves[1:-1][inner]
    e0 = (tes.e_initial + np.cumsum(x0))[:-1][inner]
    B = np.vstack([A, E])
    G = np.vstack([B, -B])
    GT = np.ascontiguousarray(G.T)
    m, k = B.shape[0], G.shape[0]
    AT, BT = GT[:, :n + 1], GT[:, :m]   # A has a row per free hour
    h = np.concatenate([hi[free] - x0[free], tes.e_max - e0, x0[free] - lo[free], e0])
    floor = np.concatenate([BOX_MARGIN * (hi[free] - lo[free]), np.full(e0.size, tes.rate_max)])
    sz, dsz = np.empty(2 * k), np.empty(2 * k)
    s, z, ds, dz = sz[:k], sz[k:], dsz[:k], dsz[k:]
    s[:] = np.maximum(h, np.concatenate([floor, floor]))
    z[:] = 1.0
    u = np.zeros(n)
    cost = _HourlyCost(problem)

    def residual_norms():
        # the dual one relative to the gradient, so that the test is
        # reachable in floating point on horizons whose cost is larger
        return (float(np.abs(neg_r_d).max()) / max(1.0, float(np.abs(grad).max())),
                float(np.abs(neg_r_p).max()))

    def direction(r_c):
        """Newton step for complementarity target r_c = s z - target; fills ds, dz."""
        du = np.linalg.solve(newton, neg_r_d - GT @ ((z_neg_r_p + r_c) / neg_s))
        np.subtract(neg_r_p, G @ du, out=ds)
        np.divide(r_c + z * ds, neg_s, out=dz)
        return du

    watch = max(opts.optimality_tol, np.finfo(float).eps * float(s @ z) / k)
    step, last = 0, (np.inf, np.inf)
    while True:
        grad = cost.gradient(x)
        # the residuals are kept negated, as the right-hand sides use them
        neg_r_d = -(AT @ grad[free] + GT @ z)
        neg_r_p = h - (G @ u + s)
        mu = float(s @ z) / k
        converged = stalled = False
        if mu <= watch:
            norms = residual_norms()
            converged = (mu <= opts.optimality_tol and norms[0] <= opts.optimality_tol
                         and norms[1] <= opts.feasibility_tol)
            stalled = not (norms[0] < last[0] or norms[1] < last[1])
            last = norms
        if converged or stalled or step >= opts.max_iterations:
            break

        w = z / s
        w = w[:m] + w[m:]   # each B row's weight in the Newton matrix
        w[:n + 1] += np.maximum(cost.hessian()[free], HESSIAN_FLOOR)
        newton = (BT * w) @ B
        z_neg_r_p, neg_s = z * neg_r_p, -s
        # predictor: the pure Newton step, which sets the centring weight
        r_c = s * z
        direction(r_c)
        alpha = min(1.0, _max_step(sz, dsz))
        trial = sz + alpha * dsz
        mu_aff = float(trial[:k] @ trial[k:]) / k
        sigma = min(1.0, (mu_aff / mu) ** 3)
        # corrector: centre towards sigma * mu and cancel the second-order term
        du = direction(r_c + ds * dz - sigma * mu)
        alpha = min(1.0, STEP_TO_BOUNDARY * _max_step(sz, dsz))
        u += alpha * du
        x[free] = x0[free] + A @ u
        sz += alpha * dsz
        step += 1

    res_d, res_p = residual_norms()
    message = (f"interior point, {step} steps: relative dual residual {res_d:.2e}, primal "
               f"{res_p:.2e}, complementarity {mu:.2e}")
    return x, step, converged, message


def _max_step(v, dv) -> float:
    """Largest alpha in (0, inf] keeping v + alpha dv >= 0."""
    neg = dv < 0.0
    return -float((v[neg] / dv[neg]).max(initial=-np.inf))
