"""Least-squares fit of the COP surface and its validation metrics.

The basis is fixed to the six quadratic terms {1, plr, twb, plr^2, twb*plr,
twb^2}. CVRMSE and MBE follow the building-simulation calibration convention:
CVRMSE uses the (n-1) denominator, and MBE is signed so that a model that
underestimates the measurement comes out positive. Samples are `array('d')`
series, and the least squares is one Householder QR in plain Python.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from operator import mul, sub

from .configio import Record
from .cooling import CopModel, cop_values
from .errors import MetricUndefinedError, ShapeError, SingularFitError
from .tableio import read_table

BASIS_NAMES = ("1", "plr", "twb", "plr^2", "twb*plr", "twb^2")

SAMPLES_HEADER = "plr,twb_c,cop"

#: Minimum rows for a six-coefficient fit (2x overdetermination).
MIN_SAMPLES = 12


class SampleSet(Record):
    """(PLR, TWB, measured COP) triples, stored as `array('d')` copies."""

    plr: array
    twb: array
    cop: array

    def __post_init__(self):
        for name in ("plr", "twb", "cop"):
            object.__setattr__(self, name, array("d", getattr(self, name)))
        plr, twb, cop = self.plr, self.twb, self.cop
        if not len(plr) == len(twb) == len(cop):
            raise ShapeError("plr, twb and cop must be equal-length series")
        if len(plr) < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} samples for a 6-coefficient fit, "
                f"got {len(plr)}")
        if not all(map(math.isfinite, chain(plr, twb, cop))):
            raise ValueError("samples contain non-finite values")
        if not all(0.0 <= v <= 1.0 for v in plr):
            raise ValueError("plr values must lie in [0, 1]")

    def __len__(self):
        return len(self.plr)


class FitReport(Record):
    """Fitted model plus goodness-of-fit metrics on the fitting set."""

    model: CopModel
    cvrmse: float          # percent
    mbe: float             # percent, positive = model underestimates
    n: int
    residual_norm: float

    def metrics_block(self) -> str:
        return "\n".join([
            f"n = {self.n}",
            f"cvrmse_pct = {self.cvrmse:.4f}",
            f"mbe_pct = {self.mbe:.4f}",
            f"residual_norm = {self.residual_norm:.6e}",
        ])


def design_matrix(plr, twb) -> list[list[float]]:
    """The six basis columns at the samples, each a list of floats."""
    plr, twb = list(plr), list(twb)
    return [[1.0] * len(plr), plr, twb, [p * p for p in plr],
            [w * p for p, w in zip(plr, twb)], [w * w for w in twb]]


def _norm(values) -> float:
    return math.sqrt(math.fsum(v * v for v in values))


def _least_squares(columns, y) -> tuple[list[float], float]:
    """Coefficients and residual norm of the least-squares fit of y on the
    basis columns, from one Householder QR without pivoting (no normal
    equations).

    A column whose part orthogonal to the columns before it has a norm at or
    under max(n, 6) eps ||X||_F, the matrix_rank tolerance, adds no rank;
    SingularFitError then names every such column, left to right.
    """
    cols, y = [list(c) for c in columns], list(y)
    tol = max(len(y), len(cols)) * sys.float_info.epsilon * _norm(chain.from_iterable(cols))
    bad = []
    r = 0       # rows reduced so far: the rank of the columns before this one
    for j, col in enumerate(cols):
        norm = _norm(col[r:])
        if norm <= tol:
            bad.append(BASIS_NAMES[j])
            continue
        # reflect col[r:] onto -sign(col[r]) norm e_1 with I - 2 u u^T / (u^T u)
        alpha = -math.copysign(norm, col[r])
        u = col[r:]
        u[0] -= alpha
        scale = 2.0 / math.fsum(v * v for v in u)
        for other in [*cols[j + 1:], y]:
            s = scale * math.fsum(map(mul, u, other[r:]))
            other[r:] = [o - s * v for o, v in zip(other[r:], u)]
        col[r] = alpha
        r += 1
    if bad:
        raise SingularFitError(
            f"design matrix is rank deficient; collinear columns: {', '.join(bad)}",
            collinear_columns=bad)

    # R[i][k] = cols[k][i] for i <= k; back substitution on R x = (Q^T y)[:6]
    n_coef = len(cols)
    x = [0.0] * n_coef
    for i in reversed(range(n_coef)):
        x[i] = (y[i] - math.fsum(cols[k][i] * x[k] for k in range(i + 1, n_coef))) \
            / cols[i][i]
    return x, _norm(y[n_coef:])


def _paired(pred, meas) -> tuple[array, array]:
    pred, meas = array("d", pred), array("d", meas)
    if len(pred) != len(meas):
        raise ShapeError(f"series lengths differ: {len(pred)} vs {len(meas)}")
    return pred, meas


def cvrmse(pred, meas) -> float:
    """Coefficient of variation of the RMSE, percent, (n-1) denominator."""
    pred, meas = _paired(pred, meas)
    n = len(meas)
    if n < 2:
        raise ShapeError("need at least two samples for CVRMSE")
    mean = sum(meas) / n
    if mean == 0.0:
        raise MetricUndefinedError("CVRMSE undefined: measured series has zero mean")
    rmse = math.sqrt(sum((m - p) * (m - p) for p, m in zip(pred, meas)) / (n - 1))
    return 100.0 * rmse / mean


def mbe(pred, meas) -> float:
    """Mean bias error, percent. Positive when the model underestimates."""
    pred, meas = _paired(pred, meas)
    total = sum(meas)
    if total == 0.0:
        raise MetricUndefinedError("MBE undefined: measured series sums to zero")
    return 100.0 * sum(map(sub, meas, pred)) / total


def fit_cop_model(samples: SampleSet, cop_floor: float = CopModel.cop_floor) -> FitReport:
    """Least-squares fit of the six-term COP surface.

    Solved by one Householder QR of the design matrix (no normal equations);
    raises SingularFitError naming the collinear basis columns. The returned
    model's validity window is the sample TWB range.
    """
    coeffs, residual_norm = _least_squares(design_matrix(samples.plr, samples.twb),
                                           samples.cop)
    model = CopModel(
        *coeffs, twb_min=min(samples.twb), twb_max=max(samples.twb), cop_floor=cop_floor)
    pred = [cop_values(p, w, model) for p, w in zip(samples.plr, samples.twb)]
    return FitReport(
        model=model,
        cvrmse=cvrmse(pred, samples.cop),
        mbe=mbe(pred, samples.cop),
        n=len(samples),
        residual_norm=residual_norm,
    )


def load_samples(path: str) -> SampleSet:
    """Read a sample CSV with header `plr,twb_c,cop`."""
    table, _ = read_table(path, SAMPLES_HEADER, "samples")
    return SampleSet(plr=table["plr"], twb=table["twb_c"], cop=table["cop"])
