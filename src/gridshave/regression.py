"""Least-squares fit of the COP surface and its validation metrics.

The basis is fixed to the six quadratic terms {1, plr, twb, plr^2, twb*plr,
twb^2}. CVRMSE and MBE follow the building-simulation calibration convention:
CVRMSE uses the (n-1) denominator, and MBE is signed so that a model that
underestimates the measurement comes out positive. Samples are `array('d')`
series; the fit itself (`design_matrix`, `fit_cop_model`) loads numpy for its
SVD-backed least squares.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import sub

from .cooling import CopModel
from .errors import MetricUndefinedError, ShapeError, SingularFitError
from .tableio import read_table, write_table

BASIS_NAMES = ("1", "plr", "twb", "plr^2", "twb*plr", "twb^2")

SAMPLES_HEADER = "plr,twb_c,cop"

#: Minimum rows for a six-coefficient fit (2x overdetermination).
MIN_SAMPLES = 12


@dataclass(frozen=True)
class SampleSet:
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


@dataclass(frozen=True)
class FitReport:
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


def design_matrix(plr, twb):
    """The six basis columns at the samples, as a numpy matrix."""
    import numpy as np

    plr = np.asarray(plr, dtype=float)
    twb = np.asarray(twb, dtype=float)
    return np.column_stack([
        np.ones_like(plr), plr, twb, plr * plr, twb * plr, twb * twb,
    ])


def _collinear_columns(X) -> list[str]:
    """Names of basis columns that add no rank (greedy, left to right)."""
    import numpy as np

    bad = []
    rank = 0
    for j in range(X.shape[1]):
        new_rank = np.linalg.matrix_rank(X[:, : j + 1])
        if new_rank == rank:
            bad.append(BASIS_NAMES[j])
        rank = new_rank
    return bad


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


def fit_cop_model(samples: SampleSet, cop_floor: float = 0.5) -> FitReport:
    """Least-squares fit of the six-term COP surface.

    Solved through numpy's SVD-backed lstsq (no normal equations). The
    returned model's validity window is the sample TWB range.
    """
    import numpy as np

    X = design_matrix(samples.plr, samples.twb)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        bad = _collinear_columns(X)
        raise SingularFitError(
            f"design matrix is rank deficient; collinear columns: {', '.join(bad)}",
            collinear_columns=bad)

    cop = np.asarray(samples.cop)
    coeffs, _, _, _ = np.linalg.lstsq(X, cop, rcond=None)
    pred = X @ coeffs
    resid = cop - pred

    model = CopModel(
        c0=float(coeffs[0]), c1=float(coeffs[1]), c2=float(coeffs[2]),
        c3=float(coeffs[3]), c4=float(coeffs[4]), c5=float(coeffs[5]),
        twb_min=min(samples.twb), twb_max=max(samples.twb),
        cop_floor=cop_floor,
    )
    return FitReport(
        model=model,
        cvrmse=cvrmse(pred, samples.cop),
        mbe=mbe(pred, samples.cop),
        n=len(samples),
        residual_norm=float(np.linalg.norm(resid)),
    )


def load_samples(path: str) -> SampleSet:
    """Read a sample CSV with header `plr,twb_c,cop`."""
    table, _ = read_table(path, SAMPLES_HEADER, "samples")
    return SampleSet(plr=table["plr"], twb=table["twb_c"], cop=table["cop"])


def save_samples(samples: SampleSet, path: str) -> None:
    write_table(path, SAMPLES_HEADER, [samples.plr, samples.twb, samples.cop])
