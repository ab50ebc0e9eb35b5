"""Lumped district-cooling plant and chilled-water storage tank.

Sign convention (used everywhere in this package): **positive q_stor charges
the tank**. The chillers then produce q_ch = q_cool + q_stor, and the stored
energy steps as e(i+1) = e(i) + q_stor(i). Time steps are one hour, so MW of
charge rate and MWh of stored energy are numerically interchangeable in the
recursion.

The five chiller stations, their pumps and condenser fans are lumped into a
single COP surface, quadratic in partial load ratio (PLR) and wet-bulb
temperature (TWB):

    COP = c0 + c1*PLR + c2*TWB + c3*PLR^2 + c4*TWB*PLR + c5*TWB^2

The default coefficients were fitted on summer operating data; the surface
goes negative outside that regime (e.g. full load at freezing wet-bulb), so
evaluation is guarded by a validity window on TWB and a COP floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configio import get_float, read_config, write_config
from .errors import (
    ChillerCapacityError,
    CopDomainError,
    DegenerateCopError,
    InfeasibleDischargeError,
    ShapeError,
)

#: Nominal cooling capacity of the lumped chiller plant, MW thermal.
#: 45,000 tons at 3.517 kW/ton.
NOMINAL_COOLING_MW = 156.5

#: Usable chilled-water storage, MWh thermal (~50,000 ton-hours).
STORAGE_CAPACITY_MWH = 175.6

#: Charge/discharge rate limit, MW (~9,000 tons).
STORAGE_RATE_MW = 31.7


@dataclass(frozen=True)
class CopModel:
    """Quadratic COP surface in (PLR, TWB) with a validity guard."""

    c0: float = 11.87
    c1: float = -8.84
    c2: float = -0.17
    c3: float = -6.89
    c4: float = 0.75
    c5: float = -0.01
    twb_min: float = 10.0
    twb_max: float = 30.0
    cop_floor: float = 0.5

    def coefficients(self) -> tuple[float, ...]:
        return (self.c0, self.c1, self.c2, self.c3, self.c4, self.c5)

    def to_entries(self) -> dict[str, str]:
        out = {f"c{i}": repr(c) for i, c in enumerate(self.coefficients())}
        out["twb_min"] = repr(self.twb_min)
        out["twb_max"] = repr(self.twb_max)
        out["cop_floor"] = repr(self.cop_floor)
        return out

    def save(self, path: str, header: str | None = None) -> None:
        write_config(path, self.to_entries(), header=header)

    @classmethod
    def load(cls, path: str) -> "CopModel":
        cfg = read_config(path)
        kwargs = {f"c{i}": get_float(cfg, f"c{i}", path) for i in range(6)}
        kwargs["twb_min"] = get_float(cfg, "twb_min", path)
        kwargs["twb_max"] = get_float(cfg, "twb_max", path)
        kwargs["cop_floor"] = get_float(cfg, "cop_floor", path)
        return cls(**kwargs)


DEFAULT_COP_MODEL = CopModel()


@dataclass(frozen=True)
class TesConfig:
    """Thermal storage tank limits and boundary conditions."""

    e_max: float = STORAGE_CAPACITY_MWH
    rate_max: float = STORAGE_RATE_MW
    e_initial: float = STORAGE_CAPACITY_MWH
    e_terminal: float = STORAGE_CAPACITY_MWH
    q_ch_max: float = NOMINAL_COOLING_MW

    def __post_init__(self):
        if self.e_max < 0 or self.rate_max < 0 or self.q_ch_max <= 0:
            raise ValueError("storage capacity, rate limit and chiller capacity must be positive")
        for name in ("e_initial", "e_terminal"):
            v = getattr(self, name)
            if not 0.0 <= v <= self.e_max:
                raise ValueError(f"{name}={v} outside [0, e_max={self.e_max}]")

    def to_entries(self) -> dict[str, str]:
        return {
            "e_max": repr(self.e_max),
            "rate_max": repr(self.rate_max),
            "e_initial": repr(self.e_initial),
            "e_terminal": repr(self.e_terminal),
            "q_ch_max": repr(self.q_ch_max),
        }

    def save(self, path: str, header: str | None = None) -> None:
        write_config(path, self.to_entries(), header=header)

    @classmethod
    def load(cls, path: str) -> "TesConfig":
        cfg = read_config(path)
        return cls(**{k: get_float(cfg, k, path) for k in
                      ("e_max", "rate_max", "e_initial", "e_terminal", "q_ch_max")})


DEFAULT_TES = TesConfig()


@dataclass(frozen=True)
class StorageSchedule:
    """Hourly charge/discharge rates plus the implied stored-energy trajectory.

    q_stor has length T (positive = charging); e_stor has length T+1 with
    e_stor[0] the state before the first hour.
    """

    q_stor: np.ndarray
    e_stor: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_stor, dtype=float)
        e = np.asarray(self.e_stor, dtype=float)
        object.__setattr__(self, "q_stor", q)
        object.__setattr__(self, "e_stor", e)
        if q.ndim != 1 or e.ndim != 1 or e.shape[0] != q.shape[0] + 1:
            raise ShapeError(
                f"schedule shapes inconsistent: q_stor {q.shape}, e_stor {e.shape}")

    @property
    def horizon(self) -> int:
        return int(self.q_stor.shape[0])

    @classmethod
    def from_rates(cls, q_stor, tes: TesConfig) -> "StorageSchedule":
        q = np.asarray(q_stor, dtype=float)
        return cls(q_stor=q, e_stor=storage_trajectory(q, tes))


@dataclass(frozen=True)
class Violation:
    """One constraint violation found by check_schedule."""

    kind: str      # non_finite | rate | soc_low | soc_high | initial_soc | terminal_soc | trajectory
    hour: int      # index into q_stor/e_stor; -1 for boundary conditions
    value: float
    limit: float

    def __str__(self):
        return f"{self.kind} at hour {self.hour}: value {self.value:.6f}, limit {self.limit:.6f}"


def cop(plr: float, twb: float, model: CopModel = DEFAULT_COP_MODEL) -> float:
    """Evaluate the COP surface at one operating point.

    Raises CopDomainError if (plr, twb) falls outside the validity window and
    DegenerateCopError if the polynomial value is at or below the floor.
    """
    if not 0.0 <= plr <= 1.0:
        raise CopDomainError(f"plr={plr} outside [0, 1]")
    if not model.twb_min <= twb <= model.twb_max:
        raise CopDomainError(
            f"twb={twb} outside validity range [{model.twb_min}, {model.twb_max}] C")
    value = (model.c0 + model.c1 * plr + model.c2 * twb
             + model.c3 * plr * plr + model.c4 * twb * plr + model.c5 * twb * twb)
    if value <= model.cop_floor:
        raise DegenerateCopError(
            f"COP {value:.4f} at plr={plr}, twb={twb} is at or below floor {model.cop_floor}")
    return value


def cop_values(plr: np.ndarray, twb: np.ndarray, model: CopModel) -> np.ndarray:
    """Vectorized COP evaluation without guards (callers check the domain)."""
    plr = np.asarray(plr, dtype=float)
    twb = np.asarray(twb, dtype=float)
    return (model.c0 + model.c1 * plr + model.c2 * twb
            + model.c3 * plr * plr + model.c4 * twb * plr + model.c5 * twb * twb)


def cop_plr_slope(plr: np.ndarray, twb: np.ndarray, model: CopModel) -> np.ndarray:
    """dCOP/dPLR at fixed TWB."""
    plr = np.asarray(plr, dtype=float)
    twb = np.asarray(twb, dtype=float)
    return model.c1 + 2.0 * model.c3 * plr + model.c4 * twb


def chiller_power(q_ch: float, twb: float,
                  model: CopModel = DEFAULT_COP_MODEL,
                  tes: TesConfig = DEFAULT_TES) -> float:
    """Electric draw of the chiller plant delivering q_ch MW of cooling."""
    if q_ch < 0.0:
        raise InfeasibleDischargeError(f"chiller output {q_ch} MW is negative")
    if q_ch > tes.q_ch_max:
        raise ChillerCapacityError(
            f"chiller output {q_ch} MW exceeds nominal capacity {tes.q_ch_max} MW")
    return q_ch / cop(q_ch / tes.q_ch_max, twb, model)


def required_chiller_output(q_cool: float, q_stor: float) -> float:
    """Chiller output needed to serve q_cool while moving q_stor into the tank.

    Positive q_stor charges (chillers make extra), negative discharges.
    """
    q_ch = q_cool + q_stor
    if q_ch < 0.0:
        raise InfeasibleDischargeError(
            f"discharge {-q_stor} MW exceeds cooling demand {q_cool} MW")
    return q_ch


def storage_trajectory(q_stor, tes: TesConfig) -> np.ndarray:
    """Stored energy before each hour and after the last one (length T+1).

    Pure recursion from e_initial; bounds are not enforced here, use
    check_schedule for that.
    """
    q = np.asarray(q_stor, dtype=float)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ShapeError("q_stor must be a 1-D series of at least one hour")
    e = np.empty(q.shape[0] + 1, dtype=float)
    e[0] = tes.e_initial
    np.cumsum(q, out=e[1:])
    e[1:] += tes.e_initial
    return e


def check_schedule(schedule: StorageSchedule, tes: TesConfig,
                   tol: float = 1e-6) -> list[Violation]:
    """Validate a schedule against rate, bound and boundary-state limits.

    Returns an empty list iff every limit holds within tol (MWh / MW). A nan
    or inf rate is a `non_finite` violation at its hour, and no other limit
    is checked then.
    """
    q = schedule.q_stor
    e = schedule.e_stor
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        return [Violation("non_finite", int(i), float(q[i]), tes.rate_max) for i in bad]
    out: list[Violation] = []

    recomputed = np.empty_like(e)
    recomputed[0] = e[0]
    np.cumsum(q, out=recomputed[1:])
    recomputed[1:] += e[0]
    drift = np.abs(e - recomputed)
    for i in np.nonzero(~(drift <= tol))[0]:   # a nan stored energy drifts too
        out.append(Violation("trajectory", int(i), float(e[i]), float(recomputed[i])))

    for i in np.nonzero(np.abs(q) > tes.rate_max + tol)[0]:
        out.append(Violation("rate", int(i), float(q[i]), tes.rate_max))
    for i in np.nonzero(e < -tol)[0]:
        out.append(Violation("soc_low", int(i), float(e[i]), 0.0))
    for i in np.nonzero(e > tes.e_max + tol)[0]:
        out.append(Violation("soc_high", int(i), float(e[i]), tes.e_max))
    if abs(e[0] - tes.e_initial) > tol:
        out.append(Violation("initial_soc", -1, float(e[0]), tes.e_initial))
    if abs(e[-1] - tes.e_terminal) > tol:
        out.append(Violation("terminal_soc", -1, float(e[-1]), tes.e_terminal))
    return out
