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

Hourly series are stdlib `array.array('d')`, computed hour by hour.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate

from .configio import ConfigFile, Record, ranged
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


class CopModel(ConfigFile):
    """Quadratic COP surface in (PLR, TWB) with a validity guard."""

    c0: float = 11.87
    c1: float = -8.84
    c2: float = -0.17
    c3: float = -6.89
    c4: float = 0.75
    c5: float = -0.01
    twb_min: float = 10.0
    twb_max: float = 30.0
    # a COP is a positive ratio, so a floor at or below 0 checks nothing
    cop_floor: float = ranged(0.5, "(0, inf)")

    def __post_init__(self):
        super().__post_init__()
        if self.twb_min > self.twb_max:
            raise ValueError(
                f"twb_min must be in (-inf, twb_max={self.twb_max}], got {self.twb_min}")

    def coefficients(self) -> tuple[float, ...]:
        return (self.c0, self.c1, self.c2, self.c3, self.c4, self.c5)


DEFAULT_COP_MODEL = CopModel()


class TesConfig(ConfigFile):
    """Thermal storage tank limits and boundary conditions."""

    e_max: float = ranged(STORAGE_CAPACITY_MWH, "[0, inf)")
    rate_max: float = ranged(STORAGE_RATE_MW, "[0, inf)")
    e_initial: float = STORAGE_CAPACITY_MWH
    e_terminal: float = STORAGE_CAPACITY_MWH
    q_ch_max: float = ranged(NOMINAL_COOLING_MW, "(0, inf)")

    def __post_init__(self):
        super().__post_init__()
        for name in ("e_initial", "e_terminal"):
            if not 0.0 <= getattr(self, name) <= self.e_max:
                raise ValueError(
                    f"{name} must be in [0, e_max={self.e_max}], got {getattr(self, name)}")


DEFAULT_TES = TesConfig()


class StorageSchedule(Record):
    """Hourly charge/discharge rates plus the implied stored-energy trajectory.

    q_stor has length T (positive = charging); e_stor has length T+1 with
    e_stor[0] the state before the first hour. Both are stored as
    `array('d')` copies of the given series.
    """

    q_stor: array
    e_stor: array

    def __post_init__(self):
        q, e = array("d", self.q_stor), array("d", self.e_stor)
        object.__setattr__(self, "q_stor", q)
        object.__setattr__(self, "e_stor", e)
        if len(e) != len(q) + 1:
            raise ShapeError(
                f"schedule lengths inconsistent: q_stor {len(q)}, e_stor {len(e)}")

    @property
    def horizon(self) -> int:
        return len(self.q_stor)

    @classmethod
    def from_rates(cls, q_stor, tes: TesConfig) -> "StorageSchedule":
        return cls(q_stor=q_stor, e_stor=storage_trajectory(q_stor, tes))


class Violation(Record):
    """One constraint violation found by check_schedule."""

    kind: str      # non_finite | rate | soc_low | soc_high | initial_soc | terminal_soc | trajectory
    hour: int      # index into q_stor/e_stor; -1 for boundary conditions
    value: float
    limit: float

    def __str__(self):
        return f"{self.kind} at hour {self.hour}: value {self.value:.6f}, limit {self.limit:.6f}"


def cop_coefficients(twb, model: CopModel):
    """Per-hour coefficients (b, c) of the COP surface at wet-bulb twb, which
    is cop = c + (b + c3 PLR) PLR with b = c1 + c4 TWB, c = c0 + c2 TWB + c5 TWB^2."""
    return model.c1 + model.c4 * twb, model.c0 + model.c2 * twb + model.c5 * twb * twb


def cop_values(plr, twb, model: CopModel, coefficients=None):
    """The package's one COP polynomial, unguarded (callers check the domain).

    Written with plain operators, so it takes one hour's floats or whole
    numpy arrays alike; `coefficients` is `cop_coefficients(twb, model)` if
    known."""
    b, c = cop_coefficients(twb, model) if coefficients is None else coefficients
    return c + (b + model.c3 * plr) * plr


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
    value = cop_values(plr, twb, model)
    if value <= model.cop_floor:
        raise DegenerateCopError(
            f"COP {value:.4f} at plr={plr}, twb={twb} is at or below floor {model.cop_floor}")
    return value


#: Slack, MW, on the chiller-output range [0, q_ch_max] of `chiller_power`.
CHILLER_OUTPUT_TOL = 1e-9


def chiller_power(q_ch, twb, model: CopModel = DEFAULT_COP_MODEL,
                  tes: TesConfig = DEFAULT_TES):
    """Electric draw q_ch / COP of the chiller plant delivering q_ch MW of
    cooling at wet-bulb twb: a float for one hour's floats, an `array('d')`
    of the draw per hour for equal-length hourly series.

    The package's one validated chiller-power pass. PLR is clipped to [0, 1],
    and an output within CHILLER_OUTPUT_TOL below zero draws nothing. The
    first faulty hour raises, its message prefixed `hour t:` for series and
    its `hour` set to t:
    - CopDomainError for a non-finite output;
    - InfeasibleDischargeError for an output below -CHILLER_OUTPUT_TOL;
    - ChillerCapacityError for an output above q_ch_max + CHILLER_OUTPUT_TOL;
    - CopDomainError for a wet-bulb outside [twb_min, twb_max];
    - DegenerateCopError for a COP at or below the floor.
    """
    m = model
    q_max, twb_min, twb_max, floor = tes.q_ch_max, m.twb_min, m.twb_max, m.cop_floor
    one_hour = isinstance(q_ch, (int, float))
    p_ch = array("d")
    for t, (q, w) in enumerate(zip([q_ch] if one_hour else q_ch,
                                   [twb] if one_hour else twb, strict=True)):
        if not math.isfinite(q):
            error, message = CopDomainError, f"chiller output {q} MW is not a finite number"
        elif q < -CHILLER_OUTPUT_TOL:
            error, message = InfeasibleDischargeError, f"chiller output {q} MW is negative"
        elif q > q_max + CHILLER_OUTPUT_TOL:
            error, message = ChillerCapacityError, (
                f"chiller output {q} MW exceeds nominal capacity {q_max} MW")
        elif not twb_min <= w <= twb_max:
            error, message = CopDomainError, (
                f"twb={w} outside validity range [{twb_min}, {twb_max}] C")
        else:
            plr = min(max(q / q_max, 0.0), 1.0)
            value = cop_values(plr, w, m)
            if value > floor:
                p_ch.append(q / value if q > 0.0 else 0.0)
                continue
            error, message = DegenerateCopError, (
                f"COP {value:.4f} at plr={plr:.4f}, twb={w} is at or below floor {floor}")
        raise error(message) if one_hour else error(f"hour {t}: {message}", hour=t)
    return p_ch[0] if one_hour else p_ch


def storage_trajectory(q_stor, tes: TesConfig) -> array:
    """Stored energy before each hour and after the last one (length T+1).

    Pure recursion from e_initial; bounds are not enforced here, use
    check_schedule for that.
    """
    if len(q_stor) < 1:
        raise ShapeError("q_stor must be a series of at least one hour")
    e0 = tes.e_initial
    return array("d", [e0, *(s + e0 for s in accumulate(q_stor))])


def check_schedule(schedule: StorageSchedule, tes: TesConfig,
                   tol: float = 1e-6) -> list[Violation]:
    """Validate a schedule against rate, bound and boundary-state limits.

    Returns an empty list iff every limit holds within tol (MWh / MW). A nan
    or inf rate is a `non_finite` violation at its hour, and no other limit
    is checked then. Otherwise the violations come kind by kind: stored
    energy off the recursion of its rates (a nan one too), rate, tank
    bottom, tank top, initial and terminal state.
    """
    q, e = schedule.q_stor, schedule.e_stor
    bad = [Violation("non_finite", t, v, tes.rate_max)
           for t, v in enumerate(q) if not math.isfinite(v)]
    if bad:
        return bad
    e0, top = e[0], tes.e_max + tol
    drift, low, high = [], [], []
    for t, (v, recomputed) in enumerate(zip(e, [e0, *(s + e0 for s in accumulate(q))])):
        if not abs(v - recomputed) <= tol:
            drift.append(Violation("trajectory", t, v, recomputed))
        if v < -tol:
            low.append(Violation("soc_low", t, v, 0.0))
        if v > top:
            high.append(Violation("soc_high", t, v, tes.e_max))
    rate = [Violation("rate", t, v, tes.rate_max)
            for t, v in enumerate(q) if abs(v) > tes.rate_max + tol]
    out = drift + rate + low + high
    if abs(e0 - tes.e_initial) > tol:
        out.append(Violation("initial_soc", -1, e0, tes.e_initial))
    if abs(e[-1] - tes.e_terminal) > tol:
        out.append(Violation("terminal_soc", -1, e[-1], tes.e_terminal))
    return out
