"""CHP plant heat and mass balance.

One gas turbine (GT), one heat-recovery steam generator (HRSG), one steam
boiler, one main steam turbine generator and one small peaking steam turbine
generator serve the campus. Electric dispatch follows merit order: the GT
loads first to capacity, then the main steam turbine, and demand above the
combined-cycle threshold (cap_gt + cap_st) goes to the peaking unit, whose
steam must come from the boiler.

Balance equations, checked by verify_balance (all flows in MW / MW-thermal):

     1  p_e_gt + p_e_st_main + p_e_peak = p_e_c
     2  q_ex_st + prr * q_s_sb = q_s_c
     3  q_s_sb = prr * q_s_sb + q_sb_st
     4  q_s_st = q_s_hrsg + q_sb_st
     5  p_e_gt = q_g_gt * eta_gt
     6  q_heat = q_g_gt - p_e_gt
     7  q_s_hrsg = min(eta_hrsg * q_heat, q_s_st)
     8  q_s_sb = q_g_sb * eta_sb
     9  q_ex_st = q_s_st * er
    10  p_e_st_main + p_e_peak = q_s_st * eta_st

Equation 7 includes an exhaust bypass: when the steam turbine cannot absorb
the full recoverable heat (light steam-turbine loads under merit order), the
surplus is vented at the stack and the HRSG delivers exactly the turbine's
steam demand. Whenever the turbine demand is at or above the recoverable
heat, the equation reduces to the plain recovery form q_s_hrsg = eta_hrsg *
q_heat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configio import get_float, read_config, write_config
from .errors import ConfigError, InfeasibleDemandError, InfeasibleSteamError, ShapeError


@dataclass(frozen=True)
class EfficiencyCurve:
    """Component efficiency as an affine function of load fraction.

    value(x) = intercept + slope * x for x in [0, 1]. A zero slope gives a
    constant efficiency.
    """

    intercept: float
    slope: float = 0.0

    def __call__(self, load_fraction: float) -> float:
        return self.intercept + self.slope * load_fraction

    def range_ok(self) -> bool:
        lo = min(self(0.0), self(1.0))
        hi = max(self(0.0), self(1.0))
        return 0.0 < lo and hi <= 1.0

    def to_config_value(self) -> str:
        if self.slope == 0.0:
            return repr(self.intercept)
        return f"{self.intercept!r},{self.slope!r}"

    @classmethod
    def from_config_value(cls, raw: str, key: str = "<eta>") -> "EfficiencyCurve":
        parts = [p.strip() for p in raw.split(",")]
        try:
            numbers = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"{key}: expected 'a' or 'a,b', got {raw!r}") from exc
        if len(numbers) == 1:
            return cls(numbers[0])
        if len(numbers) == 2:
            return cls(numbers[0], numbers[1])
        raise ConfigError(f"{key}: expected at most two numbers, got {raw!r}")


_ETA_KEYS = ("eta_gt", "eta_hrsg", "eta_sb", "eta_st")


@dataclass(frozen=True)
class PlantConfig:
    """Capacities, threshold and component efficiencies of the CHP plant.

    Efficiency curve arguments: eta_gt and eta_hrsg take the GT electric load
    fraction, eta_st takes the steam-path electric load fraction
    (main + peaking over cap_st + cap_peak), eta_sb takes the boiler steam
    load fraction. eta_cc and eta_peak are lumped electric efficiencies used
    only for fuel-savings accounting, not in the balance.
    """

    cap_gt: float = 32.0
    cap_st: float = 25.0
    cap_peak: float = 8.0
    threshold: float = 57.0
    eta_gt: EfficiencyCurve = field(default_factory=lambda: EfficiencyCurve(0.35))
    eta_hrsg: EfficiencyCurve = field(default_factory=lambda: EfficiencyCurve(0.80))
    eta_sb: EfficiencyCurve = field(default_factory=lambda: EfficiencyCurve(0.85))
    eta_st: EfficiencyCurve = field(default_factory=lambda: EfficiencyCurve(0.30))
    eta_cc: float = 0.40
    eta_peak: float = 0.20
    max_extraction_fraction: float = 1.0
    peaking_margin_mw: float = 1.0
    cap_sb: float = 88.0

    def __post_init__(self):
        if min(self.cap_gt, self.cap_st, self.cap_peak, self.cap_sb) <= 0:
            raise ValueError("all capacities must be positive")
        if abs(self.threshold - (self.cap_gt + self.cap_st)) > 1e-9:
            raise ValueError(
                f"threshold {self.threshold} must equal cap_gt + cap_st "
                f"= {self.cap_gt + self.cap_st}")
        for name in ("eta_cc", "eta_peak"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name}={v} outside (0, 1]")
        if not 0.0 <= self.max_extraction_fraction <= 1.0:
            raise ValueError("max_extraction_fraction outside [0, 1]")
        if self.peaking_margin_mw < 0.0:
            raise ValueError("peaking_margin_mw must be nonnegative")
        for name in _ETA_KEYS:
            curve = getattr(self, name)
            if isinstance(curve, EfficiencyCurve) and not curve.range_ok():
                raise ValueError(f"{name} leaves (0, 1] over load fractions [0, 1]")

    @property
    def cap_total(self) -> float:
        return self.threshold + self.cap_peak

    def to_entries(self) -> dict[str, str]:
        out = {
            "cap_gt": repr(self.cap_gt),
            "cap_st": repr(self.cap_st),
            "cap_peak": repr(self.cap_peak),
            "threshold": repr(self.threshold),
        }
        for name in _ETA_KEYS:
            curve = getattr(self, name)
            if not isinstance(curve, EfficiencyCurve):
                raise ConfigError(
                    f"{name} is a custom callable and cannot be serialized; "
                    "use EfficiencyCurve for config round trips")
            out[name] = curve.to_config_value()
        out["eta_cc"] = repr(self.eta_cc)
        out["eta_peak"] = repr(self.eta_peak)
        out["max_extraction_fraction"] = repr(self.max_extraction_fraction)
        out["peaking_margin_mw"] = repr(self.peaking_margin_mw)
        if self.cap_sb != type(self).cap_sb:  # optional extension key
            out["cap_sb"] = repr(self.cap_sb)
        return out

    def save(self, path: str, header: str | None = None) -> None:
        write_config(path, self.to_entries(), header=header)

    @classmethod
    def load(cls, path: str) -> "PlantConfig":
        cfg = read_config(path)
        kwargs = {}
        for key in ("cap_gt", "cap_st", "cap_peak", "threshold", "eta_cc", "eta_peak",
                    "max_extraction_fraction", "peaking_margin_mw"):
            kwargs[key] = get_float(cfg, key, path)
        for key in _ETA_KEYS:
            if key not in cfg:
                raise ConfigError(f"{path}: missing required key {key!r}")
            kwargs[key] = EfficiencyCurve.from_config_value(cfg[key], key)
        if "cap_sb" in cfg:  # optional: boiler capacity for steam feasibility checks
            kwargs["cap_sb"] = get_float(cfg, "cap_sb", path)
        return cls(**kwargs)


DEFAULT_PLANT = PlantConfig()


@dataclass(frozen=True)
class ChpDispatch:
    """Hourly operating state of the CHP plant.

    Powers in MW electric, heat/steam flows in MW thermal, fuel in MW of fuel
    heat input. prr is the boiler-direct steam share, er the extraction share
    of turbine inlet steam.
    """

    p_e_c: float
    p_e_gt: float
    p_e_st_main: float
    p_e_peak: float
    q_s_c: float
    q_s_st: float
    q_s_hrsg: float
    q_s_sb: float
    q_sb_st: float
    q_ex_st: float
    q_heat: float
    q_g_gt: float
    q_g_sb: float
    prr: float
    er: float
    near_threshold: bool = False

    @property
    def p_e_st_total(self) -> float:
        return self.p_e_st_main + self.p_e_peak

    @property
    def fuel_total(self) -> float:
        return self.q_g_gt + self.q_g_sb


BALANCE_LABELS = (
    "electric power balance",
    "campus steam balance",
    "boiler steam split",
    "steam turbine supply",
    "gas turbine fuel conversion",
    "gas turbine waste heat",
    "heat recovery (with bypass)",
    "boiler fuel conversion",
    "extraction definition",
    "steam turbine power conversion",
)


def peaking_power(p_e_c: float, cfg: PlantConfig = DEFAULT_PLANT) -> float:
    """Electric output required from the peaking unit at campus load p_e_c."""
    if p_e_c < 0.0:
        raise ValueError(f"campus load {p_e_c} MW is negative")
    if p_e_c > cfg.cap_total + 1e-9:
        raise InfeasibleDemandError(
            f"campus load {p_e_c} MW exceeds total capacity {cfg.cap_total} MW")
    return min(max(p_e_c - cfg.threshold, 0.0), cfg.cap_peak)


def dispatch_hour(p_e_c: float, q_s_c: float,
                  cfg: PlantConfig = DEFAULT_PLANT) -> ChpDispatch:
    """Solve the plant balance for one hour under merit-order dispatch.

    Campus steam is served from turbine extraction first (up to
    max_extraction_fraction of inlet steam), then boiler-direct steam. The
    peaking unit's steam rides on the boiler side through the common steam
    turbine supply balance.
    """
    if p_e_c <= 0.0:
        raise ValueError(f"campus load must be positive, got {p_e_c} MW")
    if q_s_c < 0.0:
        raise ValueError(f"campus steam demand must be nonnegative, got {q_s_c}")

    p_e_peak = peaking_power(p_e_c, cfg)
    p_e_gt = min(p_e_c, cfg.cap_gt)
    p_e_st_main = min(max(p_e_c - cfg.cap_gt, 0.0), cfg.cap_st)

    x_gt = p_e_gt / cfg.cap_gt
    q_g_gt = p_e_gt / cfg.eta_gt(x_gt)
    q_heat = q_g_gt - p_e_gt
    recoverable = cfg.eta_hrsg(x_gt) * q_heat

    p_e_st_total = p_e_st_main + p_e_peak
    if p_e_st_total > 0.0:
        x_st = p_e_st_total / (cfg.cap_st + cfg.cap_peak)
        q_s_st = p_e_st_total / cfg.eta_st(x_st)
    else:
        q_s_st = 0.0

    q_s_hrsg = min(recoverable, q_s_st)
    q_sb_st = q_s_st - q_s_hrsg

    q_ex_st = min(q_s_c, cfg.max_extraction_fraction * q_s_st)
    er = q_ex_st / q_s_st if q_s_st > 0.0 else 0.0
    q_direct = q_s_c - q_ex_st
    q_s_sb = q_sb_st + q_direct
    prr = q_direct / q_s_sb if q_s_sb > 0.0 else 0.0

    if q_s_sb > cfg.cap_sb + 1e-9:
        raise InfeasibleSteamError(
            f"boiler steam {q_s_sb:.2f} MW exceeds capacity {cfg.cap_sb} MW "
            f"(campus steam {q_s_c} MW at load {p_e_c} MW)")
    if q_s_sb > 0.0:
        q_g_sb = q_s_sb / cfg.eta_sb(q_s_sb / cfg.cap_sb)
    else:
        q_g_sb = 0.0

    near = cfg.threshold - cfg.peaking_margin_mw <= p_e_c <= cfg.threshold

    return ChpDispatch(
        p_e_c=p_e_c, p_e_gt=p_e_gt, p_e_st_main=p_e_st_main, p_e_peak=p_e_peak,
        q_s_c=q_s_c, q_s_st=q_s_st, q_s_hrsg=q_s_hrsg, q_s_sb=q_s_sb,
        q_sb_st=q_sb_st, q_ex_st=q_ex_st, q_heat=q_heat,
        q_g_gt=q_g_gt, q_g_sb=q_g_sb, prr=prr, er=er, near_threshold=near,
    )


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def verify_balance(d: ChpDispatch, cfg: PlantConfig = DEFAULT_PLANT) -> np.ndarray:
    """Relative residuals of the ten balance equations (see module docstring).

    Entry i corresponds to equation i+1; BALANCE_LABELS names them. The
    denominator is floored at 1 MW so near-zero flows stay well defined.
    """
    x_gt = d.p_e_gt / cfg.cap_gt
    x_st = d.p_e_st_total / (cfg.cap_st + cfg.cap_peak)
    x_sb = min(d.q_s_sb / cfg.cap_sb, 1.0)

    recoverable = cfg.eta_hrsg(x_gt) * d.q_heat
    r = np.array([
        _relative(d.p_e_gt + d.p_e_st_main + d.p_e_peak, d.p_e_c),
        _relative(d.q_ex_st + d.prr * d.q_s_sb, d.q_s_c),
        _relative(d.q_s_sb, d.prr * d.q_s_sb + d.q_sb_st),
        _relative(d.q_s_st, d.q_s_hrsg + d.q_sb_st),
        _relative(d.p_e_gt, d.q_g_gt * cfg.eta_gt(x_gt)),
        _relative(d.q_heat, d.q_g_gt - d.p_e_gt),
        _relative(d.q_s_hrsg, min(recoverable, d.q_s_st)),
        _relative(d.q_s_sb, d.q_g_sb * cfg.eta_sb(x_sb)),
        _relative(d.q_ex_st, d.q_s_st * d.er),
        _relative(d.p_e_st_total, d.q_s_st * cfg.eta_st(x_st)),
    ])
    return r


@dataclass(frozen=True)
class FuelSavings:
    """Fuel comparison of two generation profiles under the two-path split.

    Below the threshold, electricity is charged at the combined-cycle
    efficiency; above it, at the peaking-path efficiency. saved_mwh sums
    fuel(baseline) - fuel(optimized) over every hour; percent relates that
    total to the baseline fuel spent in hours where the baseline exceeded
    the threshold (the peak-shaving window), and percent_of_total relates
    it to all baseline fuel.

    Unpacks as (saved_mwh, percent).
    """

    saved_mwh: float
    percent: float
    percent_of_total: float
    fuel_baseline: np.ndarray
    fuel_optimized: np.ndarray
    per_hour_percent: np.ndarray

    def __iter__(self):
        return iter((self.saved_mwh, self.percent))


def fuel_for_generation(p: np.ndarray, cfg: PlantConfig = DEFAULT_PLANT) -> np.ndarray:
    """Hourly fuel heat input for a generation profile, MW."""
    p = np.asarray(p, dtype=float)
    return (np.minimum(p, cfg.threshold) / cfg.eta_cc
            + np.maximum(p - cfg.threshold, 0.0) / cfg.eta_peak)


def fuel_savings(baseline, optimized,
                 cfg: PlantConfig = DEFAULT_PLANT) -> FuelSavings:
    """Fuel saved by the optimized profile relative to the baseline."""
    base = np.asarray(baseline, dtype=float)
    opt = np.asarray(optimized, dtype=float)
    if base.shape != opt.shape or base.ndim != 1:
        raise ShapeError(
            f"profiles must be equal-length 1-D series, got {base.shape} and {opt.shape}")
    if np.any(base < 0.0) or np.any(opt < 0.0):
        raise ValueError("generation profiles must be nonnegative")

    fuel_base = fuel_for_generation(base, cfg)
    fuel_opt = fuel_for_generation(opt, cfg)
    saved = float(np.sum(fuel_base - fuel_opt))

    above = base > cfg.threshold
    denom_above = float(np.sum(fuel_base[above]))
    denom_total = float(np.sum(fuel_base))
    percent = 100.0 * saved / denom_above if denom_above > 0.0 else 0.0
    percent_total = 100.0 * saved / denom_total if denom_total > 0.0 else 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        per_hour = np.where(fuel_base > 0.0,
                            100.0 * (fuel_base - fuel_opt) / fuel_base, 0.0)

    return FuelSavings(
        saved_mwh=saved,
        percent=percent,
        percent_of_total=percent_total,
        fuel_baseline=fuel_base,
        fuel_optimized=fuel_opt,
        per_hour_percent=per_hour,
    )
