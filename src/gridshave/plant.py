"""CHP plant: the combined-cycle threshold and two-path fuel accounting.

One gas turbine (cap_gt) and one main steam turbine (cap_st) form the
combined cycle; campus generation above their sum, the threshold, must come
from the small peaking steam turbine (cap_peak), whose steam is raised in the
boiler. Fuel is charged on two paths: generation up to the threshold at the
lumped combined-cycle efficiency eta_cc, generation above it at the lumped
peaking-path efficiency eta_peak. Every run's peak, peaking-hour and fuel
figures come from this model.
"""

from __future__ import annotations

from array import array
from operator import sub

from .configio import ConfigFile, Record, ranged
from .errors import ShapeError


class PlantConfig(ConfigFile):
    """Capacities, threshold and lumped electric efficiencies of the CHP plant.

    peaking_margin_mw sets the band below the threshold that the report
    counts as near-threshold hours. `load` ignores the keys of older plant
    files, such as the component efficiencies of a retired heat balance.
    """

    cap_gt: float = ranged(32.0, "(0, inf)")
    cap_st: float = ranged(25.0, "(0, inf)")
    cap_peak: float = ranged(8.0, "(0, inf)")
    threshold: float = 57.0
    eta_cc: float = ranged(0.40, "(0, 1]")
    eta_peak: float = ranged(0.20, "(0, 1]")
    peaking_margin_mw: float = ranged(1.0, "[0, inf)")

    def __post_init__(self):
        super().__post_init__()
        if abs(self.threshold - (self.cap_gt + self.cap_st)) > 1e-9:
            raise ValueError(
                f"threshold {self.threshold} must equal cap_gt + cap_st "
                f"= {self.cap_gt + self.cap_st}")

    @property
    def cap_total(self) -> float:
        return self.threshold + self.cap_peak


DEFAULT_PLANT = PlantConfig()


class FuelSavings(Record):
    """Fuel comparison of two generation profiles under the two-path split.

    Below the threshold, electricity is charged at the combined-cycle
    efficiency; above it, at the peaking-path efficiency. saved_mwh sums
    fuel(baseline) - fuel(optimized) over every hour; percent relates that
    total to the baseline fuel spent in hours where the baseline exceeded
    the threshold (the peak-shaving window), and percent_of_total relates
    it to all baseline fuel.
    """

    saved_mwh: float
    percent: float
    percent_of_total: float


def fuel_for_generation(p, cfg: PlantConfig = DEFAULT_PLANT) -> array:
    """Hourly fuel heat input for a generation profile, MW."""
    return array("d", [min(g, cfg.threshold) / cfg.eta_cc
                       + max(g - cfg.threshold, 0.0) / cfg.eta_peak for g in p])


def fuel_savings(baseline, optimized,
                 cfg: PlantConfig = DEFAULT_PLANT) -> FuelSavings:
    """Fuel saved by the optimized profile relative to the baseline."""
    base, opt = array("d", baseline), array("d", optimized)
    if len(base) != len(opt):
        raise ShapeError(
            f"profiles must be equal-length series, got {len(base)} and {len(opt)} hours")
    if any(g < 0.0 for g in base) or any(g < 0.0 for g in opt):
        raise ValueError("generation profiles must be nonnegative")

    fuel_base = fuel_for_generation(base, cfg)
    fuel_opt = fuel_for_generation(opt, cfg)
    saved = sum(map(sub, fuel_base, fuel_opt))

    denom_above = sum(f for f, g in zip(fuel_base, base) if g > cfg.threshold)
    denom_total = sum(fuel_base)
    percent = 100.0 * saved / denom_above if denom_above > 0.0 else 0.0
    percent_total = 100.0 * saved / denom_total if denom_total > 0.0 else 0.0

    return FuelSavings(saved_mwh=saved, percent=percent, percent_of_total=percent_total)
