"""Hourly scenarios: file I/O, synthetic generation and the no-storage baseline.

Scenario CSV schema (exact header):

    timestamp,p_base_mw,q_cool_mw,q_steam_mw,twb_c

Timestamps are ISO-8601, strictly hourly. Metadata (name, source, seed)
round-trips through leading `# key: value` comment lines. Floats are written
with repr so load(write(s)) == s exactly.

Synthetic days take their levels and amplitudes from SynthParams and their
shape from the module constants PEAK_HOUR, PEAK_WIDTH_H, TWB_PEAK_HOUR,
STEAM_BASE_MW, STEAM_AMP_MW and DAY_SCALE; their noise is drawn from numpy's
PCG64 stream, so `generate_synthetic` is the one function here that loads
numpy. Hourly series are `array('d')`.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta

from .cooling import DEFAULT_COP_MODEL, DEFAULT_TES, CopModel, TesConfig, chiller_power
from .errors import (
    ChillerCapacityError,
    DegenerateCopError,
    GridShaveError,
    InfeasibleDemandError,
    ScenarioParseError,
    ShapeError,
    SynthesisError,
)
from .plant import DEFAULT_PLANT, PlantConfig
from .tableio import read_table, write_table

SCENARIO_HEADER = "timestamp,p_base_mw,q_cool_mw,q_steam_mw,twb_c"

HOURS_PER_DAY = 24


@dataclass
class Scenario:
    """Exogenous hourly inputs for a simulation horizon; the series are
    stored as `array('d')` copies of the given ones."""

    timestamps: list[datetime]
    p_base: array
    q_cool: array
    q_s_c: array
    twb: array
    name: str = "scenario"
    source: str = "file"
    seed: int | None = None

    def __post_init__(self):
        n = len(self.timestamps)
        for attr in ("p_base", "q_cool", "q_s_c", "twb"):
            setattr(self, attr, array("d", getattr(self, attr)))
            if len(getattr(self, attr)) != n:
                raise ShapeError(f"{attr} length differs from timestamps ({n})")

    def __len__(self):
        return len(self.timestamps)

    def slice_hours(self, start: int, stop: int) -> "Scenario":
        return Scenario(
            timestamps=self.timestamps[start:stop],
            p_base=self.p_base[start:stop],
            q_cool=self.q_cool[start:stop],
            q_s_c=self.q_s_c[start:stop],
            twb=self.twb[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            source=self.source,
            seed=self.seed,
        )


def split_days(scenario: Scenario) -> list[Scenario]:
    """Cut a scenario into midnight-to-midnight days of 24 hours."""
    n = len(scenario)
    if n % HOURS_PER_DAY != 0:
        raise ShapeError(
            f"scenario length {n} is not a multiple of {HOURS_PER_DAY} hours")
    return [scenario.slice_hours(i, i + HOURS_PER_DAY)
            for i in range(0, n, HOURS_PER_DAY)]


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario CSV; errors carry the offending row."""
    table, meta = read_table(path, SCENARIO_HEADER, "scenario")
    timestamps = table["timestamp"]
    for i, ts in enumerate(timestamps):
        row_no = i + 1
        for column in ("p_base_mw", "q_cool_mw", "q_steam_mw"):
            value = table[column][i]
            if value < 0.0:
                raise ScenarioParseError(
                    f"{path}: row {row_no}: {column} = {value} is negative", row=row_no)
        if i:
            gap = (ts - timestamps[i - 1]).total_seconds()
            if gap <= 0:
                raise ScenarioParseError(
                    f"{path}: row {row_no}: timestamps not strictly increasing",
                    row=row_no)
            if gap != 3600.0:
                raise ScenarioParseError(
                    f"{path}: row {row_no}: non-hourly gap of {gap:.0f} s", row=row_no)

    seed = meta.get("seed", "none")
    return Scenario(
        timestamps=timestamps,
        p_base=table["p_base_mw"],
        q_cool=table["q_cool_mw"],
        q_s_c=table["q_steam_mw"],
        twb=table["twb_c"],
        name=meta.get("name", os.path.splitext(os.path.basename(path))[0]),
        source=meta.get("source", "file"),
        seed=None if seed == "none" else int(seed),
    )


def write_scenario(scenario: Scenario, path: str) -> None:
    write_table(path, SCENARIO_HEADER,
                [scenario.p_base, scenario.q_cool, scenario.q_s_c, scenario.twb],
                scenario.timestamps,
                meta={"name": scenario.name, "source": scenario.source,
                      "seed": "none" if scenario.seed is None else scenario.seed})


#: The fixed shape of every synthetic day. Electric and cooling load peak on
#: a Gaussian bell centred at PEAK_HOUR, PEAK_WIDTH_H hours wide; the wet bulb
#: follows a cosine peaking at TWB_PEAK_HOUR and the steam load (MW) a cosine
#: peaking at 07:00. Day k's peak amplitudes are scaled by DAY_SCALE[k % 3].
PEAK_HOUR, PEAK_WIDTH_H, TWB_PEAK_HOUR = 15.0, 3.2, 16.0
STEAM_BASE_MW, STEAM_AMP_MW = 9.0, 3.0
DAY_SCALE = (1.0, 0.93, 0.86)


@dataclass(frozen=True)
class SynthParams:
    """Levels and amplitudes of synthetic summer days. The hours and width of
    their peaks, the steam load and the day-to-day scaling are the module
    constants PEAK_HOUR, PEAK_WIDTH_H, TWB_PEAK_HOUR, STEAM_BASE_MW,
    STEAM_AMP_MW and DAY_SCALE.

    The defaults are tuned so that with the default plant, COP model and
    storage configs the no-storage generation peaks in the mid-60s MW on the
    hottest day, with a mild overnight valley. `days` below 1 and a nan or
    infinite float field, and a negative `base_level_mw` or `noise_mw`,
    raise SynthesisError naming the field.
    """

    days: int = 3
    start: datetime = field(default_factory=lambda: datetime(2023, 6, 12))
    base_level_mw: float = 27.0
    base_peak_amp_mw: float = 8.5
    cool_base_mw: float = 66.0
    cool_peak_amp_mw: float = 71.0
    twb_base_c: float = 21.0
    twb_amp_c: float = 4.0
    noise_mw: float = 0.5

    def __post_init__(self):
        if self.days < 1:
            raise SynthesisError(f"days must be at least 1, got {self.days}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise SynthesisError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("base_level_mw", "noise_mw"):
            if getattr(self, name) < 0.0:
                raise SynthesisError(f"{name} must be non-negative, got {getattr(self, name)}")


def generate_synthetic(params: SynthParams = SynthParams(), seed: int = 1) -> Scenario:
    """Deterministic synthetic scenario with afternoon-peaked cooling.

    Raises SynthesisError when the implied no-storage generation under the
    default plant, COP model and storage would exceed the plant's total
    capacity or the chiller capacity at any hour. It loads numpy for the
    seeded PCG64 normal stream.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    hours = np.arange(HOURS_PER_DAY, dtype=float)
    bell = np.exp(-0.5 * ((hours - PEAK_HOUR) / PEAK_WIDTH_H) ** 2)
    twb_wave = np.cos(2.0 * math.pi * (hours - TWB_PEAK_HOUR) / 24.0)
    steam = STEAM_BASE_MW + STEAM_AMP_MW * np.cos(2.0 * math.pi * (hours - 7.0) / 24.0)

    p_base_parts = []
    q_cool_parts = []
    twb_parts = []
    for day in range(params.days):
        scale = DAY_SCALE[day % len(DAY_SCALE)]
        p_base = params.base_level_mw + scale * params.base_peak_amp_mw * bell
        q_cool = params.cool_base_mw + scale * params.cool_peak_amp_mw * bell
        twb = params.twb_base_c + scale * params.twb_amp_c * twb_wave
        if params.noise_mw > 0.0:
            p_base = p_base + rng.normal(0.0, params.noise_mw, HOURS_PER_DAY)
            q_cool = q_cool + rng.normal(0.0, 2.0 * params.noise_mw, HOURS_PER_DAY)
        p_base_parts.append(np.maximum(p_base, 0.0))
        q_cool_parts.append(np.maximum(q_cool, 0.0))
        twb_parts.append(np.clip(twb, DEFAULT_COP_MODEL.twb_min, DEFAULT_COP_MODEL.twb_max))

    timestamps = [params.start + timedelta(hours=i)
                  for i in range(params.days * HOURS_PER_DAY)]
    scenario = Scenario(
        timestamps=timestamps,
        p_base=np.concatenate(p_base_parts).tolist(),
        q_cool=np.concatenate(q_cool_parts).tolist(),
        q_s_c=np.tile(steam, params.days).tolist(),
        twb=np.concatenate(twb_parts).tolist(),
        name=f"synthetic-{seed}",
        source="synthetic",
        seed=seed,
    )

    try:
        g = no_storage_baseline(scenario)
    except (ChillerCapacityError, DegenerateCopError, InfeasibleDemandError) as exc:
        raise SynthesisError(f"synthetic parameters are infeasible: {exc}") from exc
    if max(g) > DEFAULT_PLANT.cap_total:
        raise SynthesisError(
            f"synthetic parameters imply a no-storage peak of {max(g):.1f} MW, "
            f"above total plant capacity {DEFAULT_PLANT.cap_total} MW")
    return scenario


def no_storage_baseline(scenario: Scenario,
                        cop_model: CopModel = DEFAULT_COP_MODEL,
                        plant: PlantConfig = DEFAULT_PLANT,
                        tes: TesConfig = DEFAULT_TES) -> array:
    """Generation profile with the tank idle: G(t) = p_base + chiller_power(q_cool, twb).

    The first hour at fault raises: the error `chiller_power` gives for it,
    or InfeasibleDemandError when generation exceeds the total capacity.
    """
    q, twb = scenario.q_cool, scenario.twb
    chiller_fault = None
    try:
        p_ch = chiller_power(q, twb, cop_model, tes)
    except GridShaveError as exc:
        # the hours before the chiller fault may exceed the capacity first
        chiller_fault, t = exc, exc.hour
        p_ch = chiller_power(q[:t], twb[:t], cop_model, tes)
    g = array("d")
    for t, (p, c) in enumerate(zip(scenario.p_base, p_ch)):
        g.append(p + c)
        if g[t] > plant.cap_total + 1e-9:
            raise InfeasibleDemandError(
                f"hour {t}: no-storage generation {g[t]:.2f} MW exceeds total "
                f"capacity {plant.cap_total} MW")
    if chiller_fault is not None:
        raise chiller_fault
    return g
