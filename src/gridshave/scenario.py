"""Hourly scenarios: file I/O, synthetic generation and the no-storage baseline.

Scenario CSV schema (exact header):

    timestamp,p_base_mw,q_cool_mw,q_steam_mw,twb_c

Timestamps are ISO-8601, strictly hourly. Metadata (name, source, seed)
round-trips through leading `# key: value` comment lines. Floats are written
with repr so load(write(s)) == s exactly.

Synthetic days take their levels and amplitudes from SynthParams and their
shape from the module constants BELL, TWB_PEAK_HOUR, STEAM_BASE_MW,
STEAM_AMP_MW and DAY_SCALE; their noise is numpy's `default_rng(seed).normal`
stream, drawn bit for bit by the standard-library `_pcg64` module that
`generate_synthetic` imports, so this module loads no numpy. Hourly series are `array('d')`.
"""

from __future__ import annotations

import math
import operator
import os
from array import array
from datetime import datetime, time, timedelta

from .configio import Record, check_fields, ranged
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


class Scenario(Record, frozen=False):
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
    """Cut a scenario into midnight-to-midnight days of 24 hours; its first
    hour must start at 00:00."""
    n = len(scenario)
    if n % HOURS_PER_DAY != 0:
        raise ShapeError(
            f"scenario length {n} is not a multiple of {HOURS_PER_DAY} hours")
    if n and scenario.timestamps[0].time() != time():
        raise ShapeError(f"scenario starts at {scenario.timestamps[0].isoformat()}, not at 00:00")
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

#: The bell exp(-0.5 * ((h - PEAK_HOUR) / PEAK_WIDTH_H) ** 2) at hours 0-23,
#: as numpy's vectorized `np.exp` gave it when the default `synth` CSV was
#: pinned. It differs from `math.exp` by one ulp at hours 7, 13, 17 and 23,
#: and np.exp itself can differ between CPUs, so the values are literals.
BELL = (
    1.6931612436129992e-05, 6.97695771959971e-05, 0.0002607487846688268, 0.00088382630693505,
    0.0027170647293235837, 0.0075756774442599355, 0.019157171837129137, 0.04393693362340741,
    0.09139375535604724, 0.17242162389375282, 0.29502265617444284, 0.45783336177161427,
    0.6443887248251953, 0.8225775623986645, 0.9523447998951764, 1.0,
    0.9523447998951764, 0.8225775623986645, 0.6443887248251953, 0.45783336177161427,
    0.29502265617444284, 0.17242162389375282, 0.09139375535604724, 0.04393693362340741,
)


class SynthParams(Record):
    """Levels and amplitudes of synthetic summer days. The hours and width of
    their peaks, the steam load and the day-to-day scaling are the module
    constants PEAK_HOUR, PEAK_WIDTH_H, TWB_PEAK_HOUR, STEAM_BASE_MW,
    STEAM_AMP_MW and DAY_SCALE.

    The defaults are tuned so that with the default plant, COP model and
    storage configs the no-storage generation peaks in the mid-60s MW on the
    hottest day, with a mild overnight valley. Each `float` and `int` field
    is checked by `configio.check_fields`: a nan or infinite value, a
    fractional `days`, `days` below 1 and a negative `base_level_mw` or
    `noise_mw` raise SynthesisError naming the field, and so does a `start`
    not at 00:00, as the peaks sit at their hours of each day's rows.
    """

    days: int = ranged(3, "[1, inf)")
    start: datetime = datetime(2023, 6, 12)
    base_level_mw: float = ranged(27.0, "[0, inf)")
    base_peak_amp_mw: float = 8.5
    cool_base_mw: float = 66.0
    cool_peak_amp_mw: float = 71.0
    twb_base_c: float = 21.0
    twb_amp_c: float = 4.0
    noise_mw: float = ranged(0.5, "[0, inf)")

    def __post_init__(self):
        check_fields(self, SynthesisError)
        if self.start.time() != time():
            raise SynthesisError(f"start must be at 00:00, got {self.start.isoformat()}")


def generate_synthetic(params: SynthParams = SynthParams(), seed: int = 1) -> Scenario:
    """Deterministic synthetic scenario with afternoon-peaked cooling.

    The hourly noise is `numpy.random.default_rng(seed).normal`'s stream,
    reproduced bit for bit without numpy; `seed` is any integer, numpy's
    included. A negative seed raises SynthesisError, and so do parameters
    whose no-storage generation under the default plant, COP model and
    storage would exceed the plant's total capacity or the chiller capacity
    at any hour.
    """
    # imported here, so that commands drawing no noise do not load its tables
    from ._pcg64 import Pcg64

    seed = operator.index(seed)
    if seed < 0:
        raise SynthesisError(f"seed must be a non-negative integer, got {seed}")
    rng = Pcg64(seed)
    hours = [float(h) for h in range(HOURS_PER_DAY)]
    twb_wave = [math.cos(2.0 * math.pi * (h - TWB_PEAK_HOUR) / 24.0) for h in hours]
    steam = [STEAM_BASE_MW + STEAM_AMP_MW * math.cos(2.0 * math.pi * (h - 7.0) / 24.0)
             for h in hours]
    twb_min, twb_max = DEFAULT_COP_MODEL.twb_min, DEFAULT_COP_MODEL.twb_max

    p_base, q_cool, twb = [], [], []
    for day in range(params.days):
        scale = DAY_SCALE[day % len(DAY_SCALE)]
        p_amp, q_amp = scale * params.base_peak_amp_mw, scale * params.cool_peak_amp_mw
        twb_amp = scale * params.twb_amp_c
        p_day = [params.base_level_mw + p_amp * b for b in BELL]
        q_day = [params.cool_base_mw + q_amp * b for b in BELL]
        if params.noise_mw > 0.0:
            p_noise = rng.normal(params.noise_mw, HOURS_PER_DAY)
            q_noise = rng.normal(2.0 * params.noise_mw, HOURS_PER_DAY)
            p_day = [p + n for p, n in zip(p_day, p_noise)]
            q_day = [q + n for q, n in zip(q_day, q_noise)]
        p_base += [max(p, 0.0) for p in p_day]
        q_cool += [max(q, 0.0) for q in q_day]
        twb += [min(max(params.twb_base_c + twb_amp * w, twb_min), twb_max) for w in twb_wave]

    timestamps = [params.start + timedelta(hours=i)
                  for i in range(params.days * HOURS_PER_DAY)]
    scenario = Scenario(
        timestamps=timestamps,
        p_base=p_base,
        q_cool=q_cool,
        q_s_c=steam * params.days,
        twb=twb,
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
