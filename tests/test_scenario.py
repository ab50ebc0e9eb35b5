import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshave import configio
from gridshave.cooling import DEFAULT_COP_MODEL, DEFAULT_TES, chiller_power
from gridshave.errors import (
    ChillerCapacityError,
    CopDomainError,
    DegenerateCopError,
    InfeasibleDemandError,
    InfeasibleDischargeError,
    ScenarioParseError,
    ShapeError,
    SynthesisError,
)
from gridshave.regression import SAMPLES_HEADER, load_samples
from gridshave.report import REPORT_HEADER, SCHEDULE_HEADER, load_report_table, load_schedule_csv
from gridshave.plant import DEFAULT_PLANT
from gridshave.run import build_problems, evaluate_fixed_schedule
from gridshave.scenario import (
    BELL,
    DAY_SCALE,
    HOURS_PER_DAY,
    PEAK_HOUR,
    PEAK_WIDTH_H,
    SCENARIO_HEADER,
    STEAM_AMP_MW,
    STEAM_BASE_MW,
    TWB_PEAK_HOUR,
    Scenario,
    SynthParams,
    generate_synthetic,
    load_scenario,
    no_storage_baseline,
    split_days,
    write_scenario,
)


def _toy_scenario(hours=72, start=datetime(2023, 9, 10)):
    rng = np.random.default_rng(4)
    ts = [start + timedelta(hours=i) for i in range(hours)]
    return Scenario(
        timestamps=ts,
        p_base=rng.uniform(25.0, 35.0, hours),
        q_cool=rng.uniform(60.0, 120.0, hours),
        q_s_c=rng.uniform(5.0, 15.0, hours),
        twb=rng.uniform(18.0, 26.0, hours),
        name="toy", source="synthetic", seed=4)


# ---------------------------------------------------------------------------
# file round trip and validation

def test_round_trip_exact(tmp_path):
    scenario = _toy_scenario()
    path = tmp_path / "scenario.csv"
    write_scenario(scenario, str(path))
    loaded = load_scenario(str(path))
    assert loaded == scenario


def test_load_valid_72_rows(tmp_path):
    path = tmp_path / "scenario.csv"
    write_scenario(_toy_scenario(72), str(path))
    assert len(load_scenario(str(path))) == 72


def test_load_negative_cooling_cites_row(tmp_path):
    scenario = _toy_scenario(24)
    lines = []
    write_scenario(scenario, str(tmp_path / "ok.csv"))
    with open(tmp_path / "ok.csv") as fh:
        lines = fh.readlines()
    # row 10 of the data (3 comment lines + header + 9 rows before it)
    cells = lines[13].split(",")
    cells[2] = "-5.0"
    lines[13] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    with pytest.raises(ScenarioParseError) as exc_info:
        load_scenario(str(bad))
    assert exc_info.value.row == 10
    assert "row 10" in str(exc_info.value)


def test_load_duplicate_timestamp(tmp_path):
    scenario = _toy_scenario(24)
    scenario.timestamps[5] = scenario.timestamps[4]
    path = tmp_path / "dup.csv"
    write_scenario(scenario, str(path))
    with pytest.raises(ScenarioParseError) as exc_info:
        load_scenario(str(path))
    assert "strictly increasing" in str(exc_info.value)


def test_load_non_hourly_gap(tmp_path):
    scenario = _toy_scenario(24)
    scenario.timestamps[5] = scenario.timestamps[4] + timedelta(minutes=90)
    path = tmp_path / "gap.csv"
    write_scenario(scenario, str(path))
    with pytest.raises(ScenarioParseError) as exc_info:
        load_scenario(str(path))
    assert "non-hourly" in str(exc_info.value)


def test_load_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,p,q,s,t\n2023-09-10T00:00:00,1,2,3,4\n")
    with pytest.raises(ScenarioParseError):
        load_scenario(str(path))


def test_load_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,p_base_mw,q_cool_mw,q_steam_mw,twb_c\n"
                    "2023-09-10T00:00:00,30,80,10,20\n"
                    "2023-09-10T01:00:00,30,eighty,10,20\n")
    with pytest.raises(ScenarioParseError) as exc_info:
        load_scenario(str(path))
    assert exc_info.value.row == 2


#: column -> (header, loader) of the table whose cell is made non-finite
_NON_FINITE_TABLES = {
    **{c: (SCENARIO_HEADER, load_scenario)
       for c in ("p_base_mw", "q_cool_mw", "q_steam_mw", "twb_c")},
    "q_stor_mw": (SCHEDULE_HEADER, lambda path: load_schedule_csv(
        path, [datetime(2023, 9, 10, hour) for hour in (0, 1)])),
    "baseline_mw": (REPORT_HEADER, load_report_table),
    "cop": (SAMPLES_HEADER, load_samples),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", list(_NON_FINITE_TABLES))
def test_load_non_finite_cell_cites_row(tmp_path, column, value):
    header, load = _NON_FINITE_TABLES[column]

    def row(hour, bad):
        return ",".join(f"2023-09-10T{hour:02d}:00:00" if name == "timestamp"
                        else value if bad and name == column else "1"
                        for name in header.split(","))

    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header, row(0, False), row(1, True)]) + "\n")
    with pytest.raises(ScenarioParseError, match=f"row 2: {column} = {value} is not finite") \
            as exc_info:
        load(str(path))
    assert exc_info.value.row == 2


def test_load_missing_file():
    with pytest.raises(ScenarioParseError):
        load_scenario("/nonexistent/file.csv")


# ---------------------------------------------------------------------------
# synthetic generation

def test_synthetic_deterministic_per_seed():
    assert generate_synthetic(seed=1) == generate_synthetic(seed=1)


def test_synthetic_seeds_differ():
    assert generate_synthetic(seed=1) != generate_synthetic(seed=2)


def test_synthetic_default_no_storage_peak_in_band(synth_scenario):
    g = no_storage_baseline(synth_scenario)
    assert 63.0 <= float(np.max(g)) <= 68.0


def test_synthetic_zero_amplitude_is_flat():
    params = SynthParams(days=1, base_peak_amp_mw=0.0, cool_peak_amp_mw=0.0,
                         twb_amp_c=0.0, noise_mw=0.0)
    scenario = generate_synthetic(params, seed=1)
    assert np.ptp(scenario.p_base) == 0.0
    assert np.ptp(scenario.q_cool) == 0.0
    assert np.ptp(scenario.twb) == 0.0


def test_synthetic_infeasible_params_rejected():
    with pytest.raises(SynthesisError):
        generate_synthetic(SynthParams(days=1, cool_peak_amp_mw=120.0), seed=1)


def test_synthetic_capacity_overrun_is_synthesis_error():
    with pytest.raises(SynthesisError, match="hour 15: no-storage generation"):
        generate_synthetic(SynthParams(days=3), seed=4)


@pytest.mark.parametrize("days", [0, -2])
def test_synthetic_rejects_non_positive_days(days):
    with pytest.raises(SynthesisError, match=f"days must be in \\[1, inf\\), got {days}"):
        generate_synthetic(SynthParams(days=days), seed=1)


_SYNTH_FLOAT_FIELDS = [f.name for f in configio.fields(SynthParams) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _SYNTH_FLOAT_FIELDS)
def test_synth_params_reject_non_finite_field(name, value):
    with pytest.raises(SynthesisError, match=f"^{name} must be finite, got {value}$"):
        SynthParams(days=1, **{name: value})


@pytest.mark.parametrize("name", ["base_level_mw", "noise_mw"])
def test_synth_params_reject_negative_level(name):
    with pytest.raises(SynthesisError, match=f"^{name} must be in \\[0, inf\\), got -5.0$"):
        SynthParams(days=1, **{name: -5.0})


@pytest.mark.parametrize("start", [datetime(2023, 6, 12, 6), datetime(2023, 6, 12, 0, 0, 1)])
def test_synth_params_reject_start_not_at_midnight(start):
    # the bells are placed by row, so a later start would shift the peaks
    with pytest.raises(SynthesisError, match=f"^start must be at 00:00, got {start.isoformat()}$"):
        SynthParams(days=1, start=start)


def test_synthetic_embeds_seed(synth_scenario):
    assert synth_scenario.seed == 1
    assert synth_scenario.source == "synthetic"


def test_synthetic_afternoon_peak_overnight_valley(synth_scenario):
    day = split_days(synth_scenario)[0]
    peak_hour = int(np.argmax(day.q_cool))
    assert 12 <= peak_hour <= 18
    overnight = np.concatenate([day.q_cool[:5], day.q_cool[22:]])
    assert float(np.max(overnight)) < float(np.max(day.q_cool)) - 20.0
    assert 10.0 <= float(np.min(day.twb)) and float(np.max(day.twb)) <= 30.0


def _numpy_synthetic(params, seed):
    """generate_synthetic as it was written with numpy, the reference for the
    numpy-free one. Its bell was np.exp's, whose last bit varies with the
    CPU's exp kernel; the reference takes the pinned values from BELL."""
    rng = np.random.default_rng(seed)
    hours = np.arange(HOURS_PER_DAY, dtype=float)
    bell = np.array(BELL)
    twb_wave = np.cos(2.0 * math.pi * (hours - TWB_PEAK_HOUR) / 24.0)
    steam = STEAM_BASE_MW + STEAM_AMP_MW * np.cos(2.0 * math.pi * (hours - 7.0) / 24.0)
    p_base_parts, q_cool_parts, twb_parts = [], [], []
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
    scenario = Scenario(
        timestamps=[params.start + timedelta(hours=i)
                    for i in range(params.days * HOURS_PER_DAY)],
        p_base=np.concatenate(p_base_parts).tolist(),
        q_cool=np.concatenate(q_cool_parts).tolist(),
        q_s_c=np.tile(steam, params.days).tolist(),
        twb=np.concatenate(twb_parts).tolist(),
        name=f"synthetic-{seed}", source="synthetic", seed=seed)
    try:
        g = no_storage_baseline(scenario)
    except (ChillerCapacityError, DegenerateCopError, InfeasibleDemandError) as exc:
        raise SynthesisError(f"synthetic parameters are infeasible: {exc}") from exc
    if max(g) > DEFAULT_PLANT.cap_total:
        raise SynthesisError(
            f"synthetic parameters imply a no-storage peak of {max(g):.1f} MW, "
            f"above total plant capacity {DEFAULT_PLANT.cap_total} MW")
    return scenario


def _outcome(generate, params, seed):
    try:
        scenario = generate(params, seed)
    except SynthesisError as exc:
        return "SynthesisError", str(exc)
    return [list(map(float.hex, getattr(scenario, attr)))
            for attr in ("p_base", "q_cool", "q_s_c", "twb")], scenario.name, scenario.seed


#: the parameter ranges of acceptance criterion 5
_CRITERION5 = {
    "base_level_mw": (24.0, 29.0),
    "base_peak_amp_mw": (4.0, 9.0),
    "cool_base_mw": (55.0, 72.0),
    "cool_peak_amp_mw": (40.0, 70.0),
    "twb_base_c": (19.0, 23.0),
    "twb_amp_c": (2.0, 4.0),
    "noise_mw": (0.0, 0.8),
}


@settings(max_examples=120, deadline=None)
@given(data=st.data(), days=st.integers(1, 30),
       seed=st.one_of(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 80)))
def test_synthetic_matches_numpy_reference(data, days, seed):
    params = SynthParams(days=days, **{key: data.draw(st.floats(lo, hi), label=key)
                                       for key, (lo, hi) in _CRITERION5.items()})
    assert _outcome(generate_synthetic, params, seed) == _outcome(_numpy_synthetic, params, seed)


def test_synthetic_default_matches_numpy_reference():
    for days in (1, 3, 7):
        for seed in (0, 1, 2 ** 31 - 1, 2 ** 40 + 7, 2 ** 70 + 3):
            params = SynthParams(days=days)
            assert (_outcome(generate_synthetic, params, seed)
                    == _outcome(_numpy_synthetic, params, seed))


def test_synthetic_bell_is_the_gaussian_to_an_ulp():
    for h, b in enumerate(BELL):
        exact = math.exp(-0.5 * ((h - PEAK_HOUR) / PEAK_WIDTH_H) ** 2)
        assert abs(b - exact) <= math.ulp(exact), h


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.uint64(2 ** 64 - 1)])
def test_synthetic_numpy_integer_seed_is_the_same_stream(seed):
    scenario = generate_synthetic(SynthParams(days=1), seed=seed)
    assert scenario == generate_synthetic(SynthParams(days=1), seed=int(seed))
    assert type(scenario.seed) is int


@pytest.mark.parametrize("seed", [-1, -2 ** 64, np.int64(-3)])
def test_synthetic_rejects_negative_seed(seed):
    with pytest.raises(SynthesisError,
                       match=f"^seed must be a non-negative integer, got {int(seed)}$"):
        generate_synthetic(SynthParams(days=1), seed=seed)


# ---------------------------------------------------------------------------
# no-storage baseline

def test_no_storage_baseline_without_cooling():
    scenario = _toy_scenario(24)
    scenario.q_cool = np.zeros(24)
    scenario.twb = np.full(24, 20.0)
    g = no_storage_baseline(scenario)
    assert np.array_equal(g, scenario.p_base)


def test_no_storage_baseline_capacity_error_names_hour():
    scenario = _toy_scenario(24)
    scenario.q_cool[7] = 170.0
    with pytest.raises(ChillerCapacityError) as exc_info:
        no_storage_baseline(scenario)
    assert "hour 7" in str(exc_info.value)


def test_no_storage_baseline_demand_error_names_hour():
    scenario = _toy_scenario(24)
    scenario.p_base[3] = 60.0
    with pytest.raises(InfeasibleDemandError) as exc_info:
        no_storage_baseline(scenario)
    assert "hour 3" in str(exc_info.value)


def test_no_storage_baseline_wet_bulb_error_names_hour():
    scenario = _toy_scenario(24)
    scenario.twb[5] = 35.0
    with pytest.raises(CopDomainError) as exc_info:
        no_storage_baseline(scenario)
    assert str(exc_info.value).startswith("hour 5:")


def test_no_storage_baseline_reports_first_faulty_hour():
    scenario = _toy_scenario(24)
    scenario.p_base[3] = 60.0
    scenario.q_cool[9] = 170.0
    with pytest.raises(InfeasibleDemandError, match="^hour 3:"):
        no_storage_baseline(scenario)
    scenario.q_cool[2] = -1.0
    with pytest.raises(InfeasibleDischargeError, match="^hour 2:"):
        no_storage_baseline(scenario)


def test_no_storage_baseline_equals_per_hour_loop():
    scenario = _toy_scenario(72)
    loop = np.array([p + chiller_power(q, w) for p, q, w in
                     zip(scenario.p_base, scenario.q_cool, scenario.twb)])
    assert np.array_equal(no_storage_baseline(scenario), loop)


def test_no_storage_peak_above_heuristic_peak(first_day_problem):
    from gridshave.optimizer import generation_profile, operator_heuristic

    p = first_day_problem
    g0 = generation_profile(np.zeros(24), p)
    heur = operator_heuristic(p)
    gh = generation_profile(heur.q_stor, p)
    gap = float(np.max(g0) - np.max(gh))
    assert 2.0 <= gap <= 4.0


# ---------------------------------------------------------------------------
# day handling

def test_split_days(synth_scenario):
    days = split_days(synth_scenario)
    assert len(days) == 3
    assert all(len(d) == 24 for d in days)
    assert np.array_equal(np.concatenate([d.p_base for d in days]),
                          synth_scenario.p_base)


def test_split_days_rejects_partial_days():
    with pytest.raises(ShapeError):
        split_days(_toy_scenario(70))


@pytest.mark.parametrize("start", [datetime(2023, 6, 12, 6), datetime(2023, 6, 12, 0, 30)])
def test_split_days_rejects_a_first_hour_off_midnight(start):
    # days are cut every 24 rows, so an off-midnight start would move the
    # tank's return to e_terminal, and every phase of the heuristic, with it
    scenario = _toy_scenario(48, start=start)
    with pytest.raises(ShapeError, match=f"^scenario starts at {start.isoformat()}, "
                                         "not at 00:00$"):
        split_days(scenario)
    with pytest.raises(ShapeError, match="not at 00:00$"):
        build_problems(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    with pytest.raises(ShapeError, match="not at 00:00$"):
        evaluate_fixed_schedule(scenario, [0.0] * 48, DEFAULT_PLANT, DEFAULT_COP_MODEL,
                                DEFAULT_TES)
