from datetime import datetime, timedelta

import numpy as np
import pytest

from gridshave.errors import ShapeError
from gridshave.plant import PlantConfig, fuel_for_generation, fuel_savings
from gridshave.report import REPORT_COLUMNS, RunReport


# ---------------------------------------------------------------------------
# defaults

def test_default_plant_capacities(plant):
    assert (plant.cap_gt, plant.cap_st, plant.cap_peak) == (32.0, 25.0, 8.0)
    assert plant.threshold == 57.0
    assert plant.cap_total == 65.0
    assert (plant.eta_cc, plant.eta_peak) == (0.40, 0.20)
    assert plant.peaking_margin_mw == 1.0


# ---------------------------------------------------------------------------
# peaking rule: generation above the threshold goes on the peaking path

def test_peaking_zero_at_threshold(plant):
    assert fuel_for_generation([57.0], plant)[0] == pytest.approx(57.0 / plant.eta_cc)


def test_peaking_above_threshold(plant):
    assert fuel_for_generation([62.0], plant)[0] == pytest.approx(
        57.0 / plant.eta_cc + 5.0 / plant.eta_peak)


def test_peaking_zero_load(plant):
    assert fuel_for_generation([0.0], plant)[0] == 0.0


def test_near_threshold_flag(plant):
    # the report counts optimized hours in [threshold - peaking_margin_mw, threshold]
    optimized = np.array([56.5, 57.0, 55.9, 57.1])
    hours = [datetime(2023, 6, 12) + timedelta(hours=i) for i in range(4)]
    table = {name: np.zeros(4) for name in REPORT_COLUMNS}
    table.update(no_storage_mw=optimized, baseline_mw=optimized, optimized_mw=optimized)
    report = RunReport(hours, table, plant, [])
    assert report.metrics["near_threshold_hours"] == 2


# ---------------------------------------------------------------------------
# fuel savings

def test_fuel_savings_single_hour_shave_61_to_58(plant):
    fs = fuel_savings([61.0], [58.0], plant)
    # fuel(61) = 57/0.4 + 4/0.2 = 162.5, fuel(58) = 147.5
    assert fs.saved_mwh == pytest.approx(15.0, abs=1e-9)
    assert fs.percent == pytest.approx(100.0 * 15.0 / 162.5, abs=1e-9)
    assert fs.percent == pytest.approx(9.2, abs=0.5)


def test_fuel_savings_single_hour_shave_64_to_59(plant):
    fs = fuel_savings([64.0], [59.0], plant)
    assert fs.percent == pytest.approx(100.0 * 25.0 / 177.5, abs=1e-9)
    assert fs.percent == pytest.approx(14.1, abs=0.5)


def test_fuel_savings_identical_profiles(plant):
    fs = fuel_savings([50.0, 60.0], [50.0, 60.0], plant)
    assert fs.saved_mwh == 0.0
    assert fs.percent == 0.0


def test_fuel_savings_energy_term_antisymmetric(plant):
    rng = np.random.default_rng(3)
    a = rng.uniform(40.0, 64.0, 24)
    b = rng.uniform(40.0, 64.0, 24)
    assert fuel_savings(a, b, plant).saved_mwh == pytest.approx(
        -fuel_savings(b, a, plant).saved_mwh, rel=1e-12)


def test_fuel_savings_shape_error(plant):
    with pytest.raises(ShapeError):
        fuel_savings([60.0, 61.0], [60.0], plant)


# ---------------------------------------------------------------------------
# config plumbing

def test_plant_config_round_trip(tmp_path):
    cfg = PlantConfig(cap_gt=30.0, threshold=55.0, eta_cc=0.42, eta_peak=0.25,
                      peaking_margin_mw=0.5)
    path = tmp_path / "plant.cfg"
    cfg.save(str(path))
    assert PlantConfig.load(str(path)) == cfg


#: A plant.cfg in the older format, with the component efficiency curves of
#: the retired heat and mass balance, constant and affine.
OLD_FORMAT_PLANT_CFG = """\
# saved by an older gridshave
cap_gt = 32.0
cap_st = 25.0
cap_peak = 8.0
threshold = 57.0
eta_gt = 0.32,0.03
eta_hrsg = 0.8
eta_sb = 0.85
eta_st = 0.28,0.02
eta_cc = 0.4
eta_peak = 0.25
peaking_margin_mw = 1.0
"""


def test_plant_config_loads_older_format(tmp_path):
    path = tmp_path / "plant.cfg"
    path.write_text(OLD_FORMAT_PLANT_CFG)
    assert PlantConfig.load(str(path)) == PlantConfig(eta_peak=0.25)
    # a retired key is ignored whatever it holds
    path.write_text(OLD_FORMAT_PLANT_CFG.replace("eta_hrsg = 0.8", "eta_hrsg = a,b"))
    assert PlantConfig.load(str(path)) == PlantConfig(eta_peak=0.25)


def test_plant_config_validation():
    with pytest.raises(ValueError):
        PlantConfig(threshold=60.0)
    with pytest.raises(ValueError):
        PlantConfig(eta_cc=0.0)
    with pytest.raises(ValueError):
        PlantConfig(eta_peak=1.2)
    with pytest.raises(ValueError):
        PlantConfig(cap_peak=0.0)
    with pytest.raises(ValueError):
        PlantConfig(peaking_margin_mw=-0.1)
