import numpy as np
import pytest

from gridshave.cooling import (
    CopModel,
    StorageSchedule,
    TesConfig,
    check_schedule,
    chiller_power,
    cop,
    cop_values,
    required_chiller_output,
    storage_trajectory,
)
from gridshave.errors import (
    ChillerCapacityError,
    CopDomainError,
    DegenerateCopError,
    InfeasibleDischargeError,
)


# ---------------------------------------------------------------------------
# defaults

def test_default_cop_coefficients_exact():
    m = CopModel()
    assert m.coefficients() == (11.87, -8.84, -0.17, -6.89, 0.75, -0.01)
    assert (m.twb_min, m.twb_max, m.cop_floor) == (10.0, 30.0, 0.5)


def test_default_tes_values():
    t = TesConfig()
    assert t.e_max == t.e_initial == t.e_terminal == 175.6
    assert t.rate_max == 31.7
    assert t.q_ch_max == 156.5


# ---------------------------------------------------------------------------
# COP polynomial

def test_cop_constant_term_only():
    assert cop(0.0, 0.0, CopModel(twb_min=-5.0)) == pytest.approx(11.87, abs=1e-12)


def test_cop_midload_summer():
    # hand evaluation: 11.87 - 4.42 - 3.4 - 1.7225 + 7.5 - 4 = 5.8275
    assert cop(0.5, 20.0) == pytest.approx(5.8275, abs=1e-9)


def test_cop_full_load_hot():
    # 11.87 - 8.84 - 4.25 - 6.89 + 18.75 - 6.25 = 4.39
    assert cop(1.0, 25.0) == pytest.approx(4.39, abs=1e-9)


def test_cop_domain_errors():
    with pytest.raises(CopDomainError):
        cop(-0.1, 20.0)
    with pytest.raises(CopDomainError):
        cop(1.1, 20.0)
    with pytest.raises(CopDomainError):
        cop(0.5, 5.0)
    with pytest.raises(CopDomainError):
        cop(0.5, 35.0)


def test_cop_degenerate_below_floor():
    # at idle load and 27 C wet bulb the fitted surface dips to ~-0.01
    with pytest.raises(DegenerateCopError):
        cop(0.0, 27.0)


def test_cop_matches_independent_evaluation_on_grid():
    m = CopModel()
    plr = np.linspace(0.0, 1.0, 100)
    twb = np.linspace(10.0, 30.0, 100)
    pg, tg = np.meshgrid(plr, twb)
    ours = cop_values(pg, tg, m)
    # independent evaluation with different term grouping
    other = (m.c0 + (m.c1 + m.c3 * pg + m.c4 * tg) * pg + (m.c2 + m.c5 * tg) * tg)
    assert np.max(np.abs(ours - other)) <= 1e-12


# ---------------------------------------------------------------------------
# chiller power

def test_chiller_power_zero_cooling():
    assert chiller_power(0.0, 20.0) == 0.0


def test_chiller_power_half_load():
    assert chiller_power(78.25, 20.0) == pytest.approx(78.25 / 5.8275, rel=1e-12)


def test_chiller_power_full_load():
    assert chiller_power(156.5, 25.0) == pytest.approx(156.5 / 4.39, rel=1e-12)


def test_chiller_power_capacity_error():
    with pytest.raises(ChillerCapacityError):
        chiller_power(160.0, 25.0)


def test_chiller_power_negative_error():
    with pytest.raises(InfeasibleDischargeError):
        chiller_power(-1.0, 25.0)


def test_chiller_power_strictly_increasing_on_summer_domain():
    # finite-difference slope positive wherever the guard admits both points
    tes = TesConfig()
    for twb in (18.0, 22.0, 26.0):
        q = np.linspace(30.0, 156.0, 200)
        p = np.array([chiller_power(qi, twb) for qi in q])
        assert np.all(np.diff(p) > 0.0), f"not increasing at twb={twb}"


# ---------------------------------------------------------------------------
# storage arithmetic

def test_required_chiller_output_discharge():
    assert required_chiller_output(100.0, -31.7) == pytest.approx(68.3)


def test_required_chiller_output_identity():
    assert required_chiller_output(100.0, 0.0) == 100.0


def test_required_chiller_output_charge():
    assert required_chiller_output(50.0, 31.7) == pytest.approx(81.7)


def test_required_chiller_output_infeasible():
    with pytest.raises(InfeasibleDischargeError):
        required_chiller_output(10.0, -20.0)


def test_storage_trajectory_single_discharge(tes):
    e = storage_trajectory(np.array([-31.7]), tes)
    assert e == pytest.approx([175.6, 143.9])


def test_storage_trajectory_idle(tes):
    e = storage_trajectory(np.zeros(3), tes)
    assert np.allclose(e, 175.6)


def test_storage_trajectory_round_trip(tes):
    e = storage_trajectory(np.array([-10.0, 10.0]), tes)
    assert e == pytest.approx([175.6, 165.6, 175.6])


def test_check_schedule_feasible(tes):
    q = np.array([-10.0, -5.0, 15.0])
    s = StorageSchedule.from_rates(q, tes)
    assert check_schedule(s, tes) == []


def test_check_schedule_rate_violation(tes):
    q = np.zeros(6)
    q[3] = 40.0
    # keep the terminal state right so only the rate violation fires
    q[4] = -40.0
    s = StorageSchedule.from_rates(q, tes)
    kinds = {(v.kind, v.hour) for v in check_schedule(s, tes)}
    assert ("rate", 3) in kinds
    # the compensating hour violates too, plus the tank overfills after hour 3
    assert ("rate", 4) in kinds


def test_check_schedule_non_finite_rate(tes):
    q = np.zeros(6)
    q[3], q[5] = np.nan, np.inf
    s = StorageSchedule.from_rates(q, tes)
    assert [(v.kind, v.hour) for v in check_schedule(s, tes)] == [
        ("non_finite", 3), ("non_finite", 5)]


def test_check_schedule_non_finite_stored_energy(tes):
    s = StorageSchedule(q_stor=np.zeros(3), e_stor=np.array([tes.e_initial, np.nan,
                                                             tes.e_initial, tes.e_initial]))
    assert [(v.kind, v.hour) for v in check_schedule(s, tes)] == [("trajectory", 1)]


def test_check_schedule_terminal_violation(tes):
    q = np.full(24, -5.0)
    s = StorageSchedule.from_rates(q, tes)
    violations = check_schedule(s, tes)
    assert any(v.kind == "terminal_soc" for v in violations)
    assert s.e_stor[-1] == pytest.approx(55.6)


def test_check_schedule_zero_sum_round_trip(tes):
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.uniform(-5.0, 0.0, 24)
        q -= q.mean()  # zero-sum
        s = StorageSchedule.from_rates(q, tes)
        assert abs(float(np.sum(q))) < 1e-9
        assert s.e_stor[-1] == pytest.approx(tes.e_terminal)


def _brute_force_ok(q, tes, tol=1e-6):
    e = tes.e_initial
    ok = True
    for qi in q:
        if abs(qi) > tes.rate_max + tol:
            ok = False
        e += qi
        if e < -tol or e > tes.e_max + tol:
            ok = False
    if abs(e - tes.e_terminal) > tol:
        ok = False
    return ok


def test_check_schedule_matches_brute_force_on_random_schedules():
    tes = TesConfig(e_max=175.6, rate_max=31.7, e_initial=100.0,
                    e_terminal=100.0, q_ch_max=156.5)
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(1000):
        T = int(rng.integers(2, 25))
        q = rng.uniform(-40.0, 40.0, T) * rng.uniform(0.2, 1.0)
        if rng.uniform() < 0.5:
            q -= q.mean()  # bias toward terminal feasibility
        s = StorageSchedule.from_rates(q, tes)
        accepted = check_schedule(s, tes) == []
        assert accepted == _brute_force_ok(q, tes)
        agree += 1
    assert agree == 1000


def test_tes_config_validation():
    with pytest.raises(ValueError):
        TesConfig(e_initial=200.0)
    with pytest.raises(ValueError):
        TesConfig(e_terminal=-1.0)
    with pytest.raises(ValueError):
        TesConfig(q_ch_max=0.0)


def test_cop_model_config_round_trip(tmp_path):
    m = CopModel(c0=10.0, c1=-8.0, c2=-0.2, c3=-6.0, c4=0.7, c5=-0.02,
                 twb_min=12.0, twb_max=28.0, cop_floor=0.4)
    path = tmp_path / "cop.cfg"
    m.save(str(path))
    assert CopModel.load(str(path)) == m


def test_tes_config_round_trip(tmp_path):
    t = TesConfig(e_max=100.0, rate_max=20.0, e_initial=50.0,
                  e_terminal=60.0, q_ch_max=120.0)
    path = tmp_path / "tes.cfg"
    t.save(str(path))
    assert TesConfig.load(str(path)) == t
