import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridshave.cooling import (
    CopModel,
    StorageSchedule,
    TesConfig,
    Violation,
    check_schedule,
    chiller_power,
    cop,
    cop_values,
    storage_trajectory,
)
from gridshave.errors import (
    ChillerCapacityError,
    ConfigError,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["c0", "c1", "c2", "c3", "c4", "c5",
                                   "twb_min", "twb_max", "cop_floor"])
def test_cop_model_rejects_non_finite_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        CopModel(**{field: value})


@pytest.mark.parametrize("value", [0.0, -0.0, -1e3])
def test_cop_model_rejects_non_positive_floor(tmp_path, value):
    message = f"cop_floor must be in \\(0, inf\\), got {value}$"
    with pytest.raises(ValueError, match=f"^{message}"):
        CopModel(cop_floor=value)
    path = tmp_path / "cop.cfg"
    path.write_text(f"c0 = 11.87\nc1 = -8.84\nc2 = -0.17\nc3 = -6.89\nc4 = 0.75\n"
                    f"c5 = -0.01\ntwb_min = 10.0\ntwb_max = 30.0\ncop_floor = {value!r}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {message}"):
        CopModel.load(str(path))


def test_cop_model_rejects_empty_wet_bulb_window():
    with pytest.raises(ValueError,
                       match=r"^twb_min must be in \(-inf, twb_max=10\.0\], got 30\.0$"):
        CopModel(twb_min=30.0, twb_max=10.0)
    assert CopModel(twb_min=20.0, twb_max=20.0).twb_min == 20.0


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


def _reference_chiller_fault(q_ch, twb, model: CopModel, tes: TesConfig):
    """Per-hour scan: (first faulty hour, error type), or None when every hour
    is admissible."""
    for t, (q, w) in enumerate(zip(q_ch, twb)):
        if not math.isfinite(q):
            return t, CopDomainError
        if q < -1e-9:
            return t, InfeasibleDischargeError
        if q > tes.q_ch_max + 1e-9:
            return t, ChillerCapacityError
        if not model.twb_min <= w <= model.twb_max:
            return t, CopDomainError
        if float(cop_values(min(max(q / tes.q_ch_max, 0.0), 1.0), w, model)) <= model.cop_floor:
            return t, DegenerateCopError
    return None


#: One injected hour each: (q_ch, twb) strategies. The last two are within
#: the output slack and are no fault.
CHILLER_FAULTS = [
    st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(10.0, 25.0)),
    st.tuples(st.floats(-200.0, -1e-9, exclude_max=True), st.floats(10.0, 25.0)),
    st.tuples(st.floats(156.5 + 1e-9, 1e6, exclude_min=True), st.floats(10.0, 25.0)),
    st.tuples(st.floats(0.0, 156.5),
              st.one_of(st.floats(0.0, 9.999), st.floats(30.001, 40.0), st.just(math.nan))),
    st.tuples(st.floats(0.0, 10.0), st.floats(28.0, 30.0)),     # COP under the floor
    st.tuples(st.floats(-1e-9, 0.0), st.floats(10.0, 25.0)),
    st.tuples(st.floats(156.5, 156.5 + 1e-9), st.floats(10.0, 25.0)),
]


@settings(max_examples=400, deadline=None)
@given(hours=st.lists(st.tuples(st.floats(0.0, 156.5), st.floats(10.0, 25.0)),
                      min_size=1, max_size=30),
       injected=st.lists(st.tuples(st.integers(0, 29), st.one_of(*CHILLER_FAULTS)),
                         max_size=2))
@example(hours=[(80.0, 20.0)] * 3, injected=[(1, (80.0, 31.0))])
@example(hours=[(80.0, 20.0)] * 3, injected=[(1, (80.0, 9.5))])
@example(hours=[(80.0, 20.0)] * 3, injected=[(2, (-1.0, 20.0)), (1, (200.0, 35.0))])
def test_chiller_power_array_matches_per_hour_scan(hours, injected):
    # a clean hour has twb <= 25 C, where the default COP stays above its floor
    for t, point in injected:
        hours[t % len(hours)] = point
    q, twb = (np.array(v) for v in zip(*hours))
    model, tes = CopModel(), TesConfig()
    fault = _reference_chiller_fault(q, twb, model, tes)
    if fault is None:
        expected = [chiller_power(qt, wt) for qt, wt in zip(q, twb)]
        assert np.array_equal(chiller_power(q, twb), expected)
        return
    t, error = fault
    with pytest.raises(error) as got:
        chiller_power(q, twb)
    with pytest.raises(error) as scalar:
        chiller_power(q[t], twb[t])
    assert got.value.hour == t
    assert str(got.value) == f"hour {t}: {scalar.value}"


# ---------------------------------------------------------------------------
# storage arithmetic

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


def _reference_check_schedule(schedule, tes, tol=1e-6):
    """Per-kind scan of every limit, without `check_schedule`'s vectorized
    all-clear test: the reference that test must agree with."""
    q = np.asarray(schedule.q_stor)
    e = np.asarray(schedule.e_stor)
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        return [Violation("non_finite", int(i), float(q[i]), tes.rate_max) for i in bad]
    out = []
    recomputed = np.empty_like(e)
    recomputed[0] = e[0]
    np.cumsum(q, out=recomputed[1:])
    recomputed[1:] += e[0]
    drift = np.abs(e - recomputed)
    for i in np.nonzero(~(drift <= tol))[0]:
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


#: A half-full tank, so that zero-sum rates of at most 2 MW stay inside it.
HALF_TANK = TesConfig(e_max=100.0, rate_max=10.0, e_initial=50.0, e_terminal=50.0)

#: Offsets at and around the 1e-6 tolerance, and well beyond it.
FAULT_SIZES = st.sampled_from([0.0, 5e-7, 1e-6, 1.5e-6, 1e-3, 0.5, 7.0, 60.0])


@st.composite
def faulty_schedules(draw):
    """A feasible zero-sum schedule on HALF_TANK, perturbed by at most one
    rate, tank, initial, terminal, trajectory or non-finite fault."""
    T = draw(st.integers(1, 24))
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=T, max_size=T)))
    q -= q.mean()
    fault = draw(st.sampled_from(["none", "rate", "tank", "initial", "terminal",
                                  "trajectory", "nan_rate", "nan_energy"]))
    t = draw(st.integers(0, T - 1))
    size = draw(FAULT_SIZES)
    sign = draw(st.sampled_from([1.0, -1.0]))
    e0 = HALF_TANK.e_initial
    if fault == "rate" and T >= 3:
        # the other hours make up the change, so the terminal state holds
        delta = sign * (HALF_TANK.rate_max + size) - q[t]
        q -= delta / (T - 1)
        q[t] = sign * (HALF_TANK.rate_max + size)
    elif fault == "tank" and T >= 12:
        # six hours to the top (or bottom) of the tank and `size` beyond, six back
        level = HALF_TANK.e_max - e0 if sign > 0 else e0
        q[:] = 0.0
        q[:6] = sign * (level + size) / 6.0
        q[6:12] = -q[:6]
    elif fault == "initial":
        # the tank starts `size` off e_initial, and the rates still end at e_terminal
        e0 += sign * size
        q[t] -= sign * size
    elif fault == "terminal":
        q[t] += sign * size
    elif fault == "nan_rate":
        q[t] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    e = np.concatenate(([e0], e0 + np.cumsum(q)))
    if fault in ("trajectory", "nan_energy"):
        i = draw(st.integers(0, T))
        e[i] = math.nan if fault == "nan_energy" else e[i] + sign * size
    return StorageSchedule(q_stor=q, e_stor=e)


def _key(violations):
    return [(v.kind, v.hour, repr(v.value), repr(v.limit)) for v in violations]


@settings(max_examples=400, deadline=None)
@given(faulty_schedules())
# each limit alone, 1.5e-6 beyond it: stored energy off its rates, terminal
# state, initial state, rate, top and bottom of the tank
@example(StorageSchedule(q_stor=np.zeros(2), e_stor=np.array([50.0, 50.0 + 1.5e-6, 50.0])))
@example(StorageSchedule.from_rates(np.array([0.0, 1.5e-6]), HALF_TANK))
@example(StorageSchedule(q_stor=np.array([-1.5e-6]), e_stor=np.array([50.0 + 1.5e-6, 50.0])))
@example(StorageSchedule.from_rates(np.array([10.0 + 1.5e-6, -5.0, -5.0 - 1.5e-6]), HALF_TANK))
@example(StorageSchedule.from_rates(np.repeat([1.0, -1.0], 6) * (50.0 + 1.5e-6) / 6.0,
                                    HALF_TANK))
@example(StorageSchedule.from_rates(np.repeat([-1.0, 1.0], 6) * (50.0 + 1.5e-6) / 6.0,
                                    HALF_TANK))
def test_check_schedule_matches_per_kind_scan(schedule):
    assert _key(check_schedule(schedule, HALF_TANK)) == \
        _key(_reference_check_schedule(schedule, HALF_TANK))


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["e_max", "rate_max", "e_initial", "e_terminal", "q_ch_max"])
def test_tes_config_rejects_non_finite_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        TesConfig(**{field: value})


@pytest.mark.parametrize("field, value, interval", [
    ("e_max", -1.0, "[0, inf)"),
    ("rate_max", -0.5, "[0, inf)"),
    ("q_ch_max", 0.0, "(0, inf)"),
    ("e_initial", 200.0, "[0, e_max=175.6]"),
    ("e_terminal", -1.0, "[0, e_max=175.6]"),
])
def test_tes_config_range_message_names_field_and_interval(field, value, interval):
    message = f"{field} must be in {interval}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TesConfig(**{field: value})


def test_tes_config_accepts_empty_tank_and_zero_rate():
    assert TesConfig(e_max=0.0, e_initial=0.0, e_terminal=0.0, rate_max=0.0).e_max == 0.0


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
