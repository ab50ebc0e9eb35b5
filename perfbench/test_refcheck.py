"""Tests of the benchmark's independent references (refcheck.py)."""

import itertools
import math

import refcheck as ref


def test_cop_polynomial_hand_values():
    # 11.87 - 8.84*0.5 - 0.17*20 - 6.89*0.25 + 0.75*20*0.5 - 0.01*400
    assert math.isclose(ref.cop(0.5, 20.0), 5.8275, rel_tol=1e-12)
    # 11.87 - 8.84 - 0.17*25 - 6.89 + 0.75*25 - 0.01*625
    assert math.isclose(ref.cop(1.0, 25.0), 4.39, rel_tol=1e-12)


def test_objective_of_a_hand_worked_hour():
    # q_cool 78.25 MW is PLR 0.5 of 156.5 MW; at 20 C wet-bulb COP = 5.8275,
    # so the chillers draw 78.25 / 5.8275 = 13.4277... MW and generation is
    # 43.4277... MW, 3.4277... MW above a 40 MW target.
    gen = ref.generation([30.0], [78.25], [20.0], [0.0])
    assert math.isclose(gen[0], 30.0 + 78.25 / 5.8275, rel_tol=1e-12)
    assert math.isclose(ref.objective(gen, 40.0), (78.25 / 5.8275 - 10.0) ** 2,
                        rel_tol=1e-12)


def test_fuel_two_path_split():
    # 61 MW burns 57/0.40 + 4/0.20 = 162.5 MWh of fuel, 58 MW burns 147.5
    assert math.isclose(ref.fuel([61.0]), 162.5)
    assert math.isclose(ref.fuel_saved([61.0], [58.0]), 15.0)


def _day(q_stor):
    return q_stor, ref.trajectory(q_stor), [80.0] * 24, [20.0] * 24


def test_feasible_day_passes():
    q = [0.0] * 24
    q[14], q[22] = -20.0, 20.0
    assert ref.schedule_violations(*_day(q)) == []


def test_terminal_state_off_by_one_mwh_is_rejected():
    q = [0.0] * 24
    q[14], q[22] = -20.0, 19.0
    found = ref.schedule_violations(*_day(q))
    assert any("terminal" in v for v in found)


def test_rate_and_tank_limits_are_rejected():
    q = [0.0] * 24
    q[0] = 5.0                       # overfills a full tank
    q[10], q[11] = -40.0, 35.0       # 40 MW beyond the 31.7 MW rate
    found = ref.schedule_violations(*_day(q))
    assert any("outside [0, 175.6]" in v for v in found)
    assert any("rate -40.0" in v for v in found)


def test_dp_matches_brute_force_on_four_hours():
    p_base = [30.0, 34.0, 41.0, 33.0]
    q_cool = [70.0, 95.0, 140.0, 90.0]
    twb = [19.0, 22.0, 26.0, 21.0]
    p_mean = 45.0
    limits = {"e_max": 20.0, "rate_max": 10.0, "e_initial": 10.0, "e_terminal": 10.0}
    step = 5.0

    best = math.inf
    actions = [-10.0, -5.0, 0.0, 5.0, 10.0]
    for q in itertools.product(actions, repeat=4):
        e, ok = limits["e_initial"], True
        for qc, tw, a in zip(q_cool, twb, q):
            e += a
            q_ch = qc + a
            ok = ok and 0.0 <= e <= limits["e_max"] and 0.0 <= q_ch <= ref.Q_CH_MAX \
                and ref.cop(q_ch / ref.Q_CH_MAX, tw) > ref.COP_FLOOR
        if ok and e == limits["e_terminal"]:
            best = min(best, ref.objective(ref.generation(p_base, q_cool, twb, q), p_mean))

    dp = ref.dp_optimum(p_base, q_cool, twb, p_mean, step=step, **limits)
    assert math.isfinite(best)
    assert math.isclose(dp, best, rel_tol=1e-12)
    # the zero schedule is on the grid, so the optimum cannot be worse
    zero = ref.objective(ref.generation(p_base, q_cool, twb, [0.0] * 4), p_mean)
    assert dp < zero
