"""Independent references for the benchmark's output checks.

Standard library only, and nothing here imports gridshave: a fault in the
program's COP, generation, objective, feasibility or fuel arithmetic cannot
vouch for itself. The constants are the documented defaults of the lumped
chiller plant, the storage tank and the CHP plant (README of the package).

Every function takes plain sequences of floats for one horizon. Multi-day
runs are checked one 24-hour day at a time, since each day starts and ends
with a full tank.
"""

from __future__ import annotations

import math
from operator import add

#: COP = c0 + c1*PLR + c2*TWB + c3*PLR^2 + c4*TWB*PLR + c5*TWB^2
COP_COEFFS = (11.87, -8.84, -0.17, -6.89, 0.75, -0.01)
COP_FLOOR = 0.5
TWB_MIN, TWB_MAX = 10.0, 30.0

Q_CH_MAX = 156.5        # MW thermal, chiller plant capacity
E_MAX = 175.6           # MWh, usable storage
RATE_MAX = 31.7         # MW, charge/discharge limit
E_INITIAL = 175.6       # MWh, full tank at each midnight
E_TERMINAL = 175.6

THRESHOLD = 57.0        # MW, combined-cycle limit (32 MW GT + 25 MW ST)
CAP_TOTAL = 65.0        # MW, threshold plus the 8 MW peaking turbine
ETA_CC = 0.40           # electric efficiency below the threshold
ETA_PEAK = 0.20         # electric efficiency of the peaking path

FEAS_TOL = 1e-6         # MW / MWh, the program's documented feasibility tolerance
HOURS_PER_DAY = 24


def cop(plr: float, twb: float, coeffs=COP_COEFFS) -> float:
    """The six-term COP polynomial, unguarded."""
    c0, c1, c2, c3, c4, c5 = coeffs
    return c0 + c1 * plr + c2 * twb + c3 * plr * plr + c4 * twb * plr + c5 * twb * twb


def chiller_power(q_ch: float, twb: float) -> float:
    """Electric draw q_ch / COP of the chillers making q_ch MW of cooling."""
    if q_ch <= 0.0:
        return 0.0
    return q_ch / cop(q_ch / Q_CH_MAX, twb)


def generation(p_base, q_cool, twb, q_stor) -> list[float]:
    """Hourly generation p_base + q_ch / COP with q_ch = q_cool + q_stor."""
    return [pb + chiller_power(qc + q, tw)
            for pb, qc, tw, q in zip(p_base, q_cool, twb, q_stor)]


def objective(gen, p_mean: float) -> float:
    """Flatness objective: sum of squared deviations from p_mean, MW^2."""
    return math.fsum((g - p_mean) ** 2 for g in gen)


def schedule_violations(q_stor, e_end, q_cool, twb, tol: float = FEAS_TOL) -> list[str]:
    """Every broken limit of one day's schedule; empty when it is feasible.

    q_stor and e_end are the hourly rates and the stored energy after each
    hour, as the program writes them. The chain starts at E_INITIAL.
    """
    out = []
    e_prev = E_INITIAL
    for t, (q, e, qc, tw) in enumerate(zip(q_stor, e_end, q_cool, twb)):
        if abs(q) > RATE_MAX + tol:
            out.append(f"hour {t}: rate {q} beyond +/-{RATE_MAX} MW")
        if abs(e - (e_prev + q)) > tol:
            out.append(f"hour {t}: stored energy {e} does not follow {e_prev} + {q}")
        if not -tol <= e <= E_MAX + tol:
            out.append(f"hour {t}: stored energy {e} outside [0, {E_MAX}] MWh")
        q_ch = qc + q
        if not -tol <= q_ch <= Q_CH_MAX + tol:
            out.append(f"hour {t}: chiller output {q_ch} outside [0, {Q_CH_MAX}] MW")
        elif not TWB_MIN <= tw <= TWB_MAX:
            out.append(f"hour {t}: wet-bulb {tw} outside [{TWB_MIN}, {TWB_MAX}] C")
        elif not cop(max(q_ch, 0.0) / Q_CH_MAX, tw) > COP_FLOOR:
            out.append(f"hour {t}: COP at or below the floor {COP_FLOOR}")
        e_prev = e
    if len(e_end) and abs(e_end[-1] - E_TERMINAL) > tol:
        out.append(f"terminal stored energy {e_end[-1]} != {E_TERMINAL} MWh")
    return out


def trajectory(q_stor) -> list[float]:
    """Stored energy after each hour, starting from E_INITIAL."""
    out, e = [], E_INITIAL
    for q in q_stor:
        e += q
        out.append(e)
    return out


def fuel(gen) -> float:
    """Fuel MWh under the two-path split: combined cycle up to the threshold,
    the peaking path above it."""
    return math.fsum(min(p, THRESHOLD) / ETA_CC + max(p - THRESHOLD, 0.0) / ETA_PEAK
                     for p in gen)


def fuel_saved(baseline, optimized) -> float:
    return fuel(baseline) - fuel(optimized)


def day_means(no_storage, hours: int = HOURS_PER_DAY) -> list[float]:
    """Mean no-storage generation of each day."""
    return [math.fsum(no_storage[i:i + hours]) / hours
            for i in range(0, len(no_storage), hours)]


def previous_day_targets(no_storage) -> list[float]:
    """Flat target per day: the previous day's mean, or the first day's own."""
    means = day_means(no_storage)
    return [means[0]] + means[:-1]


def dp_optimum(p_base, q_cool, twb, p_mean: float, step: float = 0.5,
               e_max: float = E_MAX, rate_max: float = RATE_MAX,
               e_initial: float = E_INITIAL, e_terminal: float = E_TERMINAL) -> float:
    """Optimal objective over storage rates on a `step` MW grid, by backward
    induction over stored-energy states anchored at e_initial.

    Actions that leave the chiller range or push the COP to the floor are
    inadmissible. Only states reachable from e_initial that can still reach
    e_terminal are evaluated. Returns inf when no grid schedule reaches
    e_terminal.
    """
    inf = math.inf
    T = len(p_base)
    m = math.floor(rate_max / step + 1e-9)
    k_min = -math.floor(e_initial / step + 1e-9)
    k_max = math.floor((e_max - e_initial) / step + 1e-9)
    n = k_max - k_min + 1
    k_term = round((e_terminal - e_initial) / step)
    if abs(e_initial + k_term * step - e_terminal) > 1e-9 or not k_min <= k_term <= k_max:
        raise ValueError("terminal stored energy is not on the grid")
    i_start, i_term = -k_min, k_term - k_min

    value = [inf] * n
    value[i_term] = 0.0
    for t in range(T - 1, -1, -1):
        costs = []
        for j in range(-m, m + 1):
            q_ch = q_cool[t] + j * step
            c = cop(q_ch / Q_CH_MAX, twb[t]) if 0.0 <= q_ch <= Q_CH_MAX else -inf
            if c > COP_FLOOR:
                p_ch = q_ch / c if q_ch > 0.0 else 0.0
                costs.append((p_base[t] + p_ch - p_mean) ** 2)
            else:
                costs.append(inf)
        new = [inf] * n
        first = max(0, i_start - m * t, i_term - m * (T - t))
        last = min(n - 1, i_start + m * t, i_term + m * (T - t))
        for i in range(first, last + 1):
            a, b = max(-m, -i), min(m, n - 1 - i)
            new[i] = min(map(add, costs[a + m:b + m + 1], value[i + a:i + b + 1]))
        value = new
    return value[i_start]


# ---------------------------------------------------------------------------
# readers for the files the program writes (kept here so the checks do not
# lean on the program's own loaders)

def read_csv_columns(path: str) -> dict[str, list]:
    """Columns of a comma-separated file with one header row; `#` lines are
    skipped, the first column is kept as text and the rest become floats."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.strip().split(",") for ln in fh
                if ln.strip() and not ln.startswith("#")]
    names = rows[0]
    cols: dict[str, list] = {name: [] for name in names}
    for row in rows[1:]:
        if len(row) != len(names):
            raise ValueError(f"{path}: row of {len(row)} cells under {len(names)} columns")
        cols[names[0]].append(row[0])
        for name, cell in zip(names[1:], row[1:]):
            cols[name].append(float(cell))
    return cols


def read_key_values(path: str) -> dict[str, str]:
    """`key = value` lines of a summary or config file; other lines are skipped."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if "=" in body and not body.startswith("day "):
                key, value = body.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def read_day_lines(path: str) -> list[dict[str, float]]:
    """objective and p_mean of each `day k: ...` line of a summary."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("day "):
                continue
            fields = dict(part.strip().split(" = ", 1)
                          for part in line.split(":", 1)[1].split(","))
            out.append({"objective": float(fields["objective"].split()[0]),
                        "p_mean": float(fields["p_mean"].split()[0])})
    return out
