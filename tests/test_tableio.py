"""Bit-exact round trips of the scenario, samples and schedule tables, and
the rejection of a non-finite cell in any table."""

import os
import tempfile
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshave.errors import ScenarioParseError
from gridshave.regression import MIN_SAMPLES, SAMPLES_HEADER, SampleSet, load_samples
from gridshave.report import REPORT_HEADER, SCHEDULE_HEADER, load_report_table, \
    load_schedule_csv, write_schedule_csv
from gridshave.scenario import SCENARIO_HEADER, Scenario, load_scenario, write_scenario
from gridshave.tableio import write_table

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


def _columns(n_min, *elements):
    """Equal-length float arrays, one per element strategy."""
    return st.integers(n_min, 48).flatmap(lambda n: st.tuples(*(
        st.lists(e, min_size=n, max_size=n).map(np.array) for e in elements)))


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _round_trip(write, load):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write(path)
        return load(path)


def _hours(n):
    return [datetime(2023, 6, 12) + timedelta(hours=i) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(_columns(1, NON_NEGATIVE, NON_NEGATIVE, NON_NEGATIVE, FINITE),
       st.none() | st.integers(0, 2**31))
def test_scenario_round_trip_bit_exact(cols, seed):
    p_base, q_cool, q_s_c, twb = cols
    scenario = Scenario(timestamps=_hours(len(twb)), p_base=p_base, q_cool=q_cool,
                        q_s_c=q_s_c, twb=twb, name="prop", source="synthetic", seed=seed)
    loaded = _round_trip(lambda p: write_scenario(scenario, p), load_scenario)
    assert (loaded.timestamps, loaded.name, loaded.source, loaded.seed) == \
        (scenario.timestamps, "prop", "synthetic", seed)
    for attr in ("p_base", "q_cool", "q_s_c", "twb"):
        assert _bits_equal(getattr(loaded, attr), getattr(scenario, attr))


@settings(max_examples=60, deadline=None)
@given(_columns(MIN_SAMPLES, st.floats(0.0, 1.0), FINITE, FINITE))
def test_samples_round_trip_bit_exact(cols):
    samples = SampleSet(*cols)
    loaded = _round_trip(
        lambda p: write_table(p, SAMPLES_HEADER, [samples.plr, samples.twb, samples.cop]),
        load_samples)
    for attr in ("plr", "twb", "cop"):
        assert _bits_equal(getattr(loaded, attr), getattr(samples, attr))


@settings(max_examples=60, deadline=None)
@given(_columns(1, FINITE, FINITE))
def test_schedule_round_trip_bit_exact(cols):
    q_stor, e_stor_end = cols
    report = SimpleNamespace(timestamps=_hours(len(q_stor)),
                             table={"q_stor_mw": q_stor, "e_stor_end_mwh": e_stor_end})
    loaded = _round_trip(lambda p: write_schedule_csv(report, p),
                         lambda p: load_schedule_csv(p, report.timestamps))
    assert _bits_equal(loaded[0], q_stor)
    assert _bits_equal(loaded[1], e_stor_end)


#: header -> loader of every table the package reads
_TABLES = {
    SCENARIO_HEADER: load_scenario,
    SCHEDULE_HEADER: lambda path: load_schedule_csv(path, _hours(30)),
    REPORT_HEADER: load_report_table,
    SAMPLES_HEADER: load_samples,
}


@st.composite
def _table_with_non_finite_cell(draw):
    """(header, file text, data row, column) with one nan or infinite cell
    among finite ones; blank and comment lines do not count as rows."""
    header = draw(st.sampled_from(list(_TABLES)))
    names = header.split(",")
    n_rows = draw(st.integers(1, 30))
    bad_row = draw(st.integers(1, n_rows))
    column = draw(st.sampled_from([n for n in names if n != "timestamp"]))
    bad = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity"]))
    fill = repr(draw(st.floats(0.0, 1.0)))
    lines = [header]
    for row, stamp in enumerate(_hours(n_rows), start=1):
        lines += draw(st.lists(st.sampled_from(["", "# comment"]), max_size=2))
        lines.append(",".join(
            stamp.isoformat() if name == "timestamp"
            else bad if (row, name) == (bad_row, column)
            else fill
            for name in names))
    return header, "\n".join(lines) + "\n", bad_row, column


@settings(max_examples=200, deadline=None)
@given(_table_with_non_finite_cell())
def test_non_finite_cell_names_its_row(case):
    header, text, row, column = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ScenarioParseError, match=f"row {row}: {column} = .* is not finite") \
                as exc_info:
            _TABLES[header](path)
    assert exc_info.value.row == row
