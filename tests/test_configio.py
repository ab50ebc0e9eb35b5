"""The shared config file format of plant.cfg, cop.cfg, tes.cfg and solver.cfg."""

import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshave import configio
from gridshave.cli import cli_main
from gridshave.cooling import CopModel, TesConfig
from gridshave.errors import ConfigError, SynthesisError
from gridshave.optimizer import SolverOptions
from gridshave.plant import PlantConfig
from gridshave.scenario import SynthParams

#: What `.save(path, header="a\nb")` writes for each default instance.
DEFAULT_TEXT = {
    PlantConfig: """\
# a
# b
cap_gt = 32.0
cap_st = 25.0
cap_peak = 8.0
threshold = 57.0
eta_cc = 0.4
eta_peak = 0.2
peaking_margin_mw = 1.0
""",
    CopModel: """\
# a
# b
c0 = 11.87
c1 = -8.84
c2 = -0.17
c3 = -6.89
c4 = 0.75
c5 = -0.01
twb_min = 10.0
twb_max = 30.0
cop_floor = 0.5
""",
    TesConfig: """\
# a
# b
e_max = 175.6
rate_max = 31.7
e_initial = 175.6
e_terminal = 175.6
q_ch_max = 156.5
""",
    SolverOptions: """\
# a
# b
max_iterations = 200
feasibility_tol = 1e-06
optimality_tol = 1e-08
""",
}

CLASSES = list(DEFAULT_TEXT)

_positive = st.floats(min_value=1e-6, max_value=1e6)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_efficiency = st.floats(min_value=1e-6, max_value=1.0)


@st.composite
def _plant(draw):
    cap_gt, cap_st = draw(_positive), draw(_positive)
    return PlantConfig(cap_gt=cap_gt, cap_st=cap_st, cap_peak=draw(_positive),
                       threshold=cap_gt + cap_st, eta_cc=draw(_efficiency),
                       eta_peak=draw(_efficiency),
                       peaking_margin_mw=draw(st.floats(min_value=0.0, max_value=1e6)))


@st.composite
def _tes(draw):
    e_max = draw(st.floats(min_value=0.0, max_value=1e6))
    stored = st.floats(min_value=0.0, max_value=e_max)
    return TesConfig(e_max=e_max, rate_max=draw(st.floats(min_value=0.0, max_value=1e6)),
                     e_initial=draw(stored), e_terminal=draw(stored),
                     q_ch_max=draw(_positive))


#: Valid instances of each config class.
VALID = {
    PlantConfig: _plant(),
    CopModel: st.builds(lambda twb, **kw: CopModel(twb_min=min(twb), twb_max=max(twb), **kw),
                        st.tuples(_finite, _finite), cop_floor=_positive,
                        **{name: _finite for name in ("c0", "c1", "c2", "c3", "c4", "c5")}),
    TesConfig: _tes(),
    SolverOptions: st.builds(SolverOptions, max_iterations=st.integers(1, 10 ** 9),
                             feasibility_tol=_positive, optimality_tol=_positive),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_default_config_text(tmp_path, cls):
    path = tmp_path / "x.cfg"
    cls().save(str(path), header="a\nb")
    assert path.read_text(encoding="utf-8") == DEFAULT_TEXT[cls]
    assert cls.load(str(path)) == cls()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_round_trip_is_bit_exact(cls, data):
    config = data.draw(VALID[cls])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.cfg")
        config.save(path)
        loaded = cls.load(path)
    assert loaded == config
    # repr tells -0.0 from 0.0 and 200 from 200.0
    assert repr(loaded) == repr(config)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_config_load_ignores_unknown_key(tmp_path, cls):
    path = tmp_path / "x.cfg"
    cls().save(str(path))
    path.write_text(path.read_text(encoding="utf-8") + "unknown_key = a,b\n",
                    encoding="utf-8")
    assert cls.load(str(path)) == cls()


def test_integer_field_loads_as_int(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text("max_iterations = 1e3\nfeasibility_tol = 1e-06\noptimality_tol = 1e-08\n")
    loaded = SolverOptions.load(str(path))
    assert loaded.max_iterations == 1000 and type(loaded.max_iterations) is int


def test_integer_field_rejects_fraction(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text("max_iterations = 1.5\nfeasibility_tol = 1e-06\noptimality_tol = 1e-08\n")
    with pytest.raises(ConfigError,
                       match=f"^{path}: max_iterations must be a whole number, got 1.5$"):
        SolverOptions.load(str(path))


#: The admissible interval of every numeric settings field, written out here
#: rather than read from the fields, each with the values just outside it
#: (None: any finite value). A field whose interval depends on another field
#: shows it at that field's default.
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_BELOW_ZERO = -5e-324
SPEC = {
    PlantConfig: {
        "cap_gt": ("(0, inf)", [0.0, -1.0]),
        "cap_st": ("(0, inf)", [0.0]),
        "cap_peak": ("(0, inf)", [0.0, -0.0]),
        "threshold": None,
        "eta_cc": ("(0, 1]", [0.0, _ABOVE_ONE]),
        "eta_peak": ("(0, 1]", [-0.5, 1.5]),
        "peaking_margin_mw": ("[0, inf)", [_BELOW_ZERO]),
    },
    CopModel: {
        **dict.fromkeys(["c0", "c1", "c2", "c3", "c4", "c5", "twb_max"]),
        "twb_min": ("(-inf, twb_max=30.0]", [math.nextafter(30.0, 31.0)]),
        "cop_floor": ("(0, inf)", [0.0, -1e3]),
    },
    TesConfig: {
        "e_max": ("[0, inf)", [_BELOW_ZERO]),
        "rate_max": ("[0, inf)", [-0.5]),
        "e_initial": ("[0, e_max=175.6]", [_BELOW_ZERO, math.nextafter(175.6, 176.0)]),
        "e_terminal": ("[0, e_max=175.6]", [-1.0, 200.0]),
        "q_ch_max": ("(0, inf)", [0.0]),
    },
    SolverOptions: {
        "max_iterations": ("[1, inf)", [0, -5]),
        "feasibility_tol": ("[1e-9, inf)", [math.nextafter(1e-9, 0.0), 0.0, -1e-6]),
        "optimality_tol": ("(0, inf)", [0.0]),
    },
    SynthParams: {
        **dict.fromkeys(["base_peak_amp_mw", "cool_base_mw", "cool_peak_amp_mw",
                         "twb_base_c", "twb_amp_c"]),
        "days": ("[1, inf)", [0, -2]),
        "base_level_mw": ("[0, inf)", [_BELOW_ZERO]),
        "noise_mw": ("[0, inf)", [-5.0]),
    },
}

#: What each class raises for a bad value.
ERROR = {cls: SynthesisError if cls is SynthParams else ValueError for cls in SPEC}

#: (class, field, bad value, message) for every numeric field.
BAD_VALUES = [
    (cls, name, value, f"{name} must be finite, got {value}")
    for cls, spec in SPEC.items() for name in spec
    for value in (math.nan, math.inf, -math.inf)
] + [
    (cls, name, value, f"{name} must be in {entry[0]}, got {value}")
    for cls, spec in SPEC.items() for name, entry in spec.items() if entry
    for value in entry[1]
] + [
    (SolverOptions, "max_iterations", 1.5, "max_iterations must be a whole number, got 1.5"),
    (SynthParams, "days", 2.5, "days must be a whole number, got 2.5"),
]


def _case_id(case):
    cls, name, value, _ = case
    return f"{cls.__name__}.{name}={value!r}"


def test_spec_lists_every_numeric_field():
    for cls, spec in SPEC.items():
        numeric = [f.name for f in configio.fields(cls) if f.type in ("float", "int")]
        assert sorted(spec) == sorted(numeric), cls.__name__


@pytest.mark.parametrize("cls, name, value, message", BAD_VALUES,
                         ids=[_case_id(c) for c in BAD_VALUES])
def test_bad_value_raises_the_documented_error(cls, name, value, message):
    with pytest.raises(ERROR[cls], match=f"^{re.escape(message)}$"):
        cls(**{name: value})


_FLAG = {PlantConfig: "--plant", CopModel: "--cop", TesConfig: "--tes",
         SolverOptions: "--solver"}


@pytest.mark.parametrize("cls, name, value, message",
                         [c for c in BAD_VALUES if c[0] in _FLAG],
                         ids=[_case_id(c) for c in BAD_VALUES if c[0] in _FLAG])
def test_bad_config_file_value_names_file_and_field(tmp_path, capsys, cls, name, value,
                                                    message):
    path = tmp_path / "bad.cfg"
    cls().save(str(path))
    text, count = re.subn(f"(?m)^{name} = .*$", f"{name} = {value!r}", path.read_text())
    assert count == 1
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        cls.load(str(path))
    # the configs load before the scenario, which need not exist
    assert cli_main(["optimize", "--scenario", str(tmp_path / "day.csv"), _FLAG[cls],
                     str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
