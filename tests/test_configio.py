"""The shared config file format of plant.cfg, cop.cfg, tes.cfg and solver.cfg."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshave.cooling import CopModel, TesConfig
from gridshave.errors import ConfigError
from gridshave.optimizer import SolverOptions
from gridshave.plant import PlantConfig

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
    CopModel: st.builds(CopModel, cop_floor=_positive, **{name: _finite for name in (
        "c0", "c1", "c2", "c3", "c4", "c5", "twb_min", "twb_max")}),
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
    with pytest.raises(ConfigError, match=f"^{path}: key 'max_iterations' is not an integer: "
                                          "'1.5'$"):
        SolverOptions.load(str(path))
