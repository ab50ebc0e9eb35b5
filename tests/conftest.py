import pytest

from gridshave.cooling import DEFAULT_COP_MODEL, DEFAULT_TES
from gridshave.plant import DEFAULT_PLANT
from gridshave.run import build_problems
from gridshave.scenario import generate_synthetic


@pytest.fixture(scope="session")
def plant():
    return DEFAULT_PLANT


@pytest.fixture(scope="session")
def cop_model():
    return DEFAULT_COP_MODEL


@pytest.fixture(scope="session")
def tes():
    return DEFAULT_TES


@pytest.fixture(scope="session")
def synth_scenario():
    """Default three-day synthetic scenario, seed 1."""
    return generate_synthetic(seed=1)


@pytest.fixture(scope="session")
def day_problems(synth_scenario):
    return build_problems(synth_scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)


@pytest.fixture(scope="session")
def first_day_problem(day_problems):
    return day_problems[0][0]

