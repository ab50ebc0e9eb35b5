"""The record base `configio.Record` on every record class: construction,
freezing, equality, hashing, repr and `replace`. Each record is compared
with a dataclass twin made from its fields, which is the behaviour the
records keep."""

import dataclasses
import re

import pytest

from gridshave import configio
from gridshave.cooling import (
    DEFAULT_COP_MODEL,
    DEFAULT_TES,
    CopModel,
    StorageSchedule,
    TesConfig,
    Violation,
)
from gridshave.optimizer import OptimalSchedule, ScheduleProblem, SolverOptions
from gridshave.plant import DEFAULT_PLANT, FuelSavings, PlantConfig, fuel_savings
from gridshave.regression import FitReport, SampleSet, fit_cop_model
from gridshave.report import RunReport, build_report
from gridshave.run import DayResult, DayTarget, run_days
from gridshave.scenario import Scenario, SynthParams, generate_synthetic

RECORDS = (CopModel, TesConfig, StorageSchedule, Violation,
           ScheduleProblem, SolverOptions, OptimalSchedule,
           PlantConfig, FuelSavings, SampleSet, FitReport,
           RunReport, DayTarget, DayResult, Scenario, SynthParams)

REQUIRED = [(cls, f.name) for cls in RECORDS for f in configio.fields(cls)
            if f.default is configio.MISSING]


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, most of them from a default run."""
    scenario = generate_synthetic(seed=1)
    results = run_days(scenario, DEFAULT_PLANT, DEFAULT_COP_MODEL, DEFAULT_TES)
    report = build_report(scenario, results, DEFAULT_PLANT)
    plr = [i / 19 for i in range(20)]
    twb = [(12.0, 20.0, 28.0)[i % 3] for i in range(20)]
    samples = SampleSet(plr, twb, [DEFAULT_COP_MODEL.c0 - p for p in plr])
    day = results[0]
    found = {
        CopModel: DEFAULT_COP_MODEL, TesConfig: DEFAULT_TES, SolverOptions: SolverOptions(),
        PlantConfig: DEFAULT_PLANT, SynthParams: SynthParams(),
        StorageSchedule: day.optimal.schedule, Violation: Violation("rate", 3, 32.5, 31.7),
        ScheduleProblem: day.problem, OptimalSchedule: day.optimal,
        FuelSavings: fuel_savings(report.table["baseline_mw"], report.table["optimized_mw"]),
        SampleSet: samples, FitReport: fit_cop_model(samples),
        RunReport: report, DayTarget: day.target, DayResult: day, Scenario: scenario,
    }
    assert sorted(found, key=RECORDS.index) == list(RECORDS)
    return found


def _values(record):
    return [getattr(record, f.name) for f in configio.fields(record)]


def _kwargs(record):
    return {f.name: getattr(record, f.name) for f in configio.fields(record)}


def _twin(record):
    """A dataclass with the record's class name and fields, holding its values."""
    cls = type(record)
    twin = dataclasses.make_dataclass(cls.__qualname__, [f.name for f in configio.fields(cls)],
                                      frozen=cls is not Scenario)
    return twin(*_values(record))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_construction_equals_keyword_construction(records, cls):
    record = records[cls]
    assert cls(*_values(record)) == cls(**_kwargs(record)) == record


@pytest.mark.parametrize("cls, name", REQUIRED, ids=[f"{c.__name__}.{n}" for c, n in REQUIRED])
def test_missing_argument_raises_type_error(records, cls, name):
    kwargs = _kwargs(records[cls])
    del kwargs[name]
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes each field once"):
        cls(**kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_unknown_or_repeated_argument_raises_type_error(records, cls):
    values, kwargs = _values(records[cls]), _kwargs(records[cls])
    for args, kw in (((), {**kwargs, "no_such_field": 1.0}),   # unknown
                     (values[:1], kwargs),                     # first field twice
                     (values + [None], {})):                   # one positional too many
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes each field once"):
            cls(*args, **kw)


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not Scenario],
                         ids=lambda c: c.__name__)
def test_frozen_record_refuses_assignment_and_deletion(records, cls):
    record = records[cls]
    name = configio.fields(cls)[0].name
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        record.other = 1


def test_scenario_takes_assignment(records):
    scenario = records[Scenario].replace()
    scenario.name = "renamed"
    del scenario.seed
    assert scenario.name == "renamed" and "seed" not in vars(scenario)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_eq_hash_and_repr_match_a_dataclass(records, cls):
    record, twin = records[cls], _twin(records[cls])
    assert repr(record) == repr(twin)
    assert record == record.replace()
    assert record.__eq__(twin) is NotImplemented and record != twin
    try:
        expected = hash(twin)
    except TypeError:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == expected == hash(tuple(_values(record)))


def test_scenario_is_the_only_unhashable_record_class():
    assert [c for c in RECORDS if c.__hash__ is None] == [Scenario]


def test_repr_is_the_dataclass_form():
    assert repr(Violation("rate", 3, 32.5, 31.7)) == \
        "Violation(kind='rate', hour=3, value=32.5, limit=31.7)"
    assert repr(SolverOptions()) == \
        "SolverOptions(max_iterations=200, feasibility_tol=1e-06, optimality_tol=1e-08)"


def test_replace_changes_fields_and_checks_again():
    model = DEFAULT_COP_MODEL.replace(c0=12.0, cop_floor=0.75)
    assert (model.c0, model.cop_floor, model.c1) == (12.0, 0.75, DEFAULT_COP_MODEL.c1)
    assert DEFAULT_COP_MODEL.cop_floor == 0.5
    with pytest.raises(ValueError) as direct:
        CopModel(cop_floor=-1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(direct.value))}$"):
        DEFAULT_COP_MODEL.replace(cop_floor=-1.0)
    with pytest.raises(TypeError):
        DEFAULT_COP_MODEL.replace(no_such_field=1.0)


def test_fields_list_names_annotations_defaults_and_intervals():
    by_name = {f.name: f for f in configio.fields(SolverOptions())}
    assert list(by_name) == ["max_iterations", "feasibility_tol", "optimality_tol"]
    assert [f.type for f in by_name.values()] == ["int", "float", "float"]
    assert by_name["max_iterations"].default == SolverOptions.max_iterations == 200
    assert by_name["optimality_tol"].interval == ("(0, inf)", 0.0, float("inf"))
    assert [(f.name, f.interval) for f in configio.fields(Violation)][:2] == \
        [("kind", None), ("hour", None)]


class _Base(configio.Record):
    a: int
    b: int = 2


class _Child(_Base, frozen=False):
    c: int = 3


def test_inherited_fields_come_first():
    assert [f.name for f in configio.fields(_Child)] == ["a", "b", "c"]
    child = _Child(1, c=4)
    assert repr(child) == "_Child(a=1, b=2, c=4)"
    child.b = 5
    assert child == _Child(1, 5, 4) and child != _Base(1, 5)
