import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridshave.cooling import cop_values
from gridshave.errors import MetricUndefinedError, ScenarioParseError, ShapeError, SingularFitError
from gridshave.regression import (
    BASIS_NAMES,
    SAMPLES_HEADER,
    SampleSet,
    cvrmse,
    design_matrix,
    fit_cop_model,
    load_samples,
    mbe,
)
from gridshave.tableio import write_table


def _samples_from_model(model, n=50, seed=7, noise=0.0):
    rng = np.random.default_rng(seed)
    plr = rng.uniform(0.0, 1.0, n)
    twb = rng.uniform(10.0, 30.0, n)
    cop = cop_values(plr, twb, model)
    if noise > 0.0:
        cop = cop + rng.normal(0.0, noise, n)
    return SampleSet(plr=plr, twb=twb, cop=cop)


# ---------------------------------------------------------------------------
# metrics

def test_cvrmse_zero_for_perfect_prediction():
    assert cvrmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_cvrmse_hand_value():
    # 100 * sqrt(4 * 1 / 3) / 2 = 57.735...
    assert cvrmse([1.0, 3.0, 1.0, 3.0], [2.0, 2.0, 2.0, 2.0]) == pytest.approx(
        100.0 * np.sqrt(4.0 / 3.0) / 2.0, rel=1e-12)
    assert cvrmse([1.0, 3.0, 1.0, 3.0], [2.0, 2.0, 2.0, 2.0]) == pytest.approx(57.74, abs=0.01)


def test_cvrmse_errors():
    with pytest.raises(MetricUndefinedError):
        cvrmse([1.0, -1.0], [1.0, -1.0])
    with pytest.raises(ShapeError):
        cvrmse([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        cvrmse([1.0], [1.0])


def test_mbe_zero_for_perfect_prediction():
    assert mbe([2.0, 3.0], [2.0, 3.0]) == 0.0


def test_mbe_underestimation_is_positive():
    assert mbe([1.0, 1.0], [2.0, 2.0]) == pytest.approx(50.0)


def test_mbe_zero_denominator():
    with pytest.raises(MetricUndefinedError):
        mbe([1.0, -1.0], [1.0, -1.0])


def test_metrics_invariant_under_reordering():
    rng = np.random.default_rng(5)
    meas = rng.uniform(2.0, 8.0, 40)
    pred = meas + rng.normal(0.0, 0.2, 40)
    perm = rng.permutation(40)
    assert cvrmse(pred, meas) == pytest.approx(cvrmse(pred[perm], meas[perm]), rel=1e-12)
    assert mbe(pred, meas) == pytest.approx(mbe(pred[perm], meas[perm]), rel=1e-12)


def test_mbe_of_symmetric_perturbation_is_zero():
    meas = np.full(20, 5.0)
    delta = np.tile([0.3, -0.3], 10)
    assert mbe(meas + delta, meas) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fitting

def test_fit_recovers_exact_coefficients(cop_model):
    report = fit_cop_model(_samples_from_model(cop_model))
    recovered = np.array(report.model.coefficients())
    expected = np.array(cop_model.coefficients())
    assert np.max(np.abs(recovered - expected)) < 1e-8
    assert report.cvrmse == pytest.approx(0.0, abs=1e-9)
    assert report.n == 50


def test_fit_with_noise_small_cvrmse(cop_model):
    report = fit_cop_model(_samples_from_model(cop_model, noise=0.1, seed=21))
    assert 0.0 < report.cvrmse < 5.0


def test_fit_idempotent(cop_model):
    samples = _samples_from_model(cop_model, noise=0.1, seed=3)
    first = fit_cop_model(samples)
    X = np.column_stack(design_matrix(samples.plr, samples.twb))
    refit = fit_cop_model(SampleSet(plr=samples.plr, twb=samples.twb,
                                    cop=X @ np.array(first.model.coefficients())))
    assert np.max(np.abs(np.array(refit.model.coefficients())
                         - np.array(first.model.coefficients()))) < 1e-10


def test_fit_round_trip_random_placements(cop_model):
    for seed in range(20):
        report = fit_cop_model(_samples_from_model(cop_model, n=30, seed=seed))
        assert np.max(np.abs(np.array(report.model.coefficients())
                             - np.array(cop_model.coefficients()))) < 1e-8


def test_fit_identical_rows_singular():
    with pytest.raises(SingularFitError):
        fit_cop_model(SampleSet(plr=np.full(12, 0.5), twb=np.full(12, 20.0),
                                cop=np.full(12, 5.0)))


def test_fit_constant_twb_names_collinear_columns():
    rng = np.random.default_rng(1)
    plr = rng.uniform(0.0, 1.0, 20)
    with pytest.raises(SingularFitError) as exc_info:
        fit_cop_model(SampleSet(plr=plr, twb=np.full(20, 20.0), cop=plr + 1.0))
    named = exc_info.value.collinear_columns
    assert "twb" in named or "twb*plr" in named or "twb^2" in named


def _basis(plr, twb):
    """The six basis columns, built here as the reference solvers' matrix."""
    plr, twb = np.asarray(plr, dtype=float), np.asarray(twb, dtype=float)
    return np.column_stack([np.ones_like(plr), plr, twb, plr * plr, twb * plr, twb * twb])


@st.composite
def _full_rank_sets(draw):
    """(plr, twb, cop) lists of 12-200 samples whose design matrix has a
    condition number under 1e6."""
    n = draw(st.integers(12, 200))
    plr, twb, cop = (draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
                     for lo, hi in ((0.0, 1.0), (10.0, 30.0), (1.0, 10.0)))
    assume(np.linalg.cond(_basis(plr, twb)) < 1e6)
    return plr, twb, cop


@settings(max_examples=60, deadline=None)
@given(_full_rank_sets())
def test_fit_matches_lstsq_reference(sample_set):
    plr, twb, cop = sample_set
    reference = np.linalg.lstsq(_basis(plr, twb), cop, rcond=None)[0]
    got = np.array(fit_cop_model(SampleSet(plr=plr, twb=twb, cop=cop)).model.coefficients())
    assert np.max(np.abs(got - reference)) <= 1e-9 * np.max(np.abs(reference))


def _greedy_collinear_columns(X):
    """Names of the basis columns that leave matrix_rank unchanged, left to right."""
    bad, rank = [], 0
    for j in range(X.shape[1]):
        new_rank = np.linalg.matrix_rank(X[:, : j + 1])
        if new_rank == rank:
            bad.append(BASIS_NAMES[j])
        rank = new_rank
    return bad


_RNG = np.random.default_rng(11)
_PLR = _RNG.uniform(0.0, 1.0, 24)
_TWB = _RNG.uniform(10.0, 30.0, 24)

#: name -> (plr, twb) of sample sets whose design matrix is rank deficient
_RANK_DEFICIENT = {
    "identical rows": (np.full(12, 0.5), np.full(12, 20.0)),
    "constant twb": (_PLR, np.full(24, 20.0)),
    "constant plr": (np.full(24, 0.3), _TWB),
    "twb linear in plr": (_PLR, 10.0 + 20.0 * _PLR),
    "plr all zero": (np.zeros(24), _TWB),
    "two twb levels": (_PLR, np.where(_TWB < 20.0, 15.0, 25.0)),
    "two plr levels": (np.where(_PLR < 0.5, 0.25, 0.75), _TWB),
    "two levels each": (np.where(_PLR < 0.5, 0.0, 1.0), np.where(_TWB < 20.0, 12.0, 28.0)),
    "three points": (np.resize([0.1, 0.5, 0.9], 24), np.resize([11.0, 29.0, 17.0], 24)),
}


@pytest.mark.parametrize("case", list(_RANK_DEFICIENT))
def test_fit_collinear_columns_match_greedy_matrix_rank(case):
    plr, twb = _RANK_DEFICIENT[case]
    expected = _greedy_collinear_columns(_basis(plr, twb))
    assert expected
    with pytest.raises(SingularFitError) as exc_info:
        fit_cop_model(SampleSet(plr=plr, twb=twb, cop=np.full(len(plr), 5.0)))
    assert list(exc_info.value.collinear_columns) == expected


def test_fitted_model_validity_window(cop_model):
    samples = _samples_from_model(cop_model, seed=13)
    report = fit_cop_model(samples)
    assert report.model.twb_min == pytest.approx(float(np.min(samples.twb)))
    assert report.model.twb_max == pytest.approx(float(np.max(samples.twb)))


# ---------------------------------------------------------------------------
# sample-set plumbing

def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(plr=np.full(5, 0.5), twb=np.full(5, 20.0), cop=np.full(5, 5.0))
    with pytest.raises(ValueError):
        SampleSet(plr=np.full(12, 1.5), twb=np.full(12, 20.0), cop=np.full(12, 5.0))
    with pytest.raises(ValueError):
        SampleSet(plr=np.full(12, 0.5), twb=np.full(12, np.nan), cop=np.full(12, 5.0))


def test_samples_csv_round_trip(tmp_path, cop_model):
    samples = _samples_from_model(cop_model, seed=17)
    path = tmp_path / "samples.csv"
    write_table(str(path), SAMPLES_HEADER, [samples.plr, samples.twb, samples.cop])
    loaded = load_samples(str(path))
    assert np.array_equal(loaded.plr, samples.plr)
    assert np.array_equal(loaded.twb, samples.twb)
    assert np.array_equal(loaded.cop, samples.cop)


def test_samples_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("plr,twb,cop\n0.5,20,5\n")
    with pytest.raises(ScenarioParseError):
        load_samples(str(path))


def test_samples_csv_non_numeric_cell(tmp_path):
    rows = ["plr,twb_c,cop"] + ["0.5,20,5.0"] * 11 + ["0.5,twenty,5.0"]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ScenarioParseError) as exc_info:
        load_samples(str(path))
    assert exc_info.value.row == 12
