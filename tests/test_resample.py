import math

import numpy as np
import pytest
from conftest import ForcedStream

from dpboot import (
    Dataset,
    Ensemble,
    InvalidInputError,
    MEAN,
    MEDIAN,
    Method,
    RngStream,
    STDDEV,
    bayesian_bootstrap_weights,
    dp_bootstrap_sample,
    frequentist_bootstrap,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    make_ensemble,
    quantile,
    self_calibrate,
)

ALL_METHODS = list(Method)


# ---------------------------------------------------------------------------
# Frequentist bootstrap


def test_frequentist_single_point():
    out = frequentist_bootstrap(Dataset([7.0]), RngStream(0, 0))
    assert list(out.values) == [7.0]


def test_frequentist_support_and_length():
    data = Dataset([1.0, 2.0, 2.0, 4.0, 9.0])
    for i in range(50):
        out = frequentist_bootstrap(data, RngStream(1, i))
        assert len(out) == len(data)
        assert set(out.values) <= set(data.values)


def test_frequentist_pair_probability():
    # P(resample of [0,1] equals [0,0]) = 1/4; binomial 3-sigma band.
    data = Dataset([0.0, 1.0])
    reps = 4000
    hits = sum(
        float(np.all(frequentist_bootstrap(data, RngStream(2, i)).values == 0.0))
        for i in range(reps)
    )
    assert abs(hits / reps - 0.25) < 3 * math.sqrt(0.25 * 0.75 / reps)


# ---------------------------------------------------------------------------
# Bayesian bootstrap weights


def test_weights_single_point_is_unit():
    assert list(bayesian_bootstrap_weights(1, RngStream(0, 0))) == [1.0]


def test_weights_positive_and_normalized():
    for i in range(200):
        w = bayesian_bootstrap_weights(25, RngStream(3, i))
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_pair_marginal_is_uniform():
    reps = 5000
    first = np.array([bayesian_bootstrap_weights(2, RngStream(4, i))[0] for i in range(reps)])
    assert abs(first.mean() - 0.5) < 3 * math.sqrt(1 / 12 / reps)


def test_weights_first_coordinate_is_beta():
    # Flat-Dirichlet marginal over n=25 points: Beta(1, 24).
    reps = 5000
    first = np.array([bayesian_bootstrap_weights(25, RngStream(5, i))[0] for i in range(reps)])
    d = ks_one_sample(first, lambda x: 1.0 - (1.0 - min(max(x, 0.0), 1.0)) ** 24)
    assert kolmogorov_sf(math.sqrt(reps) * d) > 0.01


def test_weights_redraw_zero_uniforms():
    # The exact 0.0 would give an infinite exponential; it is redrawn as 0.25.
    w = bayesian_bootstrap_weights(2, ForcedStream(sequence=[0.0, 0.5, 0.25]))
    e = -np.log(np.array([0.25, 0.5]))
    assert np.array_equal(w, e / e.sum())


def test_weights_validation():
    with pytest.raises(InvalidInputError):
        bayesian_bootstrap_weights(0, RngStream(0, 0))
    with pytest.raises(InvalidInputError):
        bayesian_bootstrap_weights(2.5, RngStream(0, 0))


def test_weighted_mean_law_is_permutation_invariant():
    data = Dataset(RngStream(6, 0).generator().random(20))
    permuted = Dataset(data.values[::-1].copy())
    b = 2000
    ens_a = make_ensemble(Method.BAYESIAN_DIRICHLET, data, b, MEAN, master_seed=7)
    ens_b = make_ensemble(Method.BAYESIAN_DIRICHLET, permuted, b, MEAN, master_seed=7)
    baseline = self_calibrate(Method.BAYESIAN_DIRICHLET, data, b, MEAN, master_seed=8, reps=5)
    floor = float(np.median([r.ks for r in baseline]))
    assert ks_two_sample(ens_a.values, ens_b.values) <= 2.0 * floor


# ---------------------------------------------------------------------------
# Stick-breaking bootstrap sample


def test_dp_bootstrap_single_point():
    out = dp_bootstrap_sample(Dataset([7.0]), 1e-10, RngStream(0, 0))
    assert list(out.values) == [7.0]


def test_dp_bootstrap_support_and_length():
    data = Dataset([1.0, 3.0, 3.0, 8.0])
    for i in range(30):
        out = dp_bootstrap_sample(data, 1e-10, RngStream(9, i))
        assert len(out) == len(data)
        assert set(out.values) <= set(data.values)


def test_dp_bootstrap_validation():
    with pytest.raises(InvalidInputError):
        dp_bootstrap_sample(Dataset([1.0]), 0.0, RngStream(0, 0))


# ---------------------------------------------------------------------------
# Ensembles


def test_make_ensemble_single_replication():
    ens = make_ensemble(Method.FREQUENTIST, Dataset([7.0]), 1, MEAN, master_seed=0)
    assert list(ens.values) == [7.0]
    assert ens.n == 1 and ens.b == 1


def test_make_ensemble_is_deterministic():
    data = Dataset(RngStream(10, 0).generator().random(15))
    for method in ALL_METHODS:
        a = make_ensemble(method, data, 40, MEAN, master_seed=11)
        b = make_ensemble(method, data, 40, MEAN, master_seed=11)
        assert np.array_equal(a.values, b.values)


def test_make_ensemble_weighted_mean_centering():
    # Flat-Dirichlet weighted mean of {0, 10} is 10*U with U uniform:
    # ensemble average 5 within 3 * 10/sqrt(12 b).
    b = 4000
    ens = make_ensemble(Method.BAYESIAN_DIRICHLET, Dataset([0.0, 10.0]), b, MEAN, master_seed=14)
    assert abs(ens.values.mean() - 5.0) < 3 * 10.0 / math.sqrt(12 * b)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_constant_data_collapses_every_method(method):
    data = Dataset([4.25] * 6)
    for functional, expected in [
        (MEAN, 4.25),
        (MEDIAN, 4.25),
        (STDDEV, 0.0),
        (quantile(0.9), 4.25),
    ]:
        ens = make_ensemble(method, data, 25, functional, master_seed=15)
        assert np.all(ens.values == expected)


def test_make_ensemble_validation():
    data = Dataset([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        make_ensemble(Method.FREQUENTIST, data, 0, MEAN)
    with pytest.raises(InvalidInputError):
        make_ensemble("frequentist", data, 5, MEAN)
    with pytest.raises(InvalidInputError):
        make_ensemble(Method.FREQUENTIST, data, 5, "mean")
    with pytest.raises(InvalidInputError):
        make_ensemble(Method.DP_STICK_BREAK, data, 5, MEAN, epsilon=2.0)
    with pytest.raises(TypeError):
        make_ensemble(Method.FREQUENTIST, data, 5, MEAN, workers=1)
    with pytest.raises(InvalidInputError, match="Dataset"):
        make_ensemble(Method.FREQUENTIST, [1.0, 2.0], 5, MEAN)
    for seed in (True, False, -1, 2**64, 1.0, "3"):
        with pytest.raises(InvalidInputError, match="seed"):
            make_ensemble(Method.FREQUENTIST, data, 5, MEAN, master_seed=seed)


@pytest.mark.parametrize("count", [2.5, math.nan, "2", 2.0, np.float64(3.0), True, False])
def test_make_ensemble_rejects_non_integral_b(count):
    data = Dataset([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        make_ensemble(Method.FREQUENTIST, data, count, MEAN)


def test_make_ensemble_accepts_numpy_integer_counts():
    data = Dataset([1.0, 2.0])
    ens = make_ensemble(Method.FREQUENTIST, data, np.int64(3), MEAN)
    assert ens.b == 3 and type(ens.b) is int


def test_ensemble_validation():
    with pytest.raises(InvalidInputError):
        Ensemble(Method.FREQUENTIST, MEAN, np.array([np.inf]), 0, 1)
    with pytest.raises(InvalidInputError):
        Ensemble(Method.FREQUENTIST, MEAN, np.ones((2, 1)), 0, 2)
    for master_seed, n in ((-5, 2), (2**70, 2), (0, -1), (0, 0), (0, 2.5)):
        with pytest.raises(InvalidInputError):
            Ensemble(Method.FREQUENTIST, MEAN, np.ones(2), master_seed, n)
    # b is the number of values, never passed.
    ens = Ensemble(Method.FREQUENTIST, MEAN, [1, 2, 3], 0, 2)
    assert ens.b == 3 and type(ens.b) is int
    with pytest.raises(TypeError):
        Ensemble(Method.FREQUENTIST, MEAN, np.ones(2), 0, 2, 2)


def test_ensemble_stores_plain_ints():
    ens = Ensemble(Method.FREQUENTIST, MEAN, np.ones(2), np.uint64(3), np.int64(2))
    assert ens.master_seed == 3 and type(ens.master_seed) is int
    assert ens.n == 2 and type(ens.n) is int


def test_method_labels_round_trip():
    for method in ALL_METHODS:
        assert Method(method.value) is method
