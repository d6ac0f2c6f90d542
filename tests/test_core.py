import math

import numpy as np
import pytest
from conftest import ForcedStream

from dpboot import (
    Dataset,
    DiscreteMeasure,
    DPParams,
    EmpiricalBase,
    EmpiricalCDF,
    Functional,
    InvalidInputError,
    MEAN,
    MEDIAN,
    MixtureBase,
    NormalBase,
    RngStream,
    STDDEV,
    UniformBase,
    apply_functional,
    base_sample,
    derive_seed,
    ecdf_build,
    ecdf_eval,
    parse_functional,
    quantile,
)
from dpboot.core import _sample_base


def _ecdf_of(values):
    return ecdf_build(Dataset(values))


# ---------------------------------------------------------------------------
# Dataset and ECDF


def test_dataset_rejects_empty_and_nonfinite():
    with pytest.raises(InvalidInputError):
        Dataset([])
    with pytest.raises(InvalidInputError):
        Dataset([1.0, float("nan")])
    with pytest.raises(InvalidInputError):
        Dataset([float("inf")])


def test_dataset_values_are_immutable():
    d = Dataset([3.0, 1.0])
    with pytest.raises(ValueError):
        d.values[0] = 9.0


def test_ecdf_build_singleton():
    e = _ecdf_of([7.0])
    assert list(e.values) == [7.0]
    assert list(e.counts) == [1]
    assert e.n == 1


def test_ecdf_build_counts_multiplicities():
    e = _ecdf_of([1.0, 2.0, 2.0, 4.0])
    assert list(e.values) == [1.0, 2.0, 4.0]
    assert list(e.counts) == [1, 2, 1]
    assert e.n == 4


def test_ecdf_build_sorts_permutation():
    e = _ecdf_of([3.0, 1.0, 2.0])
    assert list(e.values) == [1.0, 2.0, 3.0]
    assert list(e.counts) == [1, 1, 1]
    assert e.n == 3


def test_ecdf_eval_examples():
    e = _ecdf_of([1.0, 2.0, 2.0, 4.0])
    assert ecdf_eval(e, 2.0) == 0.75
    assert ecdf_eval(e, 0.0) == 0.0
    assert ecdf_eval(e, 4.0) == 1.0


def test_ecdf_eval_is_right_continuous_step():
    e = _ecdf_of([1.0, 2.0, 2.0, 4.0])
    assert ecdf_eval(e, 2.0 - 1e-9) == 0.25
    assert ecdf_eval(e, 1e9) == 1.0
    with pytest.raises(InvalidInputError):
        ecdf_eval(e, float("nan"))


def test_ecdf_monotone_and_bounded_on_random_data():
    for seed in range(20):
        gen = RngStream(seed, 0).generator()
        data = Dataset(np.round(gen.random(30) * 10) / 10)  # force some ties
        e = ecdf_build(data)
        assert int(e.counts.sum()) == len(data)
        grid = np.linspace(data.values.min() - 1, data.values.max() + 1, 50)
        vals = [ecdf_eval(e, x) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert ecdf_eval(e, data.values.min() - 1e-9) == 0.0
        assert ecdf_eval(e, data.values.max()) == 1.0


def test_ecdf_validation():
    with pytest.raises(InvalidInputError):
        EmpiricalCDF(np.array([2.0, 1.0]), np.array([1, 1]), 2)  # not increasing
    with pytest.raises(InvalidInputError):
        EmpiricalCDF(np.array([1.0, 2.0]), np.array([1, 0]), 1)  # zero count
    with pytest.raises(InvalidInputError):
        EmpiricalCDF(np.array([1.0]), np.array([2]), 1)  # counts mismatch n


# ---------------------------------------------------------------------------
# Base measures and sampling


def test_base_sample_single_atom():
    base = EmpiricalBase(_ecdf_of([7.0]))
    assert base_sample(base, RngStream(0, 0)) == 7.0


def test_base_sample_degenerate_mixture():
    base = MixtureBase(((1.0, EmpiricalBase(_ecdf_of([5.0]))),))
    assert base_sample(base, RngStream(1, 0)) == 5.0


def test_base_sample_uniform_identity_inverse_cdf():
    assert base_sample(UniformBase(0.0, 1.0), ForcedStream(value=0.25)) == 0.25
    assert base_sample(UniformBase(10.0, 20.0), ForcedStream(value=0.5)) == 15.0


def test_base_sample_mixture_component_selection():
    # First uniform 0.7 picks the second component (cut at 0.5); second
    # uniform 0.0 picks that component's first support point.
    base = MixtureBase(
        ((0.5, EmpiricalBase(_ecdf_of([1.0]))), (0.5, EmpiricalBase(_ecdf_of([9.0]))))
    )
    assert base_sample(base, ForcedStream(sequence=[0.7, 0.0])) == 9.0
    assert base_sample(base, ForcedStream(sequence=[0.2, 0.0])) == 1.0


def test_base_sample_normal_median():
    assert base_sample(NormalBase(3.0, 2.0), ForcedStream(value=0.5)) == pytest.approx(3.0)


def test_base_sample_normal_matches_scipy_ndtri():
    special = pytest.importorskip("scipy.special")
    u = np.array([1e-300, 1e-12, 1e-6, 0.01, 0.2, 0.5, 0.75, 0.975, 1 - 1e-9, 1 - 2**-53])
    for mu, sd in ((0.0, 1.0), (3.0, 2.0), (-1e3, 0.25)):
        got = _sample_base(NormalBase(mu, sd), u.size, ForcedStream(sequence=u).generator())
        np.testing.assert_allclose(got, mu + sd * special.ndtri(u), rtol=1e-12, atol=1e-12)


def test_empirical_sampling_respects_support_and_multiplicity():
    data = Dataset([1.0, 2.0, 2.0, 4.0])
    base = EmpiricalBase(ecdf_build(data))
    gen = RngStream(11, 0).generator()
    draws = np.array([base_sample(base, RngStream(11, i)) for i in range(400)])
    assert set(draws) <= {1.0, 2.0, 4.0}
    # value 2.0 carries half the mass; 3-sigma binomial band
    frac = (draws == 2.0).mean()
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 400)


def test_mixture_validation():
    leaf = UniformBase(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        MixtureBase(())
    with pytest.raises(InvalidInputError):
        MixtureBase(((0.5, leaf), (0.6, leaf)))  # sum != 1
    with pytest.raises(InvalidInputError):
        MixtureBase(((1.0, MixtureBase(((1.0, leaf),))),))  # nested
    with pytest.raises(InvalidInputError):
        MixtureBase(((-0.5, leaf), (1.5, leaf)))


def test_parametric_validation():
    with pytest.raises(InvalidInputError):
        NormalBase(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        UniformBase(1.0, 1.0)


# ---------------------------------------------------------------------------
# DPParams and DiscreteMeasure


def test_dp_params_validation():
    # alpha must be finite and positive: the alpha -> 0 limit is only
    # reachable through dp0_posterior.
    for alpha in (0.0, -0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="alpha"):
            DPParams(alpha, UniformBase(0, 1))
    with pytest.raises(InvalidInputError, match="base measure is required"):
        DPParams(2.0, None)
    with pytest.raises(TypeError):
        DPParams(2.0)  # the base has no default
    dp = DPParams(2, UniformBase(0, 1))
    assert dp.alpha == 2.0 and isinstance(dp.alpha, float)


def test_discrete_measure_validation():
    DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.4, 0.4]), 0.2)
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(np.array([0.0]), np.array([0.5]), 0.1)  # sum != 1
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(np.array([0.0]), np.array([0.0]), 1.0)  # zero weight
    with pytest.raises(InvalidInputError):
        DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0]), 0.0)  # length mismatch


# ---------------------------------------------------------------------------
# Functionals


def test_functional_examples():
    assert apply_functional(MEAN, [1.0, 2.0, 3.0]) == 2.0
    assert apply_functional(MEDIAN, [1.0, 2.0, 3.0]) == 2.0
    assert apply_functional(MEAN, [0.0, 10.0], [0.9, 0.1]) == pytest.approx(1.0, abs=1e-12)


def test_functional_errors():
    with pytest.raises(InvalidInputError):
        apply_functional(MEAN, [])
    with pytest.raises(InvalidInputError):
        apply_functional(MEAN, [1.0, 2.0], [1.0])  # length mismatch
    with pytest.raises(InvalidInputError):
        apply_functional(MEAN, [1.0, 2.0], [0.0, 0.0])  # all-zero weights
    with pytest.raises(InvalidInputError):
        apply_functional(MEAN, [1.0, 2.0], [-1.0, 2.0])


def test_quantile_is_left_continuous_inverse():
    # Smallest value whose cumulative weight reaches the level.
    assert apply_functional(MEDIAN, [1.0, 2.0]) == 1.0
    assert apply_functional(MEDIAN, [1.0, 2.0, 3.0, 4.0]) == 2.0
    assert apply_functional(quantile(0.25), [1.0, 2.0, 3.0, 4.0]) == 1.0
    assert apply_functional(quantile(0.26), [1.0, 2.0, 3.0, 4.0]) == 2.0
    # Zero-weight points are never selected past their mass point.
    assert apply_functional(quantile(0.6), [1.0, 2.0, 3.0], [1.0, 0.0, 1.0]) == 3.0


def test_uniform_weights_match_unweighted():
    # Bit for bit, on plain, tied and offset samples.
    gen = RngStream(3, 0).generator()
    functionals = [MEAN, MEDIAN, STDDEV, quantile(0.3), quantile(0.9)]
    for trial in range(75):
        y = gen.random(1 + int(gen.random() * 40)) * 10
        if trial % 3 == 1:
            y = np.round(y)
        elif trial % 3 == 2:
            y = y + 1e3
        w = np.full(y.size, 1.0)
        for f in functionals:
            assert apply_functional(f, y) == apply_functional(f, y, w)


def test_weighted_sd_is_population_style():
    y = [1.0, 3.0]
    # population sd of {1, 3} is 1, not the sample-corrected sqrt(2)
    assert apply_functional(STDDEV, y) == 1.0
    assert apply_functional(STDDEV, y, [2.0, 2.0]) == 1.0


def test_functional_construction():
    with pytest.raises(InvalidInputError):
        quantile(0.0)
    with pytest.raises(InvalidInputError):
        quantile(1.0)
    with pytest.raises(InvalidInputError):
        Functional("mean", 0.5)
    with pytest.raises(InvalidInputError):
        Functional("mode")
    assert parse_functional("q:0.25") == quantile(0.25)
    assert parse_functional("sd") == STDDEV
    with pytest.raises(InvalidInputError):
        parse_functional("q:2")
    with pytest.raises(InvalidInputError):
        parse_functional("max")
    assert quantile(0.25).label() == "q:0.25"
    assert MEAN.label() == "mean"


# ---------------------------------------------------------------------------
# RNG streams


def test_identical_streams_are_byte_identical():
    a = RngStream(123456789, 42).generator().random(256)
    b = RngStream(123456789, 42).generator().random(256)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(1, 0).generator().random(64)
    b = RngStream(1, 1).generator().random(64)
    c = RngStream(2, 0).generator().random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_validation():
    with pytest.raises(InvalidInputError):
        RngStream(-1, 0)
    with pytest.raises(InvalidInputError):
        RngStream(0, 1 << 64)
    with pytest.raises(InvalidInputError):
        RngStream(1.5, 0)


def test_derive_seed_is_deterministic_and_spread():
    seeds = [derive_seed(77, i) for i in range(100)]
    assert seeds == [derive_seed(77, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert derive_seed(77, 0) != derive_seed(78, 0)
    assert derive_seed(2**64 - 1, 0) == derive_seed(np.uint64(2**64 - 1), 0)
    for seed in (-1, 2**64 + 5, 1.5):
        with pytest.raises(InvalidInputError):
            derive_seed(seed, 0)
