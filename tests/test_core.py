import math

import numpy as np
import pytest
from conftest import ForcedStream

from dpboot import (
    Dataset,
    DiscreteMeasure,
    DPParams,
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
    ks_two_sample,
    parse_functional,
    quantile,
)
from dpboot.core import BaseMeasure, _sample_base


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
    for values in (["1.5"], [True], [1.0, "2"], [None]):
        with pytest.raises(InvalidInputError, match="real numbers"):
            Dataset(values)
    assert Dataset([1, 2]).values.dtype == np.float64  # integers are real numbers


def test_ragged_input_is_invalid_input():
    # numpy refuses ragged nesting with a bare ValueError; the sample rule
    # reports it as what it is.
    with pytest.raises(InvalidInputError, match="one-dimensional"):
        Dataset([[1.0], [1.0, 2.0]])
    with pytest.raises(InvalidInputError, match="first sample must be one-dimensional"):
        ks_two_sample([1.0, [2.0]], [1.0])


def test_dataset_values_are_immutable():
    d = Dataset([3.0, 1.0])
    with pytest.raises(ValueError):
        d.values[0] = 9.0


def test_ecdf_build_singleton():
    e = _ecdf_of([7.0])
    assert list(e.values) == [7.0]
    assert list(e.counts) == [1]
    assert e.n == 1 and type(e.n) is int
    assert isinstance(e, BaseMeasure)  # the empirical CDF is the empirical base measure


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
        EmpiricalCDF(np.array([2.0, 1.0]), np.array([1, 1]))  # not increasing
    with pytest.raises(InvalidInputError):
        EmpiricalCDF(np.array([1.0, 2.0]), np.array([1, 0]))  # zero count
    with pytest.raises(InvalidInputError, match="matching"):
        EmpiricalCDF(np.array([1.0, 2.0]), np.array([2]))  # lengths differ
    for counts in ([1.9, 1], [True], [2.0, 1.0], ["1", "1"]):
        with pytest.raises(InvalidInputError, match="counts must be positive integers"):
            EmpiricalCDF([1.0, 2.0][: len(counts)], counts)
    # n is worked out from the counts, never passed.
    e = EmpiricalCDF([1.0, 2.0], np.array([2, 3], dtype=np.uint8))
    assert e.n == 5 and type(e.n) is int
    with pytest.raises(TypeError):
        EmpiricalCDF([1.0], [1], 1)
    e = _ecdf_of([1.0, 2.0])
    for x in ("1", True, None, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="evaluation point"):
            ecdf_eval(e, x)
    assert ecdf_eval(e, np.float64(1.0)) == ecdf_eval(e, 1) == 0.5


# ---------------------------------------------------------------------------
# Base measures and sampling


def test_base_sample_single_atom():
    base = _ecdf_of([7.0])
    assert base_sample(base, RngStream(0, 0)) == 7.0


def test_base_sample_degenerate_mixture():
    base = MixtureBase(((1.0, _ecdf_of([5.0])),))
    assert base_sample(base, RngStream(1, 0)) == 5.0


def test_base_sample_uniform_identity_inverse_cdf():
    assert base_sample(UniformBase(0.0, 1.0), ForcedStream(value=0.25)) == 0.25
    assert base_sample(UniformBase(10.0, 20.0), ForcedStream(value=0.5)) == 15.0


def test_base_sample_mixture_component_selection():
    # First uniform 0.7 picks the second component (cut at 0.5); second
    # uniform 0.0 picks that component's first support point.
    base = MixtureBase(((0.5, _ecdf_of([1.0])), (0.5, _ecdf_of([9.0]))))
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
    base = ecdf_build(data)
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
    for weight in ("0.5", True, math.nan, math.inf, None):
        with pytest.raises(InvalidInputError, match="weights"):
            MixtureBase(((weight, leaf), (0.5, leaf)))
    with pytest.raises(InvalidInputError, match="base measures"):
        MixtureBase(((0.5, leaf), (0.5, "uniform")))
    # The abstract BaseMeasure names no law: refused when built, not
    # when something is first sampled from it.
    with pytest.raises(InvalidInputError, match="cannot sample from BaseMeasure"):
        MixtureBase(((0.5, leaf), (0.5, BaseMeasure())))
    assert MixtureBase(((np.float64(0.5), leaf), (0.5, leaf))).components[0][0] == 0.5


def test_parametric_validation():
    with pytest.raises(InvalidInputError):
        NormalBase(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        UniformBase(1.0, 1.0)
    for mean, sd in (("0", 1), (True, 1), (0, "1"), (0, True), (math.nan, 1), (0, math.inf)):
        with pytest.raises(InvalidInputError, match="normal base"):
            NormalBase(mean, sd)
    for lo, hi in (("0", 1), (0, "1"), (False, 1), (0, True), (-math.inf, 0), (0, None)):
        with pytest.raises(InvalidInputError, match="uniform base"):
            UniformBase(lo, hi)


# ---------------------------------------------------------------------------
# DPParams and DiscreteMeasure


def test_dp_params_validation():
    # alpha must be finite and positive: the alpha -> 0 limit is only
    # reachable through dp0_posterior.
    for alpha in (0.0, -0.0, -1.0, math.nan, math.inf, "2", True, False, None):
        with pytest.raises(InvalidInputError, match="alpha must be finite and positive"):
            DPParams(alpha, UniformBase(0, 1))
    for base in (None, Dataset([1.0, 2.0])):  # a dataset is not its empirical CDF
        with pytest.raises(InvalidInputError, match="base measure is required"):
            DPParams(2.0, base)
    with pytest.raises(InvalidInputError, match="cannot sample from BaseMeasure"):
        DPParams(2.0, BaseMeasure())
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
    for residual in (-1e-13, "0.5", True, math.nan, None):
        with pytest.raises(InvalidInputError, match="residual"):
            DiscreteMeasure(np.array([0.5]), np.array([0.5]), residual)


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
    with pytest.raises(InvalidInputError, match="weights must hold real numbers"):
        apply_functional(MEAN, [1.0, 2.0], [True, False])
    with pytest.raises(InvalidInputError, match="sample must hold real numbers"):
        apply_functional(MEAN, ["1", "2"])
    assert apply_functional(MEAN, [1, 2], [1, 3]) == 1.75


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
    with pytest.raises(InvalidInputError, match="bad quantile level"):
        parse_functional("q:abc")
    assert quantile(0.25).label() == "q:0.25"
    assert MEAN.label() == "mean"
    # The level goes through the one real-number rule: no strings, no bools.
    for level in ("0.5", True, None):
        with pytest.raises(InvalidInputError, match="quantile level"):
            quantile(level)
    level = parse_functional("q:0.5").p
    assert type(level) is float and level == 0.5
    assert type(quantile(np.float64(0.5)).p) is float


def test_quantile_label_round_trips():
    # Six significant digits where that is exact, every digit otherwise:
    # q:0.9999999 must not print as q:1, which is no functional at all.
    for level in (0.1, 0.25, 1e-7, 0.1234567, 0.9999999):
        f = quantile(level)
        assert parse_functional(f.label()) == f
    assert quantile(0.9999999).label() == "q:0.9999999"
    assert quantile(0.25).label() == "q:0.25"


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


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [0, 1, 2**64 - 1])
def test_generator_is_philox_keyed_by_seed_and_stream(seed, stream_id):
    # The stream is numpy's Philox keyed (seed, stream_id) at counter 0,
    # however the generator is built.
    def keyed():
        key = np.array([seed, stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def same_state(a, b):  # the state dict holds small arrays, printed in full
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)

    stream = RngStream(seed, stream_id)
    gen, ref = stream.generator(), keyed()
    same_state(gen, ref)
    for k in (1, 3, 4, 5, 1000):
        assert gen.random(k).tobytes() == ref.random(k).tobytes()
        same_state(gen, ref)
        assert stream.generator().random(k).tobytes() == keyed().random(k).tobytes()
    # Every call is a fresh generator at the start of the stream.
    first, second = stream.generator(), stream.generator()
    assert first.bit_generator is not second.bit_generator
    head = first.random(5)
    assert second.random(5).tobytes() == head.tobytes()
    assert stream.generator().random(5).tobytes() == head.tobytes()


def test_rng_stream_validation():
    with pytest.raises(InvalidInputError):
        RngStream(-1, 0)
    with pytest.raises(InvalidInputError):
        RngStream(0, 1 << 64)
    with pytest.raises(InvalidInputError):
        RngStream(1.5, 0)
    for seed, stream_id in ((True, 0), (0, False), (np.bool_(True), 0)):
        with pytest.raises(InvalidInputError):
            RngStream(seed, stream_id)


def test_derive_seed_is_deterministic_and_spread():
    seeds = [derive_seed(77, i) for i in range(100)]
    assert seeds == [derive_seed(77, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert derive_seed(77, 0) != derive_seed(78, 0)
    assert derive_seed(2**64 - 1, 0) == derive_seed(np.uint64(2**64 - 1), 0)
    for seed in (-1, 2**64 + 5, 1.5, True):
        with pytest.raises(InvalidInputError):
            derive_seed(seed, 0)
