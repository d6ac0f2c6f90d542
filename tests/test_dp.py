import math

import numpy as np
import pytest
from conftest import ForcedStream

from dpboot import (
    Dataset,
    DiscreteMeasure,
    DPParams,
    EmpiricalCDF,
    InvalidInputError,
    NormalBase,
    RngStream,
    UniformBase,
    atom_masses,
    conjugate_update,
    dp0_posterior,
    ecdf_build,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    measure_sample,
    polya_urn_predictive,
    stick_break,
)
from dpboot import dp as dp_module
from dpboot.core import BaseMeasure, MixtureBase


def _beta1_cdf(shape_b):
    """Closed-form Beta(1, b) CDF: F(x) = 1 - (1-x)^b."""

    def cdf(x):
        x = min(max(x, 0.0), 1.0)
        return 1.0 - (1.0 - x) ** shape_b

    return cdf


# ---------------------------------------------------------------------------
# Conjugate updating


def test_conjugate_update_basic():
    post = conjugate_update(DPParams(2.0, NormalBase(0.0, 1.0)), Dataset([1.0, 2.0, 3.0]))
    assert post.alpha == 5.0
    (w0, m0), (w1, m1) = post.base.components
    assert abs(w0 - 0.4) <= 1e-15
    assert abs(w1 - 0.6) <= 1e-15
    assert isinstance(m0, NormalBase)
    assert isinstance(m1, EmpiricalCDF)
    assert list(m1.values) == [1.0, 2.0, 3.0]


def test_conjugate_update_single_point():
    post = conjugate_update(DPParams(1.0, UniformBase(0.0, 1.0)), Dataset([5.0]))
    assert post.alpha == 2.0
    (w0, _), (w1, m1) = post.base.components
    assert w0 == 0.5 and w1 == 0.5
    assert list(m1.values) == [5.0]


def test_conjugate_update_large_alpha_favors_prior():
    post = conjugate_update(DPParams(1e6, NormalBase(0.0, 1.0)), Dataset([1.0, 2.0, 3.0]))
    w_prior = post.base.components[0][0]
    assert w_prior > 0.999
    assert abs(w_prior - 1e6 / (1e6 + 3)) <= 1e-15


def test_conjugate_update_alpha_grows_by_n_exactly():
    for alpha in (0.5, 2.0, 17.0):
        for n in (1, 4, 9):
            post = conjugate_update(
                DPParams(alpha, UniformBase(0, 1)), Dataset(np.arange(float(n)))
            )
            assert post.alpha - alpha == n


def test_conjugate_update_collapses_pooled_empirical_prior():
    # Prior and data put equal mass (1/4) on each observation, so they
    # pool into one empirical base of weight 1 rather than a mixture.
    prior = DPParams(2.0, ecdf_build(Dataset([1.0, 2.0])))
    post = conjugate_update(prior, Dataset([3.0, 4.0]))
    assert post.alpha == 4.0
    assert isinstance(post.base, EmpiricalCDF)
    assert list(post.base.support) == [1.0, 2.0, 3.0, 4.0]


def test_conjugate_update_is_batch_associative():
    prior = DPParams(2.5, NormalBase(1.0, 2.0))
    a = Dataset([1.0, 2.0, 2.0])
    b = Dataset([4.0, 5.0])
    both = Dataset(np.concatenate([a.values, b.values]))

    chained = conjugate_update(conjugate_update(prior, a), b)
    batch = conjugate_update(prior, both)

    assert chained.alpha == batch.alpha
    cw = [w for w, _ in chained.base.components]
    bw = [w for w, _ in batch.base.components]
    assert len(cw) == len(bw) == 2
    assert all(abs(x - y) <= 1e-12 for x, y in zip(cw, bw))
    ce = chained.base.components[1][1]
    be = batch.base.components[1][1]
    assert np.array_equal(ce.values, be.values)
    assert np.array_equal(ce.counts, be.counts)
    assert ce.n == be.n == 5


# ---------------------------------------------------------------------------
# Weak-limit posterior


def test_dp0_posterior_shape():
    post = dp0_posterior(Dataset([3.0, 1.0, 4.0, 1.0]))
    assert post.alpha == 4.0
    assert isinstance(post.base, EmpiricalCDF)
    assert list(post.base.values) == [1.0, 3.0, 4.0]

    single = dp0_posterior(Dataset([7.0]))
    assert single.alpha == 1.0
    assert list(single.base.values) == [7.0]


@pytest.mark.parametrize("alpha", [1e-6, 1e-9])
def test_dp0_posterior_is_small_alpha_limit(alpha):
    data = Dataset([1.0, 2.0, 3.0, 4.0])
    limit = dp0_posterior(data)
    approx = conjugate_update(DPParams(alpha, NormalBase(0.0, 1.0)), data)
    assert abs(approx.alpha - limit.alpha) <= 1e-5
    w_prior, w_emp = (w for w, _ in approx.base.components)
    assert abs(w_emp - 1.0) <= 1e-5
    assert abs(w_prior - 0.0) <= 1e-5


# ---------------------------------------------------------------------------
# Stick-breaking


def test_stick_break_forced_halves():
    # alpha=1 makes the stick fraction 1-u = 0.5 each round, so the
    # weights halve: 1/2, 1/4, 1/8, 1/16; the remainder drops below 0.1
    # after the fourth stick.
    dp = DPParams(1.0, UniformBase(0.0, 1.0))
    m = stick_break(dp, 0.1, ForcedStream(value=0.5))
    assert np.allclose(m.weights, [0.5, 0.25, 0.125, 0.0625], rtol=0, atol=1e-15)
    assert len(m) == 4
    assert m.residual == 0.0625


def test_stick_break_immediate_truncation():
    # epsilon 0.999: a single stick suffices whenever v1 > 0.001.
    dp = DPParams(1.0, UniformBase(0.0, 1.0))
    m = stick_break(dp, 0.999, ForcedStream(value=0.3))
    assert len(m) == 1


def test_stick_break_validation():
    dp = DPParams(1.0, UniformBase(0.0, 1.0))
    with pytest.raises(InvalidInputError):
        stick_break(dp, 0.0, RngStream(0, 0))
    with pytest.raises(InvalidInputError):
        stick_break(dp, 1.0, RngStream(0, 0))
    with pytest.raises(InvalidInputError, match="cannot sample from BaseMeasure"):
        stick_break(DPParams(1.0, BaseMeasure()), 0.5, RngStream(0, 0))


def test_stick_break_reports_non_convergence(monkeypatch):
    # At alpha 1000 a remainder of 1e-300 takes about 690,000 sticks;
    # a cap of three blocks (about 83,000 sticks) gives out first.
    monkeypatch.setattr(dp_module, "_STICK_TOTAL_CAP", 3 * math.ceil(1000 * math.log(1e12)))
    dp = DPParams(1000.0, UniformBase(0.0, 1.0))
    with pytest.raises(InvalidInputError, match="did not converge"):
        stick_break(dp, 1e-300, RngStream(0, 0))


def test_stick_break_mass_accounting():
    data = Dataset(RngStream(5, 0).generator().random(25))
    dp = dp0_posterior(data)
    for i in range(40):
        m = stick_break(dp, 1e-10, RngStream(6, i))
        assert np.all(m.weights > 0)
        assert m.residual < 1e-10
        assert abs(m.weights.sum() + m.residual - 1.0) <= 1e-12
        assert set(m.atoms) <= set(data.values)


def test_stick_break_refinement_keeps_prefix():
    # Tightening epsilon on the same stream must extend the run, not
    # reshuffle it: the coarse measure is a prefix of the fine one.
    dp = DPParams(3.0, UniformBase(0.0, 1.0))
    for i in range(10):
        coarse = stick_break(dp, 1e-2, RngStream(21, i))
        fine = stick_break(dp, 1e-6, RngStream(21, i))
        k = len(coarse)
        assert len(fine) > k
        assert np.array_equal(fine.atoms[:k], coarse.atoms)
        assert np.array_equal(fine.weights[:k], coarse.weights)


def test_stick_weights_decrease_in_expectation():
    dp = DPParams(2.0, UniformBase(0.0, 1.0))
    first3 = np.array(
        [stick_break(dp, 1e-6, RngStream(31, i)).weights[:3] for i in range(2000)]
    )
    means = first3.mean(axis=0)
    assert means[0] > means[1] > means[2]


def test_stick_break_posterior_masses_are_dirichlet_marginal():
    # Renormalized mass on one atom of DP(n, empirical) is Beta(1, n-1);
    # cheap version of the larger acceptance check.
    n, reps = 6, 1500
    data = Dataset(np.arange(1.0, n + 1.0))
    dp = dp0_posterior(data)
    grid = ecdf_build(data).values
    masses = np.array(
        [atom_masses(stick_break(dp, 1e-10, RngStream(40, i)), grid)[0] for i in range(reps)]
    )
    assert abs(masses.mean() - 1.0 / n) < 3 * math.sqrt((n - 1) / (n**2 * (n + 1)) / reps)
    d = ks_one_sample(masses, _beta1_cdf(n - 1))
    assert kolmogorov_sf(math.sqrt(reps) * d) > 0.01


# ---------------------------------------------------------------------------
# Drawing from a realized measure


def test_measure_sample_degenerate():
    m = DiscreteMeasure(np.array([5.0]), np.array([1.0]), 0.0)
    out = measure_sample(m, 3, RngStream(0, 0))
    assert list(out.values) == [5.0, 5.0, 5.0]


def test_measure_sample_renormalizes_residual():
    # Residual 0.2 is split across the kept atoms: the draws stay 50/50.
    m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.4, 0.4]), 0.2)
    out = measure_sample(m, 4000, RngStream(9, 0))
    assert set(out.values) <= {0.0, 1.0}
    assert abs(out.values.mean() - 0.5) < 3 * math.sqrt(0.25 / 4000)


def test_measure_sample_mean_matches_binomial_error():
    m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.0)
    count = 2500
    out = measure_sample(m, count, RngStream(10, 0))
    assert abs(out.values.mean() - 0.5) < 3 * math.sqrt(0.25 / count)


def test_measure_sample_validation():
    m = DiscreteMeasure(np.array([5.0]), np.array([1.0]), 0.0)
    for count in (0, 2.5):
        with pytest.raises(InvalidInputError):
            measure_sample(m, count, RngStream(0, 0))


# ---------------------------------------------------------------------------
# Polya urn


def test_polya_urn_first_draw_comes_from_base():
    data = Dataset([1.0, 2.0, 3.0])
    dp = dp0_posterior(data)
    draws = np.array(
        [polya_urn_predictive(dp, 1, RngStream(50, i)).values[0] for i in range(3000)]
    )
    assert set(draws) <= {1.0, 2.0, 3.0}
    for v in (1.0, 2.0, 3.0):
        assert abs((draws == v).mean() - 1 / 3) < 3 * math.sqrt(2 / 9 / 3000)


def test_polya_urn_marginals_stay_uniform():
    # With concentration n over n distinct values, every position keeps
    # the flat marginal; check the last draw, the most copy-prone one.
    data = Dataset([1.0, 2.0, 3.0, 4.0])
    dp = dp0_posterior(data)
    last = np.array(
        [polya_urn_predictive(dp, 4, RngStream(51, i)).values[-1] for i in range(4000)]
    )
    for v in (1.0, 2.0, 3.0, 4.0):
        assert abs((last == v).mean() - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 4000)


def test_polya_urn_validation():
    dp = dp0_posterior(Dataset([1.0]))
    for count in (0, 2.5):
        with pytest.raises(InvalidInputError):
            polya_urn_predictive(dp, count, RngStream(0, 0))


def test_urn_and_stick_sampling_agree_on_the_mean():
    # Same process, two routes: urn draws vs stick-break + IID draws.
    data = Dataset(RngStream(60, 0).generator().random(12))
    dp = dp0_posterior(data)
    b = 800
    urn_means = np.array(
        [polya_urn_predictive(dp, 12, RngStream(61, i)).values.mean() for i in range(b)]
    )
    stick_means = np.empty(b)
    for i in range(b):
        rng = RngStream(62, i)
        m = stick_break(dp, 1e-10, rng)
        stick_means[i] = measure_sample(m, 12, RngStream(63, i)).values.mean()
    d = ks_two_sample(urn_means, stick_means)
    assert kolmogorov_sf(math.sqrt(b / 2) * d) > 0.01


# ---------------------------------------------------------------------------
# atom_masses


def test_atom_masses_aggregates_and_renormalizes():
    m = DiscreteMeasure(np.array([1.0, 2.0, 1.0]), np.array([0.3, 0.5, 0.1]), 0.1)
    masses = atom_masses(m, [1.0, 2.0, 3.0])
    assert np.allclose(masses, [0.4 / 0.9, 0.5 / 0.9, 0.0], atol=1e-15)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_atom_masses_rejects_unknown_atoms():
    m = DiscreteMeasure(np.array([1.0, 2.5]), np.array([0.5, 0.5]), 0.0)
    with pytest.raises(InvalidInputError):
        atom_masses(m, [1.0, 2.0])
    with pytest.raises(InvalidInputError):
        atom_masses(m, [2.5, 1.0])  # not increasing
    for grid in (["1.0", "2.5"], [[1.0, 2.5]], [], [1.0, math.nan]):
        with pytest.raises(InvalidInputError, match="query values"):
            atom_masses(m, grid)
    assert list(atom_masses(DiscreteMeasure([1.0], [1.0], 0.0), [0, 1])) == [0.0, 1.0]
