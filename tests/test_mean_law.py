"""The exact posterior law of the mean as a closed-form oracle.

Under the weak-limit posterior DP(n, ecdf), the mean functional is
sum_i D_i x_i with D ~ Dirichlet(1, ..., 1).  For distinct x its
survival function is (Weisberg 1971)

    P(sum_i D_i x_i > t) = sum_i (x_i - t)_+^(n-1) / prod_{j != i} (x_i - x_j).

The sum cancels badly in floating point, so it is evaluated exactly in
rationals on the float data.  Tied knots would need confluent divided
differences there.  The same survival function is a B-spline in t
(Curry and Schoenberg 1966), which the clamped de Boor-Cox recurrence
evaluates in floating point on any data: a tie is a repeated knot.
"""

from fractions import Fraction

import numpy as np
import pytest

from dpboot import MEAN, Dataset, Method, RngStream, ks_critical, ks_one_sample, make_ensemble


def _mean_posterior_cdf(values):
    """Exact CDF of the Dirichlet(1, ..., 1)-weighted mean of distinct values."""
    xs = [Fraction(float(v)) for v in values]
    if len(set(xs)) != len(xs):
        raise ValueError("the closed form needs distinct values")
    power = len(xs) - 1
    denominators = []
    for i, xi in enumerate(xs):
        prod = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                prod *= xi - xj
        denominators.append(prod)

    def cdf(t):
        t = Fraction(float(t))
        tail = sum(
            ((xi - t) ** power / d for xi, d in zip(xs, denominators) if xi > t),
            Fraction(0),
        )
        return float(1 - tail)

    return cdf


def _mean_posterior_sf(values, t):
    """P(sum_i D_i x_i > t) by the clamped de Boor-Cox recurrence.

    On the sorted knots x: S_0^i = [x_i > t], and S_k^i is 1 if
    t < x_i, 0 if t >= x_{i+k}, otherwise
    ((t - x_i) S_{k-1}^i + (x_{i+k} - t) S_{k-1}^{i+1}) / (x_{i+k} - x_i).
    The answer is S_{n-1}^0.  The clamp also covers every tie, where
    x_i = x_{i+k}.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    s = (x > t).astype(np.float64)
    for k in range(1, x.size):
        lo, hi = x[:-k], x[k:]
        with np.errstate(divide="ignore", invalid="ignore"):
            mixed = ((t - lo) * s[:-1] + (hi - t) * s[1:]) / (hi - lo)
        s = np.where(t < lo, 1.0, np.where(t >= hi, 0.0, mixed))
    return float(s[0])


def test_mean_posterior_cdf_closed_form_checks():
    # n = 2: D_1 ~ U(0, 1), so the mean of {0, 1} is uniform on [0, 1].
    cdf = _mean_posterior_cdf([0.0, 1.0])
    assert [cdf(t) for t in (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)] == [0, 0, 0.25, 0.5, 1, 1]
    # n = 3 on {0, 1, 2}: a symmetric law, exact at the centre and ends.
    cdf = _mean_posterior_cdf([2.0, 0.0, 1.0])
    assert (cdf(0.0), cdf(1.0), cdf(2.0)) == (0.0, 0.5, 1.0)
    # The region D_2 + 2 D_3 <= 1/2 is a triangle holding 1/8 of the simplex.
    assert cdf(0.5) == 0.125
    with pytest.raises(ValueError):
        _mean_posterior_cdf([1.0, 1.0, 2.0])


def _ks_to_exact_law(method, data, b, master_seed):
    ensemble = make_ensemble(method, data, b, MEAN, master_seed=master_seed)
    return ks_one_sample(ensemble, _mean_posterior_cdf(data.values))


def test_posterior_mean_ensembles_follow_exact_law_n5():
    data = Dataset(RngStream(1, 0).generator().random(5))
    b = 4000
    critical = ks_critical(0.01, b)
    assert _ks_to_exact_law(Method.DP_STICK_BREAK, data, b, 101) < critical
    assert _ks_to_exact_law(Method.BAYESIAN_DIRICHLET, data, b, 101) < critical
    # The bootstrap mean is discrete on n = 5 points: the oracle tells
    # it apart from the posterior at the same size.
    assert _ks_to_exact_law(Method.FREQUENTIST, data, b, 101) > critical


def test_posterior_mean_ensembles_follow_exact_law_n25():
    data = Dataset(RngStream(42, 0).generator().random(25))
    b = 1000
    critical = ks_critical(0.01, b)
    assert _ks_to_exact_law(Method.DP_STICK_BREAK, data, b, 7) < critical
    assert _ks_to_exact_law(Method.BAYESIAN_DIRICHLET, data, b, 7) < critical


def test_de_boor_cox_matches_exact_law_on_distinct_data():
    values = RngStream(42, 0).generator().random(25)
    cdf = _mean_posterior_cdf(values)
    for t in np.linspace(values.min() - 0.01, values.max() + 0.01, 41):
        assert abs((1.0 - _mean_posterior_sf(values, t)) - cdf(t)) <= 1e-12


def test_de_boor_cox_on_two_tied_values_is_a_beta_law():
    # a copies of 0 and b copies of 1: the mean is the mass on 1, Beta(b, a).
    stats = pytest.importorskip("scipy.stats")
    for a, b in ((1, 2), (2, 1), (5, 7), (12, 13)):
        values = [0.0] * a + [1.0] * b
        for t in np.linspace(0.0, 1.0, 21):
            expected = stats.beta.sf(t, b, a)
            assert abs(_mean_posterior_sf(values, t) - expected) <= 1e-12


def test_posterior_mean_ensembles_follow_exact_law_tied_n25():
    # Eighths of the unit interval: 25 values on at most 9 distinct knots.
    data = Dataset(np.round(RngStream(43, 0).generator().random(25) * 8) / 8)
    assert np.unique(data.values).size < 10
    b = 1000
    critical = ks_critical(0.01, b)
    for method in (Method.BAYESIAN_DIRICHLET, Method.DP_STICK_BREAK):
        ensemble = make_ensemble(method, data, b, MEAN, master_seed=8)
        distance = ks_one_sample(ensemble, lambda t: 1.0 - _mean_posterior_sf(data.values, t))
        assert distance < critical, (method.value, distance)
