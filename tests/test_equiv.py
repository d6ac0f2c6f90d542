import math

import numpy as np
import pytest

from dpboot import (
    Dataset,
    InvalidInputError,
    MEAN,
    Method,
    RngStream,
    UniformBase,
    Verdict,
    compare,
    convergence_experiment,
    equivalence_verdict,
    kolmogorov_sf,
    ks_critical,
    ks_one_sample,
    ks_two_sample,
    self_calibrate,
    wasserstein1,
)
from dpboot.core import BaseMeasure


# ---------------------------------------------------------------------------
# Brute-force oracles: ECDF differences evaluated by direct counting.


def brute_ks(a, b):
    points = sorted(set(a) | set(b))
    return max(
        abs(sum(x <= t for x in a) / len(a) - sum(y <= t for y in b) / len(b))
        for t in points
    )


def brute_w1_cdf_area(a, b):
    # W1 equals the area between the two ECDFs, integrated exactly over
    # the piecewise-constant segments.
    pool = sorted(set(a) | set(b))
    total = 0.0
    for x0, x1 in zip(pool, pool[1:]):
        fa = sum(v <= x0 for v in a) / len(a)
        fb = sum(v <= x0 for v in b) / len(b)
        total += abs(fa - fb) * (x1 - x0)
    return total


# ---------------------------------------------------------------------------
# Two-sample KS


def test_ks_examples():
    assert ks_two_sample([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ks_two_sample([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert ks_two_sample([1.0, 3.0], [2.0, 4.0]) == 0.5


def test_ks_matches_brute_force_on_random_samples():
    gen = RngStream(1, 0).generator()
    for _ in range(30):
        a = list(np.round(gen.random(1 + int(gen.random() * 12)) * 5, 1))
        b = list(np.round(gen.random(1 + int(gen.random() * 12)) * 5, 1))
        assert abs(ks_two_sample(a, b) - brute_ks(a, b)) <= 1e-15


def test_ks_symmetry_bounds_and_transform_invariance():
    gen = RngStream(2, 0).generator()
    for _ in range(20):
        a = gen.random(15)
        b = gen.random(9)
        d = ks_two_sample(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ks_two_sample(b, a)
        # any common strictly increasing transform preserves ECDF steps
        assert d == ks_two_sample(np.exp(a), np.exp(b))
        assert d == ks_two_sample(3 * a + 1, 3 * b + 1)


def test_ks_zero_iff_identical_multisets():
    assert ks_two_sample([2.0, 1.0, 1.0], [1.0, 1.0, 2.0]) == 0.0
    assert ks_two_sample([1.0, 1.0], [1.0, 2.0]) > 0.0


def test_ks_rejects_empty():
    with pytest.raises(InvalidInputError):
        ks_two_sample([], [1.0])
    with pytest.raises(InvalidInputError):
        ks_two_sample([1.0], [])


def test_ks_rejects_strings_and_bools():
    for a, b in ((["1"], ["2"]), ([True], [1.0]), ([1.0], [False, True])):
        with pytest.raises(InvalidInputError, match="must hold real numbers"):
            ks_two_sample(a, b)
    assert ks_two_sample([1, 2], [2, 3]) == 0.5


# ---------------------------------------------------------------------------
# Wasserstein-1


def test_w1_examples():
    assert wasserstein1([3.0, 1.0], [1.0, 3.0]) == 0.0
    assert wasserstein1([0.0], [5.0]) == 5.0
    assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == 1.0


def test_w1_unequal_lengths_merged_breakpoints():
    # Breakpoints 0, 1/3, 1/2, 2/3, 1.  Quantiles of [0,1] on the four
    # pieces are 0, 0, 1, 1; of [0,1,2] they are 0, 1, 1, 2.  The gap
    # is 1 on (1/3, 1/2] and (2/3, 1]: total 1/6 + 1/3 = 1/2.
    assert wasserstein1([0.0, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(0.5, abs=1e-15)


def test_w1_unequal_lengths_match_cdf_area_oracle():
    gen = RngStream(5, 0).generator()
    for _ in range(25):
        a = list(gen.random(1 + int(gen.random() * 12)) * 4)
        b = list(gen.random(1 + int(gen.random() * 12)) * 4)
        assert abs(wasserstein1(a, b) - brute_w1_cdf_area(a, b)) <= 1e-12


def test_w1_equal_lengths_match_cdf_area_oracle():
    gen = RngStream(3, 0).generator()
    for _ in range(25):
        size = 2 + int(gen.random() * 12)
        a = list(gen.random(size) * 4)
        b = list(gen.random(size) * 4)
        assert abs(wasserstein1(a, b) - brute_w1_cdf_area(a, b)) <= 1e-12


def test_w1_symmetry_shift_and_triangle():
    gen = RngStream(4, 0).generator()
    for _ in range(20):
        a = gen.random(11) * 10
        b = gen.random(11) * 10
        c = gen.random(11) * 10
        assert wasserstein1(a, b) == wasserstein1(b, a)
        assert wasserstein1(a, b) >= 0.0
        assert wasserstein1(a, b) <= wasserstein1(a, c) + wasserstein1(c, b) + 1e-12
        shift = 4.5
        assert abs(wasserstein1(a, a + shift) - shift) <= 1e-12


def test_w1_rejects_empty():
    with pytest.raises(InvalidInputError):
        wasserstein1([], [1.0])


# ---------------------------------------------------------------------------
# One-sample KS and the Kolmogorov law


def test_ks_one_sample_hand_value():
    # Sample {0.25, 0.75} against Uniform(0,1): all four one-sided gaps
    # equal 0.25.
    d = ks_one_sample([0.25, 0.75], lambda x: x)
    assert d == 0.25


def test_ks_one_sample_detects_wrong_cdf():
    gen = RngStream(5, 0).generator()
    u = gen.random(2000)
    assert ks_one_sample(u, lambda x: min(max(x, 0.0), 1.0)) < 0.05
    assert ks_one_sample(u, lambda x: min(max(x, 0.0), 1.0) ** 3) > 0.2


def test_ks_one_sample_rejects_cdf_values_outside_unit_interval():
    # A NaN statistic would compare false against every critical value.
    for value in (math.nan, 7.0, -0.5):
        with pytest.raises(InvalidInputError, match="CDF"):
            ks_one_sample([0.2, 0.5], lambda x, v=value: v)


def test_kolmogorov_sf_reference_points():
    # Classic table values of the sup-bridge law.
    assert kolmogorov_sf(1.3581) == pytest.approx(0.05, abs=2e-3)
    assert kolmogorov_sf(1.6276) == pytest.approx(0.01, abs=5e-4)
    assert kolmogorov_sf(0.8276) == pytest.approx(0.5, abs=5e-3)
    assert kolmogorov_sf(0.01) == 1.0
    assert kolmogorov_sf(5.0) < 1e-10
    assert kolmogorov_sf(math.inf) == 0.0


def test_kolmogorov_sf_rejects_nan():
    # max(0.0, nan) is 0.0: NaN would read as "reject everything".
    with pytest.raises(InvalidInputError):
        kolmogorov_sf(math.nan)


def test_ks_critical_scalings():
    # Two-sample critical value at equal sizes is K * sqrt(2/B).
    c = ks_critical(0.01, 500, 500)
    assert c == pytest.approx(1.6276 * math.sqrt(2 / 500), abs=1e-4)
    assert ks_critical(0.01, 5000) == pytest.approx(1.6276 / math.sqrt(5000), abs=1e-5)
    with pytest.raises(InvalidInputError):
        ks_critical(0.0, 10)


@pytest.mark.parametrize(
    "n, m", [(0, None), (-1, None), (0, 10), (10, 0), (2.5, None), (math.nan, None), (10, 2.5)]
)
def test_ks_critical_rejects_empty_samples(n, m):
    with pytest.raises(InvalidInputError):
        ks_critical(0.01, n, m)


def test_null_ks_exceedance_small_run():
    # ~1% of same-distribution pairs should exceed the 1% critical
    # value; at 200 pairs allow up to 4%.
    b = 500
    crit = ks_critical(0.01, b, b)
    gen = RngStream(6, 0).generator()
    exceed = sum(
        ks_two_sample(gen.standard_normal(b), gen.standard_normal(b)) > crit
        for _ in range(200)
    )
    assert exceed <= 8


# ---------------------------------------------------------------------------
# Self-calibration


def test_self_calibrate_counts_and_fields():
    data = Dataset(RngStream(7, 0).generator().random(12))
    reports = self_calibrate(Method.FREQUENTIST, data, 300, MEAN, master_seed=1, reps=3)
    assert len(reports) == 3
    for r in reports:
        assert 0.0 <= r.ks <= 1.0
        assert r.wasserstein1 >= 0.0
        assert r.b == 300


def test_self_calibrate_constant_data_has_zero_floor():
    data = Dataset([2.0] * 5)
    reports = self_calibrate(Method.FREQUENTIST, data, 100, MEAN, master_seed=2, reps=4)
    assert all(r.ks == 0.0 and r.wasserstein1 == 0.0 for r in reports)


def test_self_calibrate_floor_shrinks_with_b():
    data = Dataset(RngStream(8, 0).generator().random(20))
    small = self_calibrate(Method.FREQUENTIST, data, 500, MEAN, master_seed=3, reps=5)
    large = self_calibrate(Method.FREQUENTIST, data, 2000, MEAN, master_seed=3, reps=5)
    assert np.median([r.ks for r in large]) < np.median([r.ks for r in small])


def test_self_calibrate_validation():
    data = Dataset([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        self_calibrate(Method.FREQUENTIST, data, 10, MEAN, reps=2)
    for reps in (3.5, math.nan, "3"):
        with pytest.raises(InvalidInputError):
            self_calibrate(Method.FREQUENTIST, data, 10, MEAN, reps=reps)
    for seed in (-1, 2**64 + 5):
        with pytest.raises(InvalidInputError):
            self_calibrate(Method.FREQUENTIST, data, 10, MEAN, master_seed=seed)
    with pytest.raises(TypeError):
        self_calibrate(Method.FREQUENTIST, data, 10, MEAN, workers=1)
    with pytest.raises(TypeError):
        self_calibrate(Method.DP_STICK_BREAK, data, 10, MEAN, epsilon=1e-10)


# ---------------------------------------------------------------------------
# Compare


def test_compare_same_method_nulls():
    # A scheme against itself on distinct derived seeds: scaled-down
    # version of the null-consistency property.
    wins = 0
    trials = 40
    for s in range(trials):
        data = Dataset(RngStream(900 + s, 0).generator().random(20))
        report = compare(
            Method.FREQUENTIST, Method.FREQUENTIST, data, b=1000, master_seed=s
        )
        wins += report.verdict is Verdict.INDISTINGUISHABLE
    assert wins >= 34


def test_compare_bayesian_null():
    wins = 0
    for s in range(20):
        data = Dataset(RngStream(950 + s, 0).generator().random(20))
        report = compare(
            Method.BAYESIAN_DIRICHLET, Method.BAYESIAN_DIRICHLET, data, b=800, master_seed=s
        )
        wins += report.verdict is Verdict.INDISTINGUISHABLE
    assert wins >= 16


def test_compare_detects_location_shift():
    # Same scheme on data vs data+100: the mean ensembles sit 100 apart,
    # so the verdict flips and the transport distance reads the shift.
    from dpboot import DistanceReport, make_ensemble

    values = RngStream(10, 0).generator().random(25)
    ens_a = make_ensemble(Method.FREQUENTIST, Dataset(values), 600, MEAN, master_seed=5)
    ens_b = make_ensemble(Method.FREQUENTIST, Dataset(values + 100.0), 600, MEAN, master_seed=6)
    cross_ks = ks_two_sample(ens_a, ens_b)
    cross_w1 = wasserstein1(ens_a, ens_b)
    baseline = self_calibrate(Method.FREQUENTIST, Dataset(values), 600, MEAN, master_seed=7)
    verdict = equivalence_verdict(DistanceReport(cross_ks, cross_w1, 600), baseline, 2.0)
    assert verdict is Verdict.DISTINGUISHABLE
    assert cross_ks == 1.0
    assert abs(cross_w1 - 100.0) < 1.0


def test_verdict_is_recomputable_from_report():
    data = Dataset(RngStream(11, 0).generator().random(18))
    report = compare(Method.FREQUENTIST, Method.BAYESIAN_DIRICHLET, data, b=500, master_seed=8)
    again = equivalence_verdict(report.cross, report.self_baseline, report.threshold_factor)
    assert again is report.verdict


def test_compare_validation():
    data = Dataset([1.0, 2.0])
    for factor in (0.0, -1.0, math.nan, math.inf, "2", True, None):
        with pytest.raises(InvalidInputError, match="threshold_factor"):
            compare(Method.FREQUENTIST, Method.FREQUENTIST, data, b=50, threshold_factor=factor)
    for reps in (2, 3.5, math.nan, "3"):
        with pytest.raises(InvalidInputError):
            compare(Method.FREQUENTIST, Method.FREQUENTIST, data, b=50, reps=reps)
    for seed in (-1, 2**64 + 5):
        with pytest.raises(InvalidInputError):
            compare(Method.FREQUENTIST, Method.FREQUENTIST, data, b=50, master_seed=seed)
    with pytest.raises(TypeError):
        compare(Method.FREQUENTIST, Method.DP_STICK_BREAK, data, b=50, epsilon=1e-10)


def test_compare_rejects_reps_before_building_ensembles(monkeypatch):
    import dpboot.equiv

    def unexpected(*args, **kwargs):
        raise AssertionError("an ensemble was built before reps was checked")

    monkeypatch.setattr(dpboot.equiv, "make_ensemble", unexpected)
    with pytest.raises(InvalidInputError):
        compare(Method.FREQUENTIST, Method.DP_STICK_BREAK, Dataset([1.0, 2.0]), b=50, reps=2)


@pytest.mark.parametrize(
    "method_a, method_b",
    [(Method.FREQUENTIST, "dp-stickbreak"), ("frequentist", Method.DP_STICK_BREAK)],
)
def test_compare_rejects_bad_method_before_building_ensembles(monkeypatch, method_a, method_b):
    import dpboot.equiv

    def unexpected(*args, **kwargs):
        raise AssertionError("an ensemble was built before the methods were checked")

    monkeypatch.setattr(dpboot.equiv, "make_ensemble", unexpected)
    with pytest.raises(InvalidInputError):
        compare(method_a, method_b, Dataset([1.0, 2.0]), b=50, reps=3)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
def test_compare_rejects_non_finite_threshold(factor):
    data = Dataset([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        compare(Method.FREQUENTIST, Method.FREQUENTIST, data, b=50, threshold_factor=factor)


# ---------------------------------------------------------------------------
# Convergence experiment


def test_convergence_single_row_smoke():
    pairs = convergence_experiment([25], UniformBase(0.0, 1.0), b=400, master_seed=9)
    assert len(pairs) == 1
    n, report = pairs[0]
    assert n == 25
    assert 0.0 <= report.cross.ks <= 1.0
    assert report.cross.wasserstein1 >= 0.0
    assert report.self_ks_median >= 0.0
    assert report.self_w1_median >= 0.0
    assert report.verdict in (Verdict.INDISTINGUISHABLE, Verdict.DISTINGUISHABLE)


def test_convergence_rows_follow_grid_order():
    pairs = convergence_experiment([10, 25], UniformBase(0.0, 1.0), b=300, master_seed=10)
    assert [n for n, _ in pairs] == [10, 25]


def test_convergence_validation():
    with pytest.raises(InvalidInputError):
        convergence_experiment([], UniformBase(0, 1), b=100)
    with pytest.raises(InvalidInputError):
        convergence_experiment([25, 10], UniformBase(0, 1), b=100)
    with pytest.raises(InvalidInputError):
        convergence_experiment([10, 10], UniformBase(0, 1), b=100)
    with pytest.raises(InvalidInputError):
        convergence_experiment([10], "uniform", b=100)
    with pytest.raises(InvalidInputError, match="cannot sample from BaseMeasure"):
        convergence_experiment([10], BaseMeasure(), b=100)
    for size in (0, 10.7, math.nan, "10"):
        with pytest.raises(InvalidInputError):
            convergence_experiment([size], UniformBase(0, 1), b=100)
    for seed in (-1, 2**64 + 5):
        with pytest.raises(InvalidInputError):
            convergence_experiment([10], UniformBase(0, 1), b=100, master_seed=seed)
    with pytest.raises(TypeError):
        convergence_experiment([10], UniformBase(0, 1), b=100, workers=1)
    with pytest.raises(TypeError):
        convergence_experiment([10], UniformBase(0, 1), b=100, epsilon=1e-10)


# ---------------------------------------------------------------------------
# scipy as an independent oracle (test-only dependency)


def test_w1_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    gen = RngStream(6, 0).generator()
    for size_a, size_b in [(7, 11), (11, 7), (1, 5), (40, 40), (200, 333)]:
        a, b = gen.random(size_a), gen.standard_normal(size_b)
        assert wasserstein1(a, b) == pytest.approx(stats.wasserstein_distance(a, b), abs=1e-12)


def test_ks_two_sample_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    gen = RngStream(7, 0).generator()
    for size_a, size_b in [(7, 11), (25, 25), (300, 120)]:
        a = np.round(gen.random(size_a) * 20)  # ties across and within samples
        b = np.round(gen.random(size_b) * 20 + 1)
        assert ks_two_sample(a, b) == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-15)


def test_kolmogorov_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for t in np.linspace(0.06, 4.0, 60):
        assert kolmogorov_sf(t) == pytest.approx(stats.kstwobign.sf(t), abs=1e-12)


def test_ks_critical_matches_scipy_at_tiny_significance():
    # Below about 5e-56 the root lies past 8, the bisection's usual end.
    stats = pytest.importorskip("scipy.stats")
    for significance in (1e-6, 1e-60, 1e-100, 1e-300):
        expected = stats.kstwobign.isf(significance)
        assert ks_critical(significance, 1) == pytest.approx(expected, rel=1e-12)
