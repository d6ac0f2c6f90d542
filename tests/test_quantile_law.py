"""The exact law of a sample quantile under every scheme, with scipy as the oracle.

Let x_(k) be a distinct data value and k the number of observations at
or below it.  The quantile functional is at most x_(k) exactly when the
weight on those k observations reaches the level p.  Per scheme, that
weight is:

* frequentist: C/n with C ~ Binomial(n, k/n);
* bayesian and dp-stickbreak: Beta(k, n - k), the sum of k coordinates
  of a flat Dirichlet (the stick masses of DP(n, ecdf) aggregated per
  observation);
* dp-stickbreak-points and polya-urn: C/n with C ~ Binomial(n, P) and
  P ~ Beta(k, n - k), so C is Beta-Binomial(n, k, n - k).

With c* the smallest count c with c/n >= p (compared in float, as
`apply_functional` does), the ensemble CDF at x_(k) must match
P(C >= c*) for the count laws and P(Beta(k, n - k) >= p) =
P(Binomial(n - 1, p) <= k - 1) for the weight laws.
"""

import numpy as np
import pytest

from dpboot import MEDIAN, Dataset, Method, RngStream, make_ensemble, quantile

stats = pytest.importorskip("scipy.stats")

N = 25
B = 5000


def _datasets():
    gen = RngStream(2718, 0).generator()
    distinct = gen.random(N)
    tied = np.floor(gen.random(N) * 7)  # about 7 distinct values, in input order
    return {"distinct": Dataset(distinct), "tied": Dataset(tied)}


def _exact_cdf(method: Method, k: np.ndarray, p: float) -> np.ndarray:
    c_star = next(c for c in range(1, N + 1) if c / N >= p)
    if method is Method.FREQUENTIST:
        return stats.binom.sf(c_star - 1, N, k / N)
    if method in (Method.BAYESIAN_DIRICHLET, Method.DP_STICK_BREAK):
        return stats.binom.cdf(k - 1, N - 1, p)
    return stats.betabinom.sf(c_star - 1, N, k, N - k)


@pytest.mark.parametrize("functional", [MEDIAN, quantile(0.1)], ids=lambda f: f.label())
@pytest.mark.parametrize("dataset", ["distinct", "tied"])
@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_quantile_ensemble_follows_exact_law(method, dataset, functional):
    data = _datasets()[dataset]
    values, counts = np.unique(data.values, return_counts=True)
    # The last distinct value has k = n, where every law is 1.
    x, k = values[:-1], np.cumsum(counts)[:-1]
    p = 0.5 if functional is MEDIAN else functional.p

    ens = make_ensemble(method, data, B, functional, master_seed=31)
    observed = np.searchsorted(np.sort(ens), x, side="right") / B
    gap = float(np.abs(observed - _exact_cdf(method, k, p)).max())
    assert gap < stats.kstwo.ppf(1 - 1e-3, B), (method.value, dataset, functional.label(), gap)
