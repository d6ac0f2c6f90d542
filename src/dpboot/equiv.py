"""Distances between ensembles and calibrated equivalence verdicts.

Two Monte Carlo ensembles never sit at distance zero, so the question
"are these two schemes producing the same distribution?" is judged
against a self-calibration baseline: the distances observed between
independent runs of the SAME scheme at the same replication count.  A
cross-scheme distance within `threshold_factor` times the median
self-distance, on both metrics, earns the indistinguishable verdict.
The verdict is therefore scale-free in the data's units.  It is not
free of the replication count B: the self-distances shrink like
1/sqrt(B) while the cross distance tends to the true distance between
the two laws, so at a fixed B the verdict is a test whose power grows
with B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    BaseMeasure,
    Dataset,
    Functional,
    InvalidInputError,
    MEAN,
    RngStream,
    _as_finite_array,
    _check_count,
    _check_open_unit,
    _check_real,
    _sample_base,
    derive_seed,
)
from .resample import Method, _kernel, make_ensemble

# Sub-seed slots used inside compare(); every generated ensemble gets
# its own derived master seed so that compare(X, X) is a true null
# experiment.
_SALT_CROSS_A = 0
_SALT_CROSS_B = 1
_SALT_SELF = 2


class Verdict(Enum):
    INDISTINGUISHABLE = "indistinguishable"
    DISTINGUISHABLE = "distinguishable"


@dataclass(frozen=True)
class DistanceReport:
    """Two-sample distances between ensembles of b replications each."""

    ks: float
    wasserstein1: float
    b: int


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Cross-scheme distance judged against a same-scheme noise floor."""

    cross: DistanceReport
    self_baseline: tuple
    threshold_factor: float
    verdict: Verdict

    @property
    def self_ks_median(self) -> float:
        return float(np.median([r.ks for r in self.self_baseline]))

    @property
    def self_w1_median(self) -> float:
        return float(np.median([r.wasserstein1 for r in self.self_baseline]))


def ks_two_sample(a, b) -> float:
    """Exact sup-distance between two empirical CDFs.

    Both step functions are evaluated at every pooled sample point,
    which is where the supremum of the difference is attained.
    """
    xa = np.sort(_as_finite_array(a, "first sample"))
    xb = np.sort(_as_finite_array(b, "second sample"))
    pool = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pool, side="right") / xa.size
    fb = np.searchsorted(xb, pool, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def wasserstein1(a, b) -> float:
    """Exact transport distance between two samples on the line.

    Equal sizes: mean absolute difference of paired order statistics.
    Unequal sizes n and m: both quantile functions are constant between
    consecutive points of {i/n} and {j/m}; integrate piece by piece.
    """
    xa = np.sort(_as_finite_array(a, "first sample"))
    xb = np.sort(_as_finite_array(b, "second sample"))
    if xa.size == xb.size:
        return float(np.abs(xa - xb).mean())
    cuts = np.union1d(np.arange(xa.size + 1) / xa.size, np.arange(xb.size + 1) / xb.size)
    q = 0.5 * (cuts[1:] + cuts[:-1])
    return float((np.abs(_quantile_at(xa, q) - _quantile_at(xb, q)) * np.diff(cuts)).sum())


def _quantile_at(sorted_values: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Left-continuous inverse CDF: smallest order statistic at or past q.
    idx = np.ceil(q * sorted_values.size).astype(np.int64) - 1
    return sorted_values[np.clip(idx, 0, sorted_values.size - 1)]


def ks_one_sample(sample, cdf: Callable[[float], float]) -> float:
    """Exact sup-distance between a sample's ECDF and a reference CDF."""
    xs = np.sort(_as_finite_array(sample, "sample"))
    f = np.array([float(cdf(x)) for x in xs])
    if not np.all((f >= 0) & (f <= 1)):  # also catches NaN
        raise InvalidInputError("reference CDF values must lie in [0, 1]")
    steps = np.arange(1, xs.size + 1, dtype=np.float64) / xs.size
    d_plus = float((steps - f).max())
    d_minus = float((f - steps + 1.0 / xs.size).max())
    return max(d_plus, d_minus, 0.0)


def kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov sup-bridge law.

    P(K > t) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2); this is the
    asymptotic null law of sqrt(n) times the one-sample KS statistic
    and of sqrt(nm/(n+m)) times the two-sample one.
    """
    if math.isnan(t):
        raise InvalidInputError("Kolmogorov statistic must not be NaN")
    if t <= 0.05:
        return 1.0
    total, sign = 0.0, 1.0
    for k in range(1, 201):
        term = math.exp(-2.0 * (k * t) ** 2)
        total += sign * term
        if term < 1e-17:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_critical(significance: float, n: int, m: Optional[int] = None) -> float:
    """Asymptotic critical value of the KS statistic.

    One-sample for a sample of size n when `m` is omitted, two-sample
    for sizes n and m otherwise.
    """
    _check_open_unit(significance, "significance")
    n = _check_count(n, "n")
    m = None if m is None else _check_count(m, "m")
    lo, hi = 0.05, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > significance:
            lo = mid
        else:
            hi = mid
    scale = math.sqrt(1.0 / n) if m is None else math.sqrt((n + m) / (n * m))
    return 0.5 * (lo + hi) * scale


def _distance(x: np.ndarray, y: np.ndarray) -> DistanceReport:
    return DistanceReport(ks_two_sample(x, y), wasserstein1(x, y), int(x.size))


def equivalence_verdict(cross: DistanceReport, self_baseline, threshold_factor: float) -> Verdict:
    """Verdict rule; recomputable from the report fields alone."""
    ks_floor = float(np.median([r.ks for r in self_baseline]))
    w1_floor = float(np.median([r.wasserstein1 for r in self_baseline]))
    ok = (
        cross.ks <= threshold_factor * ks_floor
        and cross.wasserstein1 <= threshold_factor * w1_floor
    )
    return Verdict.INDISTINGUISHABLE if ok else Verdict.DISTINGUISHABLE


def self_calibrate(
    method: Method,
    data: Dataset,
    b: int,
    functional: Functional,
    epsilon: float = 1e-10,
    master_seed: int = 0,
    reps: int = 5,
) -> tuple:
    """Distance noise floor between independent runs of one scheme.

    Builds reps+1 ensembles on derived seeds and reports the distance
    between each consecutive pair: `reps` reports in total.
    """
    reps = _check_count(reps, "reps", 3)
    ensembles = [
        make_ensemble(method, data, b, functional, epsilon, derive_seed(master_seed, i))
        for i in range(reps + 1)
    ]
    return tuple(
        _distance(first.values, second.values)
        for first, second in zip(ensembles, ensembles[1:])
    )


def compare(
    method_a: Method,
    method_b: Method,
    data: Dataset,
    b: int = 2000,
    functional: Functional = MEAN,
    epsilon: float = 1e-10,
    master_seed: int = 0,
    threshold_factor: float = 2.0,
    reps: int = 5,
    workers: int = 1,
) -> EquivalenceReport:
    """Calibrated comparison of two schemes on one dataset.

    One ensemble per scheme gives the cross distance; the baseline is
    the self-calibration of scheme A.  Every ensemble gets its own
    derived master seed, so comparing a scheme against itself is a clean
    null experiment.  `workers` is ignored; it stays only while
    bench/workloads.py passes it.
    """
    _check_real(threshold_factor, "threshold_factor must be finite and positive", positive=True)
    # Both schemes are checked and the baseline is built first, so a bad
    # scheme or `reps` fails before any ensemble is built.
    for method in (method_a, method_b):
        _kernel(method, data, epsilon)
    baseline = self_calibrate(
        method_a, data, b, functional, epsilon, derive_seed(master_seed, _SALT_SELF), reps
    )
    ens_a = make_ensemble(
        method_a, data, b, functional, epsilon, derive_seed(master_seed, _SALT_CROSS_A)
    )
    ens_b = make_ensemble(
        method_b, data, b, functional, epsilon, derive_seed(master_seed, _SALT_CROSS_B)
    )
    cross = _distance(ens_a.values, ens_b.values)
    return EquivalenceReport(
        cross, baseline, threshold_factor, equivalence_verdict(cross, baseline, threshold_factor)
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    cross_ks: float
    cross_w1: float
    self_ks_median: float
    self_w1_median: float
    verdict: Verdict


def convergence_experiment(
    n_grid: Sequence[int],
    generator: BaseMeasure,
    b: int = 2000,
    functional: Functional = MEAN,
    epsilon: float = 1e-10,
    master_seed: int = 0,
    threshold_factor: float = 2.0,
    reps: int = 5,
) -> list:
    """Frequentist vs stick-breaking distances across sample sizes.

    Each row draws a fresh dataset of size n from the generator (rows
    are independent, never nested subsets) and runs the calibrated
    comparison on it.  Rows come back in grid order.
    """
    grid = [_check_count(n, "n_grid entries") for n in n_grid]
    if not grid:
        raise InvalidInputError("n_grid must be nonempty")
    if any(second <= first for first, second in zip(grid, grid[1:])):
        raise InvalidInputError("n_grid must be strictly increasing")
    if not isinstance(generator, BaseMeasure):
        raise InvalidInputError("generator must be a BaseMeasure")

    rows = []
    for i, n in enumerate(grid):
        row_seed = derive_seed(master_seed, i)
        data_gen = RngStream(derive_seed(row_seed, 0), 0).generator()
        data = Dataset(_sample_base(generator, n, data_gen))
        report = compare(
            Method.FREQUENTIST,
            Method.DP_STICK_BREAK,
            data,
            b,
            functional,
            epsilon,
            derive_seed(row_seed, 1),
            threshold_factor,
            reps,
        )
        rows.append(
            ConvergenceRow(
                n,
                report.cross.ks,
                report.cross.wasserstein1,
                report.self_ks_median,
                report.self_w1_median,
                report.verdict,
            )
        )
    return rows
