"""Resampling schemes and ensemble generation.

An ensemble is B replicated values of one functional under one scheme.
Replication i consumes RngStream(master_seed, i) and nothing else, so
ensembles are reproducible bit-for-bit in any execution order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Dataset,
    Functional,
    InvalidInputError,
    RngStream,
    _as_finite_array,
    _check_count,
    _check_open_unit,
    _check_seed,
    _freeze,
    _open_uniforms,
    _uniform_indices,
    apply_functional,
)
from .dp import _measure_draws, _stick_break, _urn_draws, dp0_posterior


class Method(Enum):
    """How one replication of the functional is produced.

    FREQUENTIST            n-point resample, uniform with replacement,
                           functional taken unweighted.
    BAYESIAN_DIRICHLET     flat-Dirichlet random weights on the observed
                           points, functional taken weighted.  This is
                           the exact finite-dimensional law of the
                           posterior masses at concentration n.
    DP_STICK_BREAK         stick-breaking realization of the DP(n, ecdf)
                           posterior, its masses aggregated per observed
                           point (ties split equally), functional taken
                           weighted by them: the posterior law of the
                           functional up to the truncation tolerance.
    DP_STICK_BREAK_POINTS  n IID points drawn from one realized
                           measure, functional taken unweighted.  Same
                           joint law as the urn scheme.  Point noise
                           adds to measure noise here, so smooth
                           functionals spread roughly sqrt(2) wider
                           than under DP_STICK_BREAK.
    POLYA_URN              n joint-predictive draws without realizing
                           the measure, functional taken unweighted.
    """

    FREQUENTIST = "frequentist"
    BAYESIAN_DIRICHLET = "bayesian"
    DP_STICK_BREAK = "dp-stickbreak"
    DP_STICK_BREAK_POINTS = "dp-stickbreak-points"
    POLYA_URN = "polya-urn"


# Kernel builders: (data, DP(n, ecdf) posterior, epsilon) -> kernel, where
# kernel(gen) returns one replication as (points, weights or None).


def _frequentist(data, posterior, epsilon):
    return lambda gen: (data.values[_uniform_indices(len(data), len(data), gen)], None)


def _dirichlet(data, posterior, epsilon):
    def kernel(gen):
        e = -np.log(_open_uniforms(len(data), gen))
        return data.values, e / e.sum()

    return kernel


def _support_sticks(posterior, epsilon, gen) -> tuple:
    # Every atom of DP(n, ecdf) is an observation: the atoms are drawn
    # as indices into the sorted support, from the uniforms that
    # _sample_base would turn into the values themselves.
    draw = functools.partial(_uniform_indices, posterior.base.n)
    return _stick_break(posterior.alpha, epsilon, gen, draw)


def _stick_masses(data, posterior, epsilon):
    ecdf = posterior.base
    distinct = np.repeat(np.arange(ecdf.values.size), ecdf.counts)  # support slot -> value
    line = np.searchsorted(ecdf.values, data.values)
    line_counts = ecdf.counts[line]

    def kernel(gen):
        idx, weights, _ = _support_sticks(posterior, epsilon, gen)
        masses = np.bincount(distinct[idx], weights, ecdf.values.size) / weights.sum()
        return data.values, masses[line] / line_counts

    return kernel


def _stick_points(data, posterior, epsilon):
    support = posterior.base.support

    def kernel(gen):
        idx, weights, _ = _support_sticks(posterior, epsilon, gen)
        return support[idx[_measure_draws(weights, len(data), gen)]], None

    return kernel


def _urn(data, posterior, epsilon):
    return lambda gen: (_urn_draws(posterior, len(data), gen), None)


_KERNELS = {
    Method.FREQUENTIST: _frequentist,
    Method.BAYESIAN_DIRICHLET: _dirichlet,
    Method.DP_STICK_BREAK: _stick_masses,
    Method.DP_STICK_BREAK_POINTS: _stick_points,
    Method.POLYA_URN: _urn,
}


def _kernel(method: Method, data: Dataset, epsilon: float = 1e-10):
    """Kernel gen -> (points, weights or None) of one scheme on one dataset."""
    if not isinstance(method, Method):
        raise InvalidInputError("method must be a Method")
    if not isinstance(data, Dataset):
        raise InvalidInputError("data must be a Dataset")
    _check_open_unit(epsilon, "epsilon")
    return _KERNELS[method](data, dp0_posterior(data), epsilon)


def frequentist_bootstrap(data: Dataset, rng: RngStream) -> Dataset:
    """Resample n observations uniformly with replacement."""
    return Dataset(_kernel(Method.FREQUENTIST, data)(rng.generator())[0])


def bayesian_bootstrap_weights(n: int, rng: RngStream) -> np.ndarray:
    """Flat-Dirichlet weight vector over n observations.

    Unit exponentials (-log of uniforms) normalized by their sum;
    strictly positive, summing to 1.
    """
    # The weights depend on n alone; any n-point dataset will do.
    data = Dataset(np.zeros(_check_count(n, "n")))
    return _kernel(Method.BAYESIAN_DIRICHLET, data)(rng.generator())[1]


def dp_bootstrap_sample(data: Dataset, epsilon: float, rng: RngStream) -> Dataset:
    """n IID points from a fresh stick-breaking realization of DP(n, ecdf)."""
    return Dataset(_kernel(Method.DP_STICK_BREAK_POINTS, data, epsilon)(rng.generator())[0])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """B replicated functional values under one scheme and one seed."""

    method: Method
    functional: Functional
    values: np.ndarray
    master_seed: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n, "n"))
        object.__setattr__(self, "master_seed", _check_seed(self.master_seed, "master_seed"))
        values = _freeze(_as_finite_array(self.values, "ensemble values"))
        object.__setattr__(self, "values", values)

    @property
    def b(self) -> int:
        """The replication count: one value per replication."""
        return int(self.values.size)


def make_ensemble(
    method: Method,
    data: Dataset,
    b: int,
    functional: Functional,
    epsilon: float = 1e-10,
    master_seed: int = 0,
) -> Ensemble:
    """Generate the B replicated functional values of one scheme.

    Replication i draws from RngStream(master_seed, i), so the result
    is a pure function of the arguments.  Every replication runs on the
    calling thread.
    """
    if not isinstance(functional, Functional):
        raise InvalidInputError("functional must be a Functional")
    b = _check_count(b, "b")
    kernel = _kernel(method, data, epsilon)

    def replicate(i: int) -> float:
        return apply_functional(functional, *kernel(RngStream(master_seed, i).generator()))

    values = np.fromiter(map(replicate, range(b)), dtype=np.float64, count=b)
    return Ensemble(method, functional, values, master_seed, len(data))
