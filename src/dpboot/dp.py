"""Dirichlet-process posterior machinery.

Conjugate updating, the vanishing-concentration limit, stick-breaking
realizations of posterior draws, and a Polya-urn sampler for the joint
predictive.  Stick-breaking realizes the random measure explicitly
while the urn marginalizes it out; the two routes draw from the same
process, which is what makes them useful as mutual oracles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    WEIGHT_SUM_TOL,
    Dataset,
    DiscreteMeasure,
    DPParams,
    EmpiricalCDF,
    InvalidInputError,
    MixtureBase,
    RngStream,
    _as_finite_array,
    _check_count,
    _check_open_unit,
    _measure_draws,
    _sample_base,
    ecdf_build,
)

# Matching tolerance for pooling two empirical mixture components.
_EMPIRICAL_MERGE_RTOL = 1e-12

# Sticks generated per block: enough to reach residual 1e-12 in one
# block on average.  Block size depends only on alpha, never on the
# truncation tolerance, so tightening the tolerance on the same stream
# extends a run without disturbing the kept prefix.
_STICK_BLOCK_LOG = math.log(1e12)
_STICK_BLOCK_CAP = 1 << 20
_STICK_TOTAL_CAP = 100_000_000
# Truncation of every scheme's realized measure: far below the Monte
# Carlo error of any ensemble, so no caller has needed another value.
_EPSILON = 1e-10


def conjugate_update(prior: DPParams, data: Dataset) -> DPParams:
    """Posterior parameters after observing a dataset.

    Concentration grows by n; the posterior base mixes the prior base
    (weight alpha/(alpha+n)) with the data's empirical CDF (weight
    n/(alpha+n)).  A mixture prior contributes its components directly,
    and two empirical components that put equal mass on each underlying
    observation are pooled into one, so updating batch-by-batch agrees
    with updating once on the union.
    """
    n = len(data)
    total = prior.alpha + n
    base = prior.base
    prior_parts = base.components if isinstance(base, MixtureBase) else ((1.0, base),)
    parts = [(prior.alpha / total * w, measure) for w, measure in prior_parts]
    parts.append((n / total, ecdf_build(data)))

    merged = []
    for w, measure in parts:
        for k, (wk, mk) in enumerate(merged):
            if _per_obs_match(wk, mk, w, measure):
                pooled = np.concatenate([mk.support, measure.support])
                merged[k] = (wk + w, ecdf_build(Dataset(pooled)))
                break
        else:
            merged.append((w, measure))

    if len(merged) == 1 and abs(merged[0][0] - 1.0) <= WEIGHT_SUM_TOL:
        return DPParams(total, merged[0][1])
    return DPParams(total, MixtureBase(tuple(merged)))


def dp0_posterior(data: Dataset) -> DPParams:
    """Posterior under the vanishing-concentration prior.

    The alpha -> 0 limit of conjugate updating: concentration n, base
    the plain empirical CDF.
    """
    return DPParams(float(len(data)), ecdf_build(data))


def _per_obs_match(w1: float, m1, w2: float, m2) -> bool:
    """Both components are empirical with equal mass on each observation."""
    if not (isinstance(m1, EmpiricalCDF) and isinstance(m2, EmpiricalCDF)):
        return False
    p1 = w1 / m1.n
    p2 = w2 / m2.n
    return abs(p1 - p2) <= _EMPIRICAL_MERGE_RTOL * max(p1, p2)


def stick_break(dp: DPParams, epsilon: float, rng: RngStream) -> DiscreteMeasure:
    """Realize one draw from the process, truncated at leftover mass epsilon.

    Stick fractions are Beta(1, alpha) via the inverse CDF
    v = 1 - u**(1/alpha); atoms are drawn from the base measure.  The
    run stops at the first stick where the unbroken remainder drops
    below epsilon, and that remainder is recorded as the residual.
    """
    _check_open_unit(epsilon, "epsilon")
    draw = functools.partial(_sample_base, dp.base)
    return DiscreteMeasure(*_stick_break(dp.alpha, epsilon, rng.generator(), draw))


def _stick_break(alpha: float, epsilon: float, gen, draw) -> tuple:
    """The stick-breaking loop: (atoms, weights, residual).

    `draw(size, gen)` gives each block's atoms right after its sticks.
    """
    block = int(min(_STICK_BLOCK_CAP, max(32, math.ceil(alpha * _STICK_BLOCK_LOG))))
    inv_alpha = 1.0 / alpha
    atom_runs, weight_runs = [], []
    prefix = 1.0  # mass not yet broken off
    for _ in range(_STICK_TOTAL_CAP // block + 1):
        v = 1.0 - gen.random(block) ** inv_alpha
        atoms = draw(block, gen)
        remain = prefix * np.cumprod(1.0 - v)
        hit = np.flatnonzero(remain < epsilon)
        k = int(hit[0]) + 1 if hit.size else block  # sticks kept from this block
        atom_runs.append(atoms[:k])
        weight_runs.append(v[:k] * np.concatenate(([prefix], remain[: k - 1])))
        if hit.size:
            all_weights = np.concatenate(weight_runs)
            positive = all_weights > 0  # sticks of width 0 carry nothing
            return np.concatenate(atom_runs)[positive], all_weights[positive], float(remain[k - 1])
        prefix = float(remain[-1])
    raise InvalidInputError("stick truncation did not converge; alpha too large")


def measure_sample(measure: DiscreteMeasure, count: int, rng: RngStream) -> Dataset:
    """`count` IID draws from a truncated measure, residual renormalized away."""
    count = _check_count(count, "count")
    return Dataset(measure.atoms[_measure_draws(measure.weights, count, rng.generator())])


def polya_urn_predictive(dp: DPParams, count: int, rng: RngStream) -> Dataset:
    """Sequential joint-predictive draws, no explicit measure.

    Draw i (0-based) is fresh from the base with probability
    alpha/(alpha+i), otherwise a uniformly chosen copy of an earlier
    draw.  The first draw is always fresh.
    """
    count = _check_count(count, "count")
    return Dataset(_urn_draws(dp, count, rng.generator()))


def _urn_draws(dp: DPParams, count: int, gen) -> np.ndarray:
    # Draw i copies draw int(u_pick * i) unless it is fresh, when it is
    # its own parent.  Pointer jumping (Wyllie 1979) follows every copy
    # chain to its fresh root: each round doubles the span of a jump,
    # and no chain is longer than count - 1 steps.
    fresh = _sample_base(dp.base, count, gen)
    u_branch = gen.random(count)
    u_pick = gen.random(count)
    i = np.arange(count)
    parent = np.where(u_branch * (dp.alpha + i) < dp.alpha, i, (u_pick * i).astype(np.int64))
    for _ in range((count - 1).bit_length()):
        parent = parent[parent]
    return fresh[parent]


def atom_masses(measure: DiscreteMeasure, values) -> np.ndarray:
    """Total renormalized stick mass landing on each query value.

    `values` must be strictly increasing and cover every atom of the
    measure; suited to measures realized over an empirical base, whose
    atoms live on the data grid.
    """
    grid = _as_finite_array(values, "query values")
    if not np.all(np.diff(grid) > 0):
        raise InvalidInputError("query values must be strictly increasing")
    idx = np.searchsorted(grid, measure.atoms)
    clipped = np.minimum(idx, grid.size - 1)
    if not np.all(grid[clipped] == measure.atoms):
        raise InvalidInputError("measure has atoms outside the query values")
    return np.bincount(clipped, measure.weights, grid.size) / measure.weights.sum()
