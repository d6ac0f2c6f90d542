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
    MIXTURE_WEIGHT_TOL,
    Dataset,
    DiscreteMeasure,
    DPParams,
    EmpiricalBase,
    InvalidInputError,
    MixtureBase,
    RngStream,
    _check_count,
    _check_open_unit,
    _sample_base,
    ecdf_build,
)

# Matching tolerance for pooling two empirical mixture components.
_EMPIRICAL_MERGE_RTOL = 1e-12

# Sticks generated per block: enough to reach residual 1e-12 in one
# block on average.  Block size depends only on alpha, never on the
# truncation tolerance, so tightening epsilon on the same stream
# extends a run without disturbing the kept prefix.
_STICK_BLOCK_LOG = math.log(1e12)
_STICK_BLOCK_CAP = 1 << 20
_STICK_TOTAL_CAP = 100_000_000


def conjugate_update(prior: DPParams, data: Dataset) -> DPParams:
    """Posterior parameters after observing a dataset.

    Concentration grows by n; the posterior base mixes the prior base
    (weight alpha/(alpha+n)) with the data's empirical CDF (weight
    n/(alpha+n)).  Nested mixtures are flattened and compatible
    empirical components pooled, so updating batch-by-batch agrees
    with updating once on the union.
    """
    n = len(data)
    total = prior.alpha + n
    parts = [
        (prior.alpha / total, prior.base),
        (n / total, EmpiricalBase(ecdf_build(data))),
    ]
    return DPParams(total, _mix(parts))


def dp0_posterior(data: Dataset) -> DPParams:
    """Posterior under the vanishing-concentration prior.

    The alpha -> 0 limit of conjugate updating: concentration n, base
    the plain empirical CDF.
    """
    return DPParams(float(len(data)), EmpiricalBase(ecdf_build(data)))


def _mix(parts) -> "MixtureBase | EmpiricalBase":
    """Flatten one mixture level and pool compatible empirical parts.

    Two empirical components merge when they put equal mass on each
    underlying observation, which is exactly the condition under which
    pooling their observations reproduces the weighted pair.
    """
    flat = []
    for w, measure in parts:
        if isinstance(measure, MixtureBase):
            flat.extend((w * wi, mi) for wi, mi in measure.components)
        else:
            flat.append((w, measure))

    merged = []
    for w, measure in flat:
        if isinstance(measure, EmpiricalBase):
            for k, (wk, mk) in enumerate(merged):
                if isinstance(mk, EmpiricalBase) and _per_obs_match(wk, mk, w, measure):
                    merged[k] = (wk + w, _pool_empirical(mk, measure))
                    break
            else:
                merged.append((w, measure))
        else:
            merged.append((w, measure))

    if len(merged) == 1 and abs(merged[0][0] - 1.0) <= MIXTURE_WEIGHT_TOL:
        return merged[0][1]
    return MixtureBase(tuple(merged))


def _per_obs_match(w1: float, emp1: EmpiricalBase, w2: float, emp2: EmpiricalBase) -> bool:
    p1 = w1 / emp1.ecdf.n
    p2 = w2 / emp2.ecdf.n
    return abs(p1 - p2) <= _EMPIRICAL_MERGE_RTOL * max(p1, p2)


def _pool_empirical(emp1: EmpiricalBase, emp2: EmpiricalBase) -> EmpiricalBase:
    pooled = np.concatenate([emp1.ecdf.support, emp2.ecdf.support])
    return EmpiricalBase(ecdf_build(Dataset(pooled)))


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
    drawn = 0
    while True:
        u = np.asarray(gen.random(block))
        v = 1.0 - u**inv_alpha
        atoms = draw(block, gen)
        remain = prefix * np.cumprod(1.0 - v)
        weights = v * np.concatenate(([prefix], remain[:-1]))
        hit = np.flatnonzero(remain < epsilon)
        if hit.size:
            k = int(hit[0]) + 1
            atom_runs.append(atoms[:k])
            weight_runs.append(weights[:k])
            residual = float(remain[hit[0]])
            break
        atom_runs.append(atoms)
        weight_runs.append(weights)
        prefix = float(remain[-1])
        drawn += block
        if drawn > _STICK_TOTAL_CAP:
            raise InvalidInputError("stick truncation did not converge; alpha too large")
    all_atoms = np.concatenate(atom_runs)
    all_weights = np.concatenate(weight_runs)
    positive = all_weights > 0  # sticks of width 0 carry nothing
    return all_atoms[positive], all_weights[positive], residual


def measure_sample(measure: DiscreteMeasure, count: int, rng: RngStream) -> Dataset:
    """`count` IID draws from a truncated measure, residual renormalized away."""
    count = _check_count(count, "count")
    return Dataset(measure.atoms[_measure_draws(measure.weights, count, rng.generator())])


def _measure_draws(weights: np.ndarray, count: int, gen) -> np.ndarray:
    cum = np.cumsum(weights)
    cum /= cum[-1]
    return np.searchsorted(cum, np.asarray(gen.random(count)), side="right")


def polya_urn_predictive(dp: DPParams, count: int, rng: RngStream) -> Dataset:
    """Sequential joint-predictive draws, no explicit measure.

    Draw i (0-based) is fresh from the base with probability
    alpha/(alpha+i), otherwise a uniformly chosen copy of an earlier
    draw.  The first draw is always fresh.
    """
    count = _check_count(count, "count")
    return Dataset(_urn_draws(dp, count, rng.generator()))


def _urn_draws(dp: DPParams, count: int, gen) -> np.ndarray:
    # Candidate fresh values and both uniform streams are drawn up
    # front so the Python loop below touches the generator-free path.
    fresh = _sample_base(dp.base, count, gen)
    u_branch = np.asarray(gen.random(count))
    u_pick = np.asarray(gen.random(count))
    out = np.empty(count, dtype=np.float64)
    alpha = dp.alpha
    for i in range(count):
        if u_branch[i] * (alpha + i) < alpha:
            out[i] = fresh[i]
        else:
            out[i] = out[int(u_pick[i] * i)]
    return out


def atom_masses(measure: DiscreteMeasure, values) -> np.ndarray:
    """Total renormalized stick mass landing on each query value.

    `values` must be strictly increasing and cover every atom of the
    measure; suited to measures realized over an empirical base, whose
    atoms live on the data grid.
    """
    grid = np.asarray(values, dtype=np.float64)
    if grid.size == 0 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
        raise InvalidInputError("query values must be nonempty and strictly increasing")
    idx = np.searchsorted(grid, measure.atoms)
    clipped = np.minimum(idx, grid.size - 1)
    if not np.all(grid[clipped] == measure.atoms):
        raise InvalidInputError("measure has atoms outside the query values")
    return np.bincount(clipped, measure.weights, grid.size) / measure.weights.sum()
