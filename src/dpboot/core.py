"""Core value types: datasets, empirical CDFs, base measures, discrete
measures, functionals, and deterministic uniform streams.

Everything in this module is an immutable value after construction and
safe to share across threads.  Samplers, resamplers, and experiments
live in the sibling modules; they consume these types and never mutate
them.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

WEIGHT_SUM_TOL = 1e-12  # mixture weights, and stick weights plus residual, sum to 1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def _as_finite_array(values, what: str) -> np.ndarray:
    """`values` as a nonempty one-dimensional array of finite floats; no bools or strings."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting, such as [1.0, [2.0]]
        raise InvalidInputError(f"{what} must be one-dimensional") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{what} must hold real numbers")
    if arr.ndim != 1:
        raise InvalidInputError(f"{what} must be one-dimensional")
    if arr.size == 0:
        raise InvalidInputError(f"{what} must be nonempty")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # faster than .all() on small arrays
        raise InvalidInputError(f"{what} must be finite (no NaN or inf)")
    return arr.astype(np.float64, copy=False)


def _check_count(value, name: str, minimum: int = 1) -> int:
    """`value` as an int; it must be an int or numpy integer >= `minimum`, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidInputError(f"{name} must be an integer, at least {minimum}")
    return int(value)


def _check_seed(value, name: str = "seed") -> int:
    """`value` as an int; it must be an int or numpy integer in [0, 2**64), not a bool."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or not 0 <= int(value) <= _MASK64:
        raise InvalidInputError(f"{name} must be an unsigned 64-bit integer")
    return int(value)


def _check_real(value, message: str, positive: bool = False) -> float:
    """`value` as a float: a finite real number, not a bool, > 0 if `positive`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value)) or positive and value <= 0:
        raise InvalidInputError(message)
    return float(value)


def _check_open_unit(value, name: str) -> float:
    """`value` as a float: a real number in the open interval (0, 1)."""
    message = f"{name} must lie strictly inside (0, 1)"
    value = _check_real(value, message)
    if not 0.0 < value < 1.0:
        raise InvalidInputError(message)
    return value


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Deterministic uniform streams


@dataclass(frozen=True)
class RngStream:
    """One named deterministic uniform stream.

    The stream is a pure function of (master_seed, stream_id): equal
    fields yield byte-identical output, distinct stream ids yield
    independent-quality streams (counter-based Philox keying).  Callers
    derive one stream per logical task, e.g. per replication index.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        _check_seed(self.master_seed, "master_seed")
        _check_seed(self.stream_id, "stream_id")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of the stream."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


@dataclass
class _PhiloxKey(ISeedSequence):
    """Hands Philox its key as is; `Philox(key=...)` would first draw OS entropy."""

    key: np.ndarray

    def generate_state(self, n_words, dtype=np.uint64):
        return self.key


def derive_seed(seed: int, index: int) -> int:
    """Child seed number `index` of `seed` (SplitMix64 sequence).

    Fans one configured seed out into non-colliding sub-experiments,
    e.g. the independent ensembles inside a calibrated comparison.
    Both arguments must be unsigned 64-bit integers.
    """
    seed, index = _check_seed(seed), _check_seed(index, "index")
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uniform_indices(n: int, size: int, gen) -> np.ndarray:
    """`size` uniform indices into range(n), one uniform deviate each."""
    return (gen.random(size) * n).astype(np.int64)


def _open_uniforms(size: int, gen) -> np.ndarray:
    """Uniforms in the open interval (0, 1): exact zeros are redrawn."""
    u = np.array(gen.random(size), dtype=np.float64, copy=True)
    while True:
        zeros = u == 0.0
        count = np.count_nonzero(zeros)  # faster than .any() on small arrays
        if not count:
            return u
        u[zeros] = gen.random(count)


# ---------------------------------------------------------------------------
# Datasets and empirical CDFs


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered real observations."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(_as_finite_array(self.values, "dataset")))

    def __len__(self) -> int:
        return int(self.values.size)


class BaseMeasure:
    """Where prior mass lives; concrete measures sample by inverse CDF."""


@dataclass(frozen=True, eq=False)
class EmpiricalCDF(BaseMeasure):
    """Step CDF of a dataset, and the base measure with mass 1/n on each observation."""

    values: np.ndarray
    counts: np.ndarray
    n: int = field(init=False)  # counts.sum(), stored once for the samplers

    def __post_init__(self):
        values = _freeze(_as_finite_array(self.values, "ECDF values"))
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu" or not np.all(counts >= 1):
            raise InvalidInputError("ECDF counts must be positive integers")
        counts = _freeze(counts.astype(np.int64))
        if values.size != counts.size:
            raise InvalidInputError("ECDF needs matching values and counts")
        if not np.all(np.diff(values) > 0):
            raise InvalidInputError("ECDF values must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(counts.sum()))

    @cached_property
    def support(self) -> np.ndarray:
        """All n underlying observations, sorted, multiplicity expanded."""
        return _freeze(np.repeat(self.values, self.counts))


def ecdf_build(data: Dataset) -> EmpiricalCDF:
    """Empirical CDF of a dataset; ties are kept as multiplicities."""
    values, counts = np.unique(data.values, return_counts=True)
    return EmpiricalCDF(values, counts)


def ecdf_eval(ecdf: EmpiricalCDF, x: float) -> float:
    """Fraction of observations <= x (right-continuous step function)."""
    x = _check_real(x, "evaluation point must be finite")
    return float(np.searchsorted(ecdf.support, x, side="right")) / ecdf.n


# ---------------------------------------------------------------------------
# Base measures


@dataclass(frozen=True)
class NormalBase(BaseMeasure):
    mean: float
    sd: float

    def __post_init__(self):
        message = "normal base needs finite mean and sd > 0"
        _check_real(self.mean, message)
        _check_real(self.sd, message, positive=True)


@dataclass(frozen=True)
class UniformBase(BaseMeasure):
    lo: float
    hi: float

    def __post_init__(self):
        message = "uniform base needs finite lo < hi"
        if not _check_real(self.lo, message) < _check_real(self.hi, message):
            raise InvalidInputError(message)


@dataclass(frozen=True, eq=False)
class MixtureBase(BaseMeasure):
    """Positive-weight convex combination of non-mixture base measures."""

    components: tuple

    def __post_init__(self):
        message = "mixture weights must be finite and positive"
        comps = tuple((_check_real(w, message, positive=True), m) for w, m in self.components)
        if not comps:
            raise InvalidInputError("mixture needs at least one component")
        weights = np.array([w for w, _ in comps])
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError("mixture weights must sum to 1")
        for _, measure in comps:
            if isinstance(measure, MixtureBase):
                raise InvalidInputError("a mixture may not contain a mixture")
            if not isinstance(measure, BaseMeasure):
                raise InvalidInputError("mixture components must be base measures")
        object.__setattr__(self, "components", comps)


def _sample_base(base: BaseMeasure, size: int, gen) -> np.ndarray:
    """Draw `size` values from a base measure using only uniform deviates.

    Each measure shape consumes a deterministic number of uniforms per
    block, which keeps stream prefixes stable when callers extend a
    truncated run on the same stream.
    """
    if isinstance(base, EmpiricalCDF):
        return base.support[_uniform_indices(base.n, size, gen)]
    if isinstance(base, UniformBase):
        return base.lo + (base.hi - base.lo) * gen.random(size)
    if isinstance(base, NormalBase):
        dist = statistics.NormalDist(base.mean, base.sd)
        return np.array([dist.inv_cdf(u) for u in _open_uniforms(size, gen)])
    if isinstance(base, MixtureBase):
        cut = np.cumsum([w for w, _ in base.components])
        cut /= cut[-1]
        which = np.searchsorted(cut, gen.random(size), side="right")
        out = np.empty(size, dtype=np.float64)
        for j, (_, measure) in enumerate(base.components):
            slots = np.flatnonzero(which == j)
            if slots.size:
                out[slots] = _sample_base(measure, int(slots.size), gen)
        return out
    raise InvalidInputError(f"cannot sample from {type(base).__name__}")


def base_sample(base: BaseMeasure, rng: RngStream) -> float:
    """One inverse-CDF draw from a base measure."""
    return float(_sample_base(base, 1, rng.generator())[0])


# ---------------------------------------------------------------------------
# Dirichlet-process parameters and realized measures


@dataclass(frozen=True, eq=False)
class DPParams:
    """Dirichlet-process parameters: concentration alpha > 0 and base measure.

    The alpha -> 0 limit is not a DPParams; `dp.dp0_posterior` builds
    its posterior directly.
    """

    alpha: float
    base: BaseMeasure

    def __post_init__(self):
        alpha = _check_real(self.alpha, "alpha must be finite and positive", positive=True)
        if not isinstance(self.base, BaseMeasure):
            raise InvalidInputError("a base measure is required")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite atomic measure left by a truncated stick-breaking run.

    `residual` is the mass beyond the kept atoms; consumers renormalize
    the weights by 1/(1 - residual) when drawing from the measure.
    """

    atoms: np.ndarray
    weights: np.ndarray
    residual: float

    def __post_init__(self):
        atoms = _freeze(_as_finite_array(self.atoms, "atoms"))
        weights = _freeze(_as_finite_array(self.weights, "weights"))
        if atoms.size != weights.size:
            raise InvalidInputError("atoms and weights must be matched")
        if not (np.all(weights > 0) and np.all(weights <= 1)):
            raise InvalidInputError("weights must lie in (0, 1]")
        message = "residual must be finite and nonnegative"
        residual = _check_real(self.residual, message)
        if residual < 0:
            raise InvalidInputError(message)
        if abs(float(weights.sum()) + residual - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError("weights plus residual must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "residual", residual)

    def __len__(self) -> int:
        return int(self.atoms.size)


# ---------------------------------------------------------------------------
# Functionals


_FUNCTIONAL_KINDS = ("mean", "median", "sd", "quantile")


@dataclass(frozen=True)
class Functional:
    """A statistic of a weighted or unweighted sample."""

    kind: str
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _FUNCTIONAL_KINDS:
            raise InvalidInputError(f"unknown functional kind: {self.kind!r}")
        if self.kind == "quantile":
            object.__setattr__(self, "p", _check_open_unit(self.p, "quantile level"))
        elif self.p is not None:
            raise InvalidInputError(f"{self.kind} takes no level parameter")

    def label(self) -> str:
        return f"q:{self.p:g}" if self.kind == "quantile" else self.kind


MEAN = Functional("mean")
MEDIAN = Functional("median")
STDDEV = Functional("sd")


def quantile(p: float) -> Functional:
    return Functional("quantile", p)


def parse_functional(text: str) -> Functional:
    """Parse a functional name: mean | median | sd | q:P."""
    if text in ("mean", "median", "sd"):
        return Functional(text)
    if text.startswith("q:"):
        try:
            level = float(text[2:])
        except ValueError:
            raise InvalidInputError(f"bad quantile level in {text!r}") from None
        return quantile(level)
    raise InvalidInputError(f"unknown functional: {text!r}")


def apply_functional(functional: Functional, values, weights=None) -> float:
    """Evaluate a functional of a sample, optionally weighted.

    Quantiles (the median included) use the left-continuous inverse of
    the weighted CDF: the smallest value whose cumulative normalized
    weight reaches the level.  Standard deviations are population-style
    (no degrees-of-freedom correction) so the weighted and unweighted
    forms agree under uniform weights.
    """
    y = _as_finite_array(values, "sample")
    if weights is None:  # unit weights, skipped: multiplying by 1.0 is exact
        w, total = None, float(y.size)
    else:
        w = _as_finite_array(weights, "weights")
        if w.size != y.size:
            raise InvalidInputError("weights must match the sample length")
        if np.count_nonzero(w < 0) > 0:  # faster than .any() on small arrays
            raise InvalidInputError("weights must be nonnegative")
        total = float(w.sum())
        if total <= 0:
            raise InvalidInputError("weights must not all be zero")

    kind = functional.kind
    if kind == "mean" or kind == "sd":
        # Means and deviations are accumulated around y[0], which makes
        # them exact on constant data.
        anchor = float(y[0])
        centered = y - anchor
        mean = (centered if w is None else w * centered).sum() / total
        if kind == "mean":
            return anchor + float(mean)
        dev = centered - mean
        square = dev * dev if w is None else dev * dev * w
        return float(math.sqrt(square.sum() / total))

    p = 0.5 if kind == "median" else functional.p
    order = np.argsort(y, kind="stable")
    cum = (np.arange(1, y.size + 1) if w is None else np.cumsum(w[order])) / total
    idx = int(np.searchsorted(cum, p, side="left"))
    return float(y[order[min(idx, y.size - 1)]])
