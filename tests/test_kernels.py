"""The kernel table is the one dispatch path from a Method to its draws,
and the vectorized Polya urn draws what the sequential urn draws."""

import numpy as np
import pytest
from conftest import ForcedStream

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpboot import (  # noqa: E402
    MEAN,
    MEDIAN,
    STDDEV,
    Dataset,
    DPParams,
    Method,
    NormalBase,
    RngStream,
    UniformBase,
    apply_functional,
    conjugate_update,
    ecdf_build,
    make_ensemble,
    quantile,
)
from dpboot.core import _sample_base  # noqa: E402
from dpboot.dp import _urn_draws  # noqa: E402
from dpboot.resample import _kernel  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(list(Method)),
    functional=st.sampled_from([MEAN, MEDIAN, STDDEV, quantile(0.2)]),
    # Few distinct values so that ties are common.
    values=st.lists(st.integers(0, 6).map(lambda k: k / 4), min_size=1, max_size=30),
    seed=st.integers(0, 2**64 - 1),
    b=st.integers(1, 6),
)
def test_ensemble_replications_are_kernel_draws(method, functional, values, seed, b):
    data = Dataset(values)
    kernel = _kernel(method, data)
    ens = make_ensemble(method, data, b, functional, master_seed=seed)
    expected = [apply_functional(functional, *kernel(RngStream(seed, i).generator())) for i in range(b)]
    assert ens.values.tobytes() == np.array(expected).tobytes()


def _sequential_urn(dp, count, gen):
    """The Polya urn as a plain loop over draws: the oracle for _urn_draws."""
    fresh = _sample_base(dp.base, count, gen)
    u_branch = gen.random(count)
    u_pick = gen.random(count)
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        if u_branch[i] * (dp.alpha + i) < dp.alpha:
            out[i] = fresh[i]
        else:
            out[i] = out[int(u_pick[i] * i)]
    return out


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(1, 60),
    alpha=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    base=st.sampled_from(["empirical", "normal", "mixture"]),
    values=st.lists(st.integers(0, 6).map(lambda k: k / 4), min_size=1, max_size=30),
    seed=st.integers(0, 2**64 - 1),
)
def test_urn_draws_match_the_sequential_urn(count, alpha, base, values, seed):
    data = Dataset(values)
    prior = DPParams(alpha, NormalBase(0.5, 2.0))
    measure = {
        "empirical": ecdf_build(data),
        "normal": prior.base,
        "mixture": conjugate_update(prior, data).base,
    }[base]
    dp = DPParams(alpha, measure)
    got = _urn_draws(dp, count, RngStream(seed, count).generator())
    want = _sequential_urn(dp, count, RngStream(seed, count).generator())
    assert got.tobytes() == want.tobytes()


def test_urn_follows_the_longest_copy_chain():
    # Every draw after the first copies its predecessor, so the last
    # draw is count - 1 copies away from the one fresh value.
    dp = DPParams(1.0, UniformBase(0.0, 1.0))
    for count in range(1, 70):
        fresh = [(k + 1) / (count + 1) for k in range(count)]
        u_branch = [0.5] + [0.999] * (count - 1)
        u_pick = [0.0] + [(i - 0.5) / i for i in range(1, count)]
        uniforms = fresh + u_branch + u_pick
        got = _urn_draws(dp, count, ForcedStream(sequence=uniforms).generator())
        want = _sequential_urn(dp, count, ForcedStream(sequence=uniforms).generator())
        assert got.tobytes() == want.tobytes()
        assert np.all(got == fresh[0])
