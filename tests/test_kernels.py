"""The kernel table is the one dispatch path from a Method to its draws."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpboot import (  # noqa: E402
    MEAN,
    MEDIAN,
    STDDEV,
    Dataset,
    Method,
    RngStream,
    apply_functional,
    make_ensemble,
    quantile,
)
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
