"""Property forms of the metric axioms and of batch-wise conjugate updating."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpboot import (  # noqa: E402
    Dataset,
    DPParams,
    NormalBase,
    conjugate_update,
    ks_two_sample,
    wasserstein1,
)

# Few distinct values so that ties within and across samples are common.
tied_samples = st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(a=tied_samples, b=tied_samples, c=tied_samples)
@pytest.mark.parametrize("distance", [ks_two_sample, wasserstein1])
def test_distance_is_a_metric_on_tied_samples(distance, a, b, c):
    d_ab = distance(a, b)
    assert d_ab == distance(b, a)
    assert d_ab >= 0.0
    assert distance(a, a) == 0.0
    assert distance(a, a[::-1]) == 0.0
    assert distance(a, c) <= d_ab + distance(b, c) + 1e-12
    if distance is ks_two_sample:
        assert d_ab <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(0, 5).map(float), min_size=2, max_size=30),
    cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    alpha=st.floats(0.1, 10.0),
)
def test_conjugate_update_batches_agree_with_one_update(values, cuts, alpha):
    # Split the data at 1-3 random interior points and update batch by batch.
    bounds = sorted({1 + int(c * (len(values) - 2)) for c in cuts})
    batches = np.split(np.array(values), bounds)
    prior = DPParams(alpha, NormalBase(1.0, 2.0))

    chained = prior
    for batch in batches:
        chained = conjugate_update(chained, Dataset(batch))
    once = conjugate_update(prior, Dataset(values))

    # (alpha + n1) + n2 and alpha + (n1 + n2) may differ in the last bit.
    assert abs(chained.alpha - once.alpha) <= 1e-12 * once.alpha
    (cw, c_normal), (cw_emp, c_emp) = chained.base.components
    (ow, o_normal), (ow_emp, o_emp) = once.base.components
    assert c_normal is o_normal is prior.base
    assert abs(cw - ow) <= 1e-12 and abs(cw_emp - ow_emp) <= 1e-12
    assert np.array_equal(c_emp.ecdf.values, o_emp.ecdf.values)
    assert np.array_equal(c_emp.ecdf.counts, o_emp.ecdf.counts)
    assert c_emp.ecdf.n == o_emp.ecdf.n == len(values)
