"""Property forms of the metric axioms and of batch-wise conjugate updating."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpboot import (  # noqa: E402
    Dataset,
    DPParams,
    MixtureBase,
    NormalBase,
    conjugate_update,
    ecdf_build,
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
    pilot=st.one_of(
        st.none(),
        st.tuples(
            st.floats(0.05, 0.95),
            st.lists(st.integers(0, 3).map(float), min_size=1, max_size=6),
        ),
    ),
)
# A pilot of two points at weight 0.5 under alpha 4 has mass 1/(alpha + n) per
# point, like the data, so it pools with them.
@example(values=[0.0, 1.0, 1.0, 3.0], cuts=[0.5], alpha=4.0, pilot=(0.5, [1.0, 2.0]))
def test_conjugate_update_batches_agree_with_one_update(values, cuts, alpha, pilot):
    # Split the data at 1-3 random interior points and update batch by batch.
    # The prior is normal, or a normal mixed with a tied empirical pilot.
    bounds = sorted({1 + int(c * (len(values) - 2)) for c in cuts})
    batches = np.split(np.array(values), bounds)
    normal = NormalBase(1.0, 2.0)
    if pilot is None:
        prior = DPParams(alpha, normal)
    else:
        w, points = pilot
        emp = ecdf_build(Dataset(points))
        prior = DPParams(alpha, MixtureBase(((w, normal), (1.0 - w, emp))))

    chained = prior
    for batch in batches:
        chained = conjugate_update(chained, Dataset(batch))
    once = conjugate_update(prior, Dataset(values))

    # (alpha + n1) + n2 and alpha + (n1 + n2) may differ in the last bit.
    assert abs(chained.alpha - once.alpha) <= 1e-12 * once.alpha
    # The normal comes first, unchanged.  A pilot whose mass per point equals
    # the data's (1/(alpha + n) each) pools with the data; otherwise it stays
    # its own component, unchanged, between the normal and the data.
    per_point = None if pilot is None else (1.0 - w) * alpha / len(points)
    pools = per_point is not None and math.isclose(per_point, 1.0, rel_tol=1e-12)
    expected = [normal] if pilot is None or pools else [normal, emp]
    n_data = len(values) + (len(points) if pools else 0)
    for components in (chained.base.components, once.base.components):
        assert len(components) == len(expected) + 1
        assert all(m is e for (_, m), e in zip(components, expected))
        assert components[-1][1].n == n_data
    for (cw, _), (ow, _) in zip(chained.base.components, once.base.components):
        assert abs(cw - ow) <= 1e-12
    (_, c_emp), (_, o_emp) = chained.base.components[-1], once.base.components[-1]
    assert np.array_equal(c_emp.values, o_emp.values)
    assert np.array_equal(c_emp.counts, o_emp.counts)
