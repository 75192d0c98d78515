"""Property tests for the registry's quantile sketch over arbitrary
non-negative samples, zeros included: every quantile estimate lands in
the exact nearest-rank sample's bucket or an adjacent one, within the
relative-error bound, and never escapes the observed range; count,
extremes and the sum are exact."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import DDSketch

samples_strategy = st.lists(
    st.floats(
        min_value=0.0,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=200,
)


def _bucket(h: DDSketch, value: float):
    return None if value <= h.min_value else h.key(value)


@settings(max_examples=200, deadline=None)
@given(samples=samples_strategy, q=st.floats(min_value=0.0, max_value=100.0))
def test_quantile_within_one_bucket_of_exact(samples, q):
    h = DDSketch()  # the registry's default: 1% relative accuracy
    for s in samples:
        h.observe(s)

    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    exact = sorted(samples)[rank - 1]
    est = h.quantile(q)

    if exact <= h.min_value:
        # Zero-bucket samples report 0.0: absolute error <= min_value.
        assert est == 0.0
    else:
        assert abs(_bucket(h, est) - _bucket(h, exact)) <= 1
        assert abs(est - exact) <= h.relative_accuracy * exact
    # The estimate never escapes the observed sample range.
    assert 0.0 <= est <= h.maximum


@settings(max_examples=100, deadline=None)
@given(samples=samples_strategy)
def test_count_total_and_extremes_exact(samples):
    h = DDSketch()
    for s in samples:
        h.observe(s)
    assert h.count == len(samples)
    # The sum is exact and rounded once, so it equals fsum bit for bit.
    assert h.total == math.fsum(samples)
    assert h.minimum == min(samples)
    assert h.maximum == max(samples)
    assert list(h.cumulative())[-1] == (math.inf, len(samples))
    assert h.zero_count + sum(h.counts.values()) == len(samples)
