"""Scalar helpers of the step: clamp equals the builtins it replaces."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from levelwing.angles import clamp

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats())


def same_float(a: float, b: float) -> bool:
    """a and b are the same float: equal with the same sign, or both nan."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_same_float_tells_signed_zeros_and_nan_apart():
    assert same_float(-0.0, -0.0) and same_float(math.nan, math.nan)
    assert not same_float(0.0, -0.0)
    assert not same_float(math.nan, 0.0) and not same_float(0.0, math.nan)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(x=VALUES, lo=VALUES, hi=VALUES)
def test_clamp_is_max_of_min_bit_for_bit(x, lo, hi):
    assert same_float(clamp(x, lo, hi), max(lo, min(hi, x)))


def test_clamp_edges():
    for x in EDGES:
        for lo in EDGES:
            for hi in EDGES:
                assert same_float(clamp(x, lo, hi), max(lo, min(hi, x)))
    assert clamp(2.0, -1.0, 1.0) == 1.0 and clamp(-2.0, -1.0, 1.0) == -1.0
    assert math.copysign(1.0, clamp(-0.0, 0.0, 1.0)) == 1.0
