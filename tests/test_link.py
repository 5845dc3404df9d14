"""The body link's one-bit model (``wearauth.link.bit_model``) against exact
rational sums and against the array construction it replaced."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth.channel import statistic_noise
from wearauth.energy import DecodeMode
from wearauth.link import (
    MAX_BIT_PERIOD,
    SAMPLE_RATE,
    _decode_weights,
    _highpass_coefficients,
    bit_model,
)

from reference_channel import reference_bit_model

EPS = 2.0 ** -52
TINY = 5e-324

# Rounding allowance of bit_model against the exact sums of the same float
# inputs (w, b0 and p taken at their exact values), in units of EPS times the
# same sums over absolute terms; u = EPS / 2.
#  - A geometric sum over q in (0, 1): log|p| within 1 ulp, its product by
#    n * step u, and expm1 of an argument off by d relative is off by at most
#    d relative (|x e**x / expm1(x)| <= 1 for x < 0) plus its own ulp: the
#    numerator within 2.5 EPS, the denominator 2, the quotient u: 5 EPS.
#    Over q < 0, 1 - q >= 1 and the plain quotient is within 3 EPS of the
#    absolute sum, which is at least 1.  A power p**k is within 1 EPS.
#  - The weights after a run: each run adds w times a geometric sum (5.5) and
#    p**n times the previous value (1.5 more), so after the at most 4 runs
#    that follow a run, 6 + 3 * 2 = 12 EPS.  c_(v-1) = b0 (w + (p - 1) *
#    after) adds four roundings: 14 EPS of the absolute terms of c, which
#    bound those of every c_i of the run as p**(v-1-i) * c_(v-1).
#  - uu adds c * c times a geometric sum: 2 * 14 + 5 + 1 = 34, and the sum of
#    at most 5 runs 2 more: 36.  ud: 14 + 1 (b0, p - 1) + 1 (power) + 5 +
#    2 + 2 = 25.  gain: 1 + 5 + 1 + 2 = 9.  dd: 2.5 + 5 + 0.5 = 8.  carry: 1.
# 36 < 40.  Below the normal range rounding is absolute, at most TINY / 2 an
# operation, on fewer than 64 operations: 32 TINY on top.
MODEL_ULPS = 40


def _exact_model(bit_period, mode, cutoff):
    """``(values, absolute)``: gain, carry, uu, ud and dd as exact rational
    sums of ``w_j p**j``, ``c_i`` and ``e_i``, and the same sums over
    absolute terms."""
    b0, p = _highpass_coefficients(0.0 if cutoff is None else cutoff)
    b0, p = Fraction(b0), Fraction(p)
    w = [Fraction(0)] * bit_period
    for sign, (lo, hi) in zip((1.0, -1.0), _decode_weights(bit_period, mode)):
        w[lo:hi] = [Fraction(sign / (hi - lo))] * (hi - lo)
    c, c_abs = [None] * bit_period, [None] * bit_period
    after = after_abs = Fraction(0)             # sum_(j>i) w_j p**(j-1-i), backwards
    for i in reversed(range(bit_period)):
        c[i] = b0 * (w[i] + (p - 1) * after)
        c_abs[i] = abs(b0) * (abs(w[i]) + abs(p - 1) * after_abs)
        after, after_abs = w[i] + p * after, abs(w[i]) + abs(p) * after_abs
    e = [b0 * (p - 1) * p ** (bit_period - 1 - i) for i in range(bit_period)]
    values = (sum(w_j * p ** j for j, w_j in enumerate(w)), p ** bit_period,
              sum(x * x for x in c), sum(x * y for x, y in zip(c, e)), sum(y * y for y in e))
    absolute = (sum(abs(w_j) * abs(p) ** j for j, w_j in enumerate(w)), abs(p) ** bit_period,
                sum(x * x for x in c_abs), sum(x * abs(y) for x, y in zip(c_abs, e)), values[4])
    return values, absolute


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mode=st.sampled_from(tuple(DecodeMode)),
       bit_period=st.integers(2, 32).map(lambda h: 2 * h),
       cutoff=st.sampled_from((None, 1.0, 1000.0, SAMPLE_RATE / 4, SAMPLE_RATE / 4 + 1.0,
                               0.49 * SAMPLE_RATE)))
def test_bit_model_equals_exact_sums_within_rounding(mode, bit_period, cutoff):
    gain, carry, covariance = bit_model(bit_period, mode, cutoff)
    values, absolute = _exact_model(bit_period, mode, cutoff)
    for got, exact, scale in zip((gain, carry, *covariance), values, absolute):
        allowance = MODEL_ULPS * Fraction(EPS) * scale + 32 * Fraction(TINY)
        assert abs(Fraction(got) - exact) <= allowance


@pytest.mark.parametrize("bit_period", [1024, MAX_BIT_PERIOD])
@pytest.mark.parametrize("mode", tuple(DecodeMode))
@pytest.mark.parametrize("cutoff", [1.0, 1000.0, SAMPLE_RATE / 4, 0.49 * SAMPLE_RATE])
def test_bit_model_equals_array_construction(bit_period, mode, cutoff):
    """Within 1e-13 of each value's scale (|ud| <= sqrt(uu * dd), |gain| <= 2):
    the rounding of the reference's sums over up to 149,796 terms."""
    gain, carry, (uu, ud, dd) = bit_model(bit_period, mode, cutoff)
    r_gain, r_carry, (r_uu, r_ud, r_dd) = reference_bit_model(bit_period, mode, cutoff)
    for got, expected, scale in ((gain, r_gain, 2.0), (carry, r_carry, carry),
                                 (uu, r_uu, uu), (ud, r_ud, math.sqrt(uu * dd)),
                                 (dd, r_dd, dd)):
        assert abs(got - expected) <= 1e-13 * scale + TINY


@pytest.mark.parametrize("bit_period", [4, 6, 8, 10, 64, 1024, MAX_BIT_PERIOD])
@pytest.mark.parametrize("mode", tuple(DecodeMode))
def test_no_highpass_is_the_identity_filter(bit_period, mode):
    """Without a high-pass the statistic never sees the filter state: the
    gain is exactly 0, and ``uu`` is the sum of the squared box weights as
    the receiver without a filter state sums them."""
    assert _highpass_coefficients(0.0) == (1.0, 1.0)
    gain, carry, (uu, ud, dd) = bit_model(bit_period, mode)
    boxes = _decode_weights(bit_period, mode)
    assert gain == 0.0 and carry == 1.0 and ud == 0.0 and dd == 0.0
    weights = [(sign / (hi - lo), hi - lo) for sign, (lo, hi) in zip((1.0, -1.0), boxes)]
    assert uu == sum(weight * weight * length for weight, length in weights)


def test_statistic_noise_allocates_nothing_sized_by_the_bit():
    tracemalloc.start()
    try:
        statistic_noise(MAX_BIT_PERIOD, DecodeMode.DIRECT, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
