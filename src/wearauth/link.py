"""The body link's one-bit model, in closed form and without numpy.

The modem's time base, the rules its settings obey (:func:`check_modem`),
the ceiling on a frame's samples (:func:`check_samples`), the receiver's
first-order high-pass and its two decision boxes, and what one bit of the
link does to white noise (:func:`bit_model`): the gain, carry and covariance
that :class:`wearauth.channel.StatisticNoise` draws the per-bit noise from.
Every quantity is a sum over the bit's samples that the boxes split into at
most five runs of constant weight, and each run's sum is geometric, so the
cost does not grow with ``bit_period``.  The waveform, the frame and the
decoder stay in :mod:`wearauth.channel`.
"""

from __future__ import annotations

import math
import numbers

from .energy import DecodeMode

__all__ = [
    "SAMPLE_RATE",
    "PREAMBLE_BITS",
    "EMPTY_FRAME_BITS",
    "MAX_SAMPLES",
    "MAX_BIT_PERIOD",
    "check_modem",
    "check_samples",
    "bit_model",
]

# The modem's one time base, samples per second.  Outputs depend on it only through
# hum_frequency / SAMPLE_RATE and highpass_cutoff / SAMPLE_RATE.
SAMPLE_RATE = 1_000_000.0
PREAMBLE_BITS = (1, 0, 1, 0, 1, 0, 1, 0)
EMPTY_FRAME_BITS = len(PREAMBLE_BITS) + 3 * 16  # preamble; 16-bit sync word, length, CRC
# Ceiling on one frame's noise-free waveform (noise enters only in
# noisy_statistics): 2**23 samples.  It admits a 40,047-byte frame up to
# bit_period 26 and a 65,535-byte one up to 14.  The simulator builds its
# frame in pieces of about 2**19 samples and holds one at a time, so there
# the ceiling bounds a frame's samples, the time of its clean pass; only
# channel-sweep (sweep_hum) holds a whole waveform, 64 MiB of float64 at the
# ceiling.  channel.transmit() peaks at 8 bytes per sample of what it builds
# plus, with hum, one TRANSMIT_CHUNK scratch buffer (256 KiB) and one more
# chunk for the half-chunk cos/sin tables of its phasor.
MAX_SAMPLES = 1 << 23
MAX_BIT_PERIOD = MAX_SAMPLES // EMPTY_FRAME_BITS    # 149,796: the longest bit any frame fits


def check_modem(bit_period: int, highpass_cutoff: float | None = None) -> None:
    """Refuse modem settings the body channel cannot run.

    ``bit_period`` must be an even integer (a ``numbers.Integral``, not a
    ``bool``) of at least 4, so that each Manchester half bit has a midpoint
    sample, and at most ``MAX_BIT_PERIOD``, past which no frame fits in
    ``MAX_SAMPLES``; a ``highpass_cutoff`` (``None``: no filter) must lie
    inside (0, ``SAMPLE_RATE``/2).  Raises :class:`ValueError` otherwise.
    """
    if (isinstance(bit_period, bool) or not isinstance(bit_period, numbers.Integral)
            or bit_period < 4 or bit_period % 2):
        raise ValueError("bit_period must be an even integer >= 4")
    if bit_period > MAX_BIT_PERIOD:
        raise ValueError(f"bit_period {bit_period} exceeds {MAX_BIT_PERIOD}, "
                         f"where an empty frame fills {MAX_SAMPLES} samples")
    if highpass_cutoff is not None and not 0 < highpass_cutoff < SAMPLE_RATE / 2:
        raise ValueError("highpass cutoff must lie in (0, SAMPLE_RATE/2)")


def check_samples(n: int) -> None:
    """Refuse a frame's waveform of ``n`` samples, before any of it is built:
    raises :class:`ValueError` when ``n`` exceeds ``MAX_SAMPLES``."""
    if n > MAX_SAMPLES:
        raise ValueError(f"waveform of {n} samples exceeds {MAX_SAMPLES}")


def _highpass_coefficients(cutoff: float) -> tuple[float, float]:
    """Gain ``b0`` and pole ``p`` of the first-order Butterworth high-pass.

    The bilinear transform of ``s / (s + wc)`` with the cutoff prewarped,
    as ``scipy.signal.butter(1, cutoff, "highpass", fs=SAMPLE_RATE)``
    designs it: ``H(z) = b0 * (1 - 1/z) / (1 - p/z)`` with
    ``t = tan(pi * cutoff / SAMPLE_RATE)``, ``b0 = 1 / (1 + t)`` and
    ``p = (1 - t) / (1 + t)``.  ``p`` falls from 1 towards -1 as the cutoff
    rises from 0 to ``SAMPLE_RATE / 2``, and is ~0 at ``SAMPLE_RATE / 4``.
    A cutoff of 0 gives ``(1.0, 1.0)``, the identity filter: a link without
    a high-pass.
    """
    t = math.tan(math.pi * cutoff / SAMPLE_RATE)
    return 1.0 / (1.0 + t), (1.0 - t) / (1.0 + t)


def _decode_weights(bit_period: int, mode: DecodeMode) -> tuple[tuple[int, int], tuple[int, int]]:
    """The receiver of ``mode`` as two boxes ``(lo, hi)`` of a bit's samples:
    its statistic is the mean over the first minus the mean over the second
    (each half bit's midpoint for direct sampling, each whole half bit for
    integrate-and-dump).  Raises :class:`ValueError` on an unknown mode."""
    half = bit_period // 2
    if mode == DecodeMode.DIRECT:
        tap = half // 2
        return (tap, tap + 1), (half + tap, half + tap + 1)
    if mode == DecodeMode.INTEGRATE_AND_DUMP:
        return (0, half), (half, bit_period)
    raise ValueError(f"unknown decode mode {mode!r}")


def _geometric(p: float, n: int, step: int = 1) -> float:
    """``sum(q**k for k < n)`` with ``q = p**step``.

    For ``q`` in (0, 1) it is ``expm1(n * log q) / expm1(log q)`` with
    ``log q = step * log|p|``, which keeps its precision as ``p`` nears 1,
    where ``1 - q**n`` and ``1 - q`` cancel; ``q = 1`` (the identity filter)
    gives ``n``, and ``q <= 0`` the plain quotient, whose denominator is at
    least 1.
    """
    q = p ** step
    if q == 1.0:
        return float(n)
    if q > 0.0:
        log_q = step * math.log(abs(p))
        return math.expm1(n * log_q) / math.expm1(log_q)
    return (1.0 - q ** n) / (1.0 - q)


def bit_model(bit_period: int, mode: DecodeMode, cutoff: float | None = None
              ) -> tuple[float, float, tuple[float, float, float]]:
    """``(gain, carry, (uu, ud, dd))``: one bit of the receiver of ``mode``
    behind the high-pass at ``cutoff`` (``None``: none), in closed form.

    In transposed form the high-pass is ``y = b0*x + s``, then
    ``s <- p*y - b0*x``, with the coefficients of
    :func:`_highpass_coefficients` (``b0 = p = 1`` without a high-pass).
    With the receiver's weights ``w`` (``+-1/len`` over the two boxes of
    :func:`_decode_weights`), sample ``j`` of a bit that starts in state
    ``s`` holds ``y_j = b0*x_j + p**j * s + b0*(p - 1) * sum_(i<j)
    p**(j-1-i) x_i``.  So the bit's statistic is ``gain * s + u`` and its
    end state ``carry * s + d``, with ``gain = sum_j w_j p**j``,
    ``carry = p**bit_period``, ``u = sum_i c_i x_i`` and ``d = sum_i e_i
    x_i``, where ``c_i = b0 * (w_i + (p - 1) * sum_(j>i) w_j p**(j-1-i))``
    and ``e_i = b0 * (p - 1) * p**(bit_period-1-i)``; for unit white
    noise ``x`` the covariance of ``(u, d)`` is ``(c.c, c.e, e.e)``.

    ``w`` is constant over each run ``[u, v)`` between box edges, so there
    ``c_i = p**(v-1-i) * c_(v-1)``: each sum over a run is
    ``c_(v-1)`` times a geometric sum, and ``c_(v-1)`` needs only the
    weights after the run, carried from run to run from the bit's end.
    Without a high-pass the same path gives ``gain`` exactly 0 (the boxes
    have equal lengths), ``carry`` 1, ``ud = dd = 0`` and ``uu = sum w**2``.
    Raises :class:`ValueError` when the settings fail :func:`check_modem`
    or ``mode`` is unknown.
    """
    check_modem(bit_period, cutoff)
    bit_period = int(bit_period)
    b0, p = _highpass_coefficients(0.0 if cutoff is None else cutoff)
    boxes = _decode_weights(bit_period, mode)
    weight = {lo: sign / (hi - lo) for sign, (lo, hi) in zip((1.0, -1.0), boxes)}
    edges = sorted({0, bit_period, *boxes[0], *boxes[1]}, reverse=True)
    gain = uu = ud = 0.0
    after = 0.0             # sum_(j>=v) w_j p**(j-v): the weights after the run
    for v, u in zip(edges, edges[1:]):
        n, w = v - u, weight.get(u, 0.0)
        c = b0 * (w + (p - 1.0) * after)                        # c_(v-1)
        squares = _geometric(p, n, 2)
        uu += c * c * squares
        ud += c * b0 * (p - 1.0) * p ** (bit_period - v) * squares
        run = _geometric(p, n)
        gain += w * p ** u * run
        after = w * run + p ** n * after
    dd = (b0 * (p - 1.0)) ** 2 * _geometric(p, bit_period, 2)
    return gain, p ** bit_period, (uu, ud, dd)
