"""Oracles for ``channel.transmit``, ``channel.highpass_bias`` and ``link.bit_model``.

``reference_transmit`` is the allocating transmit that preceded the chunked
one: one float64 array per term, and the hum as ``np.sin`` of every sample's
own phase ``2*pi*f * (i / SAMPLE_RATE)``.  Its clean symbols equal
``transmit``'s bit for bit; the hum, which ``transmit`` builds by phasor
rotation, differs by rounding only (see ``tests/test_channel.py``).  It is
the only place that draws link noise per sample, one standard normal of
``default_rng(seed)`` a sample: the physical path that ``noisy_statistics``
(one normal a bit, on ``transmit``'s noise-free waveform) is checked against.
``reference_add_noise`` is that last step alone, for a noise-free waveform
built once and reused across seeds.

``reference_highpass`` is one ``scipy.signal.lfilter`` over the whole
waveform into a new array, the high-pass before the blocked in-place scan;
the two differ by rounding only (the allowance is in ``tests/test_channel.py``).

``reference_bit_model`` is the one-bit noise model built from arrays of a
bit's sample weights, as it was before ``link.bit_model`` summed them in
closed form (checked in ``tests/test_link.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import signal as sp_signal

from wearauth.channel import SAMPLE_RATE, ChannelModel, Waveform
from wearauth.link import _decode_weights, _highpass_coefficients


def reference_transmit(symbols, bit_period: int, channel: ChannelModel, seed) -> Waveform:
    half = bit_period // 2
    symbols = np.asarray(symbols, dtype=np.float64)
    clean = np.repeat(symbols, half)
    a = channel.attenuation
    received = a * clean
    if channel.hum_amplitude:
        t = np.arange(clean.size) / SAMPLE_RATE
        received = received + a * channel.hum_amplitude * np.sin(
            2.0 * np.pi * channel.hum_frequency * t)
    return reference_add_noise(Waveform(samples=received, bit_period=bit_period), channel, seed)


def reference_add_noise(quiet: Waveform, channel: ChannelModel, seed) -> Waveform:
    """``quiet``, a noise-free ``reference_transmit`` on ``channel``, plus its
    per-sample noise, into a new array: the last of ``reference_transmit``'s
    additions, so a frame's noise-free waveform can be built once for many
    seeds with the same result."""
    if not channel.noise_sigma:
        return replace(quiet, samples=quiet.samples.copy())
    samples = np.random.default_rng(seed).standard_normal(quiet.samples.size)
    samples *= channel.attenuation * channel.noise_sigma
    samples += quiet.samples
    return replace(quiet, samples=samples)


def reference_highpass(w: Waveform, cutoff: float) -> Waveform:
    b, a = sp_signal.butter(1, cutoff, btype="highpass", fs=SAMPLE_RATE)
    return replace(w, samples=sp_signal.lfilter(b, a, w.samples))


def reference_bit_model(bit_period: int, mode, cutoff: float):
    """``link.bit_model`` behind a high-pass, built as the numpy weights of
    every sample of a bit (the construction before the closed form): ``w``
    over the boxes, ``c_i = b0 * (w_i + (p - 1) * sum_(j>i) w_j
    p**(j-1-i))`` summed box by box as differences of powers, and ``e_i =
    b0 * (p - 1) * p**(bit_period-1-i)``; arrays sized by ``bit_period``."""
    b0, p = _highpass_coefficients(cutoff)
    boxes = [(sign / (hi - lo), lo, hi)
             for sign, (lo, hi) in zip((1.0, -1.0), _decode_weights(bit_period, mode))]
    i = np.arange(bit_period)
    w = np.zeros(bit_period)
    c = np.zeros(bit_period)
    for weight, lo, hi in boxes:
        w[lo:hi] = weight
        j = i[:hi - 1]           # the samples that a sample of the box follows
        first = np.maximum(lo, j + 1)
        c[:hi - 1] += weight * (np.power(p, hi - 1 - j) - np.power(p, first - 1 - j))
    c += w
    c *= b0
    e = b0 * (p - 1.0) * np.power(p, bit_period - 1 - i)
    return (float(np.dot(w, np.power(p, i))), p ** bit_period,
            (float(c @ c), float(c @ e), float(e @ e)))
