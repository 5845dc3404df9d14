"""Oracles for ``channel.transmit`` and ``channel.highpass_bias``.

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
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import signal as sp_signal

from wearauth.channel import SAMPLE_RATE, ChannelModel, Waveform


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
