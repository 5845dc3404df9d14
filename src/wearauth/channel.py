"""Software model of the on-body link.

The body-coupled link carries Manchester-coded frames (the body passes only
AC, so the line code must be DC-balanced): an alternating preamble, a sync
word, a 16-bit byte length, the payload and a CRC-16/CCITT, all MSB-first.
The channel applies attenuation, mains hum and Gaussian noise; the receiver
decides each bit from the two half-bit midpoint samples or from the
integrate-and-dump half-bit means.  :func:`transmit` builds the noise-free
waveform; the channel is linear in its noise, so :func:`noisy_statistics`
draws it straight into that pass's per-bit statistics, one normal a bit and
exact in distribution (the simulator and :func:`sweep_hum` both do), from
the closed-form one-bit model of :mod:`wearauth.link`, which also owns the
time base, the modem's rules, the ceiling on a frame's samples, the
high-pass design and the receiver's boxes.  :func:`sweep_hum` builds each
point's whole waveform; the simulator builds its frame in pieces and holds
one at a time: :func:`transmit` takes the link-clock index of a piece's
first sample and :func:`highpass_bias` the filter state just before it, so
on a grid of whole chunks and whole bits the pieces' statistics equal the
whole frame's bit for bit.  So ``MAX_SAMPLES`` bounds a simulated frame's
samples, the time of its pass, and whole-waveform memory only in
``channel-sweep``.
The per-sample noise path is the tests' oracle (``tests/reference_channel.py``).
The conventional on-body radio is modelled as an error-free byte pipe (its
cost lives in the energy model).
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import DecodeMode
from .link import (
    PREAMBLE_BITS,
    SAMPLE_RATE,
    _decode_weights,
    _highpass_coefficients,
    bit_model,
    check_modem,
    check_samples,
)

__all__ = [
    "SAMPLE_RATE",
    "SYNC_WORD",
    "PREAMBLE_BITS",
    "ChannelModel",
    "Waveform",
    "RxStats",
    "FramingError",
    "SyncError",
    "IntegrityError",
    "DecodeMode",
    "check_modem",
    "crc16_ccitt",
    "frame_data_bits",
    "encode_frame",
    "transmit",
    "highpass_bias",
    "bit_statistics",
    "StatisticNoise",
    "statistic_noise",
    "noisy_statistics",
    "receive_decode",
    "ber",
    "sweep_hum",
]

SYNC_WORD = 0xF3A5
MAX_PAYLOAD = 0xFFFF  # length field is 16 bits of bytes
# Samples of transmit()'s scratch, in whose two halves it builds the hum half
# a chunk at a time, small enough to stay in cache across a block's passes;
# highpass_bias() filters, the receiver sums and the eye opening scans the
# statistics in chunks of this size.
TRANSMIT_CHUNK = 1 << 15


class FramingError(ValueError):
    """Payload cannot be framed."""


class SyncError(Exception):
    """No complete frame found in the decoded bit stream."""


class IntegrityError(Exception):
    """Frame located but its checksum does not verify."""


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT (poly 0x1021, init 0xFFFF, no reflection)."""
    return binascii.crc_hqx(data, 0xFFFF)


@dataclass(frozen=True)
class ChannelModel:
    """Impairments of the body channel.

    Hum and noise amplitudes are relative to the received (attenuated)
    symbol amplitude.  Attenuation 0 models a dead link.
    """

    attenuation: float = 1.0
    hum_amplitude: float = 0.0
    hum_frequency: float = 60.0
    noise_sigma: float = 0.0
    highpass_cutoff: float | None = None

    def __post_init__(self) -> None:
        for name in ("hum_amplitude", "hum_frequency", "noise_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.attenuation <= 1.0:
            raise ValueError("attenuation must lie in [0, 1]")
        if self.hum_amplitude < 0 or self.noise_sigma < 0:
            raise ValueError("impairment amplitudes must be non-negative")
        if self.hum_frequency <= 0:
            raise ValueError("hum frequency must be positive")

    @property
    def deterministic(self) -> bool:
        """True when the statistics do not depend on the noise generator:
        no noise, or a dead link that scales it to nothing."""
        return self.noise_sigma == 0.0 or self.attenuation == 0.0


@dataclass(frozen=True)
class Waveform:
    """Real signal sampled at ``SAMPLE_RATE``; ``bit_period`` is samples per data bit."""

    samples: np.ndarray
    bit_period: int

    def __post_init__(self) -> None:
        check_modem(self.bit_period)
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))


@dataclass(frozen=True)
class RxStats:
    n_bits: int
    eye_opening: float
    ber: float | None = None


def frame_data_bits(payload: bytes) -> np.ndarray:
    """Frame field bits (before line coding) as a 0/1 uint8 array."""
    if len(payload) > MAX_PAYLOAD:
        raise FramingError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    length = len(payload).to_bytes(2, "big")
    crc = crc16_ccitt(length + payload).to_bytes(2, "big")
    body = SYNC_WORD.to_bytes(2, "big") + length + payload + crc
    return np.concatenate([
        np.array(PREAMBLE_BITS, dtype=np.uint8),
        np.unpackbits(np.frombuffer(body, dtype=np.uint8)),
    ])


def _manchester(bits: np.ndarray) -> np.ndarray:
    """0/1 bits: 0 -> (-1,+1), 1 -> (+1,-1); the stream sums to zero exactly."""
    levels = bits.astype(np.int8) * 2 - 1
    return np.stack((levels, -levels), axis=1).ravel()


def encode_frame(payload: bytes) -> np.ndarray:
    """Manchester symbol stream (+1/-1 int8) for one frame."""
    return _manchester(frame_data_bits(payload))


def transmit(symbols: np.ndarray, bit_period: int, channel: ChannelModel,
             start: int = 0) -> Waveform:
    """The noise-free received waveform ``attenuation * clean + hum`` of the
    symbols, whose first sample is sample ``start`` of the link clock (the
    hum's phase); noise enters only through :func:`noisy_statistics`.

    The clean symbols are written straight into the output, and the hum is
    added to it in blocks of half a ``TRANSMIT_CHUNK`` through one
    chunk-sized scratch buffer.

    The hum is rotated, not evaluated per sample.  At sample ``s + k`` of a
    block starting at link-clock sample ``s`` it is
    ``amp*sin(theta) * cos(phi_k) + amp*cos(theta) * sin(phi_k)``, with
    ``theta = s / SAMPLE_RATE * omega`` computed afresh for each block (never
    accumulated) and one cos/sin table of ``phi_k = k / SAMPLE_RATE * omega``
    per call: one ``sin`` and one ``cos`` per block instead of one ``sin``
    per sample.  It differs from ``amp * sin(i / SAMPLE_RATE * omega)`` by
    rounding only, within a few ulp of ``amp`` times
    ``1 + omega * i / SAMPLE_RATE``, as that formula does from the exact hum.
    Blocks start every half ``TRANSMIT_CHUNK`` from ``start``, so a frame
    sent in pieces that start on multiples of half a chunk gets the samples
    of one call on the whole frame, bit for bit.

    Raises :class:`ValueError` when the modem settings fail
    :func:`check_modem` or the waveform would exceed ``MAX_SAMPLES``
    (:func:`~wearauth.link.check_samples`).
    """
    check_modem(bit_period)
    half = bit_period // 2
    symbols = np.asarray(symbols)
    n = symbols.size * half
    check_samples(n)
    a = channel.attenuation
    received = np.empty(n)
    np.multiply(symbols.reshape(-1, 1), a, out=received.reshape(-1, half))
    if channel.hum_amplitude:
        block = min(n, TRANSMIT_CHUNK // 2)
        scratch = np.empty(2 * block)
        amp = a * channel.hum_amplitude
        omega = 2.0 * np.pi * channel.hum_frequency
        phase = np.arange(block, dtype=np.float64)
        phase /= SAMPLE_RATE
        phase *= omega
        cos_k = np.cos(phase)
        sin_k = np.sin(phase, out=phase)
        for begin in range(0, n, TRANSMIT_CHUNK // 2):
            out = received[begin:begin + block]
            buf, spare = scratch[:out.size], scratch[block:block + out.size]
            theta = (start + begin) / SAMPLE_RATE * omega
            np.multiply(cos_k[:out.size], amp * math.sin(theta), out=buf)
            np.multiply(sin_k[:out.size], amp * math.cos(theta), out=spare)
            buf += spare
            out += buf
    return Waveform(samples=received, bit_period=bit_period)


# The blocked scan of _FirstOrderScan.  Within a block it scales the input by
# p**-i, which grows to at most _SCAN_GAIN, so the partial sums stay within
# 4 * _SCAN_GAIN of the largest sample; blocks hold at most _SCAN_BLOCK
# samples and a step at most _SCAN_ROWS blocks, so the per-block arrays stay
# a few KiB.  A high-pass step whose sums overflow float64 anyway (samples
# past ~1e304) is filtered again scaled by _SCAN_RESCALE, a power of two, so
# it is exact.
_SCAN_GAIN = 1024.0
_SCAN_BLOCK = 2048
_SCAN_ROWS = 1024
_SCAN_RESCALE = 2.0 ** -16


class _FirstOrderScan:
    """``y[i] = b * v[i] + p * y[i-1]`` as a blocked scan, one step of at
    most ``step`` values at a time.

    In a block of ``L`` values starting at ``s`` with ``c = y[s-1]``,
    ``y[s+i] = p**i * (cumsum(b * p**-j * v[s+j])[i] + p * c)``.  Every
    block's sums run at once from ``c = 0``; the block ends then give each
    block's ``c`` through ``c_k = end_k + p**L * c_(k-1)``, unrolled for
    as many taps as ``(p**L)**m`` stays above 2**-60.  A caller writes a
    step's ``v`` into ``buffer[:n]`` and calls :meth:`scan`.
    """

    def __init__(self, p: float, b: float = 1.0):
        block = 1
        while block < _SCAN_BLOCK and abs(p) ** (2 * block) * _SCAN_GAIN >= 1.0:
            block *= 2
        self.p, self.block = p, block
        self.step = min(TRANSMIT_CHUNK, _SCAN_ROWS * block)
        index = np.arange(block, dtype=np.float64)
        self.gain = b * np.power(p, -index)               # b * p**-i
        self.shrink = np.power(p, index)                  # p**i
        self.decay = (p ** block) ** np.arange(1, self.step // block + 1)   # (p**L)**k, k >= 1
        self.taps = int(np.count_nonzero(np.abs(self.decay) > 2.0 ** -60))
        self.buffer = np.empty(self.step)

    def scan(self, out: np.ndarray, y_prev: float) -> None:
        """``y`` of the first ``out.size`` values of ``buffer``, from
        ``y[-1] = y_prev``, into ``out``; the buffer is overwritten."""
        p, block, shrink, decay = self.p, self.block, self.shrink, self.decay
        n = out.size
        rows = -(-n // block)
        v = self.buffer[:rows * block]
        v[n:] = 0.0
        sums = v.reshape(rows, block)
        sums *= self.gain
        np.cumsum(sums, axis=1, out=sums)
        ends = sums[:, -1] * shrink[-1]              # each block's last y from c = 0
        carry = ends.copy()                          # ...and its true last y
        for m in range(1, min(self.taps + 1, rows)):
            carry[m:] += decay[m - 1] * ends[:-m]
        carry += decay[:rows] * y_prev
        start = np.empty(rows)                       # p * c of each block
        start[0] = y_prev
        start[1:] = carry[:-1]
        start *= p
        sums += start[:, None]
        if n == rows * block:
            np.multiply(sums, shrink, out=out.reshape(rows, block))
        else:
            sums *= shrink
            out[...] = v[:n]


def highpass_bias(w: Waveform, cutoff: float,
                  initial: tuple[float, float] = (0.0, 0.0)) -> Waveform:
    """First-order high-pass, in place; kills DC and mains hum, passes the signal band.

    Computes ``y[n] = b0 * (x[n] - x[n-1]) + p * y[n-1]`` (the coefficients
    of :func:`_highpass_coefficients`) from ``initial``, the filter's input
    and output ``(x[-1], y[-1])`` just before the first sample; the default
    starts from rest.  It runs :class:`_FirstOrderScan` in steps of at most
    ``TRANSMIT_CHUNK`` samples that carry ``x`` and ``y`` from step to step,
    so no second waveform is held.  A waveform filtered in pieces that each
    start on a multiple of ``TRANSMIT_CHUNK``, each from the last raw and
    filtered samples of the piece before, equals the whole one filtered in
    one call bit for bit: its steps start where that call's do.

    It agrees with ``scipy.signal.lfilter`` on the same coefficients by
    rounding only: within ``40 * eps * max|x| / (1 - |p|)`` (the derivation
    is in ``tests/test_channel.py``); at a 1 kHz cutoff on a 1 MHz waveform
    of amplitude ~2 the two differ by ~4e-15.  Returns ``w`` itself.
    Raises :class:`ValueError` when the cutoff fails :func:`check_modem` or
    the samples are read-only.
    """
    check_modem(w.bit_period, cutoff)
    if not w.samples.flags.writeable:
        raise ValueError("highpass_bias filters in place; the samples are read-only")
    b0, p = _highpass_coefficients(cutoff)
    scan = _FirstOrderScan(p, b0)
    diff = scan.buffer

    def filter_step(part: np.ndarray, x_prev: float, y_prev: float) -> None:
        diff[0] = part[0] - x_prev
        np.subtract(part[1:], part[:-1], out=diff[1:part.size])
        scan.scan(part, y_prev)

    x_prev, y_prev = initial
    with np.errstate(over="raise", invalid="ignore"):
        for begin in range(0, w.samples.size, scan.step):
            part = w.samples[begin:begin + scan.step]
            x_last = float(part[-1])
            try:
                filter_step(part, x_prev, y_prev)
            except FloatingPointError:
                # Only the buffer was written: the one write to part, a
                # product by |p**i| <= 1, cannot overflow.
                with np.errstate(over="ignore"):
                    part *= _SCAN_RESCALE
                    filter_step(part, x_prev * _SCAN_RESCALE, y_prev * _SCAN_RESCALE)
                    part /= _SCAN_RESCALE
            x_prev, y_prev = x_last, float(part[-1])
    return w


def bit_statistics(w: Waveform, mode: DecodeMode) -> np.ndarray:
    """The receiver's per-bit decision statistics: the mean over the first box
    of :func:`_decode_weights` minus that over the second, so a bit decides 1
    where its statistic is positive.

    Each box is summed left to right over a ``(n_bits, bit_period)`` view,
    in blocks of about ``TRANSMIT_CHUNK`` samples so that a block's columns
    stay in cache, and divided by its length; the second box's means take
    one block of scratch, so the peak is the 8-byte statistic of each bit.
    A one-sample box is read in place as its own mean, so direct sampling is
    the one pass ``y[tap] - y[half + tap]``.  Integrate-and-dump equals
    ``mean`` bit for bit below 8 samples per half bit; from 8 on numpy sums
    pairwise, and the two differ only in rounding.

    Raises :class:`ValueError` when ``mode`` is unknown or a statistic is not
    finite (box sums of samples near the float64 limit overflow).
    """
    boxes = _decode_weights(w.bit_period, mode)
    bp = w.bit_period
    n_bits = w.samples.size // bp
    if n_bits == 0:
        return np.zeros(0)
    bits = w.samples[:n_bits * bp].reshape(n_bits, bp)
    rows = max(1, TRANSMIT_CHUNK // bp)
    stat = np.empty(n_bits)
    second = np.empty(min(rows, n_bits))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_bits, rows):
            block = bits[start:start + rows]
            first = stat[start:start + rows]
            means = []
            for out, (lo, hi) in zip((first, second[:len(block)]), boxes):
                if hi - lo == 1:        # the sample is its own mean: no copy, no /= 1
                    means.append(block[:, lo])
                    continue
                out[...] = block[:, lo]
                for k in range(lo + 1, hi):
                    out += block[:, k]
                out /= hi - lo
                means.append(out)
            np.subtract(*means, out=first)
        finite = np.isfinite(stat.min()) and np.isfinite(stat.max())
    if not finite:
        raise ValueError("bit statistics overflow float64; the waveform is out of range")
    return stat


# Bits after which the innovations factor is constant: the first k at which
# P_k lies within 2**-53 (relative) of its limit.
_SETTLED = 2.0 ** -53


@dataclass(frozen=True)
class StatisticNoise:
    """The per-bit decision statistics ``S`` of unit white noise through the
    high-pass and the receiver, as a scalar Gaussian state-space process, and
    its innovations factor, which draws ``S`` from one normal per bit.

    The channel is linear in its noise, so a hop's statistics are those of
    its noise-free pass plus ``attenuation * noise_sigma * S``.  In
    transposed form the high-pass is ``y = b0*x + s``, then
    ``s <- p*y - b0*x``: its state ``s`` is one number.  Over bit ``k``,
    which starts in state ``s_k``, ``S_k = g * s_k + u_k`` and
    ``s_(k+1) = c * s_k + d_k``, from ``s_0 = 0`` (the filter starts at
    rest), with ``g = gain``, ``c = carry = p**bit_period`` and ``(u_k,
    d_k)`` Gaussian with covariance ``Q = [[uu, ud], [ud, dd]]``
    (``covariance = (uu, ud, dd)``), fresh for every bit: the one-bit
    model of :func:`~wearauth.link.bit_model`.  Without a high-pass the
    filter is the identity, ``g = 0`` and ``S_k = u_k``.

    The innovations form (Kailath, IEEE TAC 1968) predicts ``s_k`` from
    ``S_0 .. S_(k-1)`` as ``m_k``, with error variance ``P_k``:
    ``S_k = g * m_k + e_k`` and ``m_(k+1) = c * m_k + K_k * e_k`` from
    ``m_0 = P_0 = 0``, where the innovations ``e_k`` are independent with
    variance ``F_k = g**2 * P_k + uu`` and ``K_k = (c*g*P_k + ud) / F_k``
    (0 where ``F_k`` is 0, a rank-deficient ``Q``).  So ``e_k = sqrt(F_k)
    * z_k`` for standard normals ``z_k`` draws the joint law of ``S``: it
    is the sequential Cholesky factor of ``S``'s covariance.  ``P`` follows
    the linear-fractional map ``P_(k+1) = (alpha*P_k + beta) / (g**2*P_k +
    uu)``, ``alpha = Var(c*u - g*d)``, ``beta = det Q``; its transient has
    the closed form of :meth:`state_variances` and ends, to float64, at bit
    ``settled``, from which ``F`` and ``K`` are constant.
    """

    gain: float
    carry: float
    covariance: tuple[float, float, float]      # Var u, Cov(u, d), Var d
    settled: int = field(init=False)
    # P_k = beta * (1 - kappa**k) / (low + kappa**k * high) for 0 < k < settled,
    # limit from settled on; beta, low, high, log(kappa) and the limit.
    _transient: tuple[float, float, float, float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g, c = self.gain, self.carry
        uu, ud, dd = self.covariance
        beta = uu * dd - ud * ud
        if uu <= 0.0:
            # u is 0 (so is ud): S_0 = 0, and from then on S_k = g * s_k reads
            # the state exactly, so P_k = Var(d) = dd for k >= 1.
            settled, transient = 1, (0.0, 1.0, 0.0, 0.0, dd)
        elif beta <= 0.0 or g == 0.0:
            # d is a multiple of u (rank 1: P stays 0), or S never sees s.
            settled, transient = 1, (0.0, 1.0, 0.0, 0.0, 0.0)
        else:
            # The map is M = [[alpha, beta], [g**2, uu]] on (P, 1); its
            # eigenvalues l1 >= l2 >= 0 give low = uu - l2 and high = l1 - uu,
            # both >= 0 with low * high = g**2 * beta, and kappa = l2 / l1.
            # h = alpha - uu takes (c - 1) * (c + 1), exact near c = 1.
            h = (c - 1.0) * (c + 1.0) * uu + g * (g * dd - 2.0 * c * ud)
            root = math.hypot(h, 2.0 * abs(g) * math.sqrt(beta))      # l1 - l2
            if h >= 0.0:
                high = (h + root) / 2.0
                low = g * (g * beta / high)
            else:
                low = (root - h) / 2.0
                high = g * (g * beta / low)
            l1 = uu + high
            if root < 0.5 * l1:
                log_kappa = math.log1p(-root / l1)
            else:           # kappa = det M / l1**2, det M = (c*uu - g*ud)**2
                shrink = abs(c * uu - g * ud) / l1
                log_kappa = 2.0 * math.log(shrink) if shrink > 0.0 else -math.inf
            # |P_k / limit - 1| <= kappa**k * root / low: settled where that
            # reaches 2**-53.
            target = math.log(_SETTLED) + math.log(low) - math.log(root)
            settled = 1 if log_kappa == -math.inf else max(
                1, math.ceil(min(target / log_kappa, 2.0 ** 62)))
            transient = (beta, low, high, log_kappa, beta / low)
        object.__setattr__(self, "settled", settled)
        object.__setattr__(self, "_transient", transient)

    def state_variances(self, begin: int, end: int) -> np.ndarray:
        """``P_k`` for the bits ``begin <= k < end``, in closed form: a few
        array passes, however long the transient."""
        beta, low, high, log_kappa, limit = self._transient
        variance = np.full(max(end - begin, 0), limit)
        first, stop = max(begin, 1), min(end, self.settled)
        if first < stop:
            x = np.arange(first, stop, dtype=np.float64)
            x *= log_kappa                                   # log(kappa**k)
            head = variance[first - begin:stop - begin]
            np.exp(x, out=head)
            head *= high
            head += low
            np.expm1(x, out=x)
            x *= -beta
            np.divide(x, head, out=head)
        if begin == 0 and variance.size:
            variance[0] = 0.0
        return variance

    def innovations(self, begin: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """``(F_k, K_k)`` for the bits ``begin <= k < end``."""
        g, c = self.gain, self.carry
        uu, ud, _ = self.covariance
        k = self.state_variances(begin, end)
        f = k * (g * g)
        f += uu
        k *= c * g
        k += ud
        return f, np.divide(k, f, out=np.zeros_like(k), where=f > 0.0)

    def statistics(self, normals: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """``scale * S`` for one standard normal a bit, in place: the result
        is ``normals`` itself, overwritten.

        Bit ``k``'s normal becomes its innovation ``e_k = scale * sqrt(F_k)
        * z_k``; the prediction ``g * m_k`` runs as one :class:`_FirstOrderScan`
        at pole ``carry`` and input gain ``gain`` over ``K_k * e_k``, a
        scan step at a time, and is added in.  Past ``settled`` the factor
        is two constants; without a gain there is no scan.
        """
        n = normals.size
        f, k = self.innovations(self.settled, self.settled + 1)      # the constants
        deviation = scale * math.sqrt(f[0])
        kick = deviation * k[0]
        scan = _FirstOrderScan(self.carry, self.gain) if self.gain else None
        step = scan.step if scan else TRANSMIT_CHUNK
        y_prev = 0.0                                         # g * m_k at a step's start
        for begin in range(0, n, step):
            part = normals[begin:begin + step]
            head = min(part.size, max(self.settled - begin, 0))
            if head:
                f_head, k_head = self.innovations(begin, begin + head)
                np.sqrt(f_head, out=f_head)
                f_head *= scale
                part[:head] *= f_head                        # e_k
            if scan is None:
                part[head:] *= deviation
                continue
            v = scan.buffer[:part.size]
            if head:
                np.multiply(part[:head], k_head, out=v[:head])
            np.multiply(part[head:], kick, out=v[head:])     # K * e past settled
            part[head:] *= deviation
            scan.scan(v, y_prev)                             # v[i] = g * m_(begin+i+1)
            part[0] += y_prev
            part[1:] += v[:-1]
            y_prev = float(v[-1])
        return normals


def statistic_noise(bit_period: int, mode: DecodeMode,
                    highpass_cutoff: float | None = None) -> StatisticNoise:
    """The :class:`StatisticNoise` of a receiver, from the gain, carry and
    covariance of :func:`~wearauth.link.bit_model`, in closed form: nothing
    it holds is sized by ``bit_period``.  Raises :class:`ValueError` when the
    settings fail :func:`check_modem` or ``mode`` is unknown.
    """
    return StatisticNoise(*bit_model(bit_period, mode, highpass_cutoff))


def noisy_statistics(clean: np.ndarray, noise: StatisticNoise, channel: ChannelModel,
                     seed) -> np.ndarray:
    """Per-bit statistics of a noisy hop, with the noise drawn per bit.

    ``clean`` holds the statistics of the hop's noise-free pass:
    :func:`transmit`, :func:`highpass_bias` at ``channel.highpass_cutoff``
    where it is set, and :func:`bit_statistics`; ``noise`` is
    :func:`statistic_noise` of the same receiver.  Returns
    ``clean + attenuation * noise_sigma * S``, ``S`` drawn through the
    innovations factor from ``clean.size`` standard normals of
    ``default_rng(seed)``, one a bit, into one buffer: the distribution of
    decoding the waveform with white noise of ``attenuation * noise_sigma``
    added to every sample, which draws ``bit_period`` normals a bit.  It is
    exact in distribution, not in samples.  A ``deterministic`` channel (no
    noise, or a dead link) draws nothing and returns ``clean`` itself.
    """
    if channel.deterministic:
        return clean
    normals = np.random.default_rng(seed).standard_normal(clean.size)
    stats = noise.statistics(normals, channel.attenuation * channel.noise_sigma)
    stats += clean
    return stats


def _eye(stats: np.ndarray) -> float:
    """Eye opening of per-bit statistics that a decoder has already computed:
    min|statistic| / max|statistic| over all bits, 1 fully open, 0 closed.

    Takes the magnitudes ``TRANSMIT_CHUNK`` statistics at a time, so that no
    per-bit copy is held beside the statistics and the decided bits.
    """
    if not stats.size:
        return 0.0
    buf = np.empty(min(stats.size, TRANSMIT_CHUNK))
    low, peak = math.inf, 0.0
    for start in range(0, stats.size, TRANSMIT_CHUNK):
        part = stats[start:start + TRANSMIT_CHUNK]
        magnitude = np.abs(part, out=buf[:part.size])
        low = min(low, magnitude.min())
        peak = max(peak, magnitude.max())
    return float(low / peak) if peak > 0 else 0.0


def _find_frame(bits: np.ndarray) -> tuple[int, int]:
    """Offset of the first complete frame's sync word and its payload length.

    A frame's sync word sits right after the preamble, so the hunt reads the
    16-bit codes over a window of 64 candidate offsets first and widens it
    fourfold each time no candidate in it holds a complete frame.
    """
    positions = max(bits.size - 15, 0)
    begin, width = 0, 64
    while begin < positions:
        stop = min(begin + width, positions)
        # code[i] is the 16-bit big-endian value of bits[begin + i:][:16]: the
        # window's sync candidates and, 16 bits after each, its length field.
        code = np.zeros(min(stop + 16, positions) - begin, dtype=np.uint16)
        for j in range(16):
            code <<= 1
            code |= bits[begin + j:begin + j + code.size]
        for pos in (np.flatnonzero(code[:stop - begin] == SYNC_WORD) + begin).tolist():
            after = pos + 16
            if after + 16 > bits.size:
                raise SyncError("no complete frame found in the bit stream")
            length = int(code[after - begin])
            if after + 16 + 8 * length + 16 <= bits.size:
                return pos, length
        begin, width = stop, 4 * width
    raise SyncError("no complete frame found in the bit stream")


def receive_decode(stats: np.ndarray,
                   reference_bits: np.ndarray | None = None) -> tuple[bytes, RxStats]:
    """Decide per-bit statistics, hunt for the sync word and verify the checksum.

    ``stats`` are a receiver's per-bit decision statistics: those of
    :func:`bit_statistics` on a waveform, or of :func:`noisy_statistics`; a bit
    is 1 where its statistic is positive.  Raises :class:`SyncError` when no
    complete frame is present and :class:`IntegrityError` (payload withheld)
    when the CRC fails.
    """
    bits = (stats > 0).astype(np.uint8)
    pos, length = _find_frame(bits)
    after = pos + 16
    frame_bytes = np.packbits(bits[after:after + 16 + 8 * length + 16]).tobytes()
    length_payload, crc = frame_bytes[:2 + length], frame_bytes[2 + length:2 + length + 2]
    if crc16_ccitt(length_payload) != int.from_bytes(crc, "big"):
        raise IntegrityError("frame checksum mismatch")
    rate: float | None = None
    if reference_bits is not None and reference_bits.size == bits.size:
        rate = ber(reference_bits, bits)
    rx_stats = RxStats(n_bits=int(bits.size), eye_opening=_eye(stats), ber=rate)
    return length_payload[2:], rx_stats


def ber(tx: np.ndarray, rx: np.ndarray) -> float:
    """Fraction of differing bits between two equal-length 0/1 sequences."""
    tx = np.asarray(tx)
    rx = np.asarray(rx)
    if tx.shape != rx.shape:
        raise ValueError(f"length mismatch: {tx.shape} vs {rx.shape}")
    if tx.size == 0:
        raise ValueError("empty bit sequences")
    return float(np.count_nonzero(tx != rx) / tx.size)


def sweep_hum(payload: bytes, hum_amplitudes: list[float], channel: ChannelModel, bit_period: int,
              seed: int, modes: tuple[DecodeMode, ...] = tuple(DecodeMode)) -> list[dict]:
    """BER and eye opening per decode mode over a hum-amplitude sweep.

    Each point makes one noise-free pass and draws each mode's noise with
    :func:`noisy_statistics`, through a :func:`statistic_noise` model built
    once per sweep, from ``seed=(seed, idx)`` at point ``idx`` for both
    modes.  These common random numbers keep the mode comparison paired:
    each mode's statistics are exact in distribution, but their joint law
    across modes is not the physical one (both decoding one noisy waveform).
    """
    reference = frame_data_bits(payload)
    symbols = _manchester(reference)
    noises = {mode: statistic_noise(bit_period, mode, channel.highpass_cutoff)
              for mode in modes}
    records = []
    for idx, hum in enumerate(hum_amplitudes):
        cm = replace(channel, hum_amplitude=hum)
        w = transmit(symbols, bit_period, cm)
        if cm.highpass_cutoff is not None:
            w = highpass_bias(w, cm.highpass_cutoff)
        clean = {mode: bit_statistics(w, mode) for mode in modes}
        del w           # the next point's waveform is not built beside this one
        for mode in modes:
            stats = noisy_statistics(clean[mode], noises[mode], cm, seed=(seed, idx))
            records.append({
                "hum_amplitude": hum,
                "mode": mode,
                "ber": ber(reference, stats > 0),
                "eye_opening": _eye(stats),
            })
    return records
