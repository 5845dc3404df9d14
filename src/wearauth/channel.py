"""Software model of the on-body link.

The body-coupled link carries Manchester-coded frames (the body passes only
AC, so the line code must be DC-balanced): an alternating preamble, a sync
word, a 16-bit byte length, the payload and a CRC-16/CCITT, all MSB-first.
The channel applies attenuation, mains hum and Gaussian noise; the receiver
decides each bit either from the two half-bit midpoint samples or from the
integrate-and-dump sums over each half bit.  The conventional on-body radio
is modelled as an error-free byte pipe (its cost lives in the energy model).
"""

from __future__ import annotations

import binascii
import enum
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SYNC_WORD",
    "PREAMBLE_BITS",
    "ChannelModel",
    "Waveform",
    "RxStats",
    "FramingError",
    "SyncError",
    "IntegrityError",
    "DecodeMode",
    "crc16_ccitt",
    "frame_data_bits",
    "encode_frame",
    "transmit",
    "highpass_bias",
    "decode_bits",
    "receive_decode",
    "eye_opening",
    "ber",
    "sweep_hum",
]

SYNC_WORD = 0xF3A5
PREAMBLE_BITS = (1, 0, 1, 0, 1, 0, 1, 0)
MAX_PAYLOAD = 0xFFFF  # length field is 16 bits of bytes
# Ceiling on one waveform: 2**23 float64 samples, 64 MiB.  transmit() peaks at
# 8 bytes per sample plus one TRANSMIT_CHUNK scratch buffer (256 KiB), and
# with hum one more chunk of sample offsets.  It admits a 40,047-byte frame up
# to bit_period 26 and a 65,535-byte one up to 14.
MAX_SAMPLES = 1 << 23
# Samples of hum and noise that transmit() builds at a time in its scratch,
# small enough to stay in cache across the chunk's passes; highpass_bias()
# filters and the integrate-and-dump receiver sums in chunks of the same size.
TRANSMIT_CHUNK = 1 << 15


class FramingError(Exception):
    """Payload cannot be framed."""


class SyncError(Exception):
    """No complete frame found in the decoded bit stream."""


class IntegrityError(Exception):
    """Frame located but its checksum does not verify."""


class DecodeMode(str, enum.Enum):
    DIRECT = "direct_sample"
    INTEGRATE_AND_DUMP = "integrate_and_dump"


def crc16_ccitt(data: bytes, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT (poly 0x1021, init 0xFFFF, no reflection)."""
    return binascii.crc_hqx(data, init)


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
        if not 0.0 <= self.attenuation <= 1.0:
            raise ValueError("attenuation must lie in [0, 1]")
        if self.hum_amplitude < 0 or self.noise_sigma < 0:
            raise ValueError("impairment amplitudes must be non-negative")
        if self.hum_frequency <= 0:
            raise ValueError("hum frequency must be positive")

    @property
    def deterministic(self) -> bool:
        """True when the waveform does not depend on the noise generator."""
        return self.noise_sigma == 0.0


@dataclass(frozen=True)
class Waveform:
    """Sampled real-valued signal; ``bit_period`` is samples per data bit."""

    sample_rate: float
    samples: np.ndarray
    bit_period: int

    def __post_init__(self) -> None:
        if self.bit_period < 4 or self.bit_period % 2:
            raise ValueError("bit_period must be an even integer >= 4")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
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
             seed, sample_rate: float = 1_000_000.0) -> Waveform:
    """Expand symbols to samples and apply the channel impairments.

    The clean symbols are written straight into the output; hum and noise are
    added ``TRANSMIT_CHUNK`` samples at a time through one scratch buffer, with
    the same float operations in the same order as ``a * clean + hum + noise``
    (the noise chunks continue one ``standard_normal`` stream), so the samples
    do not depend on the chunk size.

    Raises :class:`ValueError` when the waveform would exceed ``MAX_SAMPLES``.
    """
    if bit_period < 4 or bit_period % 2:
        raise ValueError("bit_period must be an even integer >= 4")
    half = bit_period // 2
    symbols = np.asarray(symbols)
    n = symbols.size * half
    if n > MAX_SAMPLES:
        raise ValueError(f"waveform of {n} samples exceeds {MAX_SAMPLES}")
    rng = np.random.default_rng(seed)
    a = channel.attenuation
    received = np.empty(n)
    np.multiply(symbols.reshape(-1, 1), a, out=received.reshape(-1, half))
    if channel.hum_amplitude or channel.noise_sigma:
        omega = 2.0 * np.pi * channel.hum_frequency
        scratch = np.empty(min(n, TRANSMIT_CHUNK))
        if channel.hum_amplitude:
            offsets = np.arange(scratch.size, dtype=np.float64)
        for start in range(0, n, TRANSMIT_CHUNK):
            out = received[start:start + TRANSMIT_CHUNK]
            buf = scratch[:out.size]
            if channel.hum_amplitude:
                np.add(offsets[:out.size], start, out=buf)  # sample index, exact
                buf /= sample_rate
                buf *= omega
                np.sin(buf, out=buf)
                buf *= a * channel.hum_amplitude
                out += buf
            if channel.noise_sigma:
                rng.standard_normal(out=buf)
                buf *= a * channel.noise_sigma
                out += buf
    return Waveform(sample_rate=sample_rate, samples=received, bit_period=bit_period)


def highpass_bias(w: Waveform, cutoff: float) -> Waveform:
    """First-order high-pass, in place; kills DC and mains hum, passes the signal band.

    Filters ``w.samples`` ``TRANSMIT_CHUNK`` samples at a time, carrying the
    filter state from chunk to chunk, so the result equals one ``lfilter``
    over the whole waveform bit for bit while no second waveform is held.
    Returns ``w`` itself.  Raises :class:`ValueError` when the samples are
    read-only.

    ``scipy.signal`` is imported here, on the first call, so that a process
    which never filters does not load it (~47 MB and ~0.9 s of imports on a
    2-core x86 host).
    """
    if not 0 < cutoff < w.sample_rate / 2:
        raise ValueError("cutoff must lie in (0, sample_rate/2)")
    if not w.samples.flags.writeable:
        raise ValueError("highpass_bias filters in place; the samples are read-only")
    from scipy import signal as sp_signal

    b, a = sp_signal.butter(1, cutoff, btype="highpass", fs=w.sample_rate)
    state = np.zeros(1)
    for start in range(0, w.samples.size, TRANSMIT_CHUNK):
        part = w.samples[start:start + TRANSMIT_CHUNK]
        part[...], state = sp_signal.lfilter(b, a, part, zi=state)
    return w


def _bit_statistics(w: Waveform, mode: DecodeMode) -> np.ndarray:
    """Per-bit decision statistic: first half minus second half of each bit.

    Works on a ``(n_bits, bit_period)`` view of the samples.  Integrate-and-dump
    sums each half bit left to right, in blocks of about ``TRANSMIT_CHUNK``
    samples so that a block's columns stay in cache, then divides both sums
    by the half-bit length and subtracts: 16 bytes per bit at the peak, with
    no half-bit array.
    Below 8 samples per half bit that is numpy's own order, so each mean
    equals ``mean`` bit for bit; from 8 on numpy sums pairwise and the two
    differ only in rounding.

    Raises :class:`ValueError` when a statistic is not finite (half-bit sums
    of samples near the float64 limit overflow).
    """
    bp = w.bit_period
    half = bp // 2
    n_bits = w.samples.size // bp
    if n_bits == 0:
        return np.zeros(0)
    bits = w.samples[:n_bits * bp].reshape(n_bits, bp)
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == DecodeMode.DIRECT:
            stat = bits[:, half // 2] - bits[:, half + half // 2]
        elif mode == DecodeMode.INTEGRATE_AND_DUMP:
            stat = np.empty(n_bits)
            second = np.empty(n_bits)
            rows = max(1, TRANSMIT_CHUNK // bp)
            for start in range(0, n_bits, rows):
                block = bits[start:start + rows]
                first_sum = stat[start:start + rows]
                second_sum = second[start:start + rows]
                first_sum[...] = block[:, 0]
                second_sum[...] = block[:, half]
                for k in range(1, half):
                    first_sum += block[:, k]
                    second_sum += block[:, half + k]
            stat /= half
            second /= half
            stat -= second
        else:
            raise ValueError(f"unknown decode mode {mode!r}")
        finite = np.isfinite(stat.min()) and np.isfinite(stat.max())
    if not finite:
        raise ValueError("bit statistics overflow float64; the waveform is out of range")
    return stat


def decode_bits(w: Waveform, mode: DecodeMode) -> tuple[np.ndarray, np.ndarray]:
    """Hard bit decisions and the underlying per-bit statistics.

    Raises :class:`ValueError` when a statistic is not finite.
    """
    stats = _bit_statistics(w, mode)
    return (stats > 0).astype(np.uint8), stats


def _eye(stats: np.ndarray) -> float:
    """Eye opening of per-bit statistics that a decoder has already computed."""
    magnitude = np.abs(stats)
    peak = magnitude.max() if magnitude.size else 0.0
    return float(magnitude.min() / peak) if peak > 0 else 0.0


def eye_opening(w: Waveform, mode: DecodeMode) -> float:
    """min|statistic| / max|statistic| over all bits: 1 fully open, 0 closed."""
    return _eye(_bit_statistics(w, mode))


def _find_frame(bits: np.ndarray) -> tuple[int, int]:
    """Offset of the first complete frame's sync word and its payload length."""
    # code[i] is the 16-bit big-endian value of bits[i:i + 16]: the sync
    # candidates and, 16 bits after a candidate, the length field.
    code = np.zeros(max(bits.size - 15, 0), dtype=np.uint16)
    for j in range(16):
        code <<= 1
        code |= bits[j:j + code.size]
    for pos in np.flatnonzero(code == SYNC_WORD).tolist():
        after = pos + 16
        if after + 16 > bits.size:
            break
        length = int(code[after])
        end = after + 16 + 8 * length + 16
        if end <= bits.size:
            return pos, length
    raise SyncError("no complete frame found in the bit stream")


def receive_decode(w: Waveform, mode: DecodeMode,
                   reference_bits: np.ndarray | None = None) -> tuple[bytes, RxStats]:
    """Demodulate, hunt for the sync word and verify the checksum.

    Raises :class:`SyncError` when no complete frame is present and
    :class:`IntegrityError` (payload withheld) when the CRC fails.
    """
    bits, stats = decode_bits(w, mode)
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


def sweep_hum(payload: bytes, hum_amplitudes: list[float], channel: ChannelModel,
              bit_period: int, seed: int, modes: tuple[DecodeMode, ...] = tuple(DecodeMode),
              sample_rate: float = 1_000_000.0) -> list[dict]:
    """BER and eye opening per decode mode over a hum-amplitude sweep.

    Both modes score the same seeded waveform at each sweep point.
    """
    reference = frame_data_bits(payload)
    symbols = _manchester(reference)
    records = []
    for idx, hum in enumerate(hum_amplitudes):
        cm = replace(channel, hum_amplitude=hum)
        w = transmit(symbols, bit_period, cm, seed=seed + idx, sample_rate=sample_rate)
        if cm.highpass_cutoff is not None:
            w = highpass_bias(w, cm.highpass_cutoff)
        for mode in modes:
            bits, stats = decode_bits(w, mode)
            records.append({
                "hum_amplitude": hum,
                "mode": mode,
                "ber": ber(reference, bits),
                "eye_opening": _eye(stats),
            })
    return records

