import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal as sp_signal
from scipy import stats as sp_stats

from wearauth import channel as channel_module
from wearauth.channel import (
    MAX_PAYLOAD,
    PREAMBLE_BITS,
    SAMPLE_RATE,
    SYNC_WORD,
    TRANSMIT_CHUNK,
    ChannelModel,
    DecodeMode,
    FramingError,
    IntegrityError,
    StatisticNoise,
    SyncError,
    Waveform,
    ber,
    bit_statistics,
    check_modem,
    crc16_ccitt,
    encode_frame,
    frame_data_bits,
    highpass_bias,
    noisy_statistics,
    receive_decode,
    statistic_noise,
    sweep_hum,
    transmit,
)
from wearauth.channel import (
    _eye,
    _find_frame,
    _highpass_coefficients,
)
from wearauth.link import EMPTY_FRAME_BITS, MAX_BIT_PERIOD, MAX_SAMPLES

from reference_channel import reference_add_noise, reference_highpass, reference_transmit

CLEAN = ChannelModel()
EPS = np.finfo(np.float64).eps

# Rounding allowance of transmit's hum against a reference hum, in units of
# EPS * amp (amp = attenuation * hum_amplitude): HUM_ULPS + 2 * x_i at sample
# i, where x_i = omega * i / SAMPLE_RATE is the unreduced phase.  u = EPS / 2
# is the unit roundoff, and every sin and cos is taken to be within 4 ulp
# (<= 4 EPS on a value in [-1, 1]; glibc's are within 1).
#  - Phase.  transmit's theta = s / fs * omega and phi_k = k / fs * omega
#    (i = s + k) each carry two roundings, and omega = fl(fl(2*pi) * f) two
#    more: within 4u * x_i of the exact phase in all.  Against the per-sample
#    sin(i / fs * omega), which shares omega, each side is within 2u * x_i of
#    the other's exact phase.  Either way 2 EPS * x_i, and sin is 1-Lipschitz.
#  - transmit's sum.  sin(theta) cos(phi_k) + cos(theta) sin(phi_k) moves
#    by at most 4 EPS * 2 * sqrt(2) < 12 EPS through its four function values;
#    its four products and one sum round by under 3 EPS: 15.
#  - The reference.  The exact-phase one reduces i * f / fs to [-1/2, 1/2)
#    exactly and takes sin(2 * pi * frac): three roundings of a phase of at
#    most pi (< 5 EPS), sin (4 EPS) and the product by amp (EPS / 2), 9.5 in
#    all; the per-sample one costs sin and the product, 4.5.
# 15 + 9.5 < 25.
#  - Subnormals.  Below the normal range rounding is absolute, at most half
#    of TINY, the smallest subnormal, per operation, where u of the value
#    underflows to 0.  The two sides, with the sum of a * clean and the hum,
#    make fewer than 16 operations between them: 8 * TINY on top.
HUM_ULPS = 25
TINY = np.finfo(np.float64).smallest_subnormal


def _hum_allowance(channel: ChannelModel, indices: np.ndarray) -> np.ndarray:
    """Largest |transmit's hum - a reference hum| that rounding allows."""
    amp = channel.attenuation * channel.hum_amplitude
    phase = 2.0 * np.pi * channel.hum_frequency * indices / SAMPLE_RATE
    # amp scales last: EPS * amp underflows to 0 for a subnormal amp.
    return amp * (EPS * (HUM_ULPS + 2.0 * phase)) + 8.0 * TINY


def _assert_equals_reference(w, symbols, bit_period, channel):
    """``transmit`` is the reference's noise-free waveform, whatever the
    channel's ``noise_sigma``: bit for bit without hum.  With hum,
    ``a * clean + hum`` is rounded once on each side: besides the hum
    allowance, the sum may round by u of its value, which adds at most
    EPS * (a + amp + |sample|)."""
    expected = reference_transmit(symbols, bit_period, replace(channel, noise_sigma=0.0),
                                  seed=0).samples
    if not channel.hum_amplitude:
        assert np.array_equal(w.samples, expected)
        return
    a = channel.attenuation
    allowance = (_hum_allowance(channel, np.arange(expected.size))
                 + EPS * (a + a * channel.hum_amplitude + np.abs(expected)))
    assert np.all(np.abs(w.samples - expected) <= allowance)


def _reference_bit_statistics(w, mode):
    """Half-bit means through ``ndarray.mean``, kept as the oracle for ``bit_statistics``."""
    bp = w.bit_period
    half = bp // 2
    n_bits = w.samples.size // bp
    if n_bits == 0:
        return np.zeros(0)
    halves = w.samples[:n_bits * bp].reshape(n_bits, 2, half)
    if mode == DecodeMode.DIRECT:
        stat = halves[:, :, half // 2]
    else:
        stat = halves.mean(axis=2)
    return stat[:, 0] - stat[:, 1]


# Rounding allowance of highpass_bias against reference_highpass, in units of
# EPS * X / (1 - |p|), where X = max|x| and p is the pole; u = EPS / 2.
#  - Sizes.  The response to x is b0 at lag 0 and -b0 (1 - p) p**(m-1) after
#    it, whose absolute sum is 1 + p for p >= 0 and 1 for p < 0, as
#    b0 = (1 + p) / 2: so |y| <= 2X.  A block's output from rest differs from
#    y by p**(i+1) * y[s-1], so it stays within 4X.  An error made at one
#    sample reaches a later one scaled by |p| per sample, so errors of at
#    most e per sample add up to at most e / (1 - |p|) anywhere.
#  - lfilter rounds b0*x, the sum y = b0*x + z, and the new state's two
#    products and sum, on terms within 3X: at most 9u X = 4.5 EPS X a sample.
#  - The scan rounds the difference (2X), its scaling, the partial sum (both
#    p**-i times values within 4X, scaled back by p**i), the carry term and
#    the final scaling: at most 5u * 4X = 10 EPS X a sample.  Each block's
#    carry sums at most 16 taps of (p**L)**m times block ends within 4X, two
#    roundings a tap: at most 2u * 4X * sum |p**L|**m, which is under 8.3u X
#    where |p**L| <= 1/32 (blocks under the 2048 cap, at worst one a sample)
#    and 128u X over a capped block's 2048 samples; the taps dropped below
#    (p**L)**m = 2**-60 add under EPS X.  So 4 EPS X a sample, and 1.
#  - Coefficients.  Both sides take them from the same tan, butter through
#    its pole and zero: b0 within 4u relative and p within 4u, as
#    test_coefficients_equal_butter checks on a few.  A relative error e in
#    b0 moves y by at most 2eX; one of e in p by at most e * b0 * X times the
#    absolute sum of d/dp of H, which is at most 4 / (1 - |p|) for p >= 0
#    (the sum telescopes) and (1 + |p|) / (2 b0 (1 - |p|)) for p < 0: under
#    4 EPS X + 8 EPS X / (1 - |p|) in all.
# 4.5 + 10 + 4 + 1 + 4 + 8 = 31.5 < 40.
HIGHPASS_ULPS = 40


def _assert_highpass_equals_reference(samples, cutoff):
    """``highpass_bias`` on a copy of ``samples`` against the one-shot
    ``lfilter``: finite at the same samples, and within the allowance."""
    expected = reference_highpass(Waveform(samples.copy(), 8), cutoff).samples
    out = highpass_bias(Waveform(samples.copy(), 8), cutoff).samples
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(out), finite)
    if samples.size:
        _, p = _highpass_coefficients(cutoff)
        allowance = HIGHPASS_ULPS * EPS * np.abs(samples).max() / (1.0 - abs(p))
        assert np.all(np.abs(out[finite] - expected[finite]) <= allowance)


def _reference_find_frame(bits):
    """The sliding-window sync hunt, kept as the oracle for ``_find_frame``."""
    sync = np.unpackbits(np.frombuffer(SYNC_WORD.to_bytes(2, "big"), dtype=np.uint8))
    if bits.size >= sync.size:
        windows = np.lib.stride_tricks.sliding_window_view(bits, sync.size)
        hits = np.nonzero((windows == sync).all(axis=1))[0]
    else:
        hits = np.array([], dtype=int)
    for pos in hits.tolist():
        after = pos + sync.size
        if after + 16 > bits.size:
            break
        length = int(np.packbits(bits[after:after + 16]).view(">u2")[0])
        end = after + 16 + 8 * length + 16
        if end <= bits.size:
            return pos, length
    raise SyncError("no complete frame found in the bit stream")


def _whole_array_find_frame(bits):
    """The hunt that read the 16-bit code at every offset before visiting the
    sync candidates, kept as the oracle for the windowed ``_find_frame``."""
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


def _bits16(value: int) -> list[int]:
    return [(value >> (15 - i)) & 1 for i in range(16)]


# Stream pieces: random bits, a sync word, a sync word with a length field,
# or a whole frame body (sync, length, payload and CRC bits).
_segment = st.one_of(
    st.lists(st.integers(0, 1), max_size=40),
    st.just(_bits16(SYNC_WORD)),
    st.integers(0, 0xFFFF).map(lambda n: _bits16(SYNC_WORD) + _bits16(n)),
    st.integers(0, 6).flatmap(lambda n: st.lists(
        st.integers(0, 1), min_size=8 * n + 16, max_size=8 * n + 16).map(
        lambda rest: _bits16(SYNC_WORD) + _bits16(n) + rest)),
)


def _crc_bitwise(data: bytes) -> int:
    """Independent bit-serial CRC-16/CCITT oracle."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def _loopback(payload: bytes, bit_period: int = 8, channel: ChannelModel = CLEAN,
              mode: DecodeMode = DecodeMode.DIRECT):
    w = transmit(encode_frame(payload), bit_period, channel)
    return receive_decode(bit_statistics(w, mode), reference_bits=frame_data_bits(payload))


class TestChannelModel:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["hum_amplitude", "hum_frequency", "noise_sigma"])
    def test_non_finite_field_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChannelModel(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5, 1.5])
    def test_attenuation_outside_unit_interval_refused(self, value):
        """The range check is what refuses a non-finite attenuation."""
        with pytest.raises(ValueError, match="attenuation"):
            ChannelModel(attenuation=value)


class TestCrc:
    def test_table_matches_bitwise_oracle(self):
        corpus = [b"", b"\x00", b"123456789", bytes([0, 2, 0x41, 0x42]), bytes(range(256))]
        rng = np.random.default_rng(1)
        corpus += [rng.integers(0, 256, n).astype(np.uint8).tobytes() for n in (1, 7, 33, 100)]
        for data in corpus:
            assert crc16_ccitt(data) == _crc_bitwise(data)

    def test_known_check_value(self):
        # standard CCITT-FALSE check input
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_frame_for_payload_AB_carries_oracle_crc(self):
        bits = frame_data_bits(b"AB")
        tail = np.packbits(bits[8:]).tobytes()
        assert tail[:2] == bytes([0xF3, 0xA5])                 # sync word
        assert tail[2:6] == bytes([0x00, 0x02, 0x41, 0x42])    # length + payload
        crc = int.from_bytes(tail[-2:], "big")
        assert crc == _crc_bitwise(bytes([0x00, 0x02, 0x41, 0x42]))


class TestFraming:
    def test_empty_payload_frame_length(self):
        symbols = encode_frame(b"")
        assert symbols.size == (8 + 16 + 16 + 0 + 16) * 2
        assert symbols.sum() == 0

    @given(st.binary(max_size=300))
    @settings(max_examples=60)
    def test_dc_balance_exact(self, payload):
        symbols = encode_frame(payload)
        assert int(symbols.astype(np.int64).sum()) == 0

    def test_oversize_payload_rejected(self):
        with pytest.raises(FramingError):
            encode_frame(bytes(65536))

    def test_symbols_are_plus_minus_one(self):
        symbols = encode_frame(b"x")
        assert set(np.unique(symbols)) == {-1, 1}


class TestTransmit:
    def test_clean_channel_is_exact_rectangular(self):
        symbols = encode_frame(b"\x01\x02")
        w = transmit(symbols, 8, CLEAN)
        assert np.array_equal(w.samples, np.repeat(symbols.astype(float), 4))

    def test_hum_dominates_spectrum(self):
        """60 Hz hum sampled at 200 kHz: 300 Hz at the fixed 1 MHz."""
        cm = ChannelModel(attenuation=0.1, hum_amplitude=5.0, hum_frequency=300.0)
        w = transmit(encode_frame(bytes(200)), 16, cm)
        spectrum = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(w.samples.size, 1.0 / SAMPLE_RATE)
        peak = freqs[1:][np.argmax(spectrum[1:])]
        assert peak == pytest.approx(300.0, abs=10.0)

    def test_odd_bit_period_rejected(self):
        with pytest.raises(ValueError):
            transmit(encode_frame(b""), 7, CLEAN)
        with pytest.raises(ValueError):
            Waveform(np.zeros(8), 2)

    @pytest.mark.parametrize("bit_period,cutoff", [
        (7, None), (2, None), (MAX_BIT_PERIOD + 2, None), (2**30, None),
        (8, 0.0), (8, -5.0), (8, 5e5), (8, math.nan)])
    def test_modem_rules_hold_everywhere(self, bit_period, cutoff):
        """``check_modem`` owns the rules that ``Waveform``, ``transmit``,
        ``highpass_bias``, ``statistic_noise`` (and the scenario parser)
        apply; a bit period past the frame ceiling is refused before any
        array is sized by it."""
        with pytest.raises(ValueError):
            check_modem(bit_period, cutoff)
        with pytest.raises(ValueError):
            statistic_noise(bit_period, DecodeMode.INTEGRATE_AND_DUMP, cutoff)
        if cutoff is None:
            with pytest.raises(ValueError):
                Waveform(np.zeros(16), bit_period)
            with pytest.raises(ValueError):
                transmit(encode_frame(b""), bit_period, CLEAN)
        else:
            with pytest.raises(ValueError):
                highpass_bias(Waveform(np.zeros(16), bit_period), cutoff)

    def test_bit_period_ceiling_is_where_an_empty_frame_fills_the_samples(self):
        assert EMPTY_FRAME_BITS == encode_frame(b"").size // 2 == 56
        assert MAX_BIT_PERIOD % 2 == 0
        assert MAX_BIT_PERIOD * EMPTY_FRAME_BITS <= MAX_SAMPLES
        assert (MAX_BIT_PERIOD + 2) * EMPTY_FRAME_BITS > MAX_SAMPLES
        check_modem(MAX_BIT_PERIOD, 1.0)
        model = statistic_noise(MAX_BIT_PERIOD, DecodeMode.DIRECT, 1.0)
        assert 0.0 < model.carry < 1.0

    @pytest.mark.parametrize("bit_period", [8.0, np.float64(8.0), True, "8", None])
    def test_bit_period_must_be_an_int(self, bit_period):
        with pytest.raises(ValueError, match="bit_period"):
            transmit(encode_frame(b"hi"), bit_period, ChannelModel())
        with pytest.raises(ValueError, match="bit_period"):
            Waveform(np.zeros(16), bit_period)

    def test_numpy_integer_bit_period_accepted(self):
        symbols = encode_frame(b"hi")
        assert np.array_equal(transmit(symbols, np.int64(8), CLEAN).samples,
                              transmit(symbols, 8, CLEAN).samples)

    @pytest.mark.parametrize("hum", [0.0, 0.4])
    @pytest.mark.parametrize("noise", [0.0, 0.6])
    def test_samples_equal_allocating_reference(self, hum, noise):
        """Noise does not reach the samples: it enters at the statistics."""
        symbols = encode_frame(bytes(range(200)))
        cm = ChannelModel(attenuation=0.7, hum_amplitude=hum, hum_frequency=240.0,
                          noise_sigma=noise)
        w = transmit(symbols, 8, cm)
        _assert_equals_reference(w, symbols, 8, cm)

    def test_peak_memory_per_sample(self):
        """The output, one chunk of scratch and the hum's two half-chunk cos/sin
        tables: 8 B per sample with hum."""
        symbols = encode_frame(bytes(4000))
        cm = ChannelModel(attenuation=0.6, hum_amplitude=0.3, noise_sigma=0.5)
        tracemalloc.start()
        try:
            w = transmit(symbols, 8, cm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.samples.size > 4 * TRANSMIT_CHUNK
        assert peak <= 8 * w.samples.size + 2 * 8 * TRANSMIT_CHUNK + 64 * 1024

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(half=st.one_of(st.sampled_from((2, 4, 8, 16)), st.integers(2, 40)),
           length=st.sampled_from(("below", "at", "across")),
           extra=st.integers(0, 2 * TRANSMIT_CHUNK), symbol_seed=st.integers(0, 2**32 - 1),
           attenuation=st.floats(0.0, 1.0), hum=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
           hum_frequency=st.floats(1e-4, 1e11),
           noise=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    def test_chunked_samples_equal_allocating_reference(self, half, length, extra, symbol_seed,
                                                        attenuation, hum, hum_frequency, noise):
        """Frames shorter than a chunk, as long as one (exactly, where the half
        bit divides it), and several chunks long with a tail.  The hum runs
        from 1e-10 to 1e5 cycles a sample."""
        at = TRANSMIT_CHUNK // half
        n_symbols = {"below": extra % at, "at": at, "across": at + 1 + extra // half}[length]
        rng = np.random.default_rng(symbol_seed)
        symbols = rng.choice(np.array([-1, 1], dtype=np.int8), n_symbols)
        cm = ChannelModel(attenuation=attenuation, hum_amplitude=hum,
                          hum_frequency=hum_frequency, noise_sigma=noise)
        w = transmit(symbols, 2 * half, cm)
        _assert_equals_reference(w, symbols, 2 * half, cm)

    @pytest.mark.parametrize("frequency", [
        60.0, 200.0, 60.7 * 1e6 / 44_100.0, 400_000.0])
    def test_hum_within_rounding_of_exact_phase(self, frequency):
        """Zero symbols leave the bare hum in the samples of a 40 KB capture's
        frame.  Against sin of the exactly reduced phase, at 4,000 random
        samples, either side of every block and chunk edge, and the last.
        The frequencies are 60 Hz at 1 MHz, 50 Hz at 250 kHz, 60.7 Hz at
        44.1 kHz and 400 Hz at 1 kHz, rescaled to the fixed time base."""
        symbols = np.zeros(encode_frame(bytes(40047)).size, dtype=np.int8)
        cm = ChannelModel(attenuation=0.6, hum_amplitude=0.5, hum_frequency=frequency)
        samples = transmit(symbols, 8, cm).samples
        n = samples.size
        edges = np.arange(TRANSMIT_CHUNK // 2, n, TRANSMIT_CHUNK // 2)
        indices = np.unique(np.concatenate([
            np.random.default_rng(0).integers(0, n, 4000), edges - 1, edges, edges + 1,
            [0, n - 1]]))
        indices = indices[indices < n]
        cycles = Fraction(frequency) / Fraction(SAMPLE_RATE)
        half = Fraction(1, 2)
        exact = np.array([
            0.6 * 0.5 * math.sin(2 * math.pi * float((i * cycles + half) % 1 - half))
            for i in indices.tolist()])
        error = np.abs(samples[indices] - exact)
        assert np.all(error <= _hum_allowance(cm, indices))

    def test_sample_ceiling(self):
        # A capture-sized frame at the default bit period fits...
        assert encode_frame(bytes(40047)).size * 8 // 2 <= MAX_SAMPLES
        # ...and a waveform past the ceiling is refused before it is built:
        # the capture's frame at bit period 28, and an empty frame at the
        # first bit period past the ceiling that check_modem owns.
        with pytest.raises(ValueError, match="waveform of .* exceeds"):
            transmit(encode_frame(bytes(40047)), 28, CLEAN)
        symbols = encode_frame(b"")
        with pytest.raises(ValueError, match="bit_period .* exceeds"):
            transmit(symbols, 2 * (MAX_SAMPLES // symbols.size + 1), CLEAN)


class TestHighpass:
    def test_60hz_attenuated_per_first_order_response(self):
        t = np.arange(200_000) / SAMPLE_RATE
        hum = Waveform(np.sin(2 * np.pi * 60.0 * t), 10)
        out = highpass_bias(replace(hum, samples=hum.samples.copy()), 10_000.0)
        ratio = np.sqrt((out.samples[1000:] ** 2).mean()) / np.sqrt((hum.samples[1000:] ** 2).mean())
        analytic = (60.0 / 10_000.0) / np.sqrt(1 + (60.0 / 10_000.0) ** 2)
        assert ratio < 0.01
        assert ratio == pytest.approx(analytic, rel=0.2)

    def test_dc_decays_to_zero(self):
        w = Waveform(np.ones(100_000), 10)
        out = highpass_bias(w, 10_000.0)
        assert abs(out.samples[-1]) < 1e-6

    def test_in_band_square_wave_passes(self):
        # 100 kbit/s square wave against a 10 kHz cutoff
        square = np.repeat(np.resize([1.0, -1.0], 2000), 10)
        w = Waveform(square.copy(), 10)
        out = highpass_bias(w, 10_000.0)
        corr = np.corrcoef(square, out.samples)[0, 1]
        assert corr >= 0.9

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(length=st.one_of(st.sampled_from((0, 1, TRANSMIT_CHUNK - 1, TRANSMIT_CHUNK,
                                             TRANSMIT_CHUNK + 1, 3 * TRANSMIT_CHUNK)),
                            st.integers(0, TRANSMIT_CHUNK - 1),
                            st.integers(TRANSMIT_CHUNK + 1, 3 * TRANSMIT_CHUNK)),
           fraction=st.floats(1e-6, 0.999),
           scale=st.one_of(st.sampled_from((1.0, 1e-300, 1e300)), st.floats(1e-12, 1e12)),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_one_shot_filter_within_rounding(self, length, fraction, scale, seed):
        """Empty, shorter than a chunk, exactly one, and several with a tail;
        the cutoff fraction of Nyquist sets the pole over its whole range."""
        samples = scale * np.random.default_rng(seed).standard_normal(length)
        _assert_highpass_equals_reference(samples, fraction * SAMPLE_RATE / 2)

    @pytest.mark.parametrize("fraction", [
        0.5,            # cutoff fs/4: p = 5.6e-17, one block per sample
        0.3, 0.8,       # p > 0 and p < 0, blocks of a few samples
        0.999,          # p -> -1: b0 = 0.0016
        0.002, 1e-6,    # p -> 1: 1 kHz at 1 MHz, and blocks at their 2048 cap
    ])
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e307])
    def test_pole_range_and_scale_within_rounding(self, fraction, scale):
        """At 1e307 the scan's sums overflow and the step is filtered again
        rescaled; the output stays finite wherever lfilter's does."""
        samples = scale * np.random.default_rng(7).standard_normal(3 * TRANSMIT_CHUNK + 5)
        _assert_highpass_equals_reference(samples, fraction * SAMPLE_RATE / 2)

    def test_zero_pole_is_the_scaled_first_difference(self, monkeypatch):
        """p == 0 exactly (no cutoff reaches it: tan rounds pi/4 below 1)."""
        monkeypatch.setattr(channel_module, "_highpass_coefficients", lambda c: (0.5, 0.0))
        samples = np.random.default_rng(3).standard_normal(2 * TRANSMIT_CHUNK + 3)
        out = highpass_bias(Waveform(samples.copy(), 8), 250_000.0)
        assert np.array_equal(out.samples, 0.5 * np.diff(samples, prepend=0.0))

    def test_coefficients_equal_butter(self):
        # 60 Hz at 48 kHz and 1e-4 Hz at 1e-3 Hz are 1250 Hz and 100 kHz here.
        for cutoff in (1000.0, 1.0, 250_000.0, 499_000.0, 1250.0, 100_000.0):
            b, a = sp_signal.butter(1, cutoff, btype="highpass", fs=SAMPLE_RATE)
            b0, p = _highpass_coefficients(cutoff)
            assert (b0, -b0, 1.0, -p) == pytest.approx((*b, *a), rel=4 * EPS, abs=4 * EPS)

    def test_filters_in_place_and_returns_the_input(self):
        w = transmit(encode_frame(bytes(range(64))), 8,
                     ChannelModel(attenuation=0.6, hum_amplitude=0.5))
        buffer = w.samples
        out = highpass_bias(w, 1000.0)
        assert out is w
        assert np.shares_memory(out.samples, buffer)

    def test_read_only_samples_rejected(self):
        samples = np.ones(64)
        samples.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            highpass_bias(Waveform(samples, 8), 1000.0)
        assert np.all(samples == 1.0)

    def test_peak_memory_is_two_chunks(self):
        """A 40 KB capture's hop (2.56 M samples) adds no second waveform, where
        one ``lfilter`` into a new array allocated ~20 MB."""
        w = transmit(encode_frame(bytes(40047)), 8,
                     ChannelModel(attenuation=0.6, hum_amplitude=0.5, noise_sigma=0.45))
        highpass_bias(Waveform(np.zeros(16), 8), 1000.0)     # first-call set-up
        tracemalloc.start()
        try:
            highpass_bias(w, 1000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.samples.size > 2_500_000
        assert peak <= 2 * 8 * TRANSMIT_CHUNK + 64 * 1024

    def test_cutoff_validated(self):
        with pytest.raises(ValueError):
            highpass_bias(Waveform(np.zeros(16), 8), 600_000.0)


class TestReceiveDecode:
    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_clean_roundtrip(self, mode):
        payload = bytes(range(256)) * 4
        out, stats = _loopback(payload, mode=mode)
        assert out == payload
        assert stats.ber == 0.0
        assert stats.eye_opening == pytest.approx(1.0)

    @given(st.binary(max_size=1024))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_payloads(self, payload):
        out, stats = _loopback(payload, bit_period=4)
        assert out == payload
        assert stats.ber == 0.0

    def test_max_size_payload_roundtrip(self):
        rng = np.random.default_rng(17)
        payload = rng.integers(0, 256, 65535).astype(np.uint8).tobytes()
        out, stats = _loopback(payload, bit_period=4)
        assert out == payload
        assert stats.ber == 0.0

    def test_attenuation_zero_is_sync_error(self):
        with pytest.raises(SyncError):
            _loopback(b"hi", channel=ChannelModel(attenuation=0.0))

    def test_crc_corruption_is_integrity_error(self):
        payload = b"payload under test"
        bits = frame_data_bits(payload)
        corrupted = bits.copy()
        corrupted[8 + 16 + 16 + 3] ^= 1      # flip a payload bit
        from wearauth.channel import _manchester
        w = transmit(_manchester(corrupted), 8, CLEAN)
        with pytest.raises(IntegrityError):
            receive_decode(bit_statistics(w, DecodeMode.DIRECT))

    def test_single_bit_flips_never_yield_wrong_payload(self):
        payload = bytes(range(64))
        bits = frame_data_bits(payload)
        from wearauth.channel import _manchester
        for i in range(bits.size):
            corrupted = bits.copy()
            corrupted[i] ^= 1
            w = transmit(_manchester(corrupted), 4, CLEAN)
            try:
                out, _ = receive_decode(bit_statistics(w, DecodeMode.DIRECT))
            except (SyncError, IntegrityError):
                continue
            assert out == payload  # only preamble flips decode, and intact

    def test_integrate_and_dump_beats_direct_under_noise(self):
        hums = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]
        records = sweep_hum(bytes(range(128)), hums,
                            ChannelModel(attenuation=0.5, noise_sigma=0.8),
                            bit_period=32, seed=9)
        by_point = {}
        for rec in records:
            by_point.setdefault(rec["hum_amplitude"], {})[rec["mode"]] = rec
        assert set(by_point) == set(hums)
        direct_failed_somewhere = False
        for hum, modes in by_point.items():
            d, i = modes[DecodeMode.DIRECT], modes[DecodeMode.INTEGRATE_AND_DUMP]
            assert i["ber"] <= d["ber"]
            if d["eye_opening"] > 0:
                assert i["eye_opening"] > d["eye_opening"]
            if d["ber"] > 0 and i["ber"] < d["ber"]:
                direct_failed_somewhere = True
        assert direct_failed_somewhere


# Arbitrary finite waveforms, or a clean frame that is padded, rescaled, cut,
# bit-inverted or spiked.
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _waveforms(draw):
    bit_period = 2 * draw(st.integers(2, 24))
    shape = draw(st.sampled_from(("noise", "frame", "cut", "inverted", "spiked")))
    if shape == "noise":
        samples = draw(hnp.arrays(np.float64, st.integers(0, 600), elements=_finite))
        return Waveform(samples, bit_period)
    payload = draw(st.binary(max_size=24))
    frame = transmit(encode_frame(payload), bit_period, CLEAN).samples
    frame *= draw(st.sampled_from((1.0, -1.0, 1e-300, 1e300)))
    if shape == "cut":
        frame = frame[:draw(st.integers(0, frame.size - 1))]
    elif shape == "inverted":
        # Past the preamble, the sync word and the length field.
        first = draw(st.integers((len(PREAMBLE_BITS) + 32) * bit_period, frame.size - 1))
        frame[first:first + bit_period] *= -1.0
    elif shape == "spiked":
        frame[draw(st.integers(0, frame.size - 1))] += draw(st.sampled_from((1.5, -2.0, 1e300)))
    # Whole bits of junk keep the bit clock; a remainder shifts it.
    pad_size = (bit_period * draw(st.integers(0, 3))
                + draw(st.sampled_from((0, 0, 1, bit_period // 2))))
    pad = draw(hnp.arrays(np.float64, pad_size, elements=_finite))
    return Waveform(np.concatenate([pad, frame]), bit_period)


class TestBitStatistics:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(samples=hnp.arrays(np.float64, st.integers(0, 900),
                              elements=st.floats(-1e6, 1e6)),
           half=st.integers(2, 40), mode=st.sampled_from(tuple(DecodeMode)))
    def test_equal_half_bit_means_bit_for_bit(self, samples, half, mode):
        """Below 8 samples per half bit numpy's ``mean`` also adds left to right;
        from 8 on it sums pairwise, so only the rounding may differ."""
        w = Waveform(samples, 2 * half)
        stats, expected = bit_statistics(w, mode), _reference_bit_statistics(w, mode)
        if half < 8 or mode == DecodeMode.DIRECT:
            assert np.array_equal(stats, expected)
        else:
            scale = np.abs(samples).max(initial=0.0)
            np.testing.assert_allclose(stats, expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_clean_frame_scaled_to_1e300_decodes_without_warning(self, mode):
        w = transmit(encode_frame(b"hello"), 8, CLEAN)
        w.samples[:] *= 1e300
        payload, stats = receive_decode(bit_statistics(w, mode))
        assert payload == b"hello"
        assert stats.eye_opening == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_overflowing_statistics_raise_value_error(self, mode):
        """At 1e308 the half-bit sums (integrate-and-dump) and the half-bit
        difference (direct) overflow; the bits are refused, not decided as 0."""
        w = transmit(encode_frame(b"hello"), 8, CLEAN)
        w.samples[:] *= 1e308
        with pytest.raises(ValueError, match="overflow"):
            bit_statistics(w, mode)

    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_receive_decode_peak_memory_per_bit(self, mode):
        """One 40 KB capture's frame at ``bit_period`` 8: 10 B per bit at the
        peak (the statistics, and the decided bits as bool and as uint8), where
        integrate-and-dump's two per-bit sums took 16, a half-bit array and its
        difference 24, and a magnitude copy for the eye 17.3."""
        payload = bytes(range(256)) * 156 + bytes(111)
        w = highpass_bias(transmit(encode_frame(payload), 8,
                                   ChannelModel(attenuation=0.6, hum_amplitude=0.5)),
                          1000.0)
        n_bits = w.samples.size // w.bit_period
        tracemalloc.start()
        try:
            out, _ = receive_decode(bit_statistics(w, mode))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == payload
        assert peak <= 10 * n_bits + 64 * 1024

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(half=st.integers(2, 13), n_bits=st.one_of(st.integers(0, 300),
                                                      st.integers(1000, 12_000)),
           tail=st.integers(0, 3), cutoff=st.sampled_from((None, 1.0, 1000.0, 400_000.0)),
           scale=st.sampled_from((1.0, 1e-300, 1e300)), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(tuple(DecodeMode)))
    def test_equals_per_mode_formulas_bit_for_bit(self, half, n_bits, tail, cutoff, scale,
                                                  seed, mode):
        """The one box receiver against each mode's own formula: direct is
        ``y[tap] - y[half + tap]``, integrate-and-dump ``sum / half - sum /
        half`` with each half bit summed left to right.  ``bit_period`` 4 to
        26, halves that are not powers of two among them, with and without a
        high-pass, and frames that span several column blocks."""
        bit_period = 2 * half
        # A tail of up to three samples, less than any bit, that no bit reads.
        samples = scale * np.random.default_rng(seed).standard_normal(n_bits * bit_period + tail)
        w = Waveform(samples, bit_period)
        if cutoff is not None:
            w = highpass_bias(w, cutoff)
        y = w.samples[:n_bits * bit_period].reshape(n_bits, bit_period)
        if mode == DecodeMode.DIRECT:
            expected = y[:, half // 2] - y[:, half + half // 2]
        else:
            first, second = y[:, 0].copy(), y[:, half].copy()
            for k in range(1, half):
                first += y[:, k]
                second += y[:, half + k]
            expected = first / half - second / half
        assert np.array_equal(bit_statistics(w, mode), expected)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown decode mode"):
            bit_statistics(Waveform(np.zeros(16), 8), "matched_filter")
        with pytest.raises(ValueError, match="unknown decode mode"):
            statistic_noise(8, "matched_filter")

    def test_benchmark_bit_period_bit_for_bit(self):
        cm = ChannelModel(attenuation=0.6, hum_amplitude=0.5, noise_sigma=0.45)
        w = highpass_bias(reference_transmit(encode_frame(bytes(range(256))), 8, cm,
                                             seed=(3, 0, 0)), 1000.0)
        mode = DecodeMode.INTEGRATE_AND_DUMP
        assert np.array_equal(bit_statistics(w, mode), _reference_bit_statistics(w, mode))


def _statistics_in_pieces(symbols, bit_period, channel, piece):
    """Both modes' statistics of the noise-free pass made ``piece`` samples at a
    time: each piece sent from its link-clock sample and high-passed from the
    last raw and filtered samples of the piece before."""
    half = bit_period // 2
    step = piece // half
    parts = {mode: [] for mode in DecodeMode}
    state = (0.0, 0.0)
    for first in range(0, symbols.size, step):
        w = transmit(symbols[first:first + step], bit_period, channel, start=first * half)
        if channel.highpass_cutoff is not None:
            x_last = float(w.samples[-1])
            highpass_bias(w, channel.highpass_cutoff, state)
            state = x_last, float(w.samples[-1])
        for mode in DecodeMode:
            parts[mode].append(bit_statistics(w, mode))
    return {mode: np.concatenate(stats) for mode, stats in parts.items()}


class TestPieces:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(payload_bytes=st.one_of(st.sampled_from((1, 40047)), st.integers(1, 40047)),
           half=st.integers(2, 13),
           cutoff=st.sampled_from((None, 1.0, 1000.0, 0.49 * SAMPLE_RATE)),
           hum=st.sampled_from((0.0, 0.5)), hum_frequency=st.sampled_from((60.0, 12_345.6)),
           units=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    # A capture at the longest bit it fits, and at the simulator's 2**19-sample
    # pieces of bit_period 8.
    @example(payload_bytes=40047, half=13, cutoff=1000.0, hum=0.5, hum_frequency=60.0,
             units=1, seed=0)
    @example(payload_bytes=40047, half=4, cutoff=0.49 * SAMPLE_RATE, hum=0.5,
             hum_frequency=60.0, units=16, seed=1)
    def test_pieces_equal_whole_frame_bit_for_bit(self, payload_bytes, half, cutoff, hum,
                                                  hum_frequency, units, seed):
        """A frame sent in pieces of whole multiples of
        ``lcm(TRANSMIT_CHUNK, bit_period)`` samples, ``start`` set and the
        high-pass state carried, has the statistics of the whole-frame
        ``transmit`` -> ``highpass_bias`` -> ``bit_statistics`` bit for bit,
        in both decode modes: the hum's blocks, the scan's steps and the bits
        all start where the whole-frame pass starts them."""
        bit_period = 2 * half
        payload = np.random.default_rng(seed).bytes(payload_bytes)
        symbols = encode_frame(payload)
        channel = ChannelModel(attenuation=0.6, hum_amplitude=hum, hum_frequency=hum_frequency,
                               highpass_cutoff=cutoff)
        piece = units * math.lcm(TRANSMIT_CHUNK, bit_period)
        pieces = _statistics_in_pieces(symbols, bit_period, channel, piece)
        w = transmit(symbols, bit_period, channel)
        if cutoff is not None:
            highpass_bias(w, cutoff)
        for mode in DecodeMode:
            assert np.array_equal(pieces[mode], bit_statistics(w, mode))


class TestReceiveDecodeFuzz:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(w=_waveforms(), mode=st.sampled_from(tuple(DecodeMode)))
    def test_only_documented_errors_and_valid_frames(self, w, mode):
        """A returned payload is the located frame's, and its CRC verifies."""
        try:
            payload, stats = receive_decode(bit_statistics(w, mode))
        except (SyncError, IntegrityError, ValueError):
            return
        bits = (bit_statistics(w, mode) > 0).astype(np.uint8)
        assert len(payload) <= MAX_PAYLOAD
        assert stats.n_bits == bits.size
        pos, length = _find_frame(bits)
        body = frame_data_bits(payload)[len(PREAMBLE_BITS):]   # sync, length, payload, CRC
        assert length == len(payload)
        assert np.array_equal(bits[pos:pos + body.size], body)


@st.composite
def _long_streams(draw):
    """Noise of up to 6,000 bits (past several widenings of the hunt's window),
    optionally a spurious sync word with any length field, then a frame of up
    to 64 bytes and more noise, the whole cut by up to 48 bits at the end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def noise(most):
        return rng.integers(0, 2, draw(st.integers(0, most)), dtype=np.uint8)

    parts = [noise(6000)]
    if draw(st.booleans()):
        parts += [np.array(_bits16(SYNC_WORD) + _bits16(draw(st.integers(0, 0xFFFF))),
                           dtype=np.uint8), noise(200)]
    parts += [frame_data_bits(draw(st.binary(max_size=64))), noise(40)]
    bits = np.concatenate(parts)
    return bits[:bits.size - draw(st.integers(0, min(48, bits.size)))]


class TestFindFrame:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(bits=_long_streams())
    def test_windowed_hunt_equals_whole_array_hunt(self, bits):
        """Same frame or same error, with spurious sync words and cut frames."""
        try:
            expected = _whole_array_find_frame(bits)
        except SyncError:
            with pytest.raises(SyncError):
                _find_frame(bits)
        else:
            assert _find_frame(bits) == expected

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(segments=st.lists(_segment, max_size=8), cut=st.integers(0, 60))
    def test_equals_sliding_window_hunt(self, segments, cut):
        """Planted, false and truncated sync words: same frame or same error."""
        stream = [bit for segment in segments for bit in segment]
        bits = np.array(stream[:max(len(stream) - cut, 0)], dtype=np.uint8)
        try:
            expected = _reference_find_frame(bits)
        except SyncError:
            with pytest.raises(SyncError):
                _find_frame(bits)
        else:
            assert _find_frame(bits) == expected


# The benchmark's body link: a 40,047-byte capture at bit_period 8.
BENCH_LINK = ChannelModel(attenuation=0.6, hum_amplitude=0.5, hum_frequency=60.0,
                          noise_sigma=0.45, highpass_cutoff=1000.0)
BENCH_PAYLOAD = bytes(range(256)) * 156 + bytes(111)


def _clean_statistics(payload, channel, mode, bit_period=8):
    """The noise-free pass whose statistics ``noisy_statistics`` adds noise to."""
    w = transmit(encode_frame(payload), bit_period, channel)
    if channel.highpass_cutoff is not None:
        w = highpass_bias(w, channel.highpass_cutoff)
    return bit_statistics(w, mode)


def _quiet_waveform(payload, channel, bit_period=8):
    """The reference's noise-free waveform of ``payload``'s frame on ``channel``."""
    return reference_transmit(encode_frame(payload), bit_period,
                              replace(channel, noise_sigma=0.0), seed=None)


def _sample_level_statistics(quiet, channel, modes, seed):
    """The same hop with the noise drawn per sample: the reference's noisy
    waveform (``quiet`` from :func:`_quiet_waveform` plus the noise of
    ``seed``), high-passed, decoded in each mode."""
    w = reference_add_noise(quiet, channel, seed)
    if channel.highpass_cutoff is not None:
        w = highpass_bias(w, channel.highpass_cutoff)
    return [bit_statistics(w, mode) for mode in modes]


def _explicit_covariance(n_bits, bit_period, mode, cutoff):
    """Covariance of the per-bit statistics of unit white sample noise, from
    the linear map itself: each unit impulse through the one-shot high-pass
    and the ``mean``-based statistics gives one column."""
    size = n_bits * bit_period
    columns = np.empty((n_bits, size))
    for m in range(size):
        w = Waveform(np.eye(1, size, m)[0], bit_period)
        if cutoff is not None:
            w = reference_highpass(w, cutoff)
        columns[:, m] = _reference_bit_statistics(w, mode)
    return columns @ columns.T


def _model_factor(model, n_bits):
    """The lower-triangular factor ``L`` of ``model.statistics``: column ``j``
    is what the generator makes of the ``j``-th unit vector of normals."""
    columns = np.empty((n_bits, n_bits))
    for col in range(n_bits):
        columns[:, col] = model.statistics(np.eye(1, n_bits, col)[0])
    return columns


def _state_space_covariance(model, n_bits):
    """Covariance of ``S`` from the state-space model itself: ``S_k = g s_k +
    u_k``, ``s_(k+1) = c s_k + d_k`` from ``s_0 = 0``, with ``(u_k, d_k)``
    independent over bits with covariance ``[[uu, ud], [ud, dd]]``."""
    g, c = model.gain, model.carry
    uu, ud, dd = model.covariance
    # reach[k, i]: the weight of d_i in s_k, c**(k-1-i) for i < k.
    lag = np.arange(n_bits)[:, None] - 1 - np.arange(n_bits)[None, :]
    reach = np.where(lag >= 0, np.power(c, np.maximum(lag, 0)), 0.0)
    cov = g * g * dd * (reach @ reach.T)
    cov += g * ud * (reach + reach.T)              # Cov(s_k, u_j) for j < k, both ways
    cov += uu * np.eye(n_bits)
    return cov


def _decimal_riccati(model, n_bits):
    """``(P_k, F_k, K_k)`` by the scalar recursion ``P_(k+1) = c**2 P_k + dd -
    (c g P_k + ud)**2 / F_k``, in 40-digit decimal arithmetic from the model's
    float64 parameters, so the oracle's own rounding does not build up over
    a long transient (in float64 it drifts by ~eps / (1 - c**2), ~8e-13 at a
    1 Hz cutoff)."""
    g, c = Decimal(model.gain), Decimal(model.carry)
    uu, ud, dd = (Decimal(v) for v in model.covariance)
    p = Decimal(0)
    out = np.empty((3, n_bits))
    with localcontext() as ctx:
        ctx.prec = 40
        for k in range(n_bits):
            f = g * g * p + uu
            gain = (c * g * p + ud) / f
            out[:, k] = float(p), float(f), float(gain)
            p = c * c * p + dd - gain * (c * g * p + ud)
    return out


class TestStatisticNoise:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(mode=st.sampled_from(tuple(DecodeMode)), bit_period=st.sampled_from((4, 6, 8, 16)),
           fraction=st.sampled_from((None, 1e-6, 0.5, 0.999)), n_bits=st.integers(1, 64))
    def test_covariance_equals_explicit_linear_map(self, mode, bit_period, fraction, n_bits):
        """No high-pass, a tiny cutoff, ~SAMPLE_RATE/4 and near Nyquist: the
        generator's factor ``L`` is lower triangular and ``L @ L.T`` is the
        covariance of the linear map.  The oracle's butter coefficients
        differ from ours by a few ulp, which near Nyquist (p = -0.997, an
        impulse response ~300 samples long) moves the covariance by ~3e-13
        of its largest entry."""
        cutoff = None if fraction is None else fraction * SAMPLE_RATE / 2
        model = statistic_noise(bit_period, mode, cutoff)
        assert (model.gain == 0.0) == (cutoff is None)
        expected = _explicit_covariance(n_bits, bit_period, mode, cutoff)
        factor = _model_factor(model, n_bits)
        assert np.array_equal(np.triu(factor, 1), np.zeros((n_bits, n_bits)))
        got = factor @ factor.T
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("gain,carry", [(1.0, 0.5), (0.3, 0.9), (0.0, 0.7), (2.0, 0.0)])
    @pytest.mark.parametrize("uu,ud,dd", [
        (4.0, 2.0, 1.0),                 # d = u / 2: rank 1
        (1.0, 0.1, 0.01 - 1e-17),        # rank 1, det Q rounding below zero
        (0.0, 0.0, 3.0),                 # u identically zero: F_0 = 0
        (0.0, 0.0, 0.0),
    ])
    def test_rank_deficient_covariance_gets_a_factor(self, gain, carry, uu, ud, dd):
        """Where ``F_k`` is 0 the gain ``K_k`` is 0, and the factor is still
        finite and exact."""
        model = StatisticNoise(gain, carry, (uu, ud, dd))
        f, k = model.innovations(0, 40)
        assert np.all(np.isfinite(f)) and np.all(f >= 0.0) and np.all(np.isfinite(k))
        assert np.all(k[f == 0.0] == 0.0)
        factor = _model_factor(model, 20)
        expected = _state_space_covariance(model, 20)
        np.testing.assert_allclose(factor @ factor.T, expected, rtol=0,
                                   atol=1e-15 * max(np.abs(expected).max(), 1.0))

    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    @pytest.mark.parametrize("cutoff", [1.0, 1000.0, 490_000.0])
    def test_closed_form_transient_equals_scalar_recursion(self, mode, cutoff):
        """``P_k``, ``F_k`` and ``K_k`` within 1e-12 (relative) of the
        recursion, through the transient and past ``settled``.  At 1 Hz
        ``carry`` is 1 - 5e-5 and the transient runs for ~365,000 bits."""
        model = statistic_noise(8, mode, cutoff)
        n_bits = model.settled + 100
        variance, f, k = _decimal_riccati(model, n_bits)
        got_f, got_k = model.innovations(0, n_bits)
        got_p = model.state_variances(0, n_bits)
        assert got_p[0] == 0.0
        assert np.all(np.abs(got_p[1:] - variance[1:]) <= 1e-12 * variance[1:])
        assert np.all(np.abs(got_f - f) <= 1e-12 * f)
        assert np.all(np.abs(got_k - k) <= 1e-12 * np.abs(k))
        assert np.all(got_p[model.settled:] == got_p[-1])

    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    @pytest.mark.parametrize("cutoff", [None, 1.0, 1000.0, 400_000.0])
    def test_scan_equals_bit_by_bit_innovations(self, mode, cutoff):
        """Over several scan steps (at 1 Hz the transient spans them all),
        against ``e_k = scale sqrt(F_k) z_k``, ``S_k = g m_k + e_k`` and
        ``m_(k+1) = c m_k + K_k e_k`` run one bit at a time."""
        model = statistic_noise(8, mode, cutoff)
        n_bits = 3 * TRANSMIT_CHUNK + 5
        scale = 0.27
        normals = np.random.default_rng(11).standard_normal(n_bits)
        got = model.statistics(normals.copy(), scale)
        f, k = model.innovations(0, n_bits)
        expected = np.empty(n_bits)
        state = 0.0
        for bit, (z, f_k, k_k) in enumerate(zip(normals.tolist(), f.tolist(), k.tolist())):
            e = scale * math.sqrt(f_k) * z
            expected[bit] = model.gain * state + e
            state = model.carry * state + k_k * e
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    @pytest.mark.parametrize("cutoff", [None, 1000.0])
    def test_one_attempt_consumes_one_normal_a_bit(self, mode, cutoff):
        """``noisy_statistics`` is ``clean`` plus the generator applied to the
        first ``n`` normals of ``default_rng(seed)``, bit for bit."""
        channel = replace(BENCH_LINK, highpass_cutoff=cutoff)
        clean = _clean_statistics(bytes(range(64)), channel, mode)
        model = statistic_noise(8, mode, cutoff)
        stats = noisy_statistics(clean, model, channel, seed=(5, 1))
        normals = np.random.default_rng((5, 1)).standard_normal(clean.size)
        expected = model.statistics(normals, channel.attenuation * channel.noise_sigma)
        expected += clean
        assert np.array_equal(stats, expected)

    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    @pytest.mark.parametrize("channel", [
        CLEAN, replace(BENCH_LINK, noise_sigma=0.0),
        ChannelModel(attenuation=0.0, hum_amplitude=0.5),
        ChannelModel(attenuation=0.0, hum_amplitude=0.5, noise_sigma=0.8)])    # dead link
    def test_deterministic_channel_equals_sample_path_and_draws_nothing(self, mode, channel):
        """``clean + noise`` at sigma 0, or on a dead link at any sigma, is the
        sample path's statistics (within the rounding of the reference's
        per-sample hum); a negative seed would make ``default_rng`` raise, so
        no generator is made."""
        assert channel.deterministic
        clean = _clean_statistics(bytes(range(64)), channel, mode)
        model = statistic_noise(8, mode, channel.highpass_cutoff)
        stats = noisy_statistics(clean, model, channel, seed=-1)
        assert stats is clean
        (expected,) = _sample_level_statistics(_quiet_waveform(bytes(range(64)), channel),
                                               channel, [mode], seed=0)
        np.testing.assert_allclose(stats, expected, rtol=0, atol=1e-12)

    def test_bit_errors_agree_with_sample_path(self):
        """Eight 40 KB frames per side (2.56 M bits) on the benchmark's link at
        sigma 0.8 and 1.0, in both modes.  The error counts x and y of the
        two sides must satisfy |x - y| <= 4 * sqrt(2 n q (1 - q)), q = (x + y) / 2n:
        the two-sample binomial interval at z = 4 (two-sided alpha 6e-5).
        The hum makes a bit's error probability vary along the frame, which
        only narrows the spread of a count, so the interval is conservative."""
        modes = tuple(DecodeMode)
        frames = 8
        for sigma in (0.8, 1.0):
            channel = replace(BENCH_LINK, noise_sigma=sigma)
            reference = frame_data_bits(BENCH_PAYLOAD)
            n = frames * reference.size
            sample_errors = dict.fromkeys(modes, 0)
            stat_errors = dict.fromkeys(modes, 0)
            quiet = _quiet_waveform(BENCH_PAYLOAD, channel)
            for frame in range(frames):
                for mode, stats in zip(modes, _sample_level_statistics(
                        quiet, channel, modes, seed=(1, frame))):
                    sample_errors[mode] += int(np.count_nonzero((stats > 0) != reference))
            for mode in modes:
                clean = _clean_statistics(BENCH_PAYLOAD, channel, mode)
                model = statistic_noise(8, mode, channel.highpass_cutoff)
                for frame in range(frames):
                    stats = noisy_statistics(clean, model, channel, seed=(2, frame))
                    stat_errors[mode] += int(np.count_nonzero((stats > 0) != reference))
            for mode in modes:
                x, y = stat_errors[mode], sample_errors[mode]
                q = (x + y) / (2 * n)
                assert y > 0, (sigma, mode)
                assert abs(x - y) <= 4.0 * math.sqrt(2 * n * q * (1 - q)), (sigma, mode, x, y)

    def test_eye_openings_agree_with_sample_path(self):
        """200 seeds of a 40 KB frame on the benchmark's link (sigma 0.45) per
        side, in both modes: a two-sample Kolmogorov-Smirnov test at
        alpha = 1e-3 must not tell the eye openings apart."""
        modes = tuple(DecodeMode)
        seeds = 200
        sample_eyes = {mode: [] for mode in modes}
        quiet = _quiet_waveform(BENCH_PAYLOAD, BENCH_LINK)
        for seed in range(seeds):
            for mode, stats in zip(modes, _sample_level_statistics(
                    quiet, BENCH_LINK, modes, seed=(3, seed))):
                sample_eyes[mode].append(_eye(stats))
        for mode in modes:
            clean = _clean_statistics(BENCH_PAYLOAD, BENCH_LINK, mode)
            model = statistic_noise(8, mode, BENCH_LINK.highpass_cutoff)
            stat_eyes = [_eye(noisy_statistics(clean, model, BENCH_LINK, seed=(4, seed)))
                         for seed in range(seeds)]
            assert sp_stats.ks_2samp(stat_eyes, sample_eyes[mode]).pvalue > 1e-3, mode


class TestSweepHum:
    @pytest.mark.parametrize("cutoff", [None, 1000.0])
    def test_both_modes_draw_from_the_point_seed(self, cutoff):
        """At point ``idx`` each mode's record is its noise-free pass plus
        ``noisy_statistics`` from ``seed=(seed, idx)``: common random numbers
        across the modes."""
        channel = replace(BENCH_LINK, highpass_cutoff=cutoff)
        payload = bytes(range(64))
        hums = [0.0, 0.5, 2.0]
        records = sweep_hum(payload, hums, channel, bit_period=8, seed=4)
        reference = frame_data_bits(payload)
        expected = []
        for idx, hum in enumerate(hums):
            point = replace(channel, hum_amplitude=hum)
            for mode in DecodeMode:
                stats = noisy_statistics(_clean_statistics(payload, point, mode),
                                         statistic_noise(8, mode, cutoff), point, seed=(4, idx))
                expected.append({"hum_amplitude": hum, "mode": mode,
                                 "ber": ber(reference, stats > 0), "eye_opening": _eye(stats)})
        assert records == expected

    @pytest.mark.parametrize("mode,sigma", [(DecodeMode.DIRECT, 0.45),
                                            (DecodeMode.INTEGRATE_AND_DUMP, 1.0)])
    def test_bit_errors_agree_with_sample_path(self, mode, sigma):
        """Four 40 KB frames per side (1.28 M bits) on the benchmark's link,
        at a sigma where each mode errs on ~0.1-0.25 % of bits: ``sweep_hum``
        at four equal hum points against the reference's per-sample noise.
        The counts must fall inside the two-sample binomial interval at
        z = 4 of ``TestStatisticNoise.test_bit_errors_agree_with_sample_path``."""
        channel = replace(BENCH_LINK, noise_sigma=sigma)
        reference = frame_data_bits(BENCH_PAYLOAD)
        frames = 4
        n = frames * reference.size
        records = sweep_hum(BENCH_PAYLOAD, [channel.hum_amplitude] * frames, channel,
                            bit_period=8, seed=7, modes=(mode,))
        x = sum(round(record["ber"] * reference.size) for record in records)
        y = 0
        quiet = _quiet_waveform(BENCH_PAYLOAD, channel)
        for frame in range(frames):
            (stats,) = _sample_level_statistics(quiet, channel, [mode], seed=(8, frame))
            y += int(np.count_nonzero((stats > 0) != reference))
        q = (x + y) / (2 * n)
        assert y > 0
        assert abs(x - y) <= 4.0 * math.sqrt(2 * n * q * (1 - q)), (x, y)


class TestEyeOpening:
    def test_clean_waveform_is_fully_open(self):
        w = transmit(encode_frame(b"\xaa\x55"), 8, CLEAN)
        assert _eye(bit_statistics(w, DecodeMode.DIRECT)) == pytest.approx(1.0)
        assert _eye(bit_statistics(w, DecodeMode.INTEGRATE_AND_DUMP)) == pytest.approx(1.0)

    def test_dead_waveform_is_closed(self):
        w = Waveform(np.zeros(80), 8)
        assert _eye(bit_statistics(w, DecodeMode.DIRECT)) == 0.0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(length=st.one_of(st.sampled_from((0, 1, TRANSMIT_CHUNK, TRANSMIT_CHUNK + 1,
                                             3 * TRANSMIT_CHUNK - 7)),
                            st.integers(0, 100)),
           seed=st.integers(0, 2**32 - 1),
           low_at=st.one_of(st.just(-1), st.integers(0, 2**32 - 1)),
           peak_at=st.one_of(st.just(-1), st.integers(0, 2**32 - 1)), zeros=st.booleans())
    def test_blockwise_eye_equals_whole_array(self, length, seed, low_at, peak_at, zeros):
        """The smallest and the largest magnitude are planted anywhere, the last
        statistic (index -1) included."""
        stats = np.random.default_rng(seed).standard_normal(length)
        if length:
            stats[low_at % length] = -1e-9
            stats[peak_at % length] = 1e9
        if zeros:
            stats[::3] = 0.0
        magnitude = np.abs(stats)
        peak = magnitude.max() if length else 0.0
        assert _eye(stats) == (float(magnitude.min() / peak) if peak > 0 else 0.0)

    def test_integrator_opens_noisy_eye(self):
        cm = ChannelModel(attenuation=0.5, noise_sigma=0.8)
        w = reference_transmit(encode_frame(bytes(64)), 32, cm, seed=5)
        direct = _eye(bit_statistics(w, DecodeMode.DIRECT))
        integ = _eye(bit_statistics(w, DecodeMode.INTEGRATE_AND_DUMP))
        assert integ > direct


class TestBer:
    def test_identical(self):
        bits = np.ones(100, dtype=np.uint8)
        assert ber(bits, bits) == 0.0

    def test_complement(self):
        bits = np.zeros(64, dtype=np.uint8)
        assert ber(bits, 1 - bits) == 1.0

    def test_single_flip_in_thousand(self):
        tx = np.zeros(1000, dtype=np.uint8)
        rx = tx.copy()
        rx[123] = 1
        assert ber(tx, rx) == 0.001

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ber(np.zeros(5), np.zeros(6))

