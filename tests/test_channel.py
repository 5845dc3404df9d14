import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal as sp_signal

from wearauth.channel import (
    MAX_PAYLOAD,
    MAX_SAMPLES,
    PREAMBLE_BITS,
    SYNC_WORD,
    TRANSMIT_CHUNK,
    ChannelModel,
    DecodeMode,
    FramingError,
    IntegrityError,
    SyncError,
    Waveform,
    ber,
    crc16_ccitt,
    decode_bits,
    encode_frame,
    eye_opening,
    frame_data_bits,
    highpass_bias,
    receive_decode,
    sweep_hum,
    transmit,
)
from wearauth.channel import _bit_statistics, _find_frame

CLEAN = ChannelModel()


def _reference_transmit(symbols, bit_period, channel, seed, sample_rate=1_000_000.0):
    """The allocating transmit (one array per term), kept as the oracle."""
    half = bit_period // 2
    symbols = np.asarray(symbols, dtype=np.float64)
    clean = np.repeat(symbols, half)
    rng = np.random.default_rng(seed)
    a = channel.attenuation
    received = a * clean
    if channel.hum_amplitude:
        t = np.arange(clean.size) / sample_rate
        received = received + a * channel.hum_amplitude * np.sin(
            2.0 * np.pi * channel.hum_frequency * t)
    if channel.noise_sigma:
        received = received + a * channel.noise_sigma * rng.standard_normal(clean.size)
    return received


def _reference_bit_statistics(w, mode):
    """Half-bit means through ``ndarray.mean``, kept as the oracle for ``_bit_statistics``."""
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


def _reference_highpass(w, cutoff):
    """One ``lfilter`` over the whole waveform into a new array, kept as the
    oracle for the chunked in-place ``highpass_bias``."""
    b, a = sp_signal.butter(1, cutoff, btype="highpass", fs=w.sample_rate)
    return replace(w, samples=sp_signal.lfilter(b, a, w.samples))


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
              seed: int = 0, mode: DecodeMode = DecodeMode.DIRECT):
    w = transmit(encode_frame(payload), bit_period, channel, seed=seed)
    return receive_decode(w, mode, reference_bits=frame_data_bits(payload))


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
        w = transmit(symbols, 8, CLEAN, seed=0)
        assert np.array_equal(w.samples, np.repeat(symbols.astype(float), 4))

    def test_same_seed_same_waveform(self):
        symbols = encode_frame(b"abc")
        cm = ChannelModel(attenuation=0.7, hum_amplitude=1.0, noise_sigma=0.5)
        w1 = transmit(symbols, 8, cm, seed=99)
        w2 = transmit(symbols, 8, cm, seed=99)
        assert np.array_equal(w1.samples, w2.samples)
        w3 = transmit(symbols, 8, cm, seed=100)
        assert not np.array_equal(w1.samples, w3.samples)

    def test_hum_dominates_spectrum(self):
        cm = ChannelModel(attenuation=0.1, hum_amplitude=5.0)
        w = transmit(encode_frame(bytes(200)), 16, cm, seed=2, sample_rate=200_000.0)
        spectrum = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(w.samples.size, 1.0 / w.sample_rate)
        peak = freqs[1:][np.argmax(spectrum[1:])]
        assert peak == pytest.approx(60.0, abs=2.0)

    def test_odd_bit_period_rejected(self):
        with pytest.raises(ValueError):
            transmit(encode_frame(b""), 7, CLEAN, seed=0)
        with pytest.raises(ValueError):
            Waveform(1e6, np.zeros(8), 2)

    @pytest.mark.parametrize("hum", [0.0, 0.4])
    @pytest.mark.parametrize("noise", [0.0, 0.6])
    def test_samples_equal_allocating_reference(self, hum, noise):
        symbols = encode_frame(bytes(range(200)))
        cm = ChannelModel(attenuation=0.7, hum_amplitude=hum, noise_sigma=noise)
        w = transmit(symbols, 8, cm, seed=(5, 1), sample_rate=250_000.0)
        assert np.array_equal(w.samples,
                              _reference_transmit(symbols, 8, cm, (5, 1), 250_000.0))

    def test_peak_memory_per_sample(self):
        """The output, one chunk of scratch and one of hum offsets: 8 B per sample
        with hum and noise."""
        symbols = encode_frame(bytes(4000))
        cm = ChannelModel(attenuation=0.6, hum_amplitude=0.3, noise_sigma=0.5)
        tracemalloc.start()
        try:
            w = transmit(symbols, 8, cm, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.samples.size > 4 * TRANSMIT_CHUNK
        assert peak <= 8 * w.samples.size + 2 * 8 * TRANSMIT_CHUNK + 64 * 1024

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(half=st.one_of(st.sampled_from((2, 4, 8, 16)), st.integers(2, 40)),
           length=st.sampled_from(("below", "at", "across")),
           extra=st.integers(0, 2 * TRANSMIT_CHUNK), symbol_seed=st.integers(0, 2**32 - 1),
           sample_rate=st.floats(1.0, 1e9), attenuation=st.floats(0.0, 1.0),
           hum=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), hum_frequency=st.floats(0.1, 1e5),
           noise=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), seed=st.integers(0, 2**32 - 1))
    def test_chunked_samples_equal_allocating_reference(self, half, length, extra, symbol_seed,
                                                        sample_rate, attenuation, hum,
                                                        hum_frequency, noise, seed):
        """Frames shorter than a chunk, as long as one (exactly, where the half
        bit divides it), and several chunks long with a tail."""
        at = TRANSMIT_CHUNK // half
        n_symbols = {"below": extra % at, "at": at, "across": at + 1 + extra // half}[length]
        rng = np.random.default_rng(symbol_seed)
        symbols = rng.choice(np.array([-1, 1], dtype=np.int8), n_symbols)
        cm = ChannelModel(attenuation=attenuation, hum_amplitude=hum,
                          hum_frequency=hum_frequency, noise_sigma=noise)
        w = transmit(symbols, 2 * half, cm, seed=seed, sample_rate=sample_rate)
        assert np.array_equal(w.samples, _reference_transmit(symbols, 2 * half, cm, seed,
                                                             sample_rate))

    def test_sample_ceiling(self):
        # A capture-sized frame at the default bit period fits...
        assert encode_frame(bytes(40047)).size * 8 // 2 <= MAX_SAMPLES
        # ...and a waveform past the ceiling is refused before it is built.
        symbols = encode_frame(b"")
        with pytest.raises(ValueError, match="exceeds"):
            transmit(symbols, 2 * (MAX_SAMPLES // symbols.size + 1), CLEAN, seed=0)


class TestHighpass:
    def test_60hz_attenuated_per_first_order_response(self):
        t = np.arange(200_000) / 1e6
        hum = Waveform(1e6, np.sin(2 * np.pi * 60.0 * t), 10)
        out = highpass_bias(replace(hum, samples=hum.samples.copy()), 10_000.0)
        ratio = np.sqrt((out.samples[1000:] ** 2).mean()) / np.sqrt((hum.samples[1000:] ** 2).mean())
        analytic = (60.0 / 10_000.0) / np.sqrt(1 + (60.0 / 10_000.0) ** 2)
        assert ratio < 0.01
        assert ratio == pytest.approx(analytic, rel=0.2)

    def test_dc_decays_to_zero(self):
        w = Waveform(1e6, np.ones(100_000), 10)
        out = highpass_bias(w, 10_000.0)
        assert abs(out.samples[-1]) < 1e-6

    def test_in_band_square_wave_passes(self):
        # 100 kbit/s square wave against a 10 kHz cutoff
        square = np.repeat(np.resize([1.0, -1.0], 2000), 10)
        w = Waveform(1e6, square.copy(), 10)
        out = highpass_bias(w, 10_000.0)
        corr = np.corrcoef(square, out.samples)[0, 1]
        assert corr >= 0.9

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(length=st.one_of(st.sampled_from((0, 1, TRANSMIT_CHUNK - 1, TRANSMIT_CHUNK,
                                             TRANSMIT_CHUNK + 1, 3 * TRANSMIT_CHUNK)),
                            st.integers(0, TRANSMIT_CHUNK - 1),
                            st.integers(TRANSMIT_CHUNK + 1, 3 * TRANSMIT_CHUNK)),
           sample_rate=st.floats(1e-3, 1e9), fraction=st.floats(1e-6, 0.999),
           scale=st.one_of(st.sampled_from((1.0, 1e-300, 1e300)), st.floats(1e-12, 1e12)),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_one_shot_filter_bit_for_bit(self, length, sample_rate, fraction, scale, seed):
        """Empty, shorter than a chunk, exactly one, and several with a tail."""
        samples = scale * np.random.default_rng(seed).standard_normal(length)
        cutoff = fraction * sample_rate / 2
        expected = _reference_highpass(Waveform(sample_rate, samples.copy(), 8), cutoff)
        out = highpass_bias(Waveform(sample_rate, samples, 8), cutoff)
        assert np.array_equal(out.samples, expected.samples)

    def test_filters_in_place_and_returns_the_input(self):
        w = transmit(encode_frame(bytes(range(64))), 8,
                     ChannelModel(attenuation=0.6, hum_amplitude=0.5), seed=0)
        buffer = w.samples
        out = highpass_bias(w, 1000.0)
        assert out is w
        assert np.shares_memory(out.samples, buffer)

    def test_read_only_samples_rejected(self):
        samples = np.ones(64)
        samples.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            highpass_bias(Waveform(1e6, samples, 8), 1000.0)
        assert np.all(samples == 1.0)

    def test_peak_memory_is_two_chunks(self):
        """A 40 KB capture's hop (2.56 M samples) adds no second waveform, where
        one ``lfilter`` into a new array allocated ~20 MB."""
        w = transmit(encode_frame(bytes(40047)), 8,
                     ChannelModel(attenuation=0.6, hum_amplitude=0.5, noise_sigma=0.45), seed=0)
        highpass_bias(Waveform(1e6, np.zeros(16), 8), 1000.0)     # first-call set-up
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
            highpass_bias(Waveform(1e6, np.zeros(16), 8), 600_000.0)


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
            _loopback(b"hi", channel=ChannelModel(attenuation=0.0), seed=1)

    def test_crc_corruption_is_integrity_error(self):
        payload = b"payload under test"
        bits = frame_data_bits(payload)
        corrupted = bits.copy()
        corrupted[8 + 16 + 16 + 3] ^= 1      # flip a payload bit
        from wearauth.channel import _manchester
        w = transmit(_manchester(corrupted), 8, CLEAN, seed=0)
        with pytest.raises(IntegrityError):
            receive_decode(w, DecodeMode.DIRECT)

    def test_single_bit_flips_never_yield_wrong_payload(self):
        payload = bytes(range(64))
        bits = frame_data_bits(payload)
        from wearauth.channel import _manchester
        for i in range(bits.size):
            corrupted = bits.copy()
            corrupted[i] ^= 1
            w = transmit(_manchester(corrupted), 4, CLEAN, seed=0)
            try:
                out, _ = receive_decode(w, DecodeMode.DIRECT)
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
        return Waveform(draw(st.floats(1e-3, 1e9)), samples, bit_period)
    payload = draw(st.binary(max_size=24))
    frame = transmit(encode_frame(payload), bit_period, CLEAN, seed=0).samples
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
    return Waveform(draw(st.floats(1e-3, 1e9)), np.concatenate([pad, frame]), bit_period)


class TestBitStatistics:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(samples=hnp.arrays(np.float64, st.integers(0, 900),
                              elements=st.floats(-1e6, 1e6)),
           half=st.integers(2, 40), mode=st.sampled_from(tuple(DecodeMode)))
    def test_equal_half_bit_means_bit_for_bit(self, samples, half, mode):
        """Below 8 samples per half bit numpy's ``mean`` also adds left to right;
        from 8 on it sums pairwise, so only the rounding may differ."""
        w = Waveform(1e6, samples, 2 * half)
        stats, expected = _bit_statistics(w, mode), _reference_bit_statistics(w, mode)
        if half < 8 or mode == DecodeMode.DIRECT:
            assert np.array_equal(stats, expected)
        else:
            scale = np.abs(samples).max(initial=0.0)
            np.testing.assert_allclose(stats, expected, rtol=0, atol=1e-12 * scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_clean_frame_scaled_to_1e300_decodes_without_warning(self, mode):
        w = transmit(encode_frame(b"hello"), 8, CLEAN, seed=0)
        w.samples[:] *= 1e300
        payload, stats = receive_decode(w, mode)
        assert payload == b"hello"
        assert stats.eye_opening == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_overflowing_statistics_raise_value_error(self, mode):
        """At 1e308 the half-bit sums (integrate-and-dump) and the half-bit
        difference (direct) overflow; the bits are refused, not decided as 0."""
        w = transmit(encode_frame(b"hello"), 8, CLEAN, seed=0)
        w.samples[:] *= 1e308
        with pytest.raises(ValueError, match="overflow"):
            decode_bits(w, mode)
        with pytest.raises(ValueError, match="overflow"):
            receive_decode(w, mode)

    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_receive_decode_peak_memory_per_bit(self, mode):
        """One 40 KB capture's frame at ``bit_period`` 8: ~17.3 B per bit at the
        peak (two per-bit sums, or the statistic, its magnitude and the bits),
        where a half-bit array and its difference took 24."""
        payload = bytes(range(256)) * 156 + bytes(111)
        w = highpass_bias(transmit(encode_frame(payload), 8,
                                   ChannelModel(attenuation=0.6, hum_amplitude=0.5),
                                   seed=0), 1000.0)
        n_bits = w.samples.size // w.bit_period
        tracemalloc.start()
        try:
            out, _ = receive_decode(w, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == payload
        assert peak <= 18 * n_bits

    def test_benchmark_bit_period_bit_for_bit(self):
        cm = ChannelModel(attenuation=0.6, hum_amplitude=0.5, noise_sigma=0.45)
        w = highpass_bias(transmit(encode_frame(bytes(range(256))), 8, cm, seed=(3, 0, 0)),
                          1000.0)
        mode = DecodeMode.INTEGRATE_AND_DUMP
        assert np.array_equal(_bit_statistics(w, mode), _reference_bit_statistics(w, mode))


class TestReceiveDecodeFuzz:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(w=_waveforms(), mode=st.sampled_from(tuple(DecodeMode)))
    def test_only_documented_errors_and_valid_frames(self, w, mode):
        """A returned payload is the located frame's, and its CRC verifies."""
        try:
            payload, stats = receive_decode(w, mode)
        except (SyncError, IntegrityError, ValueError):
            return
        bits, _ = decode_bits(w, mode)
        assert len(payload) <= MAX_PAYLOAD
        assert stats.n_bits == bits.size
        pos, length = _find_frame(bits)
        body = frame_data_bits(payload)[len(PREAMBLE_BITS):]   # sync, length, payload, CRC
        assert length == len(payload)
        assert np.array_equal(bits[pos:pos + body.size], body)


class TestFindFrame:
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


class TestEyeOpening:
    def test_clean_waveform_is_fully_open(self):
        w = transmit(encode_frame(b"\xaa\x55"), 8, CLEAN, seed=0)
        assert eye_opening(w, DecodeMode.DIRECT) == pytest.approx(1.0)
        assert eye_opening(w, DecodeMode.INTEGRATE_AND_DUMP) == pytest.approx(1.0)

    def test_dead_waveform_is_closed(self):
        w = Waveform(1e6, np.zeros(80), 8)
        assert eye_opening(w, DecodeMode.DIRECT) == 0.0

    def test_integrator_opens_noisy_eye(self):
        cm = ChannelModel(attenuation=0.5, noise_sigma=0.8)
        w = transmit(encode_frame(bytes(64)), 32, cm, seed=5)
        direct = eye_opening(w, DecodeMode.DIRECT)
        integ = eye_opening(w, DecodeMode.INTEGRATE_AND_DUMP)
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

