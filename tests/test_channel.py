import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth.channel import (
    MAX_SAMPLES,
    ChannelModel,
    DecodeMode,
    FramingError,
    IntegrityError,
    SyncError,
    Waveform,
    ber,
    crc16_ccitt,
    encode_frame,
    eye_opening,
    frame_data_bits,
    highpass_bias,
    receive_decode,
    sweep_hum,
    transmit,
)

CLEAN = ChannelModel()


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
        out = highpass_bias(hum, 10_000.0)
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
        w = Waveform(1e6, square, 10)
        out = highpass_bias(w, 10_000.0)
        corr = np.corrcoef(square, out.samples)[0, 1]
        assert corr >= 0.9

    def test_cutoff_validated(self):
        with pytest.raises(ValueError):
            highpass_bias(Waveform(1e6, np.zeros(16), 8), 600_000.0)


class TestReceiveDecode:
    @pytest.mark.parametrize("mode", tuple(DecodeMode))
    def test_clean_roundtrip(self, mode):
        payload = bytes(range(256)) * 4
        out, stats = _loopback(payload, mode=mode)
        assert out == payload
        assert stats.bit_errors == 0
        assert stats.eye_opening == pytest.approx(1.0)

    @given(st.binary(max_size=1024))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_payloads(self, payload):
        out, stats = _loopback(payload, bit_period=4)
        assert out == payload
        assert stats.bit_errors == 0

    def test_max_size_payload_roundtrip(self):
        rng = np.random.default_rng(17)
        payload = rng.integers(0, 256, 65535).astype(np.uint8).tobytes()
        out, stats = _loopback(payload, bit_period=4)
        assert out == payload
        assert stats.bit_errors == 0

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

