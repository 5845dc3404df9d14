"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances and time limits are fixed here, not calibrated."""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from wearauth import codec
from wearauth.channel import (
    ChannelModel,
    DecodeMode,
    IntegrityError,
    SyncError,
    bit_statistics,
    encode_frame,
    frame_data_bits,
    receive_decode,
    sweep_hum,
    transmit,
)
from wearauth.design_space import (
    PowerSource,
    SystemConfig,
    TeLocation,
    display_rate,
    evaluate,
    table2,
    table2_csv,
)
from wearauth.energy import Channel, EnergyParams, SensorType
from wearauth.fingerprint import (
    BinaryImage,
    MinutiaKind,
    TemplateAlgorithm,
    crossing_number,
    extract_template,
    thin,
)
from wearauth.present import Present80, encrypt_block
from wearauth.sim import ScenarioConfig, run_scenario, verify_against_analytic

from conftest import write_scenario
from patterns import degrade, stripe_image
from test_present import VECTORS, _ref_encrypt

P = EnergyParams()


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {number}. {title}: FAIL")
        raise
    print(f"[ACCEPTANCE] {number}. {title}: PASS")


def test_criterion_1_table2_reproduction():
    with criterion(1, "Summary-table reproduction"):
        start = time.perf_counter()
        grid = table2(P)
        csv_text = table2_csv(P)
        elapsed = time.perf_counter() - start
        assert [display_rate(v) for v in grid["optical"]] == ["0.001", "0.001", "0.05", "0.05"]
        assert [display_rate(v) for v in grid["capacitive"]] == ["0.001", "0.001", "1.11", "142.2"]
        assert csv_text.splitlines()[1] == "optical,0.001,0.001,0.05,0.05"
        assert csv_text.splitlines()[2] == "capacitive,0.001,0.001,1.11,142.2"
        assert elapsed < 1.0


def test_criterion_2_sensor_lifetimes():
    with criterion(2, "Sensor lifetimes (coin cell)"):
        for sensor, expected in (("optical", 119), ("capacitive", 122)):
            for ch in (Channel.WBAN, Channel.HBC):
                rep = evaluate(SystemConfig(
                    te_location=TeLocation.SENSOR, on_body_channel=ch,
                    sensor_type=SensorType(sensor),
                    sensor_power=PowerSource.COIN_CELL), P)
                assert math.floor(rep.sensor_retries) == expected
        for ch in (Channel.WBAN, Channel.HBC):
            rep = evaluate(SystemConfig(
                te_location=TeLocation.HUB, on_body_channel=ch,
                sensor_type=SensorType.OPTICAL,
                sensor_power=PowerSource.COIN_CELL), P)
            assert 5000 <= rep.sensor_retries <= 5500


def test_criterion_3_hub_lifetimes():
    with criterion(3, "Hub lifetimes at 1 km"):
        for ch in (Channel.WBAN, Channel.HBC):
            cloud = evaluate(SystemConfig(
                te_location=TeLocation.CLOUD, on_body_channel=ch,
                lora_distance=1000.0), P)
            assert math.floor(cloud.hub_retries) == 18
            hub = evaluate(SystemConfig(
                te_location=TeLocation.HUB, on_body_channel=ch,
                lora_distance=1000.0), P)
            # Closed form lands near 487.5; the published 483 is matched
            # within 1.5% and the gap is documented, not tuned away.
            assert abs(hub.hub_retries - 483.0) / 483.0 <= 0.015
            assert hub.hub_retries == pytest.approx(487.5, abs=1.0)


def test_criterion_4_compression_ratio():
    with criterion(4, "Compression ratio"):
        pts = tuple(
            dict(x=10 + 7 * i, y=12 + 6 * i, angle=(0.2 * i) % (2 * math.pi),
                 kind=MinutiaKind.ENDING if i % 2 else MinutiaKind.BIFURCATION)
            for i in range(28))
        from wearauth.fingerprint.minutiae import Minutia, Template
        template = Template(width=256, height=256,
                            algorithm=TemplateAlgorithm.HIGH_ACCURACY,
                            minutiae=tuple(Minutia(**p) for p in pts))
        encoded = codec.encode(template)
        assert len(encoded) == 176
        assert int(40032 / len(encoded)) == 227    # raw capture bytes over template bytes


def test_criterion_5_simulator_analytic_equivalence(scenario_workspace):
    with criterion(5, "Simulator-analytic equivalence (24-case grid)"):
        start = time.perf_counter()
        cases = 0
        for te in ("sensor", "hub", "cloud"):
            for ch in ("wban", "hbc"):
                for sensor in ("optical", "capacitive"):
                    for power in ("rf_harvest", "coin_cell"):
                        path = write_scenario(
                            scenario_workspace, name="grid.json",
                            system={"te_location": te, "on_body_channel": ch,
                                    "sensor_type": sensor, "sensor_power": power,
                                    "lora_distance": 1000.0})
                        report = run_scenario(ScenarioConfig.from_json(path), P)
                        verdict = verify_against_analytic(report, P, tolerance=1e-9)
                        assert verdict.applicable, (te, ch, sensor, power)
                        assert verdict.passed, (te, ch, sensor, power, verdict.details)
                        assert report.requests_completed == report.analytic["supported_requests"]
                        cases += 1
        elapsed = time.perf_counter() - start
        assert cases == 24
        assert elapsed < 10.0


def test_criterion_6_template_extraction_properties():
    with criterion(6, "Template-extraction properties"):
        rng = np.random.default_rng(0)
        for _ in range(100):
            bits = rng.random((48, 48)) < 0.45
            once = thin(BinaryImage(bits))
            assert np.array_equal(thin(once).bits, once.bits)

        line = BinaryImage(np.array([[0, 0, 0, 0, 0],
                                     [0, 1, 1, 1, 0],
                                     [0, 0, 0, 0, 0]], dtype=bool))
        assert crossing_number(line, 1, 1) == 1          # ending
        assert crossing_number(line, 2, 1) == 2          # continuation
        y_mask = BinaryImage(np.array([[1, 0, 0, 0, 1],
                                       [0, 1, 0, 1, 0],
                                       [0, 0, 1, 0, 0],
                                       [0, 0, 1, 0, 0]], dtype=bool))
        assert crossing_number(y_mask, 2, 2) == 3        # bifurcation
        ring = np.zeros((7, 7), dtype=bool)
        ring[1, 1:6] = ring[5, 1:6] = True
        ring[1:6, 1] = ring[1:6, 5] = True
        loop = BinaryImage(ring)
        assert crossing_number(loop, 3, 1) == 2          # loop stays continuation

        image = stripe_image(160, 120, period=8, thickness=3, gap=(7, 64, 104))
        first = codec.encode(extract_template(image, TemplateAlgorithm.HIGH_ACCURACY))
        second = codec.encode(extract_template(image, TemplateAlgorithm.HIGH_ACCURACY))
        assert first == second

        high = extract_template(image, TemplateAlgorithm.HIGH_ACCURACY)
        assert len(high) == 2
        assert all(m.kind is MinutiaKind.ENDING for m in high.minutiae)
        row_top = 2 + 7 * 8
        xs = sorted(m.x for m in high.minutiae)
        assert all(row_top <= m.y < row_top + 3 for m in high.minutiae)
        assert 56 <= xs[0] <= 72 and 96 <= xs[1] <= 112

        light = extract_template(degrade(image), TemplateAlgorithm.LIGHTWEIGHT)
        assert len(light) > len(high)


def test_criterion_7_modem_suite():
    with criterion(7, "Modem suite"):
        rnd = random.Random(1234)
        clean = ChannelModel()
        for _ in range(1000):
            payload = rnd.randbytes(rnd.randrange(0, 4097))
            symbols = encode_frame(payload)
            assert int(symbols.astype(np.int64).sum()) == 0
            w = transmit(symbols, 4, clean)
            out, stats = receive_decode(bit_statistics(w, DecodeMode.DIRECT))
            assert out == payload
            assert stats.ber is None

        from wearauth.channel import _manchester
        payload = bytes(range(64))
        bits = frame_data_bits(payload)
        for i in range(bits.size):
            corrupted = bits.copy()
            corrupted[i] ^= 1
            w = transmit(_manchester(corrupted), 4, clean)
            try:
                out, _ = receive_decode(bit_statistics(w, DecodeMode.DIRECT))
            except (SyncError, IntegrityError):
                continue
            assert out == payload

        hums = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]
        records = sweep_hum(bytes(range(128)), hums,
                            ChannelModel(attenuation=0.5, noise_sigma=0.8),
                            bit_period=32, seed=9)
        per_point = {}
        for rec in records:
            per_point.setdefault(rec["hum_amplitude"], {})[rec["mode"]] = rec
        for hum in hums:
            direct = per_point[hum][DecodeMode.DIRECT]
            integ = per_point[hum][DecodeMode.INTEGRATE_AND_DUMP]
            assert integ["ber"] <= direct["ber"]
            if direct["eye_opening"] > 0:
                assert integ["eye_opening"] > direct["eye_opening"]


def test_criterion_8_cipher_suite():
    with criterion(8, "Cipher suite"):
        for key, pt, ct in VECTORS:
            assert encrypt_block(pt, key) == ct
            assert _ref_encrypt(pt, key) == ct

        rnd = random.Random(99)
        total_flips = 0
        trials = 10_000
        cipher_pairs = []
        for _ in range(trials):
            key = rnd.getrandbits(80)
            pt = rnd.getrandbits(64)
            cipher_pairs.append((key, pt))
        for key, pt in cipher_pairs:
            cipher = Present80(key)
            assert cipher.decrypt_block(cipher.encrypt_block(pt)) == pt
        for key, pt in cipher_pairs:
            flipped = key ^ (1 << rnd.randrange(80))
            total_flips += bin(encrypt_block(pt, key) ^ encrypt_block(pt, flipped)).count("1")
        mean = total_flips / trials
        assert abs(mean - 32.0) <= 3.0
