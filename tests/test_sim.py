import json
import math
from collections import Counter

import pytest

from wearauth import codec, present
from wearauth.design_space import (
    ALLOCATION_ROWS,
    PowerSource,
    SystemConfig,
    evaluate,
)
from wearauth.energy import EnergyParams, SensorType
from wearauth.fingerprint.minutiae import Minutia, MinutiaKind, Template, TemplateAlgorithm
from wearauth.sim import (
    BudgetExceeded,
    EnergyLedger,
    ScenarioConfig,
    run_scenario,
    trace_csv,
    verify_against_analytic,
)

from conftest import write_scenario

P = EnergyParams()

BASE_SYSTEM = {
    "te_location": "hub",
    "on_body_channel": "hbc",
    "sensor_type": "capacitive",
    "sensor_power": "rf_harvest",
    "lora_distance": 1000.0,
}


def run(scenario_workspace, *, system=None, channel=None, params=P, **extra):
    doc_system = dict(BASE_SYSTEM)
    doc_system.update(system or {})
    path = write_scenario(scenario_workspace, system=doc_system, channel=channel, **extra)
    return run_scenario(ScenarioConfig.from_json(path), params)


class TestEnergyLedger:
    def test_charge_and_remaining(self):
        led = EnergyLedger("sensor", 10.0)
        led.charge("a", 4.0)
        led.charge("b", 1.0)
        assert led.total_charged == 5.0
        assert led.remaining == 5.0

    def test_overdraw_raises_and_leaves_state(self):
        led = EnergyLedger("sensor", 1.0)
        led.charge("a", 0.75)
        with pytest.raises(BudgetExceeded):
            led.charge("b", 0.5)
        assert led.total_charged == 0.75
        assert len(led.charges) == 1

    def test_rollback_restores_exactly(self):
        led = EnergyLedger("sensor", 1.0)
        led.charge("a", 0.1)
        mark = led.mark()
        led.charge("b", 0.2)
        led.charge("c", 0.3)
        led.rollback(mark)
        assert led.charges == [("a", 0.1)]
        assert led.remaining == led.initial - 0.1

    def test_conservation_is_recomputable(self):
        led = EnergyLedger("hub", 5.0)
        for i in range(1000):
            led.charge("e", 1e-4 * ((i % 7) + 1))
        total = 0.0
        for _, joules in led.charges:
            total += joules
        assert led.total_charged == total            # same fold, bit-exact
        assert led.remaining == led.initial - total

    def test_float_accumulation_drift_justifies_tolerance(self):
        # A million identical charges drift from the closed form by a few
        # ulps; this is why the analytic comparison carries a tolerance.
        led = EnergyLedger("sensor", 1.0)
        charge = 1.1e-7
        n = 10**6
        for _ in range(n):
            led.charge("e", charge)
        closed_form = n * charge
        rel = abs(led.total_charged - closed_form) / closed_form
        assert 0.0 < rel < 1e-9

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger("x", 1.0).charge("bad", -0.1)


class TestRunScenario:
    def test_rf_harvest_te_at_hub_hbc_supports_142(self, scenario_workspace):
        report = run(scenario_workspace)
        assert report.requests_completed == 142
        assert report.analytic["supported_requests"] == 142
        assert set(report.decisions) == {"accept"}
        assert report.refusal == {"node": "sensor", "event": "tx_hbc"}

    def test_clean_channel_matches_analytic_floor(self, scenario_workspace):
        cases = [
            ({"te_location": "sensor", "sensor_power": "coin_cell"}, 122),
            ({"sensor_power": "coin_cell"}, 487),
            ({"te_location": "cloud", "sensor_power": "coin_cell"}, 18),
            ({"on_body_channel": "wban"}, 1),
        ]
        for overrides, expected in cases:
            report = run(scenario_workspace, system=overrides)
            assert report.requests_completed == expected, overrides
            verify = verify_against_analytic(report, P)
            assert verify.applicable and verify.passed, (overrides, verify.details)

    def test_verification_tolerance_1e9(self, scenario_workspace):
        report = run(scenario_workspace)
        verify = verify_against_analytic(report, P, tolerance=1e-9)
        assert verify.passed
        for role in ("sensor", "hub"):
            assert verify.details[role]["rel_err"] <= 1e-9

    def test_ledger_conservation_every_run(self, scenario_workspace):
        report = run(scenario_workspace, system={"sensor_power": "coin_cell",
                                                 "te_location": "sensor"})
        for led in report.ledgers:
            total = 0.0
            for _, joules in led.charges:
                total += joules
            assert led.remaining == led.initial - total
            assert led.remaining >= 0 or math.isinf(led.initial)

    def test_deterministic_reports(self, scenario_workspace):
        a = run(scenario_workspace, channel={"noise_sigma": 0.8, "attenuation": 0.6},
                max_requests=10)
        b = run(scenario_workspace, channel={"noise_sigma": 0.8, "attenuation": 0.6},
                max_requests=10)
        assert a.to_json() == b.to_json()
        assert trace_csv(a) == trace_csv(b)

    def test_zero_budget_sensor_refused_immediately(self, scenario_workspace):
        params = EnergyParams(budget_rf_harvest=0.0)
        report = run(scenario_workspace, params=params)
        assert report.requests_completed == 0
        assert report.refusal == {"node": "sensor", "event": "capture"}
        assert all(led.total_charged == 0.0 for led in report.ledgers)

    def test_enrolled_probe_accepts_foreign_gallery_rejects(self, scenario_workspace, tmp_path):
        accept = run(scenario_workspace, max_requests=1)
        assert accept.decisions == ["accept"]

        # same probe against a gallery that cannot align within tolerances
        foreign = Template(
            width=96, height=72, algorithm=TemplateAlgorithm.HIGH_ACCURACY,
            minutiae=(
                Minutia(x=20, y=20, angle=math.pi / 2, kind=MinutiaKind.BIFURCATION),
                Minutia(x=70, y=50, angle=math.pi / 2, kind=MinutiaKind.BIFURCATION),
            ))
        (tmp_path / "probe.pgm").write_bytes((scenario_workspace / "probe.pgm").read_bytes())
        gal = tmp_path / "gallery"
        gal.mkdir()
        (gal / "mallory.fpt").write_bytes(codec.encode(foreign))
        (gal / "index.json").write_text(json.dumps({"mallory": "mallory.fpt"}))
        path = write_scenario(tmp_path, system=dict(BASE_SYSTEM), max_requests=1)
        reject = run_scenario(ScenarioConfig.from_json(path), P)
        assert reject.decisions == ["reject"]

    def test_retransmission_recovers_request(self, scenario_workspace):
        report = run(scenario_workspace,
                     system={"te_location": "sensor", "sensor_power": "coin_cell"},
                     channel={"attenuation": 0.6, "noise_sigma": 0.8},
                     seed=5, max_requests=40)
        assert report.retransmissions > 0
        assert report.decisions.count("accept") == 40
        verify = verify_against_analytic(report, P)
        assert not verify.applicable
        assert "retransmissions" in verify.reason

    def test_double_failure_aborts_request(self, scenario_workspace):
        report = run(scenario_workspace,
                     system={"te_location": "sensor", "sensor_power": "coin_cell"},
                     channel={"attenuation": 0.6, "noise_sigma": 0.85},
                     seed=5, max_requests=40)
        counts = Counter(report.decisions)
        assert counts["channel_error"] >= 1
        assert report.requests_completed == counts["accept"]
        assert report.requests_attempted == 40

    def test_max_requests_cap(self, scenario_workspace):
        report = run(scenario_workspace, max_requests=5)
        assert report.requests_attempted == 5
        assert report.requests_completed == 5
        verify = verify_against_analytic(report, P)
        assert verify.passed  # count check uses min(cap, floor)

    def test_trace_csv_shape(self, scenario_workspace):
        report = run(scenario_workspace, max_requests=2)
        lines = trace_csv(report).splitlines()
        assert lines[0] == "seq,request,node,event,joules"
        assert len(lines) == 1 + len(report.trace)
        first = lines[1].split(",")
        assert first[2] == "sensor" and first[3] == "capture"

    def test_report_json_schema(self, scenario_workspace):
        report = run(scenario_workspace, max_requests=1)
        doc = json.loads(report.to_json())
        assert {l["role"] for l in doc["ledgers"]} == {"sensor", "hub", "cloud"}
        cloud = next(l for l in doc["ledgers"] if l["role"] == "cloud")
        assert cloud["initial_j"] is None  # unbounded
        assert doc["requests_completed"] == 1
        assert doc["channel"]["retransmissions"] == 0
        assert doc["analytic"]["supported_requests"] == 142

    def test_lightweight_variant_requires_energy(self, scenario_workspace):
        with pytest.raises(Exception):
            run(scenario_workspace, system={"te_variant": "lightweight"})
        params = EnergyParams(e_te_light=0.294)
        report = run(scenario_workspace, system={"te_variant": "lightweight"},
                     params=params, max_requests=2)
        assert report.requests_completed == 2

    # The replay cache carries a WBAN run's later requests without ciphering,
    # so only the first request's two messages are encrypted there.
    @pytest.mark.parametrize("system,channel,extra,messages", [
        ({"te_location": "cloud", "on_body_channel": "wban", "sensor_power": "coin_cell"},
         None, {"cipher_nonce": "FFFFFFFFFFFFFF00"}, 2),
        ({}, {"attenuation": 0.8, "noise_sigma": 0.3}, {}, 3),
    ], ids=["wban_cloud_te", "noisy_hbc"])
    def test_every_message_has_its_own_counter_range(self, scenario_workspace, monkeypatch,
                                                     system, channel, extra, messages):
        calls = []
        real = present.ctr_crypt

        def recording(payload, key, nonce):
            out = real(payload, key, nonce)
            calls.append((payload, nonce, out))
            return out

        monkeypatch.setattr(present, "ctr_crypt", recording)
        report = run(scenario_workspace, system=system, channel=channel, max_requests=3,
                     **extra)
        assert report.requests_completed == 3
        # Each message is encrypted by its sender, then decrypted from the same base.
        assert len(calls) % 2 == 0
        encryptions = calls[0::2]
        for (_, nonce, ct), (received, rx_nonce, _) in zip(encryptions, calls[1::2]):
            assert (received, rx_nonce) == (ct, nonce)
        assert len(encryptions) == messages
        seen: set[int] = set()
        for payload, nonce, _ in encryptions:
            blocks = {(nonce + i) % 2**64 for i in range((len(payload) + 7) // 8)}
            assert not blocks & seen
            seen |= blocks


def _term(label: str) -> str:
    """Closed-form term a ledger label is charged to."""
    if label.startswith(("tx_", "rx_")):
        return "comm"
    return {"capture": "capture", "te_extract": "te", "encrypt": "encrypt"}[label]


@pytest.mark.parametrize("row", sorted(ALLOCATION_ROWS))
def test_ledger_terms_equal_closed_form(scenario_workspace, row):
    te_location, channel = ALLOCATION_ROWS[row]
    report = run(scenario_workspace, max_requests=1, system={
        "te_location": te_location.value, "on_body_channel": channel.value,
        "sensor_power": "coin_cell"})
    assert report.requests_completed == 1 and report.retransmissions == 0
    closed = evaluate(SystemConfig(te_location, channel, SensorType.CAPACITIVE,
                                   PowerSource.COIN_CELL), P)
    for role, breakdown in (("sensor", closed.sensor_breakdown), ("hub", closed.hub_breakdown)):
        terms = dict.fromkeys(("capture", "te", "comm", "encrypt"), 0.0)
        for label, joules in report.ledger(role).charges:
            terms[_term(label)] += joules
        assert terms == {"capture": breakdown.capture, "te": breakdown.te,
                         "comm": breakdown.comm, "encrypt": breakdown.encrypt}, (row, role)


class TestScenarioConfig:
    def test_from_json_defaults(self, scenario_workspace):
        path = write_scenario(scenario_workspace, name="min.json", system=dict(BASE_SYSTEM))
        cfg = ScenarioConfig.from_json(path)
        assert cfg.bit_period == 8
        assert cfg.max_requests is None
        assert cfg.probe_image.is_file()
        assert cfg.gallery_dir.is_dir()

    def test_hex_cipher_fields(self, scenario_workspace):
        path = write_scenario(scenario_workspace, name="hex.json", system=dict(BASE_SYSTEM),
                              cipher_key="0123456789abcdef0123", cipher_nonce="11",
                              max_requests=1)
        cfg = ScenarioConfig.from_json(path)
        assert cfg.cipher_key == 0x0123456789ABCDEF0123
        assert cfg.cipher_nonce == 0x11
        assert run_scenario(cfg, P).requests_completed == 1

    def test_bad_key_rejected(self, scenario_workspace):
        path = write_scenario(scenario_workspace, name="bad.json", system=dict(BASE_SYSTEM),
                              cipher_key="1" * 25)
        with pytest.raises(ValueError):
            ScenarioConfig.from_json(path)
