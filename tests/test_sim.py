import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from wearauth import cli, codec, present, sim
from wearauth.channel import (
    bit_statistics,
    encode_frame,
    highpass_bias,
    receive_decode,
)
from wearauth.design_space import (
    ALLOCATION_ROWS,
    PowerSource,
    SystemConfig,
    evaluate,
)
from wearauth.energy import ConfigError, EnergyParams, SensorType
from wearauth.fingerprint.minutiae import (
    Minutia,
    MinutiaKind,
    Template,
    TemplateAlgorithm,
    extract_template,
)
from wearauth.link import MAX_BIT_PERIOD
from wearauth.sim import (
    MAX_REQUESTS,
    BudgetExceeded,
    EnergyLedger,
    ScenarioConfig,
    run_scenario,
    trace_csv,
    verify_against_analytic,
)

from conftest import write_scenario
from reference_channel import reference_highpass, reference_transmit

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
        assert a.to_dict() == b.to_dict()
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
                     seed=5, max_requests=58)
        assert report.retransmissions > 0
        assert report.decisions.count("accept") == 58
        verify = verify_against_analytic(report, P)
        assert not verify.applicable
        assert "retransmissions" in verify.reason

    def test_double_failure_aborts_request(self, scenario_workspace):
        # Seed 5 loses both frames of request 133 first; a coin cell affords
        # 122 requests with sensor TE, twice one affords 134.
        report = run(scenario_workspace,
                     system={"te_location": "sensor", "sensor_power": "coin_cell"},
                     channel={"attenuation": 0.6, "noise_sigma": 0.85},
                     params=EnergyParams(budget_coin_cell=2 * P.budget_coin_cell),
                     seed=5, max_requests=134)
        counts = Counter(report.decisions)
        assert counts["channel_error"] >= 1
        assert report.requests_completed == counts["accept"]
        assert report.requests_attempted == 134

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
        doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert {l["role"] for l in doc["ledgers"]} == {"sensor", "hub", "cloud"}
        cloud = next(l for l in doc["ledgers"] if l["role"] == "cloud")
        assert cloud["initial_j"] is None  # unbounded
        assert doc["requests_completed"] == 1
        assert doc["channel"]["retransmissions"] == 0
        assert doc["analytic"]["supported_requests"] == 142

    def test_lightweight_variant_requires_energy(self, scenario_workspace, probe_image):
        gallery = scenario_workspace / "gallery_light"
        if not gallery.exists():
            gallery.mkdir()
            template = extract_template(probe_image, TemplateAlgorithm.LIGHTWEIGHT)
            (gallery / "alice.fpt").write_bytes(codec.encode(template))
            (gallery / "index.json").write_text(json.dumps({"alice": "alice.fpt"}))
        light = {"te_variant": "lightweight"}
        with pytest.raises(ConfigError, match="e_te_light"):
            run(scenario_workspace, system=light, gallery_dir="gallery_light")
        params = EnergyParams(e_te_light=0.294)
        report = run(scenario_workspace, system=light, gallery_dir="gallery_light",
                     params=params, max_requests=2)
        assert report.requests_completed == 2
        assert report.decisions == ["accept"] * 2

    def test_lightweight_probe_against_high_accuracy_gallery_is_refused(self,
                                                                        scenario_workspace):
        with pytest.raises(ValueError, match="lightweight probe cannot match"):
            run(scenario_workspace, system={"te_variant": "lightweight"},
                params=EnergyParams(e_te_light=0.294), max_requests=1)

    # The replay cache carries a WBAN run's later requests without ciphering,
    # so only the first request's two messages are ciphered there.  Message m
    # of a run is 2 * request + hop, with hop 0 the WBAN radio and 1 LoRa.
    @pytest.mark.parametrize("system,channel,messages", [
        ({"te_location": "cloud", "on_body_channel": "wban", "sensor_power": "coin_cell"},
         None, [0, 1]),
        ({}, {"attenuation": 0.8, "noise_sigma": 0.3}, [1, 3, 5]),
    ], ids=["wban_cloud_te", "noisy_hbc"])
    def test_every_message_has_its_own_keystream(self, scenario_workspace, monkeypatch,
                                                 system, channel, messages):
        """Each ciphered message makes one ``ctr_crypt`` call, for its
        keystream: zero bytes of the message's length from its own counter
        base, under the run's fixed key.  The ranges are pairwise disjoint."""
        calls = []
        real = present.ctr_crypt

        def recording(payload, key, nonce):
            calls.append((payload, key, nonce))
            return real(payload, key, nonce)

        monkeypatch.setattr(present, "ctr_crypt", recording)
        report = run(scenario_workspace, system=system, channel=channel, max_requests=3)
        assert report.requests_completed == 3
        lengths = (report.payload_bytes_on_body, report.payload_bytes_lora)
        assert calls == [(bytes(lengths[m % 2]), sim.CIPHER_KEY,
                          sim.CIPHER_NONCE + m * sim.COUNTER_BLOCKS_PER_MESSAGE)
                         for m in messages]
        seen: set[int] = set()
        for payload, _, nonce in calls:
            blocks = set(range(nonce, nonce + (len(payload) + 7) // 8))
            assert not blocks & seen
            seen |= blocks


def test_payload_is_built_once_per_run(scenario_workspace, monkeypatch):
    """A noisy sensor-TE HBC run extracts its probe on its first request only.
    Its report and trace equal those of a run that rebuilds the payload on
    every request."""
    path = write_scenario(scenario_workspace, name="payload.json",
                          system=dict(BASE_SYSTEM, te_location="sensor",
                                      sensor_power="coin_cell"),
                          channel={"attenuation": 0.6, "noise_sigma": 1.0}, max_requests=8)
    cfg = ScenarioConfig.from_json(path)
    calls: Counter = Counter()
    monkeypatch.setattr(sim, "extract_template",
                        _counted(calls, "extract_template", sim.extract_template))
    once = run_scenario(cfg, P)
    assert calls["extract_template"] == 1
    data_plane = sim._Runner._run_request_data_plane

    def rebuilding(runner):
        for name in ("_payload", "_clean_link"):
            runner.__dict__.pop(name, None)
        return data_plane(runner)

    monkeypatch.setattr(sim._Runner, "_run_request_data_plane", rebuilding)
    every = run_scenario(cfg, P)
    assert calls["extract_template"] == 1 + 8
    assert once.requests_attempted == 8
    assert 0 < once.requests_completed < 8 and once.retransmissions > 0
    assert once.to_dict() == every.to_dict()
    assert trace_csv(once) == trace_csv(every)


def test_phasor_hum_leaves_decisions_and_ledgers_unchanged(scenario_workspace, monkeypatch):
    """A noisy, high-passed HBC link with hum, run as is and with the per-sample
    ``sin`` transmit (noise-free, as the simulator's clean pass is): the hum
    differs by rounding only, so every decision, score, retransmission, BER
    and ledger is equal, and the eye openings (min/max of the bit
    statistics) agree to 1e-12 relative."""
    channel = {"attenuation": 0.6, "hum_amplitude": 0.5, "noise_sigma": 0.6,
               "highpass_cutoff": 1000.0}
    oracle_calls = []

    def oracle_transmit(symbols, bit_period, channel):
        oracle_calls.append(symbols)
        return reference_transmit(symbols, bit_period, replace(channel, noise_sigma=0.0),
                                  seed=0)

    retransmissions = 0
    for seed in range(4):
        path = write_scenario(scenario_workspace, name="phasor.json", system=dict(
            BASE_SYSTEM, sensor_power="coin_cell"), channel=channel, seed=seed, max_requests=6)
        cfg = ScenarioConfig.from_json(path)
        ours = run_scenario(cfg, P)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "transmit", oracle_transmit)
            oracle = run_scenario(cfg, P)
        assert ours.decisions == oracle.decisions
        assert ours.scores == oracle.scores
        assert ours.retransmissions == oracle.retransmissions
        assert ours.bit_error_rates == oracle.bit_error_rates
        assert [(led.role, led.charges) for led in ours.ledgers] == \
            [(led.role, led.charges) for led in oracle.ledgers]
        assert ours.eye_openings == pytest.approx(oracle.eye_openings, rel=1e-12, abs=0)
        retransmissions += ours.retransmissions
    assert oracle_calls and retransmissions > 0


def test_highpass_scan_leaves_decisions_and_ledgers_unchanged(scenario_workspace, monkeypatch):
    """A noisy, hummed, high-passed HBC link, run as is and with the one-shot
    ``lfilter`` high-pass: the two differ by rounding only, so every decision,
    score, retransmission, BER and ledger is equal, and the eye openings agree
    to 1e-12 relative."""
    channel = {"attenuation": 0.6, "hum_amplitude": 0.5, "noise_sigma": 0.6,
               "highpass_cutoff": 1000.0}
    oracle_calls = []

    def oracle_highpass(*args, **kwargs):
        oracle_calls.append(args)
        return reference_highpass(*args, **kwargs)

    retransmissions = 0
    for seed in range(4):
        path = write_scenario(scenario_workspace, name="scan.json", system=dict(
            BASE_SYSTEM, sensor_power="coin_cell"), channel=channel, seed=seed, max_requests=6)
        cfg = ScenarioConfig.from_json(path)
        ours = run_scenario(cfg, P)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "highpass_bias", oracle_highpass)
            oracle = run_scenario(cfg, P)
        assert ours.decisions == oracle.decisions
        assert ours.scores == oracle.scores
        assert ours.retransmissions == oracle.retransmissions
        assert ours.bit_error_rates == oracle.bit_error_rates
        assert [(led.role, led.charges) for led in ours.ledgers] == \
            [(led.role, led.charges) for led in oracle.ledgers]
        assert ours.eye_openings == pytest.approx(oracle.eye_openings, rel=1e-12, abs=0)
        retransmissions += ours.retransmissions
    assert oracle_calls and retransmissions > 0


def _sample_level_hop(runner, attempt: int) -> tuple[bytes, float, float]:
    """The body-channel hop with the noise drawn per sample, as the simulator
    ran it before drawing the statistics' noise: the reference's noisy
    waveform, high-passed and decoded, seeded by (seed, request, attempt)."""
    cfg = runner.cfg
    symbols = encode_frame(runner._payload)
    w = reference_transmit(symbols, cfg.bit_period, cfg.channel,
                           seed=(cfg.seed, runner.request_idx, attempt))
    if cfg.channel.highpass_cutoff is not None:
        w = highpass_bias(w, cfg.channel.highpass_cutoff)
    decoded, rx = receive_decode(bit_statistics(w, cfg.decode_mode),
                                 reference_bits=symbols[0::2] > 0)
    return decoded, rx.eye_opening, rx.ber


def test_statistic_level_noise_leaves_decisions_and_ledgers_unchanged(scenario_workspace,
                                                                      monkeypatch):
    """The benchmark's link (sigma 0.45) carries every frame: run as is and
    with the sample-level hop, every decision, score, retransmission, BER and
    ledger is equal.  Eye openings are drawn differently, so only their
    count is."""
    channel = {"attenuation": 0.6, "hum_amplitude": 0.5, "noise_sigma": 0.45,
               "highpass_cutoff": 1000.0}
    for seed in range(1, 11):
        path = write_scenario(scenario_workspace, name="statnoise.json", system=dict(
            BASE_SYSTEM, sensor_power="coin_cell"), channel=channel, seed=seed, max_requests=2)
        cfg = ScenarioConfig.from_json(path)
        ours = run_scenario(cfg, P)
        with monkeypatch.context() as patch:
            patch.setattr(sim._Runner, "_body_channel_hop", _sample_level_hop)
            oracle = run_scenario(cfg, P)
        assert ours.decisions == oracle.decisions == ["accept", "accept"]
        assert ours.scores == oracle.scores
        assert ours.retransmissions == oracle.retransmissions == 0
        assert ours.bit_error_rates == oracle.bit_error_rates
        assert [(led.role, led.charges) for led in ours.ledgers] == \
            [(led.role, led.charges) for led in oracle.ledgers]
        assert len(ours.eye_openings) == len(oracle.eye_openings)


def _counted(calls: Counter, name: str, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


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


def _request_events(report) -> list[list[tuple[str, str]]]:
    """Each attempted request's (node, event) sequence, read from the trace."""
    requests: list[list[tuple[str, str]]] = [[] for _ in range(report.requests_attempted)]
    for _, req, node, label, _ in report.trace:
        requests[req].append((node, label))
    return requests


_HBC_ATTEMPT = [("sensor", "tx_hbc"), ("hub", "rx_hbc")]
_UPLINK = [("hub", "encrypt"), ("hub", "tx_lora"), ("cloud", "rx_lora")]


class TestAccounting:
    @pytest.mark.parametrize("system,channel,seed,decision,retransmissions,expected", [
        ({"te_location": "sensor", "on_body_channel": "wban"}, None, 3, "accept", 0,
         [("sensor", "capture"), ("sensor", "te_extract"), ("sensor", "encrypt"),
          ("sensor", "tx_wban"), ("hub", "rx_wban")] + _UPLINK + [("cloud", "match")]),
        # seed 41 loses the first frame of request 0 and recovers on the retransmission
        ({"te_location": "sensor"}, {"attenuation": 0.6, "noise_sigma": 0.8}, 41, "accept", 1,
         [("sensor", "capture"), ("sensor", "te_extract")] + 2 * _HBC_ATTEMPT + _UPLINK
         + [("cloud", "match")]),
        ({}, {"attenuation": 0.0}, 3, "channel_error", 2,
         [("sensor", "capture")] + 2 * _HBC_ATTEMPT),
    ], ids=["row_a_wban", "hbc_one_retransmission", "hbc_channel_error"])
    def test_request_event_sequence(self, scenario_workspace, system, channel, seed,
                                    decision, retransmissions, expected):
        report = run(scenario_workspace, system=dict(system, sensor_power="coin_cell"),
                     channel=channel, seed=seed, max_requests=1)
        assert report.decisions == [decision]
        assert report.retransmissions == retransmissions
        assert _request_events(report) == [expected]

    def test_refused_request_is_charged_nothing(self, scenario_workspace):
        one = run(scenario_workspace, max_requests=1)
        hub_joules = dict(one.ledger("hub").charges)
        # Two whole requests, then the third's rx_hbc fits but its hub te_extract does not.
        budget = (2 * one.ledger("hub").total_charged + hub_joules["rx_hbc"]
                  + hub_joules["te_extract"] / 2)
        report = run(scenario_workspace, params=EnergyParams(budget_hub_total=budget,
                                                             hub_share=1.0))
        assert report.refusal == {"node": "hub", "event": "te_extract"}
        assert report.requests_attempted == 2
        assert {req for _, req, _, _, _ in report.trace} == {0, 1}
        assert [seq for seq, *_ in report.trace] == list(range(len(report.trace)))
        # the refused request's sensor events were affordable, yet none is charged
        assert report.ledger("sensor").charges == 2 * one.ledger("sensor").charges
        for led in report.ledgers:
            assert led.charges == [(label, joules) for _, _, node, label, joules
                                   in report.trace if node == led.role]
            total = 0.0
            for _, joules in led.charges:
                total += joules
            assert led.total_charged == total             # same fold, bit-exact

    @pytest.mark.parametrize("link", ["hbc", "wban"])
    def test_refusal_in_the_events_prefix_skips_the_data_plane(self, scenario_workspace,
                                                                 monkeypatch, link):
        """RF harvesting cannot pay for sensor TE, the second event of every
        request: the run is refused there before any extraction, cipher or
        link pass runs."""
        calls = Counter()
        monkeypatch.setattr(sim, "extract_template",
                            _counted(calls, "extract_template", sim.extract_template))
        monkeypatch.setattr(sim, "transmit", _counted(calls, "transmit", sim.transmit))
        monkeypatch.setattr(present, "ctr_crypt",
                            _counted(calls, "ctr_crypt", present.ctr_crypt))
        report = run(scenario_workspace,
                     system={"te_location": "sensor", "on_body_channel": link},
                     channel={"attenuation": 0.6, "noise_sigma": 0.8})
        assert report.refusal == {"node": "sensor", "event": "te_extract"}
        assert report.requests_attempted == 0 and report.trace == []
        assert calls == {}

    def test_dead_link_stops_at_max_requests(self, scenario_workspace):
        report = run(scenario_workspace, system={"sensor_power": "coin_cell"},
                     channel={"attenuation": 0.0})
        assert MAX_REQUESTS == 65_536
        assert report.requests_attempted == MAX_REQUESTS
        assert report.requests_completed == 0
        assert report.refusal is None
        assert set(report.decisions) == {"channel_error"}

    def test_dead_link_noise_is_replayed_and_never_drawn(self, scenario_workspace, monkeypatch):
        """Attenuation 0 scales the noise to nothing: at sigma 0.8 the report
        equals sigma 0's, the first request is replayed and no normal is
        drawn."""
        draws = Counter()
        monkeypatch.setattr(np.random, "default_rng",
                            _counted(draws, "default_rng", np.random.default_rng))
        monkeypatch.setattr(sim, "receive_decode",
                            _counted(draws, "receive_decode", sim.receive_decode))
        reports = [run(scenario_workspace, system={"sensor_power": "coin_cell"},
                       channel={"attenuation": 0.0, "noise_sigma": sigma}, max_requests=50)
                   for sigma in (0.8, 0.0)]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert set(reports[0].decisions) == {"channel_error"}
        assert draws == {"receive_decode": 4}     # two attempts of one request per run

    def test_failing_link_builds_one_noise_model_and_one_clean_pass(self, scenario_workspace,
                                                                     monkeypatch):
        """Every frame fails at sigma 0.8: 5 requests make 10 attempts, which
        share the run's one noise model and one noise-free pass."""
        calls = Counter()
        for name in ("statistic_noise", "transmit", "noisy_statistics"):
            monkeypatch.setattr(sim, name, _counted(calls, name, getattr(sim, name)))
        report = run(scenario_workspace, system={"sensor_power": "coin_cell"},
                     channel={"attenuation": 0.6, "noise_sigma": 0.8}, max_requests=5)
        assert report.decisions == ["channel_error"] * 5
        assert report.retransmissions == 10
        assert calls == {"statistic_noise": 1, "transmit": 1, "noisy_statistics": 10}

    def test_wban_run_builds_no_noise_model(self, scenario_workspace, monkeypatch):
        """A WBAN run never reaches the body channel's modem, so it builds
        neither the noise model nor the noise-free pass, even where the
        model is largest (the longest bit and a 1 Hz cutoff)."""
        calls = Counter()
        for name in ("statistic_noise", "transmit"):
            monkeypatch.setattr(sim, name, _counted(calls, name, getattr(sim, name)))
        report = run(scenario_workspace,
                     system={"on_body_channel": "wban", "sensor_power": "coin_cell"},
                     channel={"attenuation": 0.6, "noise_sigma": 0.8, "highpass_cutoff": 1.0},
                     bit_period=MAX_BIT_PERIOD, max_requests=3)
        assert report.decisions == ["accept"] * 3
        assert calls == {}

    def test_unbounded_run_is_verified_against_the_cap(self, scenario_workspace):
        params = EnergyParams(budget_coin_cell=1e9, budget_hub_total=1e12)
        report = run(scenario_workspace, system={"te_location": "sensor",
                                                 "on_body_channel": "wban",
                                                 "sensor_power": "coin_cell"}, params=params)
        assert report.analytic["supported_requests"] > MAX_REQUESTS
        assert report.requests_completed == MAX_REQUESTS
        verify = verify_against_analytic(report, params)
        assert verify.passed, verify.details
        assert verify.details["requests"] == {"sim": MAX_REQUESTS, "analytic_floor": MAX_REQUESTS}


class TestScenarioConfig:
    def test_from_json_defaults(self, scenario_workspace):
        path = write_scenario(scenario_workspace, name="min.json", system=dict(BASE_SYSTEM))
        cfg = ScenarioConfig.from_json(path)
        assert cfg.bit_period == 8
        assert cfg.max_requests is None
        assert cfg.probe_image.is_file()
        assert cfg.gallery_dir.is_dir()

    @pytest.mark.parametrize("key,value", [("cipher_key", "0123456789abcdef0123"),
                                           ("cipher_nonce", "11")])
    def test_cipher_settings_are_unknown_keys(self, capsys, scenario_workspace, key, value):
        """Runs cipher with the model's fixed key and counter base."""
        path = write_scenario(scenario_workspace, name="cipher.json", system=dict(BASE_SYSTEM),
                              max_requests=1, **{key: value})
        assert cli.main(["simulate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: unknown key(s) in scenario: {key}")
        assert "Traceback" not in err

    def test_max_requests_bounded(self, scenario_workspace):
        path = write_scenario(scenario_workspace, name="huge.json", system=dict(BASE_SYSTEM),
                              max_requests=MAX_REQUESTS + 1)
        with pytest.raises(ConfigError, match="max_requests"):
            ScenarioConfig.from_json(path)
