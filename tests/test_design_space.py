import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth.design_space import (
    ALLOCATION_ROWS,
    PowerSource,
    SystemConfig,
    TeLocation,
    derive_activities,
    display_count,
    display_rate,
    evaluate,
    figure4_csv,
    figure4_export,
    request_events,
    table2,
    table2_csv,
    table2_json,
)
from wearauth.energy import Channel, EnergyParams, NodeActivity, SensorType, TemplateAlgorithm

P = EnergyParams()


def cfg(te="hub", ch="hbc", sensor="capacitive", power="rf_harvest", **kw):
    return SystemConfig(te_location=TeLocation(te), on_body_channel=Channel(ch),
                        sensor_type=SensorType(sensor), sensor_power=PowerSource(power), **kw)


HIGH = TemplateAlgorithm.HIGH_ACCURACY
WBAN, HBC, LORA = Channel.WBAN, Channel.HBC, Channel.LORA


class TestDeriveActivities:
    # Per-request work of (sensor, hub), row by row: the sensor ships the
    # 1408-bit template when it runs TE and the 320,256-bit image otherwise,
    # encrypting only on WBAN; the hub uplinks the template unless TE runs
    # in the cloud, and always encrypts it.
    @pytest.mark.parametrize("row,sensor,hub", [
        ("a", NodeActivity(captures=1, te_runs={HIGH: 1}, bits_tx={WBAN: 1408},
                           bits_encrypted=1408),
         NodeActivity(bits_rx={WBAN: 1408}, bits_tx={LORA: 1408}, bits_encrypted=1408,
                      lora_distance=1000.0)),
        ("b", NodeActivity(captures=1, te_runs={HIGH: 1}, bits_tx={HBC: 1408}),
         NodeActivity(bits_rx={HBC: 1408}, bits_tx={LORA: 1408}, bits_encrypted=1408,
                      lora_distance=1000.0)),
        ("c", NodeActivity(captures=1, bits_tx={WBAN: 320256}, bits_encrypted=320256),
         NodeActivity(te_runs={HIGH: 1}, bits_rx={WBAN: 320256}, bits_tx={LORA: 1408},
                      bits_encrypted=1408, lora_distance=1000.0)),
        ("d", NodeActivity(captures=1, bits_tx={HBC: 320256}),
         NodeActivity(te_runs={HIGH: 1}, bits_rx={HBC: 320256}, bits_tx={LORA: 1408},
                      bits_encrypted=1408, lora_distance=1000.0)),
        ("e", NodeActivity(captures=1, bits_tx={WBAN: 320256}, bits_encrypted=320256),
         NodeActivity(bits_rx={WBAN: 320256}, bits_tx={LORA: 320256}, bits_encrypted=320256,
                      lora_distance=1000.0)),
        ("f", NodeActivity(captures=1, bits_tx={HBC: 320256}),
         NodeActivity(bits_rx={HBC: 320256}, bits_tx={LORA: 320256}, bits_encrypted=320256,
                      lora_distance=1000.0)),
    ])
    def test_every_row(self, row, sensor, hub):
        te_location, channel = ALLOCATION_ROWS[row]
        assert derive_activities(cfg(te_location.value, channel.value), P) == (sensor, hub)

    def test_six_rows_enumerate_the_space(self):
        assert len(ALLOCATION_ROWS) == 6
        seen = {(loc, ch) for loc, ch in ALLOCATION_ROWS.values()}
        assert len(seen) == 6
        assert cfg("hub", "hbc").row == "d"
        assert cfg("sensor", "wban").row == "a"


def _labels(events) -> list[tuple[str, str]]:
    return [(node, label) for node, label, _ in events]


class TestRequestEvents:
    @pytest.mark.parametrize("row", sorted(ALLOCATION_ROWS))
    @pytest.mark.parametrize("variant", list(TemplateAlgorithm))
    @pytest.mark.parametrize("sensor", ["capacitive", "optical"])
    def test_per_node_sums_equal_derive_activities(self, row, variant, sensor):
        te_location, channel = ALLOCATION_ROWS[row]
        config = cfg(te_location.value, channel.value, sensor, te_variant=variant)
        totals = {}
        for node, _, work in request_events(config, P):
            t = totals.setdefault(node, {"captures": 0, "te_runs": Counter(),
                                         "bits_rx": Counter(), "bits_tx": Counter(),
                                         "bits_encrypted": 0, "lora_distance": set()})
            t["captures"] += work.captures
            t["bits_encrypted"] += work.bits_encrypted
            for name in ("te_runs", "bits_rx", "bits_tx"):
                t[name].update(getattr(work, name))
            if work.lora_distance is not None:
                t["lora_distance"].add(work.lora_distance)
        for node, activity in zip(("sensor", "hub"), derive_activities(config, P)):
            assert totals[node] == {
                "captures": activity.captures, "te_runs": Counter(activity.te_runs),
                "bits_rx": Counter(activity.bits_rx), "bits_tx": Counter(activity.bits_tx),
                "bits_encrypted": activity.bits_encrypted,
                "lora_distance": {activity.lora_distance} - {None}}, (row, node)
        assert set(totals) == {"sensor", "hub", "cloud"}

    @pytest.mark.parametrize("row", sorted(ALLOCATION_ROWS))
    def test_second_attempt_adds_one_hbc_pair(self, row):
        te_location, channel = ALLOCATION_ROWS[row]
        config = cfg(te_location.value, channel.value)
        once = _labels(request_events(config, P))
        twice = _labels(request_events(config, P, attempts=2))
        if channel is Channel.WBAN:
            assert twice == once
        else:
            pair = [("sensor", "tx_hbc"), ("hub", "rx_hbc")]
            hop = once.index(pair[0])
            assert once[hop:hop + 2] == pair
            assert twice == once[:hop + 2] + pair + once[hop + 2:]

    @pytest.mark.parametrize("row", sorted(ALLOCATION_ROWS))
    @pytest.mark.parametrize("attempts", [1, 2])
    def test_incomplete_request_stops_after_the_on_body_hop(self, row, attempts):
        te_location, channel = ALLOCATION_ROWS[row]
        config = cfg(te_location.value, channel.value)
        cut = _labels(request_events(config, P, attempts, completed=False))
        whole = _labels(request_events(config, P, attempts))
        assert cut == whole[:len(cut)]
        assert cut[-1] == ("hub", f"rx_{channel.value}")
        assert whole[len(cut)] in (("hub", "te_extract"), ("hub", "encrypt"))
        assert whole[-1] == ("cloud", "match")


class TestEvaluate:
    @pytest.mark.parametrize("sensor,expected_floor", [("optical", 119), ("capacitive", 122)])
    @pytest.mark.parametrize("ch", ["wban", "hbc"])
    def test_coin_cell_te_at_sensor(self, sensor, expected_floor, ch):
        rep = evaluate(cfg("sensor", ch, sensor, "coin_cell"), P)
        assert math.floor(rep.sensor_retries) == expected_floor

    def test_harvest_te_at_hub_rates(self):
        hbc = evaluate(cfg("hub", "hbc", "capacitive", "rf_harvest"), P)
        wban = evaluate(cfg("hub", "wban", "capacitive", "rf_harvest"), P)
        assert display_rate(hbc.sensor_retries) == "142.2"
        assert display_rate(wban.sensor_retries) == "1.11"

    @pytest.mark.parametrize("ch", ["wban", "hbc"])
    def test_hub_lifetime_te_at_cloud(self, ch):
        rep = evaluate(cfg("cloud", ch, lora_distance=1000.0), P)
        assert math.floor(rep.hub_retries) == 18

    @pytest.mark.parametrize("ch", ["wban", "hbc"])
    def test_hub_lifetime_te_at_hub(self, ch):
        # Closed form gives ~487.5; the published 483 is matched within 1.5%
        # (the paper's exact hub accounting is not fully stated).
        rep = evaluate(cfg("hub", ch, lora_distance=1000.0), P)
        assert abs(rep.hub_retries - 483) / 483 <= 0.015
        expected = P.hub_budget / (2.94 + P.image_bits * {"wban": 10e-9, "hbc": 79e-12}[ch]
                                   + 1408 * 100e-12 + 1408 * 272e-6)
        assert rep.hub_retries == pytest.approx(expected, rel=1e-12)

    def test_breakdown_sums(self):
        rep = evaluate(cfg("hub", "hbc"), P)
        bd = rep.sensor_breakdown
        assert bd.total == bd.capture + bd.te + bd.comm + bd.encrypt

    def test_feasibility_flag(self):
        assert not evaluate(cfg("sensor", "hbc", "optical", "rf_harvest"), P).feasible
        assert evaluate(cfg("hub", "hbc", "capacitive", "rf_harvest"), P).feasible


class TestTable2:
    def test_matches_published_matrix(self):
        grid = table2(P)
        assert [display_rate(v) for v in grid["optical"]] == ["0.001", "0.001", "0.05", "0.05"]
        assert [display_rate(v) for v in grid["capacitive"]] == ["0.001", "0.001", "1.11", "142.2"]

    def test_doubled_harvest_budget_doubles_every_entry(self):
        doubled = EnergyParams(budget_rf_harvest=2 * P.budget_rf_harvest)
        base = table2(P)
        twice = table2(doubled)
        for sensor in base:
            for a, b in zip(base[sensor], twice[sensor]):
                assert b == pytest.approx(2 * a, rel=1e-12)

    def test_cells_equal_evaluate_composition(self):
        grid = table2(P)
        rep = evaluate(cfg("hub", "hbc", "capacitive", "rf_harvest"), P)
        assert grid["capacitive"][3] == rep.sensor_retries

    def test_csv_golden(self):
        assert table2_csv(P) == (
            "sensor,te_sensor_wban,te_sensor_hbc,te_hub_wban,te_hub_hbc\n"
            "optical,0.001,0.001,0.05,0.05\n"
            "capacitive,0.001,0.001,1.11,142.2\n"
        )

    def test_json_shape(self):
        import json
        doc = json.loads(table2_json(P))
        assert doc["capacitive"]["hub_hbc"] == "142.2"
        assert doc["optical"]["sensor_wban"] == "0.001"


class TestFigure4:
    def test_coin_cell_capacitive_te_sensor(self):
        recs = [r for r in figure4_export(P)
                if r["sensor"] == "capacitive" and r["te_location"] == "sensor"
                and r["power"] == "coin_cell"]
        assert {r["retries_display"] for r in recs} == {"122"}

    def test_optical_no_te_coin_cell_is_about_5k(self):
        expected = {
            "wban": 360.0 / (66e-3 + 320256 * (10e-9 + 100e-12)),
            "hbc": 360.0 / (66e-3 + 320256 * 79e-12),
        }
        recs = {r["channel"]: r for r in figure4_export(P)
                if r["sensor"] == "optical" and r["te_location"] == "hub"
                and r["power"] == "coin_cell"}
        for ch, rec in recs.items():
            assert rec["retries"] == pytest.approx(expected[ch], rel=1e-9)
            assert 5000 <= rec["retries"] <= 5500

    def test_zero_budgets_give_zero_retries(self):
        params = EnergyParams(budget_rf_harvest=0.0, budget_coin_cell=0.0)
        assert all(r["retries"] == 0.0 for r in figure4_export(params))

    def test_record_count_and_breakdown_sum(self):
        recs = figure4_export(P)
        assert len(recs) == 16
        for r in recs:
            assert r["total_j"] == pytest.approx(
                r["capture_j"] + r["te_j"] + r["comm_j"] + r["encrypt_j"], rel=1e-12)

    def test_csv_header_stable(self):
        lines = figure4_csv(P).splitlines()
        assert lines[0] == ("sensor,te_location,channel,power,capture_j,te_j,"
                            "comm_j,encrypt_j,total_j,retries,retries_display")
        assert len(lines) == 17


class TestInvariants:
    @pytest.mark.parametrize("te", ["sensor", "hub", "cloud"])
    @pytest.mark.parametrize("sensor", ["optical", "capacitive"])
    @pytest.mark.parametrize("power", ["rf_harvest", "coin_cell"])
    def test_hbc_always_beats_wban_for_the_sensor(self, te, sensor, power):
        hbc = evaluate(cfg(te, "hbc", sensor, power), P).sensor_retries
        wban = evaluate(cfg(te, "wban", sensor, power), P).sensor_retries
        assert hbc > wban

    def test_te_at_hub_beats_te_at_cloud_for_the_hub_at_1km(self):
        at_hub = evaluate(cfg("hub", "hbc"), P).hub_retries
        at_cloud = evaluate(cfg("cloud", "hbc"), P).hub_retries
        # holds whenever shipping the raw image over LoRa costs more than
        # extraction plus the template uplink
        assert P.image_bits * 272e-6 > 2.94 + P.template_bits * 272e-6
        assert at_hub > at_cloud

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_argmax_invariant_under_budget_scaling(self, k):
        def best(params):
            grid = [(row, evaluate(cfg(loc.value, ch.value, "capacitive", "rf_harvest"),
                                   params).sensor_retries)
                    for row, (loc, ch) in ALLOCATION_ROWS.items()]
            return max(grid, key=lambda t: t[1])[0]

        scaled = EnergyParams(budget_rf_harvest=P.budget_rf_harvest * k,
                              budget_coin_cell=P.budget_coin_cell * k,
                              budget_hub_total=P.budget_hub_total * k)
        assert best(scaled) == best(P)

    def test_display_rounding_tiers(self):
        assert display_rate(0.0012245) == "0.001"
        assert display_rate(0.0545) == "0.05"
        assert display_rate(1.11296) == "1.11"
        assert display_rate(142.166) == "142.2"
        assert display_count(119.98) == "119"
        assert display_count(5452.46) == "5452"
        assert display_count(float("inf")) == "inf"
