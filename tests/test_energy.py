import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth.energy import (
    Channel,
    ConfigError,
    EnergyParams,
    NodeActivity,
    SensorType,
    TemplateAlgorithm,
    energy_breakdown,
    lora_energy_per_bit,
    retries,
)

P = EnergyParams()


class TestEnergyParams:
    def test_published_defaults(self):
        assert P.e_bit_wban == 10e-9
        assert P.e_bit_hbc == 79e-12
        assert P.e_bit_lora_ref == 68e-6
        assert P.d_ref == 500.0
        assert P.e_bit_encrypt == 100e-12
        assert P.e_capture_capacitive == 22.3e-9
        assert P.e_capture_optical == 66e-3
        assert P.e_te_high == 2.94
        assert P.e_te_light is None
        assert P.image_bits == 320256
        assert P.template_bits == 1408

    def test_budgets_are_converted_watt_hours(self):
        assert P.budget_rf_harvest == 1e-6 * 3600.0
        assert P.budget_coin_cell == 100e-3 * 3600.0
        assert P.budget_hub_total == 4.5 * 3600.0
        assert P.hub_budget == pytest.approx(1620.0)

    def test_per_bit_cost_ordering(self):
        assert P.e_bit_hbc < P.e_bit_wban < P.e_bit_lora_ref

    def test_full_image_hbc_costs_more_than_wban_template(self):
        # 25.3 uJ for the raw image over HBC vs 14.2 uJ for the template over
        # WBAN including encryption: compression wins even against the cheap link.
        hbc_image = P.image_bits * P.e_bit_hbc
        wban_template = P.template_bits * (P.e_bit_wban + P.e_bit_encrypt)
        assert hbc_image == pytest.approx(25.3e-6, rel=1e-3)
        assert wban_template == pytest.approx(14.2e-6, rel=1e-2)
        assert hbc_image > wban_template

    @pytest.mark.parametrize("field,value", [
        ("e_bit_wban", 0.0),
        ("e_bit_hbc", -1e-12),
        ("e_te_high", 0.0),
        ("d_ref", 0.0),
        ("hub_share", 0.0),
        ("hub_share", 1.5),
        ("e_te_light", -0.1),
        ("template_bits", 0),
        ("template_bits", -1),
        ("template_bits", 1408.9),
        ("template_bits", True),
        ("image_bits", 320256.0),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ValueError):
            EnergyParams(**{field: value})

    def test_image_must_exceed_template(self):
        with pytest.raises(ValueError):
            EnergyParams(image_bits=100, template_bits=1408)

    @pytest.mark.parametrize("field", ["image_bits", "template_bits"])
    @pytest.mark.parametrize("value", ["1408.9", "1408.5", "0", "-0.0", "-0.5", "-1408"])
    def test_from_file_refuses_bit_counts_that_are_not_positive_integers(self, tmp_path,
                                                                         field, value):
        """A bit count is a whole positive number; the error names the file and line."""
        cfg = tmp_path / "params.cfg"
        cfg.write_text(f"hub_share = 0.25\n{field} = {value}\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(cfg))}:2: {field} must be a positive integer"):
            EnergyParams.from_file(cfg)

    def test_from_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(
            "# override two constants\n"
            "e_te_light = 0.294\n"
            "hub_share = 0.25\n"
            "\n"
            "image_bits = 320256  # unchanged\n"
            "template_bits = 1.408e3\n"
        )
        loaded = EnergyParams.from_file(cfg)
        assert type(loaded.template_bits) is int and loaded.template_bits == 1408
        assert loaded.e_te_light == 0.294
        assert loaded.hub_share == 0.25
        assert loaded.e_bit_wban == P.e_bit_wban

    def test_from_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("no_such_field = 3\n")
        with pytest.raises(ConfigError):
            EnergyParams.from_file(cfg)

    def test_from_file_bad_number(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("e_te_high = not-a-number\n")
        with pytest.raises(ConfigError):
            EnergyParams.from_file(cfg)

    @pytest.mark.parametrize("field", ["budget_rf_harvest", "e_bit_hbc", "e_te_light",
                                       "hub_share", "image_bits"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, tmp_path, field, value):
        with pytest.raises(ValueError, match="finite"):
            EnergyParams(**{field: value})
        cfg = tmp_path / "params.cfg"
        cfg.write_text(f"{field} = {value}\n")
        with pytest.raises(ConfigError, match="finite"):
            EnergyParams.from_file(cfg)


class TestLoraEnergyPerBit:
    def test_reference_distance_is_exact(self):
        assert lora_energy_per_bit(500.0, P) == 68e-6

    def test_one_kilometre(self):
        # quadratic scaling: doubling the distance quadruples the cost
        assert lora_energy_per_bit(1000.0, P) == pytest.approx(68e-6 * 4, rel=1e-12)
        assert lora_energy_per_bit(1000.0, P) == pytest.approx(272e-6, rel=1e-12)

    def test_quarter_kilometre(self):
        assert lora_energy_per_bit(250.0, P) == pytest.approx(68e-6 * 0.25, rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, -5.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(ValueError):
            lora_energy_per_bit(d, P)

    @pytest.mark.parametrize("d,params", [
        (1e308, P),                                       # the float ** raises
        (math.inf, P),
        (1000.0, EnergyParams(d_ref=1e-300)),
        (5e8, EnergyParams(e_bit_lora_ref=1e300)),        # finite square, infinite product
    ], ids=["distance_huge", "distance_inf", "d_ref_tiny", "product_overflows"])
    def test_overflow_is_value_error(self, d, params):
        with pytest.raises(ValueError, match="overflows"):
            lora_energy_per_bit(d, params)

    @given(st.floats(min_value=1.0, max_value=50_000.0))
    def test_doubling_distance_quadruples(self, d):
        assert lora_energy_per_bit(2 * d, P) == pytest.approx(
            4 * lora_energy_per_bit(d, P), rel=1e-12)


class TestNodeEnergy:
    def test_sensor_with_te_over_hbc(self):
        activity = NodeActivity(captures=1, te_runs={TemplateAlgorithm.HIGH_ACCURACY: 1},
                                bits_tx={Channel.HBC: 1408})
        expected = 22.3e-9 + 2.94 + 1408 * 79e-12
        got = energy_breakdown(activity, SensorType.CAPACITIVE, P).total
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.94, rel=1e-4)

    def test_empty_activity_is_free(self):
        assert energy_breakdown(NodeActivity(), SensorType.CAPACITIVE, P).total == 0.0

    def test_hub_role_with_lora_uplink(self):
        activity = NodeActivity(
            te_runs={TemplateAlgorithm.HIGH_ACCURACY: 1},
            bits_rx={Channel.HBC: 320256},
            bits_encrypted=1408,
            bits_tx={Channel.LORA: 1408},
            lora_distance=1000.0,
        )
        expected = 2.94 + 320256 * 79e-12 + 1408 * 100e-12 + 1408 * 272e-6
        got = energy_breakdown(activity, SensorType.NONE, P).total
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(3.323, abs=5e-4)

    def test_capture_free_for_hub_role(self):
        activity = NodeActivity(captures=3)
        assert energy_breakdown(activity, SensorType.NONE, P).total == 0.0

    def test_lightweight_without_energy_is_config_error(self):
        activity = NodeActivity(te_runs={TemplateAlgorithm.LIGHTWEIGHT: 1})
        with pytest.raises(ConfigError):
            energy_breakdown(activity, SensorType.CAPACITIVE, P).total
        params = EnergyParams(e_te_light=0.294)
        assert energy_breakdown(activity, SensorType.CAPACITIVE, params).total == 0.294

    def test_lora_bits_without_distance(self):
        activity = NodeActivity(bits_tx={Channel.LORA: 100})
        with pytest.raises(ValueError):
            energy_breakdown(activity, SensorType.NONE, P).total

    def test_lora_receive_is_free_at_cloud(self):
        activity = NodeActivity(bits_rx={Channel.LORA: 320256})
        assert energy_breakdown(activity, SensorType.NONE, P).total == 0.0

    def test_breakdown_terms_sum_to_total(self):
        activity = NodeActivity(captures=2, te_runs={TemplateAlgorithm.HIGH_ACCURACY: 1},
                                bits_tx={Channel.WBAN: 5000},
                                bits_rx={Channel.HBC: 700}, bits_encrypted=5000)
        bd = energy_breakdown(activity, SensorType.OPTICAL, P)
        assert bd.total == bd.capture + bd.te + bd.comm + bd.encrypt

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            NodeActivity(captures=-1)
        with pytest.raises(ValueError):
            NodeActivity(bits_tx={Channel.HBC: -5})
        with pytest.raises(ValueError):
            NodeActivity(te_runs={TemplateAlgorithm.LIGHTWEIGHT: -1})

    def test_sum_adds_every_count_and_keeps_the_first_lora_distance(self):
        high, light = TemplateAlgorithm.HIGH_ACCURACY, TemplateAlgorithm.LIGHTWEIGHT
        a = NodeActivity(captures=1, te_runs={high: 1}, bits_tx={Channel.HBC: 7},
                         bits_encrypted=3)
        b = NodeActivity(te_runs={high: 1, light: 2}, bits_rx={Channel.HBC: 7},
                         bits_tx={Channel.HBC: 1, Channel.LORA: 5}, lora_distance=900.0)
        assert a + b == NodeActivity(captures=1, te_runs={high: 2, light: 2},
                                     bits_rx={Channel.HBC: 7},
                                     bits_tx={Channel.HBC: 8, Channel.LORA: 5},
                                     bits_encrypted=3, lora_distance=900.0)
        assert b + a == a + b
        assert a + NodeActivity() == a
        assert (b + replace(b, lora_distance=901.0)).lora_distance == 900.0


_activities = st.builds(
    NodeActivity,
    captures=st.integers(0, 5),
    te_runs=st.fixed_dictionaries(
        {}, optional={variant: st.integers(0, 3) for variant in TemplateAlgorithm}),
    bits_tx=st.fixed_dictionaries(
        {}, optional={Channel.WBAN: st.integers(0, 10**6), Channel.HBC: st.integers(0, 10**6)}),
    bits_rx=st.fixed_dictionaries(
        {}, optional={Channel.WBAN: st.integers(0, 10**6), Channel.HBC: st.integers(0, 10**6)}),
    bits_encrypted=st.integers(0, 10**6),
)


class TestEnergyProperties:
    @given(_activities, st.integers(1, 4), st.sampled_from(TemplateAlgorithm))
    @settings(max_examples=60)
    def test_monotone_in_counts(self, a, extra, variant):
        params = EnergyParams(e_te_light=0.294)
        base = energy_breakdown(a, SensorType.OPTICAL, params).total
        te_runs = dict(a.te_runs)
        te_runs[variant] = te_runs.get(variant, 0) + extra
        more = replace(a, captures=a.captures + extra, te_runs=te_runs,
                       bits_encrypted=a.bits_encrypted + extra)
        assert energy_breakdown(more, SensorType.OPTICAL, params).total > base


class TestRetries:
    def test_coin_cell_te_at_sensor_rate(self):
        r = retries(360.0, 3.00607)
        assert round(r, 2) == 119.76
        assert math.floor(r) == 119

    @given(st.floats(min_value=1e-9, max_value=1e9))
    def test_equal_energies_give_one(self, x):
        assert retries(x, x) == 1.0

    def test_harvest_rate_from_summary_table(self):
        assert round(retries(3.6e-3, 25.32e-6), 1) == 142.2

    @pytest.mark.parametrize("per_request", [0.0, -1.0])
    def test_nonpositive_per_request_rejected(self, per_request):
        with pytest.raises(ValueError):
            retries(1.0, per_request)

    def test_negative_available_rejected(self):
        with pytest.raises(ValueError):
            retries(-1.0, 1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=80)
    def test_scale_invariance(self, available, per_request, k):
        assert retries(k * available, k * per_request) == pytest.approx(
            retries(available, per_request), rel=1e-9)
