import json

import numpy as np
import pytest

from wearauth import codec
from wearauth.cli import main
from wearauth.fingerprint import GrayImage, write_pgm

from conftest import write_scenario
from patterns import stripe_image


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable2:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sensor,te_sensor_wban,te_sensor_hbc,te_hub_wban,te_hub_hbc"
        assert lines[2] == "capacitive,0.001,0.001,1.11,142.2"

    def test_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--json")
        assert code == 0
        assert json.loads(out)["capacitive"]["hub_hbc"] == "142.2"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t2.csv"
        code, out, _ = run_cli(capsys, "table2", "-o", str(target))
        assert code == 0
        assert out == ""
        assert "142.2" in target.read_text()

    def test_params_override(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("budget_rf_harvest = 7.2e-3\n")  # doubled harvest budget
        code, out, _ = run_cli(capsys, "table2", "--params", str(cfg))
        assert code == 0
        assert out.splitlines()[2].endswith("284.3")

    def test_bad_params_file_is_domain_error(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("bogus_key = 1\n")
        code, _, err = run_cli(capsys, "table2", "--params", str(cfg))
        assert code == 1
        assert "error:" in err


@pytest.mark.parametrize("line", ["budget_rf_harvest = nan", "e_bit_hbc = inf"])
@pytest.mark.parametrize("command", [("table2", "--json"), ("explore",), ("simulate",)])
def test_non_finite_params_are_domain_error(capsys, tmp_path, scenario_workspace, line, command):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(line + "\n")
    argv = [*command, "--params", str(cfg)]
    if command == ("simulate",):
        argv.append(str(write_scenario(scenario_workspace, name="finite.json", system={
            "te_location": "hub", "on_body_channel": "hbc"}, max_requests=1)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


class TestFigure4AndExplore:
    def test_figure4_csv(self, capsys):
        code, out, _ = run_cli(capsys, "figure4")
        assert code == 0
        assert len(out.splitlines()) == 17

    def test_explore_default_json(self, capsys):
        code, out, _ = run_cli(capsys, "explore")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["te_location"] == "hub"
        assert doc["sensor"]["retries_display"] == "142.2"

    def test_explore_flags(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "--te", "cloud", "--channel", "wban",
                               "--sensor", "optical", "--power", "coin_cell",
                               "--distance", "2000")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["lora_distance_m"] == 2000.0
        assert doc["hub"]["retries_display"] == "4"

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestExtractAndMatch:
    def test_extract_blank_pgm_writes_header_only_template(self, capsys, tmp_path):
        blank = GrayImage(np.full((32, 32), 200, dtype=np.uint8))
        write_pgm(blank, tmp_path / "blank.pgm")
        out_path = tmp_path / "blank.fpt"
        code, _, err = run_cli(capsys, "extract", str(tmp_path / "blank.pgm"),
                               "-o", str(out_path), "--algo", "high")
        assert code == 0
        assert out_path.read_bytes() == b"FPT\x01\x00\x00\x08\x08"
        assert len(out_path.read_bytes()) == 8

    def test_extract_raw_blob(self, capsys, tmp_path):
        img = stripe_image(64, 48)
        raw = tmp_path / "img.raw"
        raw.write_bytes(img.to_raw())
        out_path = tmp_path / "t.fpt"
        code, _, _ = run_cli(capsys, "extract", str(raw), "-o", str(out_path),
                             "--raw-width", "64", "--raw-height", "48", "--algo", "light")
        assert code == 0
        assert out_path.read_bytes()[:4] == b"FPT\x01"

    def test_extract_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "extract", str(tmp_path / "nope.pgm"),
                               "-o", str(tmp_path / "x.fpt"))
        assert code == 1
        assert "error:" in err

    def test_match_against_gallery(self, capsys, tmp_path, probe_image):
        from wearauth.fingerprint import TemplateAlgorithm, extract_template
        template = extract_template(probe_image, TemplateAlgorithm.HIGH_ACCURACY)
        (tmp_path / "probe.fpt").write_bytes(codec.encode(template))
        gal = tmp_path / "gallery"
        gal.mkdir()
        (gal / "alice.fpt").write_bytes(codec.encode(template))
        (gal / "index.json").write_text(json.dumps({"alice": "alice.fpt"}))
        code, out, _ = run_cli(capsys, "match", str(tmp_path / "probe.fpt"), str(gal))
        assert code == 0
        results = json.loads(out)
        assert results[0]["label"] == "alice"
        assert results[0]["decision"] == "accept"

    @pytest.mark.parametrize("flag", ["--position-tolerance", "--angle-tolerance",
                                      "--threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_match_non_finite_parameter_is_domain_error(self, capsys, tmp_path, flag, value):
        from wearauth.fingerprint import Template, TemplateAlgorithm
        probe = tmp_path / "probe.fpt"
        probe.write_bytes(codec.encode(Template(10, 10, TemplateAlgorithm.HIGH_ACCURACY)))
        gal = tmp_path / "gallery"
        gal.mkdir()
        (gal / "index.json").write_text("{}")
        code, out, err = run_cli(capsys, "match", str(probe), str(gal), flag, value)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_match_corrupt_probe_is_domain_error(self, capsys, tmp_path):
        (tmp_path / "bad.fpt").write_bytes(b"garbage")
        gal = tmp_path / "gallery"
        gal.mkdir()
        (gal / "index.json").write_text("{}")
        code, _, err = run_cli(capsys, "match", str(tmp_path / "bad.fpt"), str(gal))
        assert code == 1


class TestCrypt:
    def test_encrypt_decrypt_roundtrip(self, capsys, tmp_path):
        data = bytes(range(256)) + b"tail"
        src = tmp_path / "plain.bin"
        src.write_bytes(data)
        ct = tmp_path / "ct.bin"
        pt = tmp_path / "pt.bin"
        key, nonce = "0123456789abcdef0123", "00ff00ff00ff00ff"
        assert run_cli(capsys, "encrypt", str(src), str(ct), "--key", key, "--nonce", nonce)[0] == 0
        assert ct.read_bytes() != data
        assert run_cli(capsys, "decrypt", str(ct), str(pt), "--key", key, "--nonce", nonce)[0] == 0
        assert pt.read_bytes() == data


class TestChannelSweep:
    def test_csv_output_and_determinism(self, capsys):
        args = ("channel-sweep", "--hum", "0,1,2", "--noise", "0.8",
                "--bit-period", "32", "--seed", "9", "--payload-bytes", "32")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        lines = out1.splitlines()
        assert lines[0] == "hum_amplitude,mode,ber,eye_opening"
        assert len(lines) == 1 + 3 * 2
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_empty_hum_list_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "channel-sweep", "--hum", ",")
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ("--payload-bytes", "70000"),      # longer than the 16-bit length field
        ("--payload-bytes", "-1"),
        ("--payload-bytes", str(10**15)),  # refused before a byte is allocated
        ("--bit-period", "1048576"),       # a waveform past channel.MAX_SAMPLES
    ], ids=["payload_too_long", "payload_negative", "payload_huge", "bit_period_huge"])
    def test_unframeable_sweep_is_domain_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "channel-sweep", "--hum", "0", *flags)
        assert code == 1
        assert out == ""
        assert "error:" in err


class TestSimulate:
    def test_scenario_run_with_trace(self, capsys, tmp_path, scenario_workspace):
        path = write_scenario(scenario_workspace, name="cli.json", system={
            "te_location": "hub", "on_body_channel": "hbc",
            "sensor_type": "capacitive", "sensor_power": "rf_harvest",
        }, max_requests=3)
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "simulate", str(path), "--trace", str(trace))
        assert code == 0
        doc = json.loads(out)
        assert doc["requests_completed"] == 3
        assert doc["verification"]["passed"] is True
        assert trace.read_text().startswith("seq,request,node,event,joules")

    @pytest.mark.parametrize("block", [
        {"rotation_range": float("inf")},      # rotations() would overflow
        {"rotation_step": float("nan")},
        {"position_tolerance": float("nan")},
        {"rotation_step": 1e-12},              # a grid of ~5e11 angles
        {"angle_tolerance": "wide"},
    ])
    def test_degenerate_match_block_is_domain_error(self, capsys, scenario_workspace, block):
        path = write_scenario(scenario_workspace, name="bad_match.json", system={
            "te_location": "hub", "on_body_channel": "hbc",
        }, max_requests=1, match=block)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(channel={"noise": 0.3}),
        lambda doc: doc.update(max_requests="3"),
        lambda doc: doc.update(match={"bogus": 1}),
        lambda doc: doc.update(match=[1]),
        lambda doc: doc.update(system=None),
        lambda doc: [doc],
        # a WBAN run never decodes, so only the parser can catch this
        lambda doc: doc.update(decode_mode="nope",
                               system={"te_location": "hub", "on_body_channel": "wban"}),
        lambda doc: doc["system"].update(bogus=1),
        lambda doc: doc.update(seed=True),
        lambda doc: doc.update(bit_period=8.0),
        lambda doc: doc.update(max_requests=-1),
        lambda doc: {key: value for key, value in doc.items() if key != "gallery_dir"},
        lambda doc: doc.update(probe_image=5),
        lambda doc: doc["system"].update(lora_distance=None),
        lambda doc: doc.update(channel={"attenuation": "half"}),
        lambda doc: doc.update(cipher_key=1.5),
        lambda doc: doc.update(bit_period=1048576),    # a waveform past channel.MAX_SAMPLES
    ], ids=["channel_key", "max_requests_str", "match_key", "match_list", "system_null",
            "top_level_list", "decode_mode", "system_key", "seed_bool", "bit_period_float",
            "max_requests_negative", "gallery_missing", "probe_int", "lora_distance_null",
            "channel_str", "cipher_key_float", "bit_period_huge"])
    def test_malformed_scenario_is_domain_error(self, capsys, scenario_workspace, edit):
        doc = {"system": {"te_location": "hub", "on_body_channel": "hbc"},
               "probe_image": "probe.pgm", "gallery_dir": "gallery", "max_requests": 1}
        doc = edit(doc) or doc
        path = scenario_workspace / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_unframeable_capture_is_domain_error(self, capsys, scenario_workspace):
        # A 300x300 capture does not fit the body channel's 16-bit length field.
        write_pgm(GrayImage(np.zeros((300, 300), dtype=np.uint8)),
                  scenario_workspace / "big_probe.pgm")
        path = write_scenario(scenario_workspace, name="big_probe.json", system={
            "te_location": "hub", "on_body_channel": "hbc"}, max_requests=1,
            probe_image="big_probe.pgm")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert "exceeds" in err

    def test_missing_scenario_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "none.json"))
        assert code == 1
