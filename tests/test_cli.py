import contextlib
import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wearauth import cli, codec, sim
from wearauth.channel import ChannelModel, FramingError, IntegrityError, SyncError
from wearauth.cli import _build_parser, main
from wearauth.energy import ConfigError, EnergyParams
from wearauth.link import MAX_BIT_PERIOD
from wearauth.matcher import MatchParams
from wearauth.sim import _SCENARIO_KEYS, _SYSTEM_KEYS, MAX_REQUESTS, ScenarioConfig
from wearauth.fingerprint import GrayImage, TemplateAlgorithm, extract_template, write_pgm

from conftest import write_scenario
from patterns import angle_wrap_image, hostile_blobs, stripe_image


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


@pytest.mark.parametrize("error,code", [
    (ConfigError("bad parameter"), 1),
    (codec.DecodeError("bad template"), 1),
    (ValueError("bad value"), 1),
    (FileNotFoundError("no file"), 1),
    (sim.BudgetExceeded("sensor", "capture"), None),
    (KeyError("bug"), None),
    (TypeError("bug"), None),
])
def test_exit_1_is_a_property_of_the_error_type(capsys, monkeypatch, error, code):
    """``main`` turns a ``ValueError`` or ``OSError`` into exit 1 and lets
    anything else out as a traceback: it is a bug."""
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_explore", fail)
    if code is None:
        with pytest.raises(type(error)):
            main(["explore"])
    else:
        assert run_cli(capsys, "explore") == (code, "", f"error: {error}\n")


def test_package_domain_errors_are_value_errors():
    assert all(issubclass(error, ValueError) for error in (
        ConfigError, codec.EncodeError, codec.DecodeError, FramingError))
    # Kept out of exit 1: no command lets these escape.
    assert not any(issubclass(error, (ValueError, OSError)) for error in (
        sim.BudgetExceeded, SyncError, IntegrityError))


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

    @pytest.mark.parametrize("distance", ["1e308", "inf"])
    def test_explore_distance_past_float64_is_domain_error(self, capsys, distance):
        code, out, err = run_cli(capsys, "explore", "--distance", distance)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "overflows" in err

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
        raw.write_bytes(img.pixels.tobytes())
        out_path = tmp_path / "t.fpt"
        code, _, _ = run_cli(capsys, "extract", str(raw), "-o", str(out_path),
                             "--raw-width", "64", "--raw-height", "48", "--algo", "light")
        assert code == 0
        assert out_path.read_bytes()[:4] == b"FPT\x01"

    @pytest.mark.parametrize("dims", [("0", "0"), ("0", "48"), ("-64", "-48")])
    def test_extract_non_positive_raw_size_is_domain_error(self, capsys, tmp_path, dims):
        # A zero size is still a raw request: refused, not read as a PGM.
        write_pgm(stripe_image(64, 48), tmp_path / "img.pgm")
        code, out, err = run_cli(capsys, "extract", str(tmp_path / "img.pgm"),
                                 "-o", str(tmp_path / "t.fpt"),
                                 f"--raw-width={dims[0]}", f"--raw-height={dims[1]}")
        assert code == 1
        assert out == ""
        assert "error:" in err
        assert not (tmp_path / "t.fpt").exists()

    def test_extract_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "extract", str(tmp_path / "nope.pgm"),
                               "-o", str(tmp_path / "x.fpt"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("algo", ["high", "light"])
    def test_extract_image_over_pixel_ceiling_is_domain_error(self, capsys, tmp_path, algo):
        write_pgm(GrayImage(np.zeros((513, 512), dtype=np.uint8)), tmp_path / "big.pgm")
        code, out, err = run_cli(capsys, "extract", str(tmp_path / "big.pgm"),
                                 "-o", str(tmp_path / "big.fpt"), "--algo", algo)
        assert code == 1
        assert out == ""
        assert "exceeds" in err
        assert not (tmp_path / "big.fpt").exists()

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

    def test_match_deeply_nested_index_is_domain_error(self, capsys, tmp_path):
        from wearauth.fingerprint import Template
        probe = tmp_path / "probe.fpt"
        probe.write_bytes(codec.encode(Template(10, 10, TemplateAlgorithm.HIGH_ACCURACY)))
        gal = tmp_path / "gallery"
        gal.mkdir()
        (gal / "index.json").write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "match", str(probe), str(gal))
        assert code == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("index,probe_algorithm,message", [
        ({"alice": 5}, TemplateAlgorithm.HIGH_ACCURACY, "must be a filename, got 5"),
        ({"alice": None}, TemplateAlgorithm.HIGH_ACCURACY, "must be a filename, got None"),
        ({"alice": ["x"]}, TemplateAlgorithm.HIGH_ACCURACY, "must be a filename, got ['x']"),
        ({"alice": "alice.fpt"}, TemplateAlgorithm.LIGHTWEIGHT,
         "a lightweight probe cannot match a high_accuracy gallery template"),
    ], ids=["filename_int", "filename_null", "filename_list", "cross_variant"])
    def test_match_refusal_is_domain_error(self, capsys, tmp_path, probe_image, index,
                                           probe_algorithm, message):
        gal = tmp_path / "gallery"
        gal.mkdir()
        template = extract_template(probe_image, TemplateAlgorithm.HIGH_ACCURACY)
        (gal / "alice.fpt").write_bytes(codec.encode(template))
        (gal / "index.json").write_text(json.dumps(index))
        probe = tmp_path / "probe.fpt"
        probe.write_bytes(codec.encode(extract_template(probe_image, probe_algorithm)))
        code, out, err = run_cli(capsys, "match", str(probe), str(gal))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("flags,expected", [
        ((), MatchParams()),
        (("--threshold", "0.7"), MatchParams(score_threshold=0.7)),
        (("--position-tolerance", "9", "--angle-tolerance", "0.2"),
         MatchParams(position_tolerance=9.0, angle_tolerance=0.2)),
    ])
    def test_match_defaults_are_match_params(self, capsys, tmp_path, monkeypatch, flags,
                                             expected):
        """The parser holds no tolerance default: an unset flag takes
        ``MatchParams``' own."""
        from wearauth import matcher
        from wearauth.fingerprint import Template
        args = _build_parser().parse_args(["match", "probe.fpt", "gallery"])
        assert (args.position_tolerance, args.angle_tolerance, args.threshold) == (None,) * 3
        seen = []
        monkeypatch.setattr(matcher, "match_gallery",
                            lambda probe, gallery, params: seen.append(params) or [])
        probe = tmp_path / "probe.fpt"
        probe.write_bytes(codec.encode(Template(10, 10, TemplateAlgorithm.HIGH_ACCURACY)))
        code, out, _ = run_cli(capsys, "match", str(probe), str(tmp_path), *flags)
        assert (code, json.loads(out), seen) == (0, [], [expected])


def _quiet_main(*argv):
    """main() with stdout and stderr captured; usable inside Hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


_STRIPES = stripe_image(24, 20, period=6, thickness=2)
_STRIPES_FPT = codec.encode(extract_template(_STRIPES, TemplateAlgorithm.LIGHTWEIGHT))


class TestHostileFiles:
    """Received bytes that fail to parse are domain errors, never tracebacks."""

    def test_extract_light_on_angle_wrap_image(self, capsys, tmp_path):
        write_pgm(angle_wrap_image(), tmp_path / "wrap.pgm")
        code, _, err = run_cli(capsys, "extract", str(tmp_path / "wrap.pgm"),
                               "-o", str(tmp_path / "wrap.fpt"), "--algo", "light")
        assert code == 0, err
        assert codec.decode((tmp_path / "wrap.fpt").read_bytes()).minutiae

    def test_extract_light_on_noise_hits_only_the_record_limit(self, capsys, tmp_path):
        # ~5,500 lightweight minutiae: over the codec's 255 records, no angle error.
        noise = np.random.default_rng(0).integers(0, 256, (144, 278), dtype=np.uint8)
        write_pgm(GrayImage(noise), tmp_path / "noise.pgm")
        code, _, err = run_cli(capsys, "extract", str(tmp_path / "noise.pgm"),
                               "-o", str(tmp_path / "noise.fpt"), "--algo", "light")
        assert code == 1
        assert "255-record limit" in err

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(blob=hostile_blobs(_STRIPES.to_pgm_bytes()))
    def test_extract(self, tmp_path_factory, blob):
        root = tmp_path_factory.getbasetemp()
        (root / "hostile.pgm").write_bytes(blob)
        code, out, err = _quiet_main("extract", str(root / "hostile.pgm"),
                                     "-o", str(root / "hostile.fpt"))
        assert out == ""
        try:
            GrayImage.from_pgm_bytes(blob)
        except ValueError:
            assert code == 1 and err.startswith("error:")
        else:
            assert code in (0, 1)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(blob=hostile_blobs(_STRIPES_FPT))
    def test_match(self, tmp_path_factory, blob):
        root = tmp_path_factory.getbasetemp()
        gal = root / "hostile_gallery"
        if not gal.exists():
            gal.mkdir()
            (gal / "bob.fpt").write_bytes(_STRIPES_FPT)
            (gal / "index.json").write_text(json.dumps({"bob": "bob.fpt"}))
        (root / "hostile.fpt").write_bytes(blob)
        code, out, err = _quiet_main("match", str(root / "hostile.fpt"), str(gal))
        try:
            probe = codec.decode(blob)
        except codec.DecodeError:
            assert code == 1 and out == "" and err.startswith("error:")
        else:
            if probe.algorithm is TemplateAlgorithm.LIGHTWEIGHT:
                assert code == 0
                assert json.loads(out)[0]["label"] == "bob"
            else:   # the gallery is lightweight: a cross-variant match is refused
                assert code == 1 and out == "" and err.startswith("error: a high_accuracy")


# Values a hand-edited or damaged file may hold: numbers at and past the float
# range, the enum spellings the parsers know, and nested junk.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.integers(-2**80, 2**80), st.floats(),
    st.text(max_size=6),
    st.sampled_from(("hub", "sensor", "cloud", "hbc", "wban", "lora", "capacitive", "optical",
                     "rf_harvest", "coin_cell", "high_accuracy", "lightweight",
                     "direct_sample", "integrate_and_dump", "probe.pgm", "gallery", ".",
                     "ff", "0x1f", "-1")),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_NUMBERS = st.one_of(st.integers(-3, 12), st.floats(-2.0, 2e6), st.floats(),
                    st.integers(-2**80, 2**80))
_DELETE = object()
_NUMERIC_PATHS = ([("seed",), ("max_requests",), ("bit_period",),
                   ("system", "lora_distance")]
                  + [("channel", f.name) for f in fields(ChannelModel)]
                  + [("match", f.name) for f in fields(MatchParams)])
_SCENARIO_PATHS = (_NUMERIC_PATHS + [(key,) for key in _SCENARIO_KEYS] + [("bogus",)]
                   + [("system", key) for key in _SYSTEM_KEYS])


@st.composite
def _scenario_files(draw):
    """A valid one-request HBC scenario with up to four keys replaced (any key
    by any value, or a numeric key by a number) or deleted; or an arbitrary
    JSON value, or arbitrary bytes."""
    shape = draw(st.sampled_from(("edited", "numbers", "numbers", "value", "bytes")))
    if shape == "bytes":
        return draw(st.binary(max_size=64))
    if shape == "value":
        return json.dumps(draw(_JSON_VALUES)).encode()
    doc = {"system": {"te_location": "hub", "on_body_channel": "hbc"},
           "probe_image": "probe.pgm", "gallery_dir": "gallery", "max_requests": 1,
           "channel": {"attenuation": 0.6, "noise_sigma": 0.2, "highpass_cutoff": 1000.0},
           "match": {}}
    if shape == "numbers":
        edits = st.tuples(st.sampled_from(_NUMERIC_PATHS), _NUMBERS)
    else:
        edits = st.tuples(st.sampled_from(_SCENARIO_PATHS),
                          st.one_of(st.just(_DELETE), _NUMBERS, _JSON_VALUES))
    for path, value in draw(st.lists(edits, max_size=4)):
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent.get(key), dict) else None
            if parent is None:
                break
        else:
            if value is _DELETE:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
    return json.dumps(doc).encode()


_PARAM_NAMES = [f.name for f in fields(EnergyParams)]
_PARAM_VALUES = st.one_of(
    st.floats().map(repr), st.integers(-10**400, 10**400).map(str), st.text(max_size=8),
    st.sampled_from(("1e-320", "0", "-0.0", "1_000", "0x10", "1e400", " 7 ", "nan", "-inf")))


@st.composite
def _param_files(draw):
    """``key = value`` lines with known and unknown keys, any number spelling,
    junk lines and comments; or arbitrary bytes (not always UTF-8)."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    line = st.one_of(
        st.tuples(st.sampled_from(_PARAM_NAMES + ["bogus", ""]),
                  st.sampled_from(("=", " = ", "==", "", " = 1 # ")),
                  _PARAM_VALUES).map("".join),
        st.text(max_size=16))
    return "\n".join(draw(st.lists(line, max_size=6))).encode("utf-8", "surrogatepass")


_ENERGY_COMMANDS = (("table2",), ("table2", "--json"), ("figure4",), ("explore",))


def _check_energy_output(command, code, out):
    """Exit 0 with valid JSON or rectangular CSV, or exit 1 with no output."""
    assert code in (0, 1)
    if code == 1:
        assert out == ""
    elif "--json" in command or command == ("explore",):
        json.loads(out)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and {len(row) for row in rows} == {len(rows[0])}


def _main_status(*argv):
    """``main``'s exit status, output and diagnostics; argparse's usage error
    (a ``SystemExit`` of 2) counts as exit status 2."""
    try:
        return _quiet_main(*argv)
    except SystemExit as exc:
        return exc.code, "", ""


class TestParserFuzz:
    """Hostile input files: each parser lets only its documented errors escape,
    and the command that reads the file exits 0, 1 or 2 without a traceback."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.one_of(st.binary(max_size=64),
                          st.integers(0, 40 * 40).map(lambda n: bytes(range(256)) * (n // 256)
                                                      + bytes(n % 256))),
           width=st.one_of(st.none(), st.integers(-3, 40), st.integers(-2**80, 2**80)),
           height=st.one_of(st.none(), st.integers(-3, 40), st.integers(-2**80, 2**80)),
           algo=st.sampled_from(("high", "light")))
    def test_raw_image(self, tmp_path_factory, data, width, height, algo):
        root = tmp_path_factory.getbasetemp()
        (root / "hostile.raw").write_bytes(data)
        refused = width is None or height is None
        if not refused:
            try:
                img = GrayImage.from_raw(data, width, height)
            except ValueError:
                refused = True
            else:
                assert img.pixels.tobytes() == data and (img.width, img.height) == (width, height)
        argv = ["extract", str(root / "hostile.raw"), "-o", str(root / "hostile.fpt"),
                "--algo", algo]
        argv += [f"--raw-width={width}"] if width is not None else []
        argv += [f"--raw-height={height}"] if height is not None else []
        code, out, err = _main_status(*argv)
        assert out == ""
        if width is None and height is None:
            assert code in (0, 1)       # read as a PGM
        elif refused:
            assert code == 1 and err.startswith("error:")
        else:
            assert code in (0, 1)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(blob=_param_files(), command=st.sampled_from(_ENERGY_COMMANDS))
    def test_energy_params(self, tmp_path_factory, blob, command):
        path = tmp_path_factory.getbasetemp() / "hostile.cfg"
        path.write_bytes(blob)
        try:
            EnergyParams.from_file(path)
        except ConfigError:
            refused = True
        else:
            refused = False
        code, out, err = _main_status(*command, "--params", str(path))
        if refused:
            assert code == 1 and out == "" and err.startswith("error:")
        else:
            _check_energy_output(command, code, out)

    @pytest.mark.parametrize("command", _ENERGY_COMMANDS)
    def test_subnormal_energies(self, tmp_path, command):
        """Per-request costs near 1e-317 J make every retry count overflow to
        inf: shown as ``inf`` in CSV, refused by the strict JSON writer."""
        path = tmp_path / "tiny.cfg"
        path.write_text("".join(f"{name} = 1e-320\n" for name in _PARAM_NAMES
                                if name.startswith(("e_bit", "e_capture", "e_te_high"))))
        code, out, err = _main_status(*command, "--params", str(path))
        _check_energy_output(command, code, out)
        assert (code, "inf" in out) == ((1, False) if command == ("explore",) else (0, True))

    @pytest.mark.parametrize("command", _ENERGY_COMMANDS + (("figure4", "--json"),))
    def test_lora_cost_past_float64(self, tmp_path, command):
        """A reference distance near zero prices the LoRa hop past float64:
        refused as a domain error, never a traceback."""
        path = tmp_path / "near.cfg"
        path.write_text("d_ref = 1e-300\n")
        code, out, err = _main_status(*command, "--params", str(path))
        _check_energy_output(command, code, out)
        assert code == 1 and err.startswith("error:") and "overflows" in err

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(blob=_scenario_files())
    def test_scenario(self, scenario_workspace, blob):
        path = scenario_workspace / "hostile.json"
        path.write_bytes(blob)
        try:
            cfg = ScenarioConfig.from_json(path)
        except (ConfigError, ValueError):
            code, out, err = _main_status("simulate", str(path))
            assert code == 1 and out == "" and err.startswith("error:")
            return
        if cfg.max_requests is None:
            return      # a run to ledger refusal is too long to fuzz
        code, out, err = _main_status("simulate", str(path))
        assert code in (0, 1)
        if code == 0:
            assert json.loads(out)["requests_attempted"] <= cfg.max_requests
        else:
            assert out == "" and err.startswith("error:")


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

    def test_encrypt_known_answer(self, capsys, tmp_path):
        """Eight zero bytes at counter 0 under the zero key are the first
        published PRESENT-80 vector, which a round trip alone cannot pin."""
        src, ct = tmp_path / "zeros.bin", tmp_path / "ct.bin"
        src.write_bytes(bytes(8))
        assert run_cli(capsys, "encrypt", str(src), str(ct), "--key", "0", "--nonce", "0")[0] == 0
        assert ct.read_bytes().hex() == "5579c1387b228445"

    @pytest.mark.parametrize("flags", [
        ("--key", "1" + "0" * 20, "--nonce", "0"),    # 2**80, an 81-bit key
        ("--key", "xyz", "--nonce", "0"),
        ("--key", "0", "--nonce", "1" + "0" * 16),    # 2**64
    ], ids=["key_81_bits", "key_not_hex", "nonce_65_bits"])
    def test_bad_key_or_nonce_is_domain_error(self, capsys, tmp_path, flags):
        src, ct = tmp_path / "plain.bin", tmp_path / "ct.bin"
        src.write_bytes(b"payload")
        code, out, err = run_cli(capsys, "encrypt", str(src), str(ct), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not ct.exists()


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
        ("--bit-period", "1048576"),       # past link.MAX_BIT_PERIOD
        # refused by check_modem's MAX_BIT_PERIOD before a sample is built
        ("--highpass", "1000", "--bit-period", str(2**30)),
        ("--bit-period", str(MAX_BIT_PERIOD + 2)),
        ("--seed", "-1", "--noise", "0"),  # no noise is drawn, but the seed is still refused
        ("--noise", "nan"), ("--noise", "inf"), ("--hum", "0,nan"), ("--hum-frequency", "inf"),
    ], ids=["payload_too_long", "payload_negative", "payload_huge", "bit_period_huge",
            "bit_period_2_30", "bit_period_past_frame_ceiling",
            "seed_negative", "noise_nan", "noise_inf", "hum_nan", "hum_frequency_inf"])
    def test_unframeable_sweep_is_domain_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "channel-sweep", "--hum", "0", *flags)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_sample_rate_flag_is_usage_error(self, capsys):
        """The time base is fixed at ``link.SAMPLE_RATE``."""
        with pytest.raises(SystemExit) as exc:
            main(["channel-sweep", "--sample-rate", "1e6"])
        assert exc.value.code == 2


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
        lambda doc: doc.update(bit_period=1048576),    # past link.MAX_BIT_PERIOD
        lambda doc: doc.update(max_requests=MAX_REQUESTS + 1),
        lambda doc: doc.update(seed=-1),
    ], ids=["channel_key", "max_requests_str", "match_key", "match_list", "system_null",
            "top_level_list", "decode_mode", "system_key", "seed_bool", "bit_period_float",
            "max_requests_negative", "gallery_missing", "probe_int", "lora_distance_null",
            "channel_str", "cipher_key_float", "bit_period_huge", "max_requests_huge",
            "seed_negative"])
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

    @pytest.mark.parametrize("link", ["wban", "hbc"])
    @pytest.mark.parametrize("field,value,message", [
        ("bit_period", 3, "bit_period"),
        ("bit_period", 2**30, "exceeds"),
        ("bit_period", MAX_BIT_PERIOD + 2, "exceeds"),
        # the time base is link.SAMPLE_RATE, not a scenario setting
        ("sample_rate", 1_000_000.0, "unknown key(s) in scenario: sample_rate"),
        ("channel", {"highpass_cutoff": -5.0}, "cutoff"),
    ], ids=["odd_bit_period", "bit_period_2_30", "bit_period_past_frame_ceiling",
            "sample_rate_removed", "negative_cutoff"])
    def test_modem_fields_refused_before_inputs_load(self, capsys, scenario_workspace,
                                                     monkeypatch, link, field, value, message):
        """A WBAN run never reaches the modem and an HBC one only after loading
        the probe and gallery: the parser refuses these on either link first."""
        def unreachable(*args):
            raise AssertionError("the scenario's inputs were loaded")

        monkeypatch.setattr(sim, "read_pgm", unreachable)
        monkeypatch.setattr(sim, "load_gallery", unreachable)
        path = write_scenario(scenario_workspace, name="bad_modem.json", system={
            "te_location": "hub", "on_body_channel": link}, max_requests=2, **{field: value})
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

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

    def test_gallery_index_without_filename_is_domain_error(self, capsys, scenario_workspace):
        gallery = scenario_workspace / "gallery_int"
        gallery.mkdir(exist_ok=True)
        (gallery / "index.json").write_text(json.dumps({"alice": 5}))
        path = write_scenario(scenario_workspace, name="gallery_int.json", system={
            "te_location": "hub", "on_body_channel": "hbc"}, max_requests=1,
            gallery_dir="gallery_int")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: gallery index entry 'alice' must be a filename, got 5\n"

    def test_deeply_nested_scenario_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_missing_scenario_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "none.json"))
        assert code == 1
