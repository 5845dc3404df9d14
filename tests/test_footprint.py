"""Start-up footprint: which modules a process loads.

The whole package runs on numpy alone: extraction, matching, the cipher, the
energy model and every scenario, the body channel's high-pass included, load
no scipy module.  ``scipy.signal``, which the high-pass used to import, pulls
in ~74 MB and ~1.3 s of imports with scipy's core, ``scipy.stats``,
``scipy.interpolate`` and ``scipy.spatial`` behind it.  The closed-form model
(``energy`` and ``design_space``) and the body link's one-bit model
(``link``) load neither numpy nor the data plane, nor do the ``wearauth``
commands built on the model alone (``table2``, ``figure4``, ``explore``).
scipy stays in the tests as an oracle, and this pytest process has imported it
and numpy already, so the checks run in fresh interpreters.

One check is of memory, not modules: the simulator builds a frame's noise-free
waveform in pieces, so a run on a 40 KB capture never holds the 20 MB whole.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import wearauth
from wearauth import channel, codec, energy, fingerprint
from wearauth.channel import ChannelModel
from wearauth.design_space import PowerSource, SystemConfig, TeLocation
from wearauth.energy import Channel
from wearauth.fingerprint import TemplateAlgorithm, extract_template, write_pgm
from wearauth.sim import ScenarioConfig, run_scenario

from patterns import stripe_image

SRC = Path(__file__).resolve().parent.parent / "src"

_PRELUDE = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import numpy as np

    import wearauth, wearauth.cli, wearauth.sim
    from wearauth import codec, present
    from wearauth.channel import ChannelModel
    from wearauth.design_space import PowerSource, SystemConfig, TeLocation, table2
    from wearauth.energy import Channel
    from wearauth.fingerprint import GrayImage, TemplateAlgorithm, extract_template, write_pgm
    from wearauth.matcher import match
    from wearauth.sim import ScenarioConfig, run_scenario

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    px = np.full((72, 96), 230, dtype=np.uint8)
    for top in range(2, 69, 8):
        px[top:top + 3, :] = 25
    px[34:37, 40:64] = 230
    img = GrayImage(px)
    root = Path(sys.argv[1])
    write_pgm(img, root / "probe.pgm")
    (root / "gallery").mkdir()
    template = extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
    (root / "gallery" / "alice.fpt").write_bytes(codec.encode(template))
    (root / "gallery" / "index.json").write_text(json.dumps({"alice": "alice.fpt"}))

    def scenario(link, channel=ChannelModel()):
        system = SystemConfig(te_location=TeLocation.HUB, on_body_channel=link,
                              sensor_power=PowerSource.COIN_CELL)
        cfg = ScenarioConfig(system=system,
                             probe_image=root / "probe.pgm", gallery_dir=root / "gallery",
                             channel=channel, max_requests=2)
        return run_scenario(cfg).requests_attempted
""")


def _run(body: str, workdir: Path, prelude: str = _PRELUDE) -> dict:
    script = prelude + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script, str(workdir)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_data_plane_without_highpass_never_loads_signal_or_spatial(tmp_path):
    out = _run("""
        ran = [scenario(Channel.WBAN), scenario(Channel.HBC)]
        light = extract_template(img, TemplateAlgorithm.LIGHTWEIGHT)
        ran += [len(light), match(light, light).score >= 0.0,
                len(present.ctr_crypt(codec.encode(template), 1, 2)), len(table2())]
        print(json.dumps({"ran": ran, "loaded": loaded()}))
    """, tmp_path)
    assert out["ran"][:2] == [2, 2]
    assert out["loaded"] == []          # nor any other scipy module


def test_highpass_loads_no_scipy(tmp_path):
    out = _run("""
        ran = scenario(Channel.HBC, ChannelModel(attenuation=0.6, hum_amplitude=0.5,
                                                 noise_sigma=0.3, highpass_cutoff=1000.0))
        print(json.dumps({"ran": ran, "loaded": loaded()}))
    """, tmp_path)
    assert out["ran"] == 2
    assert out["loaded"] == []


def test_channel_sweep_with_highpass_loads_no_scipy(tmp_path):
    out = _run("""
        import contextlib, io
        with contextlib.redirect_stdout(io.StringIO()) as csv:
            code = wearauth.cli.main(["channel-sweep", "--highpass", "1000", "--bit-period", "8",
                                      "--payload-bytes", "256", "--noise", "0.45",
                                      "--attenuation", "0.6", "--hum", "0,0.5"])
        rows = csv.getvalue().splitlines()
        print(json.dumps({"code": code, "rows": len(rows), "loaded": loaded()}))
    """, tmp_path)
    assert out["code"] == 0 and out["rows"] == 5     # header, 2 hum levels x 2 modes
    assert out["loaded"] == []


def test_model_core_loads_no_data_plane(tmp_path):
    out = _run("""
        import contextlib, io, json, sys

        import wearauth
        from wearauth import cli, design_space, energy, link

        rows = [design_space.evaluate(design_space.SystemConfig(te_location=loc,
                                                                on_body_channel=ch),
                                      energy.EnergyParams()).sensor_retries
                for loc, ch in design_space.ALLOCATION_ROWS.values()]
        light = design_space.evaluate(
            design_space.SystemConfig(te_location=design_space.TeLocation.SENSOR,
                                      on_body_channel=energy.Channel.HBC,
                                      te_variant=energy.TemplateAlgorithm.LIGHTWEIGHT),
            energy.EnergyParams(e_te_light=0.294))
        ran = [len(wearauth.table2()), len(wearauth.figure4_export()), len(rows),
               light.sensor_breakdown.te]
        for argv in (["table2", "--json"], ["figure4"], ["explore"]):
            with contextlib.redirect_stdout(io.StringIO()) as text:
                ran.append(cli.main(argv))
            ran.append(len(text.getvalue().splitlines()) > 1)
        link.check_modem(link.MAX_BIT_PERIOD, 1.0)
        ran += [link.bit_model(8, mode, cutoff)[0] > 0.0
                for mode in energy.DecodeMode for cutoff in (1.0, 1000.0)]
        data_plane = ("numpy", "wearauth.fingerprint", "wearauth.channel", "wearauth.sim",
                      "wearauth.matcher", "wearauth.codec", "wearauth.present")
        loaded = sorted(m for m in sys.modules
                        if any(m == p or m.startswith(p + ".") for p in data_plane))
        print(json.dumps({"ran": ran, "loaded": loaded}))
    """, tmp_path, prelude="")
    assert out["ran"] == [2, 16, 6, 0.294] + [0, True] * 3 + [True] * 4
    assert out["loaded"] == []


def test_one_template_algorithm():
    assert wearauth.TemplateAlgorithm is energy.TemplateAlgorithm
    assert energy.TemplateAlgorithm is fingerprint.TemplateAlgorithm
    assert fingerprint.TemplateAlgorithm is fingerprint.minutiae.TemplateAlgorithm


def test_one_decode_mode():
    assert channel.DecodeMode is energy.DecodeMode


def test_capture_run_holds_one_piece_of_the_waveform(tmp_path):
    """One noisy, hummed, high-passed HBC run of a 278x144 capture at
    bit_period 8 (a 2,563,456-sample frame, 20.5 MB as one waveform) peaks
    under 12 MiB of traced memory: its clean pass holds one 4 MiB piece at a
    time, beside the frame's 2.5 MB of statistics."""
    capture = stripe_image(278, 144, gap=(8, 100, 140))
    write_pgm(capture, tmp_path / "probe.pgm")
    (tmp_path / "gallery").mkdir()
    template = extract_template(capture, TemplateAlgorithm.HIGH_ACCURACY)
    (tmp_path / "gallery" / "alice.fpt").write_bytes(codec.encode(template))
    (tmp_path / "gallery" / "index.json").write_text(json.dumps({"alice": "alice.fpt"}))
    cfg = ScenarioConfig(
        system=SystemConfig(te_location=TeLocation.HUB, on_body_channel=Channel.HBC,
                            sensor_power=PowerSource.COIN_CELL),
        probe_image=tmp_path / "probe.pgm", gallery_dir=tmp_path / "gallery",
        channel=ChannelModel(attenuation=0.6, hum_amplitude=0.5, noise_sigma=0.45,
                             highpass_cutoff=1000.0),
        seed=1, max_requests=1, bit_period=8)
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.payload_bytes_on_body == 40_047
    assert report.decisions == ["accept"]
    assert peak < 12 * 2**20
