"""Command-line interface.

Machine-readable output (CSV/JSON) goes to stdout or ``-o``; diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.  A domain
error is a :class:`ValueError` (the package's own error types subclass it) or
an :class:`OSError`; any other exception is a bug and stays a traceback.  Only
the handlers of data-plane commands import the data plane (and so numpy).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .design_space import (
    PowerSource,
    SystemConfig,
    TeLocation,
    evaluate,
    figure4_csv,
    figure4_json,
    table2_csv,
    table2_json,
)
from .energy import Channel, DecodeMode, EnergyParams, SensorType, TemplateAlgorithm

__all__ = ["main"]

_ALGO_FLAGS = {"high": TemplateAlgorithm.HIGH_ACCURACY, "light": TemplateAlgorithm.LIGHTWEIGHT}


def _load_params(path: str | None) -> EnergyParams:
    return EnergyParams.from_file(path) if path else EnergyParams()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_export(args) -> int:
    params = _load_params(args.params)
    as_json, as_csv = args.formats
    _emit(as_json(params) if args.json else as_csv(params), args.output)
    return 0


def _cmd_explore(args) -> int:
    params = _load_params(args.params)
    cfg = SystemConfig(
        te_location=TeLocation(args.te),
        on_body_channel=Channel(args.channel),
        sensor_type=SensorType(args.sensor),
        sensor_power=PowerSource(args.power),
        lora_distance=args.distance,
        te_variant=TemplateAlgorithm(args.te_variant),
    )
    report = evaluate(cfg, params)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n",
          args.output)
    return 0


def _cmd_extract(args) -> int:
    from . import codec
    from .fingerprint.image import GrayImage, read_pgm
    from .fingerprint.minutiae import extract_template
    if args.raw_width is not None or args.raw_height is not None:
        if args.raw_width is None or args.raw_height is None:
            raise ValueError("raw input needs both --raw-width and --raw-height")
        img = GrayImage.from_raw(Path(args.image).read_bytes(), args.raw_width, args.raw_height)
    else:
        img = read_pgm(args.image)
    template = extract_template(img, _ALGO_FLAGS[args.algo])
    blob = codec.encode(template)
    Path(args.output).write_bytes(blob)
    print(f"{len(template)} minutiae, {len(blob)} bytes -> {args.output}", file=sys.stderr)
    return 0


def _cmd_match(args) -> int:
    from . import codec
    from .matcher import MatchParams, match_gallery
    probe = codec.decode(Path(args.probe).read_bytes())
    given = {"position_tolerance": args.position_tolerance,
             "angle_tolerance": args.angle_tolerance, "score_threshold": args.threshold}
    params = MatchParams(**{name: value for name, value in given.items() if value is not None})
    results = match_gallery(probe, args.gallery, params)
    _emit(json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n", args.output)
    return 0


def _cmd_crypt(args) -> int:
    from . import present
    key = int(args.key, 16)
    nonce = int(args.nonce, 16)
    data = Path(args.input).read_bytes()
    Path(args.output).write_bytes(present.ctr_crypt(data, key, nonce))
    return 0


def _cmd_channel_sweep(args) -> int:
    from .channel import MAX_PAYLOAD, ChannelModel, sweep_hum
    hums = [float(x) for x in args.hum.split(",") if x.strip() != ""]
    if not hums:
        raise ValueError("--hum needs at least one amplitude")
    # Checked before the payload is built, so a huge count allocates nothing.
    if not 0 <= args.payload_bytes <= MAX_PAYLOAD:
        raise ValueError(f"--payload-bytes must lie in [0, {MAX_PAYLOAD}]")
    if args.seed < 0:       # refused whether or not the channel draws noise
        raise ValueError("--seed must be non-negative")
    channel = ChannelModel(attenuation=args.attenuation, noise_sigma=args.noise,
                           hum_frequency=args.hum_frequency,
                           highpass_cutoff=args.highpass)
    modes = tuple(DecodeMode) if args.mode == "both" else (DecodeMode(args.mode),)
    payload = bytes(range(256)) * (args.payload_bytes // 256) + bytes(range(args.payload_bytes % 256))
    records = sweep_hum(payload, hums, channel, args.bit_period, args.seed, modes)
    lines = ["hum_amplitude,mode,ber,eye_opening"]
    lines += [f"{r['hum_amplitude']:.6g},{r['mode'].value},{r['ber']:.9e},{r['eye_opening']:.9e}"
              for r in records]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    from . import sim
    params = _load_params(args.params)
    cfg = sim.ScenarioConfig.from_json(args.scenario)
    report = sim.run_scenario(cfg, params)
    doc = report.to_dict()
    doc["verification"] = sim.verify_against_analytic(report, params).to_dict()
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", args.output)
    if args.trace:
        Path(args.trace).write_text(sim.trace_csv(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wearauth",
        description="Energy design-space exploration and data-plane simulation "
                    "for wearable fingerprint authentication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--params", help="energy parameter override file (key = value)")
        p.add_argument("-o", "--output", help="write machine output to a file instead of stdout")

    for name, help_text, formats in (
            ("table2", "sensor lifetime summary grid (retries/hour, RF harvest)",
             (table2_json, table2_csv)),
            ("figure4", "sensor energy breakdown and retries over the full grid",
             (figure4_json, figure4_csv))):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument("--json", action="store_true", help="JSON instead of CSV")
        p.set_defaults(func=_cmd_export, formats=formats)

    p = sub.add_parser("explore", help="evaluate a single allocation point")
    add_common(p)
    p.add_argument("--te", choices=[t.value for t in TeLocation], default="hub")
    p.add_argument("--channel", choices=["wban", "hbc"], default="hbc")
    p.add_argument("--sensor", choices=["capacitive", "optical"], default="capacitive")
    p.add_argument("--power", choices=[s.value for s in PowerSource], default="rf_harvest")
    p.add_argument("--distance", type=float, default=1000.0, help="LoRa distance, m")
    p.add_argument("--te-variant", choices=[v.value for v in TemplateAlgorithm],
                   default="high_accuracy")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("extract", help="extract a minutiae template from a PGM image")
    p.add_argument("image", help="binary PGM (P5) file, or raw bytes with --raw-width/height")
    p.add_argument("-o", "--output", required=True, help="output .fpt path")
    p.add_argument("--algo", choices=sorted(_ALGO_FLAGS), default="high")
    p.add_argument("--raw-width", type=int, help="treat input as a raw blob of this width")
    p.add_argument("--raw-height", type=int, help="raw blob height")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("match", help="match a probe template against a gallery directory")
    p.add_argument("probe", help="probe .fpt file")
    p.add_argument("gallery", help="gallery directory containing index.json")
    p.add_argument("-o", "--output")
    # Unset tolerances take MatchParams' defaults in _cmd_match.
    p.add_argument("--position-tolerance", type=float)
    p.add_argument("--angle-tolerance", type=float)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=_cmd_match)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} a file with the counter-mode cipher")
        p.add_argument("input")
        p.add_argument("output")
        p.add_argument("--key", required=True, help="80-bit key, hex")
        p.add_argument("--nonce", required=True, help="64-bit nonce, hex")
        p.set_defaults(func=_cmd_crypt)

    p = sub.add_parser("channel-sweep", help="hum sweep of the body channel: BER and eye opening")
    p.add_argument("-o", "--output")
    p.add_argument("--hum", default="0,0.5,1,2,3,4,5", help="comma-separated hum amplitudes")
    p.add_argument("--mode", choices=[m.value for m in DecodeMode] + ["both"], default="both")
    p.add_argument("--noise", type=float, default=0.5, help="Gaussian noise sigma")
    p.add_argument("--attenuation", type=float, default=0.5)
    p.add_argument("--hum-frequency", type=float, default=60.0)
    p.add_argument("--highpass", type=float, default=None, help="high-pass cutoff, Hz")
    p.add_argument("--bit-period", type=int, default=16, help="samples per data bit")
    p.add_argument("--payload-bytes", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_channel_sweep)

    p = sub.add_parser("simulate", help="run an end-to-end scenario from a JSON file")
    add_common(p)
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--trace", help="also write the event trace CSV here")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
