"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), makes the input of op ``i`` in ``prepare(i)`` (untimed, and a pure
function of the seed and ``i``), runs one op in ``run`` (timed) and judges it
in ``check``.  ``check`` returns the simulated statistics that go into the
digest, whether the op failed (it did not complete: a request lost on the
body link, or an enrollment that raised), the tally of decisions against
ground truth (wrong ones are counted, never hidden) and any correctness-gate
violation (which fails the command).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from wearauth import codec, matcher, sim
from wearauth.channel import ChannelModel
from wearauth.design_space import PowerSource, SystemConfig, TeLocation
from wearauth.energy import Channel, EnergyParams, SensorType
from wearauth.fingerprint import GrayImage, Template, TemplateAlgorithm, minutiae, write_pgm

from captures import capture, genuine_probe
from tracer import SPAN_NAMES

# The enrolled users are the same on every seed, as a deployment's gallery is;
# the seed draws the traffic: probe noise and shift, impostors, link noise.
# (A seeded gallery made the median op time move ~10% between seeds, because
# the matcher's work depends on which four prints it holds.)
ENROLLED = (1, 2, 3, 4)
IMPOSTORS_FROM = 1000      # identities below this are never impostors
# The noisy body link of the paper's headline allocation: the noise makes the
# link non-deterministic, which switches the simulator's replay cache off.
NOISY_HBC = ChannelModel(attenuation=0.6, hum_amplitude=0.5, hum_frequency=60.0,
                         noise_sigma=0.45, highpass_cutoff=1000.0)
LIFETIME_ROWS = (("a", TeLocation.SENSOR, 122), ("c", TeLocation.HUB, 487),
                 ("e", TeLocation.CLOUD, 18))
ANALYTIC_TOLERANCE = 1e-9
CHANNEL_SPANS = ("channel.encode_frame", "channel.transmit", "channel.highpass_bias",
                 "channel.receive_decode")
ENROLL_SPANS = tuple(n for n in SPAN_NAMES if n.startswith(("fingerprint.", "codec."))
                     and n != "fingerprint.read_pgm") + ("matcher.load_gallery",)


@dataclass
class OpResult:
    failed: bool                      # the op did not complete
    requests: int                     # simulated requests served by the op
    record: dict                      # simulated statistics, for the digest
    problems: list[str] = field(default_factory=list)
    # Decisions against ground truth: "decided", "false_accept", "false_reject".
    tally: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Probe:
    index: int
    identity: int
    genuine: bool
    path: Path
    channel_seed: int      # noise of the body link, where it has any


def _rng(seed: int, workload: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, *more])


def enroll_gallery(directory: Path, identities: list[int]) -> None:
    """Gallery of high-accuracy templates, one noise-0 capture per identity."""
    directory.mkdir(parents=True, exist_ok=True)
    index = {}
    for ident in identities:
        img = GrayImage(capture(ident, 0))
        template = minutiae.extract_template(img, TemplateAlgorithm.HIGH_ACCURACY)
        name = f"id{ident}.fpt"
        (directory / name).write_bytes(codec.encode(template))
        index[f"id{ident}"] = name
    (directory / matcher.INDEX_FILENAME).write_text(json.dumps(index))


def _runs(values: list) -> list[list]:
    """Run-length form of a per-request sequence: [[value, count], ...]."""
    return [[v, len(list(g))] for v, g in groupby(values)]


def report_record(report: sim.SimReport) -> dict:
    """Every simulated statistic of one scenario run, without ciphertext."""
    events_per_request = Counter(req for _, req, _, _, _ in report.trace)
    return {
        "attempted": report.requests_attempted,
        "completed": report.requests_completed,
        "decisions": _runs(report.decisions),
        "scores": _runs(report.scores),
        "ledgers": [[led.role, led.total_charged, len(led.charges)] for led in report.ledgers],
        "events_per_request": _runs([events_per_request[r]
                                     for r in range(report.requests_attempted)]),
        "retransmissions": report.retransmissions,
        "eye_openings": report.eye_openings,
        "bit_error_rates": report.bit_error_rates,
        "payload_bytes": [report.payload_bytes_on_body, report.payload_bytes_lora],
        "refusal": report.refusal,
    }


def judge(report: sim.SimReport, genuine: bool, threshold: float,
          where: str) -> tuple[Counter, list[str]]:
    """Tally a scenario run's decisions against ground truth, and check that
    each decision is the one its score and the matcher's threshold imply.

    A request lost on the body link (``channel_error``) reaches no decision;
    it is tallied apart and makes the op fail.  A decided request that
    disagrees with ground truth is a false accept or a false reject: the
    matcher's error rate, reported as such, not a failed op."""
    tally: Counter = Counter()
    problems = []
    for req, (decision, score) in enumerate(zip(report.decisions, report.scores)):
        if decision == "channel_error":
            tally["channel_error"] += 1
            continue
        implied = "accept" if score >= threshold else "reject"
        if decision != implied:
            problems.append(f"{where} request {req}: decision {decision!r} "
                            f"but score {score} against threshold {threshold}")
        tally["decided"] += 1
        if decision == "accept" and not genuine:
            tally["false_accept"] += 1
        elif decision == "reject" and genuine:
            tally["false_reject"] += 1
    return tally, problems


class _ScenarioWorkload:
    """Shared input handling of the two ``run_scenario`` workloads."""

    tag: int
    gallery_size: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.enrolled = ENROLLED[:self.gallery_size]
        self.gallery = workdir / "gallery"
        enroll_gallery(self.gallery, self.enrolled)

    def prepare(self, i: int) -> Probe:
        """Even ops probe an enrolled identity (in turn), odd ops an impostor.

        A fixed pattern rather than a coin flip keeps the genuine share, and
        so the work per run, the same on every seed."""
        rng = _rng(self.seed, self.tag, i)
        if i % 2 == 0:
            ident = self.enrolled[i // 2 % len(self.enrolled)]
            cap, genuine = genuine_probe(ident, rng), True
        else:
            ident = int(rng.integers(IMPOSTORS_FROM, 2**31))
            cap, genuine = capture(ident, int(rng.integers(1, 2**31))), False
        path = self.workdir / "probe.pgm"
        write_pgm(GrayImage(cap), path)
        return Probe(i, ident, genuine, path, int(rng.integers(0, 2**31)))

    def finish(self) -> list[str]:
        return []


class AuthHubHbc(_ScenarioWorkload):
    """One authentication request per op: allocation (d), noisy HBC, 1:4."""

    name = "auth_hub_hbc"
    tag = 1
    gallery_size = 4
    min_ops = 11
    expected_spans = SPAN_NAMES

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        system = SystemConfig(TeLocation.HUB, Channel.HBC, SensorType.CAPACITIVE,
                              PowerSource.RF_HARVEST, lora_distance=1000.0)
        self.config = sim.ScenarioConfig(system=system, probe_image=workdir / "probe.pgm",
                                         gallery_dir=self.gallery, channel=NOISY_HBC,
                                         max_requests=1, bit_period=8)

    def run(self, probe: Probe) -> sim.SimReport:
        return sim.run_scenario(replace(self.config, seed=probe.channel_seed))

    def check(self, probe: Probe, report: sim.SimReport) -> OpResult:
        problems = []
        if report.requests_attempted != 1:
            problems.append(f"op {probe.index}: {report.requests_attempted} requests, expected 1")
        if report.payload_bytes_on_body != probe.path.stat().st_size:
            problems.append(f"op {probe.index}: {report.payload_bytes_on_body} body bytes, "
                            "expected the whole PGM")
        tally, wrong_way = judge(report, probe.genuine,
                                 self.config.match_params.score_threshold, f"op {probe.index}")
        record = {"identity": probe.identity, "genuine": probe.genuine, **report_record(report)}
        return OpResult(tally["channel_error"] > 0, report.requests_attempted, record,
                        problems + wrong_way, tally)


class LifetimeWban(_ScenarioWorkload):
    """Allocations (a), (c), (e) on a coin-cell sensor, each to ledger refusal."""

    name = "lifetime_wban"
    tag = 2
    gallery_size = 1
    min_ops = 11
    expected_spans = tuple(n for n in SPAN_NAMES if n not in CHANNEL_SPANS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.params = EnergyParams()
        self.configs = [
            (row, expected, sim.ScenarioConfig(
                system=SystemConfig(loc, Channel.WBAN, SensorType.CAPACITIVE,
                                    PowerSource.COIN_CELL, lora_distance=1000.0),
                probe_image=workdir / "probe.pgm", gallery_dir=self.gallery))
            for row, loc, expected in LIFETIME_ROWS
        ]

    def run(self, probe: Probe) -> list[sim.SimReport]:
        return [sim.run_scenario(cfg, self.params) for _, _, cfg in self.configs]

    def check(self, probe: Probe, reports: list[sim.SimReport]) -> OpResult:
        problems, records, tally = [], [], Counter()
        for (row, expected, cfg), report in zip(self.configs, reports):
            if report.requests_attempted != expected:
                problems.append(f"op {probe.index} ({row}): {report.requests_attempted} "
                                f"requests, expected {expected}")
            verdict = sim.verify_against_analytic(report, self.params, ANALYTIC_TOLERANCE)
            if not verdict.passed:
                problems.append(f"op {probe.index} ({row}): closed-form check failed: "
                                f"{verdict.reason} {verdict.details}")
            records.append({"row": row, **report_record(report)})
            row_tally, wrong_way = judge(report, probe.genuine, cfg.match_params.score_threshold,
                                         f"op {probe.index} ({row})")
            tally += row_tally
            problems += wrong_way
        requests = sum(r.requests_attempted for r in reports)
        record = {"identity": probe.identity, "genuine": probe.genuine, "rows": records}
        return OpResult(tally["channel_error"] > 0, requests, record, problems, tally)


@dataclass(frozen=True)
class Enrollment:
    index: int
    label: str
    image: GrayImage


class Enroll:
    """One enrollment per op: both extraction routes, encode, ``.fpt`` write."""

    name = "enroll"
    tag = 3
    gallery_size = 0
    min_ops = 11
    expected_spans = ENROLL_SPANS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.gallery = workdir / "gallery"
        self.gallery.mkdir(parents=True)
        self.written: dict[str, Template] = {}   # label -> decoded template

    def prepare(self, i: int) -> Enrollment:
        rng = _rng(self.seed, self.tag, i)
        cap = capture(int(rng.integers(0, 2**31)), int(rng.integers(1, 2**31)))
        return Enrollment(i, f"e{i:05d}", GrayImage(cap))

    def run(self, item: Enrollment) -> dict[str, object]:
        """Template and its bytes per route; a route that raises keeps the error."""
        out: dict[str, object] = {}
        for algo in TemplateAlgorithm:
            try:
                template = minutiae.extract_template(item.image, algo)
                blob = codec.encode(template)
            except (ValueError, codec.EncodeError) as exc:
                out[algo.value] = exc
                continue
            name = f"{item.label}-{algo.value}.fpt"
            (self.gallery / name).write_bytes(blob)
            out[algo.value] = (template, blob)
        return out

    def check(self, item: Enrollment, out: dict[str, object]) -> OpResult:
        problems, record, failed = [], {}, False
        for route, result in out.items():
            if isinstance(result, Exception):
                failed = True
                record[route] = {"error": f"{type(result).__name__}: {result}"}
                continue
            template, blob = result
            back = codec.decode(blob)
            if not _round_trips(template, back):
                failed = True
                problems.append(f"op {item.index} ({route}): .fpt round trip moved a minutia")
            self.written[f"{item.label}-{route}"] = back
            record[route] = {"minutiae": len(template), "bytes": len(blob),
                             "fpt": blob.hex()}
        return OpResult(failed, 1, record, problems)

    def finish(self) -> list[str]:
        """Write the index and read the gallery back through ``load_gallery``."""
        index = {label: f"{label}.fpt" for label in self.written}
        (self.gallery / matcher.INDEX_FILENAME).write_text(json.dumps(index))
        loaded = matcher.load_gallery(self.gallery)
        if set(loaded) != set(self.written):
            return [f"load_gallery returned {len(loaded)} labels, "
                    f"expected the {len(self.written)} enrolled"]
        return [f"load_gallery changed {label}" for label, template in loaded.items()
                if template != self.written[label]]


def _round_trips(template, back) -> bool:
    """Same minutiae after a round trip, angles within the codec's quantum."""
    if (back.algorithm is not template.algorithm or len(back) != len(template)
            or back.width < template.width or back.height < template.height):
        return False
    quantum = math.pi / 256.0 + 1e-12
    for a, b in zip(template.minutiae, back.minutiae):
        turn = abs(a.angle - b.angle) % (2.0 * math.pi)
        if (a.x, a.y, a.kind) != (b.x, b.y, b.kind) or min(turn, 2.0 * math.pi - turn) > quantum:
            return False
    return True


WORKLOADS = {w.name: w for w in (AuthHubHbc, LifetimeWban, Enroll)}
