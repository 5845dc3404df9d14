"""Deterministic end-to-end scenario runner with per-node energy ledgers.

Each authentication request walks the configured chain (capture, optional
extraction, on-body transfer, uplink, cloud match) through a data plane that
charges nothing; :meth:`_Runner._events` then lists the request's ledger events
in chain order.  Each event is priced from the closed form's per-request
activities (:func:`derive_activities`: the model's image/template bit counts)
at the energy model's rates, so a run cross-checks against the closed-form
per-request energy and retry count.  The payload actually carried through the
data plane is the real encoded artifact (PGM capture or .fpt template), and
authentication decisions come from the real matcher.

Runs cipher with one fixed key and counter base.  Every ciphered message (the
on-body radio hop and the LoRa uplink of each request) gets its own PRESENT-CTR
counter range (:meth:`_Runner._counter_base`), so no keystream is reused within
a run.  Its keystream is computed once; the sender XORs it in and the
receiver XORs it out, so the payload passes through unchanged.

The body channel draws its link noise at the statistic level.  The channel is
linear in its noise, so a run makes one noise-free pass over its payload's
frame (``transmit``, ``highpass_bias``, the receiver's per-bit statistics),
and each frame attempt adds per-bit noise drawn from its exact distribution
(:func:`~wearauth.channel.noisy_statistics` through the innovations factor of
the run's one :func:`~wearauth.channel.statistic_noise` model: one normal a
bit, seeded by seed, request and attempt) before ``receive_decode``.  Link
statistics are exact in distribution, not sample for sample the ones of
per-sample noise; that sample-level path is the tests' oracle
(``tests/reference_channel.py``).  The noise-free pass runs in pieces of
about 2**19 samples (:func:`_piece_samples`), one alive at a time, into one
array of per-bit statistics, so a 40 KB capture's hop holds a 4 MiB piece
where its whole waveform took 20 MB; the pieces' statistics equal the whole
frame's bit for bit.  A frame past ``MAX_SAMPLES`` is refused before any
piece is built, so here the ceiling bounds a frame's samples, the time of
its clean pass, not the memory it holds.

A corrupted body-channel frame triggers exactly one retransmission (charged
again); a second failure aborts that request.  A request is charged whole or
not at all: its first event that would overdraw a ledger is the refusal, which
ends the run.  Every request's events start with capture, sensor TE where the
sensor runs it, and the on-body hop's first attempt, so a refusal among those
is found before the request's data plane runs.  A run drives at most
:data:`MAX_REQUESTS` requests.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from . import codec, present
from .channel import (
    TRANSMIT_CHUNK,
    ChannelModel,
    IntegrityError,
    StatisticNoise,
    SyncError,
    bit_statistics,
    check_modem,
    encode_frame,
    highpass_bias,
    noisy_statistics,
    receive_decode,
    statistic_noise,
    transmit,
)
from .design_space import PowerSource, SystemConfig, TeLocation, derive_activities, sensor_budget
from .energy import (
    Channel,
    ConfigError,
    DecodeMode,
    EnergyParams,
    SensorType,
    TemplateAlgorithm,
    energy_breakdown,
    per_bit_cost,
    retries,
)
from .fingerprint.image import GrayImage, read_pgm
from .fingerprint.minutiae import extract_template
from .link import check_samples
from .matcher import MatchParams, load_gallery, match

__all__ = [
    "BudgetExceeded",
    "EnergyLedger",
    "MAX_REQUESTS",
    "ScenarioConfig",
    "SimReport",
    "VerifyResult",
    "run_scenario",
    "verify_against_analytic",
    "trace_csv",
]

CIPHER_KEY = 0x0123456789ABCDEF0123
CIPHER_NONCE = 0x0011223344556677
# Counter blocks reserved for each ciphered message: up to 32 GiB of payload.
COUNTER_BLOCKS_PER_MESSAGE = 1 << 32
_HOP_WBAN, _HOP_LORA = 0, 1
# Requests one run may drive; a ``max_requests: null`` run stops here too.  A
# dead body link on a coin cell would otherwise run ~7 M channel_error requests.
# The bound keeps a run's memory finite, not its time: when noise fails every
# frame (hub TE over HBC on a coin cell at attenuation 0.6 and noise_sigma 0.8,
# say) all 65,536 requests draw two frames' noise and decode them, ~2.3 ms a
# request at 96x72 and ~13 ms at 278x144 on a shared 2-core x86 host (~2.5 min
# and ~15 min in all).  An explicit max_requests bounds the time.
MAX_REQUESTS = 1 << 16
# Samples of the clean pass's pieces, roughly: few enough pieces that each
# one's set-up (transmit's cos/sin table, ~0.25 ms) stays small, small enough
# that a piece is 4 MiB of float64.
_PIECE_TARGET = 1 << 19


def _piece_samples(bit_period: int) -> int:
    """Samples of each piece of the clean pass but the last: the whole
    multiple of ``lcm(TRANSMIT_CHUNK, bit_period)`` nearest
    :data:`_PIECE_TARGET`, and at least one.  On that grid the hum's blocks,
    the high-pass's scan steps and the bits start where a whole-frame pass
    starts them, so the statistics are the same bit for bit.  A frame
    shorter than one piece is one piece."""
    unit = math.lcm(TRANSMIT_CHUNK, bit_period)
    return unit * max(1, round(_PIECE_TARGET / unit))


class BudgetExceeded(Exception):
    def __init__(self, node: str, label: str):
        super().__init__(f"{node} cannot afford {label}")
        self.node = node
        self.label = label


class EnergyLedger:
    """Itemized per-node energy account; a charge that would overdraw raises."""

    def __init__(self, role: str, initial: float):
        if initial < 0:
            raise ValueError("initial budget must be non-negative")
        self.role = role
        self.initial = initial
        self.charges: list[tuple[str, float]] = []
        self._charged = 0.0

    @property
    def remaining(self) -> float:
        return self.initial - self._charged

    @property
    def total_charged(self) -> float:
        return self._charged

    def charge(self, label: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("charges must be non-negative")
        if self.initial - (self._charged + joules) < 0:
            raise BudgetExceeded(self.role, label)
        self._charged += joules
        self.charges.append((label, joules))


_Event = tuple[EnergyLedger, str, float]   # (ledger, label, joules)


_SCENARIO_KEYS = ("system", "probe_image", "gallery_dir", "channel", "seed", "match",
                  "max_requests", "bit_period", "decode_mode")
_SYSTEM_KEYS = ("te_location", "on_body_channel", "sensor_type", "sensor_power",
                "lora_distance", "te_variant")


def _block(value: Any, name: str, allowed, required: tuple[str, ...] = ()) -> dict:
    """A JSON object holding only ``allowed`` keys and every ``required`` one."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{name} lacks required key(s): {', '.join(missing)}")
    return value


def _integer(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value: Any, name: str) -> float:
    # abs() compares an int exactly, so integers beyond the float range fail too.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _string(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run needs, loadable from JSON."""

    system: SystemConfig
    probe_image: Path
    gallery_dir: Path
    channel: ChannelModel = ChannelModel()
    seed: int = 0
    match_params: MatchParams = field(default_factory=MatchParams)
    max_requests: int | None = None     # None: run until a ledger refuses, or MAX_REQUESTS
    bit_period: int = 8                 # samples per data bit on the body channel
    decode_mode: DecodeMode = DecodeMode.INTEGRATE_AND_DUMP

    def __post_init__(self) -> None:
        if self.max_requests is not None and not 0 <= self.max_requests <= MAX_REQUESTS:
            raise ConfigError(f"max_requests must lie in [0, {MAX_REQUESTS}]")
        if self.seed < 0:       # refused whether or not the link draws noise
            raise ConfigError("seed must be non-negative")
        # Checked on every on-body link, so a WBAN scenario cannot carry
        # settings an HBC one would refuse.
        check_modem(self.bit_period, self.channel.highpass_cutoff)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        """Load a scenario.

        Unknown or missing keys and mistyped values raise :class:`ConfigError`;
        text that is not UTF-8 JSON and values out of a field's range raise
        :class:`ValueError`, and an unreadable file :class:`OSError`.
        """
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except RecursionError:
            raise ConfigError("scenario JSON nests too deeply") from None
        doc = _block(raw, "scenario", _SCENARIO_KEYS, ("system", "probe_image", "gallery_dir"))
        base = path.parent
        sysdoc = _block(doc["system"], "system", _SYSTEM_KEYS,
                        ("te_location", "on_body_channel"))
        system = SystemConfig(
            te_location=TeLocation(sysdoc["te_location"]),
            on_body_channel=Channel(sysdoc["on_body_channel"]),
            sensor_type=SensorType(sysdoc.get("sensor_type", "capacitive")),
            sensor_power=PowerSource(sysdoc.get("sensor_power", "rf_harvest")),
            lora_distance=_number(sysdoc.get("lora_distance", 1000.0), "lora_distance"),
            te_variant=TemplateAlgorithm(sysdoc.get("te_variant", "high_accuracy")),
        )
        chdoc = _block(doc.get("channel", {}), "channel", [f.name for f in fields(ChannelModel)])
        for key, value in chdoc.items():
            if not (key == "highpass_cutoff" and value is None):
                _number(value, f"channel.{key}")
        max_requests = doc.get("max_requests")
        return cls(
            system=system,
            probe_image=(base / _string(doc["probe_image"], "probe_image")).resolve(),
            gallery_dir=(base / _string(doc["gallery_dir"], "gallery_dir")).resolve(),
            channel=ChannelModel(**chdoc),
            seed=_integer(doc.get("seed", 0), "seed"),
            match_params=MatchParams(**_block(doc.get("match", {}), "match",
                                              [f.name for f in fields(MatchParams)])),
            max_requests=None if max_requests is None else _integer(max_requests, "max_requests"),
            bit_period=_integer(doc.get("bit_period", 8), "bit_period"),
            decode_mode=DecodeMode(doc.get("decode_mode", DecodeMode.INTEGRATE_AND_DUMP)),
        )


@dataclass
class _RequestOutcome:
    completed: bool
    decision: str              # accept | reject | channel_error
    score: float
    retransmissions: int
    eyes: list[float]
    bers: list[float]
    payload_bytes_on_body: int
    payload_bytes_lora: int


@dataclass
class SimReport:
    scenario: dict
    ledgers: list[EnergyLedger]
    requests_attempted: int
    requests_completed: int
    decisions: list[str]
    scores: list[float]
    retransmissions: int
    eye_openings: list[float]
    bit_error_rates: list[float]
    analytic: dict
    refusal: dict | None
    trace: list[tuple[int, int, str, str, float]]  # seq, request, node, label, joules
    payload_bytes_on_body: int
    payload_bytes_lora: int

    def ledger(self, role: str) -> EnergyLedger:
        for led in self.ledgers:
            if led.role == role:
                return led
        raise KeyError(role)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ledgers": [
                {
                    "role": led.role,
                    "initial_j": None if math.isinf(led.initial) else led.initial,
                    "charged_j": led.total_charged,
                    "remaining_j": None if math.isinf(led.remaining) else led.remaining,
                    "events": len(led.charges),
                }
                for led in self.ledgers
            ],
            "requests_attempted": self.requests_attempted,
            "requests_completed": self.requests_completed,
            "decisions": self.decisions,
            "scores": self.scores,
            "channel": {
                "retransmissions": self.retransmissions,
                "eye_opening_min": min(self.eye_openings) if self.eye_openings else None,
                "eye_opening_mean": (sum(self.eye_openings) / len(self.eye_openings))
                if self.eye_openings else None,
                "ber_mean": (sum(self.bit_error_rates) / len(self.bit_error_rates))
                if self.bit_error_rates else None,
            },
            "payload_bytes_on_body": self.payload_bytes_on_body,
            "payload_bytes_lora": self.payload_bytes_lora,
            "analytic": self.analytic,
            "refusal": self.refusal,
        }


def trace_csv(report: SimReport) -> str:
    lines = ["seq,request,node,event,joules"]
    lines += [f"{seq},{req},{node},{label},{joules:.12e}"
              for seq, req, node, label, joules in report.trace]
    return "\n".join(lines) + "\n"


def _refusal(events: list[_Event]) -> dict | None:
    """The first event that would overdraw its ledger if ``events`` were
    charged in order, summed exactly as :meth:`EnergyLedger.charge` sums."""
    charged: dict[EnergyLedger, float] = {}
    for ledger, label, joules in events:
        total = charged.get(ledger, ledger.total_charged) + joules
        if ledger.initial - total < 0:
            return {"node": ledger.role, "event": label}
        charged[ledger] = total
    return None


class _Runner:
    def __init__(self, cfg: ScenarioConfig, params: EnergyParams):
        self.cfg = cfg
        self.params = params
        self.system = cfg.system
        self.probe = read_pgm(cfg.probe_image)
        self.gallery = load_gallery(cfg.gallery_dir)
        self.sensor = EnergyLedger("sensor", sensor_budget(self.system.sensor_power, params))
        self.hub = EnergyLedger("hub", params.hub_budget)
        self.cloud = EnergyLedger("cloud", math.inf)
        self.ledgers = [self.sensor, self.hub, self.cloud]
        self.request_idx = 0
        # Every event is priced once, from the closed form's per-request work.
        self.activities = derive_activities(self.system, params)
        sensor_act, hub_act = self.activities
        on_body = self.system.on_body_channel
        lora_bits = hub_act.bits_tx[Channel.LORA]
        te = params.te_energy(self.system.te_variant)
        self._joules = {
            ("sensor", "capture"): params.capture_energy(self.system.sensor_type),
            ("sensor", "te_extract"): te,
            ("sensor", "encrypt"): sensor_act.bits_encrypted * params.e_bit_encrypt,
            ("sensor", f"tx_{on_body.value}"):
                sensor_act.bits_tx[on_body] * per_bit_cost(on_body, "tx", None, params),
            ("hub", f"rx_{on_body.value}"):
                hub_act.bits_rx[on_body] * per_bit_cost(on_body, "rx", None, params),
            ("hub", "te_extract"): te,
            ("hub", "encrypt"): hub_act.bits_encrypted * params.e_bit_encrypt,
            ("hub", "tx_lora"):
                lora_bits * per_bit_cost(Channel.LORA, "tx", hub_act.lora_distance, params),
            ("cloud", "rx_lora"): lora_bits * per_bit_cost(Channel.LORA, "rx", None, params),
            ("cloud", "te_extract"): te,
            ("cloud", "match"): 0.0,
        }

    def _counter_base(self, hop: int) -> int:
        """First counter block of this request's message on ``hop``.

        Message m = 2 * request + hop starts at block
        ``CIPHER_NONCE + m * COUNTER_BLOCKS_PER_MESSAGE``.  Two messages'
        ranges are disjoint while each payload is at most
        ``8 * COUNTER_BLOCKS_PER_MESSAGE`` bytes (32 GiB).  A run has at most
        :data:`MAX_REQUESTS` (2**16) requests, so m < 2**17 and every range
        ends below ``CIPHER_NONCE + 2**49`` < 2**64: no counter wraps.
        """
        return CIPHER_NONCE + (2 * self.request_idx + hop) * COUNTER_BLOCKS_PER_MESSAGE

    def _ciphered_hop(self, payload: bytes, hop: int) -> bytes:
        """Carry ``payload`` as this request's message on ``hop``.  The message's
        one keystream is computed; the pipe is error-free and the receiver XORs
        out what the sender XORed in, so ``payload`` arrives unchanged."""
        present.ctr_crypt(bytes(len(payload)), CIPHER_KEY, self._counter_base(hop))
        return payload

    @cached_property
    def _payload(self) -> bytes:
        """The run's on-body payload, built on its first request from its one
        probe: the sensor's encoded template, or the PGM capture."""
        if self.system.te_location is TeLocation.SENSOR:
            return codec.encode(extract_template(self.probe, self.system.te_variant))
        return self.probe.to_pgm_bytes()

    @cached_property
    def _clean_link(self) -> tuple[np.ndarray, np.ndarray, StatisticNoise]:
        """The run's body link, built on its first HBC hop: the per-bit
        statistics of the payload's frame without noise, the frame bits and
        the receiver's noise model.

        The frame's waveform is built, filtered and read a piece of
        :func:`_piece_samples` at a time, each piece starting at its link-clock
        sample and from the filter state the piece before left, and freed
        before the next is built."""
        cfg = self.cfg
        bit_period, cutoff = cfg.bit_period, cfg.channel.highpass_cutoff
        noise = statistic_noise(bit_period, cfg.decode_mode, cutoff)
        symbols = encode_frame(self._payload)
        half = bit_period // 2
        check_samples(symbols.size * half)
        stats = np.empty(symbols.size // 2)
        step = _piece_samples(bit_period) // half            # symbols a piece
        state = (0.0, 0.0)              # the high-pass's last input and output
        for first in range(0, symbols.size, step):
            w = transmit(symbols[first:first + step], bit_period, cfg.channel,
                         start=first * half)
            if cutoff is not None:
                x_last = float(w.samples[-1])
                w = highpass_bias(w, cutoff, state)
                state = x_last, float(w.samples[-1])
            stats[first // 2:(first + step) // 2] = bit_statistics(w, cfg.decode_mode)
            del w
        reference = symbols[0::2] > 0     # the frame bits: a 1 is sent as (+1, -1)
        return stats, reference, noise

    def _body_channel_hop(self, attempt: int) -> tuple[bytes, float, float]:
        """One framed transfer over the body channel: (payload, eye, ber)."""
        clean, reference, noise = self._clean_link
        cfg = self.cfg
        stats = noisy_statistics(clean, noise, cfg.channel,
                                 seed=(cfg.seed, self.request_idx, attempt))
        decoded, rx = receive_decode(stats, reference_bits=reference)
        return decoded, rx.eye_opening, rx.ber if rx.ber is not None else 0.0

    def _transfer_on_body(self) -> tuple[bytes | None, int, list[float], list[float]]:
        """Run the on-body hop; one retransmission on a bad frame."""
        eyes: list[float] = []
        bers: list[float] = []
        if self.system.on_body_channel is Channel.WBAN:
            return self._ciphered_hop(self._payload, _HOP_WBAN), 0, eyes, bers
        retransmissions = 0
        for attempt in range(2):
            try:
                decoded, eye, frame_ber = self._body_channel_hop(attempt)
            except (SyncError, IntegrityError):
                retransmissions += 1
                continue
            eyes.append(eye)
            bers.append(frame_ber)
            return decoded, retransmissions, eyes, bers
        return None, retransmissions, eyes, bers

    def _run_request_data_plane(self) -> _RequestOutcome:
        system = self.system
        on_body_len = len(self._payload)

        received, retrans, eyes, bers = self._transfer_on_body()
        if received is None:
            return _RequestOutcome(False, "channel_error", 0.0, retrans, eyes, bers,
                                   on_body_len, 0)

        if system.te_location is TeLocation.HUB:
            img = GrayImage.from_pgm_bytes(received)
            template = extract_template(img, system.te_variant)
            lora_payload = codec.encode(template)
        else:
            lora_payload = received
        lora_len = len(lora_payload)

        pt = self._ciphered_hop(lora_payload, _HOP_LORA)

        if system.te_location is TeLocation.CLOUD:
            img = GrayImage.from_pgm_bytes(pt)
            template = extract_template(img, system.te_variant)
        else:
            template = codec.decode(pt)

        scores = [match(template, gal, self.cfg.match_params)
                  for _, gal in sorted(self.gallery.items())]
        best_score = max((r.score for r in scores), default=0.0)
        decision = "accept" if any(r.accepted for r in scores) else "reject"
        return _RequestOutcome(True, decision, best_score, retrans, eyes, bers,
                               on_body_len, lora_len)

    def _events(self, attempts: int = 1, completed: bool = False) -> list[_Event]:
        """The ledger events of a request that made ``attempts`` frame
        attempts (HBC pays a tx/rx pair for each) and ``completed`` or not,
        in the order its data plane incurs them.  Every outcome makes at
        least one attempt, so the defaults give the prefix of every
        request's events: capture, sensor TE, and the on-body hop's first
        attempt."""
        te = self.system.te_location
        sensor, hub, cloud = self.sensor, self.hub, self.cloud
        events = [(sensor, "capture")]
        if te is TeLocation.SENSOR:
            events.append((sensor, "te_extract"))
        if self.system.on_body_channel is Channel.WBAN:
            events += [(sensor, "encrypt"), (sensor, "tx_wban"), (hub, "rx_wban")]
        else:
            events += [(sensor, "tx_hbc"), (hub, "rx_hbc")] * attempts
        if completed:
            if te is TeLocation.HUB:
                events.append((hub, "te_extract"))
            events += [(hub, "encrypt"), (hub, "tx_lora"), (cloud, "rx_lora")]
            if te is TeLocation.CLOUD:
                events.append((cloud, "te_extract"))
            events.append((cloud, "match"))
        return [(led, label, self._joules[led.role, label]) for led, label in events]

    def run(self) -> SimReport:
        cfg, params = self.cfg, self.params
        sensor_act, hub_act = self.activities
        sensor_e = energy_breakdown(sensor_act, self.system.sensor_type, params).total
        hub_e = energy_breakdown(hub_act, SensorType.NONE, params).total
        sensor_r = retries(self.sensor.initial, sensor_e)
        hub_r = retries(self.hub.initial, hub_e)
        analytic = {
            "sensor_energy_per_request_j": sensor_e,
            "hub_energy_per_request_j": hub_e,
            "sensor_retries": sensor_r,
            "hub_retries": hub_r,
            "supported_requests": math.floor(min(sensor_r, hub_r)),
        }

        decisions: list[str] = []
        scores: list[float] = []
        eyes: list[float] = []
        bers: list[float] = []
        trace: list[tuple[int, int, str, str, float]] = []
        retransmissions = 0
        refusal = None
        attempted = completed = 0
        limit = MAX_REQUESTS if cfg.max_requests is None else cfg.max_requests
        # For deterministic channels every request is identical; the first
        # request's outcome and events are replayed for the rest.
        cacheable = cfg.channel.deterministic or self.system.on_body_channel is Channel.WBAN
        cached: tuple[_RequestOutcome, list[_Event]] | None = None
        on_body_len = lora_len = 0

        while attempted < limit:
            if cached is None:
                # A request refused within the prefix of its events costs no
                # data-plane pass: the outcome cannot change that refusal.
                refusal = _refusal(self._events())
                if refusal is not None:
                    break
                outcome = self._run_request_data_plane()
                events = self._events(outcome.retransmissions + outcome.completed,
                                      outcome.completed)
                if cacheable:
                    cached = outcome, events
            else:
                outcome, events = cached
            refusal = _refusal(events)
            if refusal is not None:
                break
            for ledger, label, joules in events:
                ledger.charge(label, joules)
                trace.append((len(trace), self.request_idx, ledger.role, label, joules))
            attempted += 1
            self.request_idx += 1
            retransmissions += outcome.retransmissions
            eyes.extend(outcome.eyes)
            bers.extend(outcome.bers)
            on_body_len = outcome.payload_bytes_on_body or on_body_len
            lora_len = outcome.payload_bytes_lora or lora_len
            decisions.append(outcome.decision)
            scores.append(outcome.score)
            if outcome.completed:
                completed += 1

        scenario_doc = {
            "system": self.system.to_dict(),
            "probe_image": str(cfg.probe_image),
            "gallery_dir": str(cfg.gallery_dir),
            "seed": cfg.seed,
            "bit_period": cfg.bit_period,
            "decode_mode": cfg.decode_mode.value,
            "max_requests": cfg.max_requests,
        }
        return SimReport(
            scenario=scenario_doc,
            ledgers=self.ledgers,
            requests_attempted=attempted,
            requests_completed=completed,
            decisions=decisions,
            scores=scores,
            retransmissions=retransmissions,
            eye_openings=eyes,
            bit_error_rates=bers,
            analytic=analytic,
            refusal=refusal,
            trace=trace,
            payload_bytes_on_body=on_body_len,
            payload_bytes_lora=lora_len,
        )


def run_scenario(cfg: ScenarioConfig, params: EnergyParams | None = None) -> SimReport:
    """Execute one scenario; see the module docstring for the event chain."""
    return _Runner(cfg, params or EnergyParams()).run()


@dataclass(frozen=True)
class VerifyResult:
    applicable: bool
    passed: bool
    reason: str
    details: dict

    def to_dict(self) -> dict:
        return {"applicable": self.applicable, "passed": self.passed,
                "reason": self.reason, "details": self.details}


def verify_against_analytic(report: SimReport, params: EnergyParams,
                            tolerance: float = 1e-9) -> VerifyResult:
    """Check simulated per-request energies and counts against the closed form.

    Only meaningful for clean-channel runs: any retransmission makes the
    per-request energy legitimately exceed the model, so the check is skipped
    with a reason.

    The body reads only ``report``: its ``analytic`` block, its ledgers and
    its scenario.  ``params`` is not read; the closed form compared against
    is the one the run was priced with, whatever ``params`` is passed here.
    """
    if report.retransmissions > 0:
        return VerifyResult(False, False,
                            "retransmissions occurred; per-request energy exceeds the closed form",
                            {})
    details: dict[str, Any] = {}
    passed = True
    n = report.requests_completed
    analytic_e = {
        "sensor": report.analytic["sensor_energy_per_request_j"],
        "hub": report.analytic["hub_energy_per_request_j"],
    }
    for role, expected in analytic_e.items():
        led = report.ledger(role)
        if n == 0:
            continue
        sim_per_request = led.total_charged / n
        rel = abs(sim_per_request - expected) / expected if expected else 0.0
        details[role] = {"sim_j": sim_per_request, "analytic_j": expected, "rel_err": rel}
        if rel > tolerance:
            passed = False
    cap = report.scenario["max_requests"]
    expected_n = min(report.analytic["supported_requests"],
                     MAX_REQUESTS if cap is None else cap)
    details["requests"] = {"sim": n, "analytic_floor": expected_n}
    if n != expected_n:
        passed = False
    return VerifyResult(True, passed, "ok" if passed else "mismatch", details)
