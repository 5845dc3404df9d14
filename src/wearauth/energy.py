"""Per-request energy model for the wearable authentication chain.

All computation is in joules, meters and bits.  Budgets quoted in W·hr
convert at 1 W·hr = 3600 J.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Channel",
    "ConfigError",
    "DecodeMode",
    "EnergyBreakdown",
    "EnergyParams",
    "NodeActivity",
    "SensorType",
    "TemplateAlgorithm",
    "lora_energy_per_bit",
    "energy_breakdown",
    "per_bit_cost",
    "retries",
]


class ConfigError(ValueError):
    """A required parameter is missing or malformed."""


class Channel(str, enum.Enum):
    WBAN = "wban"
    HBC = "hbc"
    LORA = "lora"


class DecodeMode(str, enum.Enum):
    DIRECT = "direct_sample"
    INTEGRATE_AND_DUMP = "integrate_and_dump"


class SensorType(str, enum.Enum):
    CAPACITIVE = "capacitive"
    OPTICAL = "optical"
    NONE = "none"  # hub/cloud roles: capture energy is always zero


class TemplateAlgorithm(str, enum.Enum):
    """Template-extraction (TE) variant; the extractor runs it, the model prices it."""

    HIGH_ACCURACY = "high_accuracy"
    LIGHTWEIGHT = "lightweight"


_BIT_COUNTS = ("image_bits", "template_bits")


@dataclass(frozen=True)
class EnergyParams:
    """Per-bit, per-capture and per-extraction energy constants plus node budgets.

    Defaults are the published figures for the system under study; any field
    can be overridden programmatically or through a flat key-value file
    (see :meth:`from_file`).
    """

    e_bit_wban: float = 10e-9          # J/bit, on-body radio
    e_bit_hbc: float = 79e-12          # J/bit, body-coupled link
    e_bit_lora_ref: float = 68e-6      # J/bit at the reference distance
    d_ref: float = 500.0               # m, LoRa reference distance
    e_bit_encrypt: float = 100e-12     # J/bit through the block cipher
    e_capture_capacitive: float = 22.3e-9   # J per image capture
    e_capture_optical: float = 66e-3        # J per image capture
    e_te_high: float = 2.94            # J per high-accuracy extraction
    e_te_light: float | None = None    # J per lightweight extraction (no published value)
    image_bits: int = 320256           # raw capture size
    template_bits: int = 1408          # encoded minutiae template size
    budget_rf_harvest: float = 3.6e-3  # J per hour (1 uW·hr)
    budget_coin_cell: float = 360.0    # J per charge (100 mW·hr)
    budget_hub_total: float = 16200.0  # J per charge (4.5 W·hr)
    hub_share: float = 0.10            # fraction of hub budget granted to authentication

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("e_bit_wban", "e_bit_hbc", "e_bit_lora_ref", "e_bit_encrypt",
                     "e_capture_capacitive", "e_capture_optical", "e_te_high"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if self.e_te_light is not None and not self.e_te_light > 0:
            raise ValueError("e_te_light must be strictly positive when set")
        if not self.d_ref > 0:
            raise ValueError("d_ref must be positive")
        if not 0 < self.hub_share <= 1:
            raise ValueError("hub_share must lie in (0, 1]")
        for name in _BIT_COUNTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.image_bits <= self.template_bits:
            raise ValueError("image_bits must exceed template_bits")
        for name in ("budget_rf_harvest", "budget_coin_cell", "budget_hub_total"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def hub_budget(self) -> float:
        """Joules of the hub battery dedicated to authentication."""
        return self.budget_hub_total * self.hub_share

    def capture_energy(self, sensor: SensorType) -> float:
        if sensor is SensorType.CAPACITIVE:
            return self.e_capture_capacitive
        if sensor is SensorType.OPTICAL:
            return self.e_capture_optical
        return 0.0

    def te_energy(self, variant: TemplateAlgorithm) -> float:
        if variant is TemplateAlgorithm.HIGH_ACCURACY:
            return self.e_te_high
        if self.e_te_light is None:
            raise ConfigError("e_te_light is not set; configure it to use the lightweight variant")
        return self.e_te_light

    @classmethod
    def from_file(cls, path: str | Path) -> "EnergyParams":
        """Load overrides from a flat ``key = value`` file (SI units, '#' comments).

        Raises :class:`ConfigError` for anything but UTF-8 lines of known keys
        and values that make valid parameters (and :class:`OSError` when the
        file cannot be read).
        """
        fields = {f: None for f in cls.__dataclass_fields__}
        overrides: dict[str, float | int] = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown parameter {key!r}")
            try:
                parsed: float | int = float(value.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad number {value.strip()!r}") from exc
            if key in _BIT_COUNTS and math.isfinite(parsed):
                if not (parsed > 0 and parsed.is_integer()):
                    raise ConfigError(f"{path}:{lineno}: {key} must be a positive integer, "
                                      f"got {value.strip()!r}")
                parsed = int(parsed)
            overrides[key] = parsed
        try:
            return cls(**overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class NodeActivity:
    """Countable work one node performs for a single authentication request."""

    captures: int = 0
    te_runs: dict[TemplateAlgorithm, int] = field(default_factory=dict)  # extractions per variant
    bits_rx: dict[Channel, int] = field(default_factory=dict)
    bits_tx: dict[Channel, int] = field(default_factory=dict)
    bits_encrypted: int = 0
    lora_distance: float | None = None  # m, required when LoRa bits are present

    def __post_init__(self) -> None:
        for name in ("captures", "bits_encrypted"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for variant, runs in self.te_runs.items():
            if runs < 0:
                raise ValueError(f"negative run count for {variant}")
        for mapping in (self.bits_rx, self.bits_tx):
            for channel, bits in mapping.items():
                if bits < 0:
                    raise ValueError(f"negative bit count for {channel}")

    def __add__(self, other: "NodeActivity") -> "NodeActivity":
        """The work of both, term by term, at the first LoRa distance given."""
        return NodeActivity(
            captures=self.captures + other.captures,
            te_runs=_summed(self.te_runs, other.te_runs),
            bits_rx=_summed(self.bits_rx, other.bits_rx),
            bits_tx=_summed(self.bits_tx, other.bits_tx),
            bits_encrypted=self.bits_encrypted + other.bits_encrypted,
            lora_distance=other.lora_distance if self.lora_distance is None else self.lora_distance,
        )


def _summed(a: dict, b: dict) -> dict:
    return {key: a.get(key, 0) + b.get(key, 0) for key in {**a, **b}}


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term decomposition of one node's per-request energy, in joules."""

    capture: float
    te: float
    comm: float
    encrypt: float

    @property
    def total(self) -> float:
        return self.capture + self.te + self.comm + self.encrypt


def lora_energy_per_bit(distance: float, params: EnergyParams) -> float:
    """Per-bit LoRa cost at ``distance`` meters; scales with the square of distance.

    Raises :class:`ValueError` when the cost is not a finite float64.
    """
    if not distance > 0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    try:
        energy = params.e_bit_lora_ref * (distance / params.d_ref) ** 2
    except OverflowError:       # a float ** raises where * would give inf
        energy = math.inf
    if not math.isfinite(energy):
        raise ValueError(f"LoRa energy per bit overflows float64 at distance {distance!r} m "
                         f"with d_ref {params.d_ref!r} m")
    return energy


def per_bit_cost(channel: Channel, direction: str, distance: float | None,
                 params: EnergyParams) -> float:
    """Joules per bit one node spends sending (``"tx"``) or receiving (``"rx"``)."""
    if channel is Channel.WBAN:
        return params.e_bit_wban
    if channel is Channel.HBC:
        return params.e_bit_hbc
    # LoRa: receive happens at the unconstrained cloud and is not charged.
    if direction == "rx":
        return 0.0
    if distance is None:
        raise ValueError("LoRa bits present but no lora_distance given")
    return lora_energy_per_bit(distance, params)


def energy_breakdown(activity: NodeActivity, sensor: SensorType,
                     params: EnergyParams) -> EnergyBreakdown:
    """Decompose one node's per-request energy into capture/TE/comm/encrypt terms."""
    capture = activity.captures * params.capture_energy(sensor)
    te = 0.0
    for variant, runs in activity.te_runs.items():
        if runs:
            te += runs * params.te_energy(TemplateAlgorithm(variant))
    comm = 0.0
    for direction, mapping in (("tx", activity.bits_tx), ("rx", activity.bits_rx)):
        for channel, bits in mapping.items():
            if bits:
                comm += bits * per_bit_cost(Channel(channel), direction,
                                            activity.lora_distance, params)
    encrypt = activity.bits_encrypted * params.e_bit_encrypt
    return EnergyBreakdown(capture=capture, te=te, comm=comm, encrypt=encrypt)


def retries(available: float, per_request: float) -> float:
    """Number of requests an energy budget supports, as a real-valued ratio.

    Callers floor the value for per-charge counts and round per-hour rates
    for display; the raw ratio is returned here.
    """
    if not per_request > 0:
        raise ValueError(f"per_request must be positive, got {per_request!r}")
    if available < 0:
        raise ValueError(f"available must be non-negative, got {available!r}")
    return available / per_request
