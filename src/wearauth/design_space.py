"""Enumeration of the six resource allocations and their lifetime numbers.

The design space is the cross product of where template extraction (TE)
runs (sensor, hub, or cloud) and which on-body channel carries the capture
(WBAN or HBC), evaluated for both sensor types and both power sources.
"""

from __future__ import annotations

import enum
import io
import json
import math
from dataclasses import dataclass

from .energy import (
    Channel,
    EnergyBreakdown,
    EnergyParams,
    NodeActivity,
    SensorType,
    energy_breakdown,
    retries,
)
from .fingerprint.minutiae import TemplateAlgorithm

__all__ = [
    "TeLocation",
    "PowerSource",
    "SystemConfig",
    "LifetimeReport",
    "ALLOCATION_ROWS",
    "derive_activities",
    "evaluate",
    "display_rate",
    "table2",
    "table2_csv",
    "table2_json",
    "figure4_export",
    "figure4_csv",
    "figure4_json",
]


class TeLocation(str, enum.Enum):
    SENSOR = "sensor"
    HUB = "hub"
    CLOUD = "cloud"


class PowerSource(str, enum.Enum):
    RF_HARVEST = "rf_harvest"
    COIN_CELL = "coin_cell"


# The six allocation rows (a)-(f): TE placement crossed with the on-body channel.
ALLOCATION_ROWS: dict[str, tuple[TeLocation, Channel]] = {
    "a": (TeLocation.SENSOR, Channel.WBAN),
    "b": (TeLocation.SENSOR, Channel.HBC),
    "c": (TeLocation.HUB, Channel.WBAN),
    "d": (TeLocation.HUB, Channel.HBC),
    "e": (TeLocation.CLOUD, Channel.WBAN),
    "f": (TeLocation.CLOUD, Channel.HBC),
}


@dataclass(frozen=True)
class SystemConfig:
    """One point of the design space."""

    te_location: TeLocation
    on_body_channel: Channel
    sensor_type: SensorType = SensorType.CAPACITIVE
    sensor_power: PowerSource = PowerSource.RF_HARVEST
    lora_distance: float = 1000.0
    te_variant: TemplateAlgorithm = TemplateAlgorithm.HIGH_ACCURACY

    def __post_init__(self) -> None:
        if self.on_body_channel is Channel.LORA:
            raise ValueError("on-body channel must be wban or hbc")
        if self.sensor_type is SensorType.NONE:
            raise ValueError("sensor_type must be capacitive or optical")
        if not self.lora_distance > 0:
            raise ValueError("lora_distance must be positive")

    @property
    def row(self) -> str:
        """Allocation row letter (a)-(f) for this TE placement and channel."""
        for letter, (loc, ch) in ALLOCATION_ROWS.items():
            if loc is self.te_location and ch is self.on_body_channel:
                return letter
        raise AssertionError("unreachable")

    def to_dict(self) -> dict:
        return {
            "te_location": self.te_location.value,
            "on_body_channel": self.on_body_channel.value,
            "sensor_type": self.sensor_type.value,
            "sensor_power": self.sensor_power.value,
            "lora_distance_m": self.lora_distance,
            "te_variant": self.te_variant.value,
        }


def derive_activities(config: SystemConfig, params: EnergyParams) -> tuple[NodeActivity, NodeActivity]:
    """Per-request work of (sensor, hub) for one allocation.

    The sensor captures once and ships either the template (TE on sensor) or
    the raw image over the on-body channel, encrypting only when that channel
    is WBAN.  The hub receives those bits, runs TE when allocated to it, and
    uplinks the (always encrypted) LoRa payload.
    """
    te_at_sensor = config.te_location is TeLocation.SENSOR
    on_body_bits = params.template_bits if te_at_sensor else params.image_bits
    lora_bits = (params.template_bits
                 if config.te_location in (TeLocation.SENSOR, TeLocation.HUB)
                 else params.image_bits)
    wban = config.on_body_channel is Channel.WBAN

    sensor = NodeActivity(
        captures=1,
        te_high=1 if te_at_sensor and config.te_variant is TemplateAlgorithm.HIGH_ACCURACY else 0,
        te_light=1 if te_at_sensor and config.te_variant is TemplateAlgorithm.LIGHTWEIGHT else 0,
        bits_tx={config.on_body_channel: on_body_bits},
        bits_encrypted=on_body_bits if wban else 0,
    )
    te_at_hub = config.te_location is TeLocation.HUB
    hub = NodeActivity(
        te_high=1 if te_at_hub and config.te_variant is TemplateAlgorithm.HIGH_ACCURACY else 0,
        te_light=1 if te_at_hub and config.te_variant is TemplateAlgorithm.LIGHTWEIGHT else 0,
        bits_rx={config.on_body_channel: on_body_bits},
        bits_tx={Channel.LORA: lora_bits},
        bits_encrypted=lora_bits,
        lora_distance=config.lora_distance,
    )
    return sensor, hub


@dataclass(frozen=True)
class LifetimeReport:
    """Per-request energy and supported request rates for one allocation."""

    config: SystemConfig
    sensor_breakdown: EnergyBreakdown
    hub_breakdown: EnergyBreakdown
    sensor_retries: float   # per hour (RF harvest) or per charge (coin cell)
    hub_retries: float      # per charge of the hub battery share
    feasible: bool          # the sensor supports at least one request

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "config": {"row": cfg.row, **cfg.to_dict()},
            "sensor": {
                "capture_j": self.sensor_breakdown.capture,
                "te_j": self.sensor_breakdown.te,
                "comm_j": self.sensor_breakdown.comm,
                "encrypt_j": self.sensor_breakdown.encrypt,
                "total_j": self.sensor_breakdown.total,
                "retries": self.sensor_retries,
                "retries_display": display_count(self.sensor_retries)
                if cfg.sensor_power is PowerSource.COIN_CELL
                else display_rate(self.sensor_retries),
            },
            "hub": {
                "capture_j": self.hub_breakdown.capture,
                "te_j": self.hub_breakdown.te,
                "comm_j": self.hub_breakdown.comm,
                "encrypt_j": self.hub_breakdown.encrypt,
                "total_j": self.hub_breakdown.total,
                "retries": self.hub_retries,
                "retries_display": display_count(self.hub_retries),
            },
            "feasible": self.feasible,
        }


def sensor_budget(power: PowerSource, params: EnergyParams) -> float:
    return (params.budget_rf_harvest if power is PowerSource.RF_HARVEST
            else params.budget_coin_cell)


def evaluate(config: SystemConfig, params: EnergyParams) -> LifetimeReport:
    """Energy breakdowns and retries for one allocation point."""
    sensor_act, hub_act = derive_activities(config, params)
    sensor_bd = energy_breakdown(sensor_act, config.sensor_type, params)
    hub_bd = energy_breakdown(hub_act, SensorType.NONE, params)
    sensor_r = retries(sensor_budget(config.sensor_power, params), sensor_bd.total)
    hub_r = retries(params.hub_budget, hub_bd.total)
    return LifetimeReport(
        config=config,
        sensor_breakdown=sensor_bd,
        hub_breakdown=hub_bd,
        sensor_retries=sensor_r,
        hub_retries=hub_r,
        feasible=sensor_r >= 1.0,
    )


def display_rate(value: float) -> str:
    """Format a retries-per-hour rate at the precision the summary table uses.

    Three decimals below 0.01, two decimals below 10, one decimal above.
    """
    if value < 0.01:
        return f"{value:.3f}"
    if value < 10:
        return f"{value:.2f}"
    return f"{value:.1f}"


def display_count(value: float) -> str:
    """Per-charge retries are displayed floored to whole requests.

    An overflowing count (energies so small that budget / cost is inf) is
    shown as ``inf``, as :func:`display_rate` shows it.
    """
    return str(math.floor(value)) if math.isfinite(value) else f"{value}"


_TABLE2_COLUMNS = (
    (TeLocation.SENSOR, Channel.WBAN),
    (TeLocation.SENSOR, Channel.HBC),
    (TeLocation.HUB, Channel.WBAN),
    (TeLocation.HUB, Channel.HBC),
)
_TABLE2_HEADER = ("sensor", "te_sensor_wban", "te_sensor_hbc", "te_hub_wban", "te_hub_hbc")


def table2(params: EnergyParams | None = None) -> dict[str, list[float]]:
    """RF-harvested sensor lifetime (retries/hour) over the 2x4 summary grid.

    Values are raw rates; :func:`display_rate` renders them at table precision.
    Each cell is evaluate() on the corresponding allocation, nothing else.
    """
    params = params or EnergyParams()
    grid: dict[str, list[float]] = {}
    for sensor_type in (SensorType.OPTICAL, SensorType.CAPACITIVE):
        row = []
        for te_loc, channel in _TABLE2_COLUMNS:
            cfg = SystemConfig(te_location=te_loc, on_body_channel=channel,
                               sensor_type=sensor_type,
                               sensor_power=PowerSource.RF_HARVEST)
            row.append(evaluate(cfg, params).sensor_retries)
        grid[sensor_type.value] = row
    return grid


def table2_csv(params: EnergyParams | None = None) -> str:
    grid = table2(params)
    out = io.StringIO()
    out.write(",".join(_TABLE2_HEADER) + "\n")
    for sensor, row in grid.items():
        out.write(",".join([sensor] + [display_rate(v) for v in row]) + "\n")
    return out.getvalue()


def table2_json(params: EnergyParams | None = None) -> str:
    grid = table2(params)
    doc = {
        sensor: {
            f"{loc.value}_{ch.value}": display_rate(v)
            for (loc, ch), v in zip(_TABLE2_COLUMNS, row)
        }
        for sensor, row in grid.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


_FIGURE4_HEADER = (
    "sensor", "te_location", "channel", "power",
    "capture_j", "te_j", "comm_j", "encrypt_j", "total_j",
    "retries", "retries_display",
)


def figure4_export(params: EnergyParams | None = None) -> list[dict]:
    """Sensor-node energy breakdown and retries over the 16-point grid.

    One record per sensor type x TE placement (sensor/hub) x channel x power
    source; the no-TE-at-sensor rows are identical whether TE later runs on
    the hub or the cloud, so the hub placement stands for both.
    """
    params = params or EnergyParams()
    records = []
    for sensor_type in (SensorType.OPTICAL, SensorType.CAPACITIVE):
        for te_loc in (TeLocation.SENSOR, TeLocation.HUB):
            for channel in (Channel.WBAN, Channel.HBC):
                for power in (PowerSource.COIN_CELL, PowerSource.RF_HARVEST):
                    cfg = SystemConfig(te_location=te_loc, on_body_channel=channel,
                                       sensor_type=sensor_type, sensor_power=power)
                    records.append({
                        "sensor": sensor_type.value,
                        "te_location": te_loc.value,
                        "channel": channel.value,
                        "power": power.value,
                        **evaluate(cfg, params).to_dict()["sensor"],
                    })
    return records


def figure4_csv(params: EnergyParams | None = None) -> str:
    out = io.StringIO()
    out.write(",".join(_FIGURE4_HEADER) + "\n")
    for rec in figure4_export(params):
        cells = []
        for key in _FIGURE4_HEADER:
            v = rec[key]
            cells.append(f"{v:.9e}" if isinstance(v, float) else str(v))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def figure4_json(params: EnergyParams | None = None) -> str:
    return json.dumps(figure4_export(params), indent=2, sort_keys=True, allow_nan=False) + "\n"
