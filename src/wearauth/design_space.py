"""Enumeration of the six resource allocations and their lifetime numbers.

The design space is the cross product of where template extraction (TE)
runs (sensor, hub, or cloud) and which on-body channel carries the capture
(WBAN or HBC), evaluated for both sensor types and both power sources.

:func:`request_events` lists what a request does, event by event: the
closed form prices each node's sum of them (:func:`derive_activities`), and
the simulator (:mod:`wearauth.sim`) charges them one by one.
"""

from __future__ import annotations

import enum
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass

from .energy import (
    Channel,
    EnergyBreakdown,
    EnergyParams,
    NodeActivity,
    SensorType,
    TemplateAlgorithm,
    energy_breakdown,
    retries,
)

__all__ = [
    "TeLocation",
    "PowerSource",
    "SystemConfig",
    "LifetimeReport",
    "ALLOCATION_ROWS",
    "derive_activities",
    "request_events",
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
_ROW_LETTER = {allocation: letter for letter, allocation in ALLOCATION_ROWS.items()}
# Rows (a)-(d).  The sensor does the same work whether TE runs on the hub or
# the cloud, so the sensor-side grids let the hub rows stand for (e) and (f).
_SENSOR_ROWS = tuple(ALLOCATION_ROWS[letter] for letter in "abcd")


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
        return _ROW_LETTER[self.te_location, self.on_body_channel]

    def to_dict(self) -> dict:
        return {
            "te_location": self.te_location.value,
            "on_body_channel": self.on_body_channel.value,
            "sensor_type": self.sensor_type.value,
            "sensor_power": self.sensor_power.value,
            "lora_distance_m": self.lora_distance,
            "te_variant": self.te_variant.value,
        }


def request_events(config: SystemConfig, params: EnergyParams, attempts: int = 1,
                   completed: bool = True) -> list[tuple[str, str, NodeActivity]]:
    """A request's events in chain order, as ``(node, label, work)``.

    The sensor captures, runs TE if allocated it, and ships the template or
    the image: once and encrypted over WBAN, or in the clear over HBC once
    per frame attempt.  A ``completed`` request goes on to the hub's TE, its
    encrypted LoRa uplink, and the cloud's TE and match.
    """
    te, on_body = config.te_location, config.on_body_channel
    on_body_bits = params.template_bits if te is TeLocation.SENSOR else params.image_bits
    lora_bits = params.image_bits if te is TeLocation.CLOUD else params.template_bits
    extract = "te_extract", NodeActivity(te_runs={config.te_variant: 1})
    hop = [("sensor", f"tx_{on_body.value}", NodeActivity(bits_tx={on_body: on_body_bits})),
           ("hub", f"rx_{on_body.value}", NodeActivity(bits_rx={on_body: on_body_bits}))]
    events = [("sensor", "capture", NodeActivity(captures=1))]
    if te is TeLocation.SENSOR:
        events.append(("sensor", *extract))
    if on_body is Channel.WBAN:
        events += [("sensor", "encrypt", NodeActivity(bits_encrypted=on_body_bits)), *hop]
    else:
        events += hop * attempts
    if completed:
        if te is TeLocation.HUB:
            events.append(("hub", *extract))
        events += [("hub", "encrypt", NodeActivity(bits_encrypted=lora_bits)),
                   ("hub", "tx_lora", NodeActivity(bits_tx={Channel.LORA: lora_bits},
                                                   lora_distance=config.lora_distance)),
                   ("cloud", "rx_lora", NodeActivity(bits_rx={Channel.LORA: lora_bits}))]
        if te is TeLocation.CLOUD:
            events.append(("cloud", *extract))
        events.append(("cloud", "match", NodeActivity()))
    return events


def derive_activities(config: SystemConfig, params: EnergyParams) -> tuple[NodeActivity, NodeActivity]:
    """Per-request work of (sensor, hub) for one allocation: each node's sum
    over a clean, completed request's :func:`request_events`."""
    events = request_events(config, params)
    return tuple(sum((work for n, _, work in events if n == node), NodeActivity())
                 for node in ("sensor", "hub"))


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
        sensor_display = (display_count if cfg.sensor_power is PowerSource.COIN_CELL
                          else display_rate)
        return {
            "config": {"row": cfg.row, **cfg.to_dict()},
            "sensor": _node_dict(self.sensor_breakdown, self.sensor_retries, sensor_display),
            "hub": _node_dict(self.hub_breakdown, self.hub_retries, display_count),
            "feasible": self.feasible,
        }


def _node_dict(breakdown: EnergyBreakdown, node_retries: float,
               display: Callable[[float], str]) -> dict:
    """One node's energy terms and retries; ``display`` renders the retries."""
    return {
        "capture_j": breakdown.capture,
        "te_j": breakdown.te,
        "comm_j": breakdown.comm,
        "encrypt_j": breakdown.encrypt,
        "total_j": breakdown.total,
        "retries": node_retries,
        "retries_display": display(node_retries),
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


def table2(params: EnergyParams | None = None) -> dict[str, list[float]]:
    """RF-harvested sensor lifetime (retries/hour) over the 2x4 summary grid.

    Values are raw rates; :func:`display_rate` renders them at table precision.
    Each cell is evaluate() on the corresponding allocation, nothing else.
    """
    params = params or EnergyParams()
    grid: dict[str, list[float]] = {}
    for sensor_type in (SensorType.OPTICAL, SensorType.CAPACITIVE):
        row = []
        for te_loc, channel in _SENSOR_ROWS:
            cfg = SystemConfig(te_location=te_loc, on_body_channel=channel,
                               sensor_type=sensor_type,
                               sensor_power=PowerSource.RF_HARVEST)
            row.append(evaluate(cfg, params).sensor_retries)
        grid[sensor_type.value] = row
    return grid


def table2_csv(params: EnergyParams | None = None) -> str:
    grid = table2(params)
    out = io.StringIO()
    header = ["sensor"] + [f"te_{loc.value}_{ch.value}" for loc, ch in _SENSOR_ROWS]
    out.write(",".join(header) + "\n")
    for sensor, row in grid.items():
        out.write(",".join([sensor] + [display_rate(v) for v in row]) + "\n")
    return out.getvalue()


def table2_json(params: EnergyParams | None = None) -> str:
    grid = table2(params)
    doc = {
        sensor: {
            f"{loc.value}_{ch.value}": display_rate(v)
            for (loc, ch), v in zip(_SENSOR_ROWS, row)
        }
        for sensor, row in grid.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def figure4_export(params: EnergyParams | None = None) -> list[dict]:
    """Sensor-node energy breakdown and retries over the 16-point grid.

    One record per sensor type x allocation row (a)-(d) x power source; the
    no-TE-at-sensor rows are identical whether TE later runs on the hub or
    the cloud, so the hub placement stands for both.
    """
    params = params or EnergyParams()
    records = []
    for sensor_type in (SensorType.OPTICAL, SensorType.CAPACITIVE):
        for te_loc, channel in _SENSOR_ROWS:
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
    records = figure4_export(params)
    out = io.StringIO()
    out.write(",".join(records[0]) + "\n")
    for rec in records:
        out.write(",".join(f"{v:.9e}" if isinstance(v, float) else str(v)
                           for v in rec.values()) + "\n")
    return out.getvalue()


def figure4_json(params: EnergyParams | None = None) -> str:
    return json.dumps(figure4_export(params), indent=2, sort_keys=True, allow_nan=False) + "\n"
