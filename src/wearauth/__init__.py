"""wearauth: energy/lifetime design-space exploration and a full software
data plane (template extraction, encoding, matching, lightweight encryption,
body-channel modem) for wearable fingerprint authentication."""

from .energy import (
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
from .design_space import (
    PowerSource,
    SystemConfig,
    TeLocation,
    derive_activities,
    evaluate,
    figure4_export,
    table2,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "ConfigError",
    "EnergyParams",
    "NodeActivity",
    "PowerSource",
    "SensorType",
    "SystemConfig",
    "TeLocation",
    "TemplateAlgorithm",
    "derive_activities",
    "energy_breakdown",
    "evaluate",
    "figure4_export",
    "lora_energy_per_bit",
    "retries",
    "table2",
    "__version__",
]
