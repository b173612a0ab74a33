"""1 Hz power and resource telemetry: RAPL/powercap, procfs, simulated backend."""
from .base import CPU_PACKAGE, DRAM, PowerSample, PowerSource, ResourceSample
from .procfs import ProcSampler
from .rapl import (
    DEFAULT_SYSFS_ROOT,
    EnergyReading,
    RaplPowerSource,
    available,
    power_from_deltas,
)
from .sampler import SamplerResult, run_sampler
from .sim import SimPowerModel, SimPowerSource, simulate_power

__all__ = [
    "CPU_PACKAGE",
    "DRAM",
    "DEFAULT_SYSFS_ROOT",
    "EnergyReading",
    "PowerSample",
    "PowerSource",
    "ProcSampler",
    "RaplPowerSource",
    "ResourceSample",
    "SamplerResult",
    "SimPowerModel",
    "SimPowerSource",
    "available",
    "power_from_deltas",
    "run_sampler",
    "simulate_power",
]
