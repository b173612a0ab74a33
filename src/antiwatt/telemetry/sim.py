"""Deterministic simulated power backend for hardware-free operation.

Power is an affine function of CPU utilization and the binned response time,
plus seeded gaussian noise:

    cpu_power  = base_w + cpu_coeff_w * cpu_util + rt_coeff * rt_ms + noise
    dram_power = dram_base_w + dram_util_coeff_w * cpu_util
                 + dram_rt_coeff * rt_ms + noise

both clamped at zero. Noise is keyed on (seed, second, domain) so a stream is
byte-identical across runs given the same model and inputs — no shared RNG
state, no ordering sensitivity.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .base import PowerSample, ResourceSample

# distinct odd multipliers keep the (seed, t, domain) lanes independent
_MIX_SEED = 0x9E3779B97F4A7C15
_MIX_T = 0xC2B2AE3D27D4EB4F
_MIX_TAG = 0x2545F4914F6CDD1D
_MASK = (1 << 64) - 1

_CPU_TAG = 1
_DRAM_TAG = 2


@dataclass(frozen=True)
class SimPowerModel:
    """Coefficients of the simulated power response.

    The CPU fields mirror the package domain; the dram_* fields give the DRAM
    domain its own (typically much smaller) affine response so downstream
    analysis sees two distinct regressands.
    """

    base_w: float = 5.0
    cpu_coeff_w: float = 60.0
    rt_coeff: float = 0.0
    noise_sd_w: float = 0.0
    seed: int = 0
    dram_base_w: float = 1.5
    dram_util_coeff_w: float = 4.0
    dram_rt_coeff: float = 0.0
    dram_noise_sd_w: float = 0.0

    def __post_init__(self) -> None:
        if self.base_w <= 0:
            raise ValueError("base_w must be positive")
        if self.noise_sd_w < 0 or self.dram_noise_sd_w < 0:
            raise ValueError("noise standard deviations must be non-negative")
        if self.dram_base_w < 0:
            raise ValueError("dram_base_w must be non-negative")


def _noise(seed: int, t: float, tag: int, sd: float) -> float:
    if sd == 0.0:
        return 0.0
    key = (seed * _MIX_SEED + int(t) * _MIX_T + tag * _MIX_TAG) & _MASK
    return random.Random(key).gauss(0.0, sd)


def simulate_power(
    model: SimPowerModel,
    resource: ResourceSample,
    rt_ms: Optional[float],
) -> PowerSample:
    """Power implied by *model* at this utilization and binned response time.

    ``rt_ms`` of ``None`` (a bin with no completions) contributes nothing.
    """
    rt = rt_ms if rt_ms is not None else 0.0
    cpu = (
        model.base_w
        + model.cpu_coeff_w * resource.cpu_util
        + model.rt_coeff * rt
        + _noise(model.seed, resource.t, _CPU_TAG, model.noise_sd_w)
    )
    dram = (
        model.dram_base_w
        + model.dram_util_coeff_w * resource.cpu_util
        + model.dram_rt_coeff * rt
        + _noise(model.seed, resource.t, _DRAM_TAG, model.dram_noise_sd_w)
    )
    return PowerSample(t=resource.t, cpu_power_w=max(0.0, cpu), dram_power_w=max(0.0, dram))


class SimPowerSource:
    """PowerSource adapter over :func:`simulate_power`; stateless, never None."""

    def __init__(self, model: SimPowerModel) -> None:
        self.model = model

    def prime(self, t: float) -> None:
        pass  # nothing to baseline

    def sample(
        self,
        t: float,
        resource: ResourceSample,
        rt_ms: Optional[float],
    ) -> PowerSample:
        return simulate_power(self.model, resource, rt_ms)
