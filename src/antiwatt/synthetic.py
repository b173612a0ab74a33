"""Time-compressed synthetic campaigns.

Writes trial directories through the same :mod:`.traces` writers, and runs
campaigns through the same ``run_campaign`` loop, as live trials do, but
generates each trial in milliseconds from a seed: a known warm-up transient,
a steady regime with planted response-time / utilization structure, and
power from the simulated model.  This is the workhorse for exercising the
analysis pipeline end to end — planted coefficients in, recovered
coefficients out — without burning wall-clock time on real load runs.
"""
from __future__ import annotations

import math
import platform
import random
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from .errors import TrialError
from .loadgen import LoadPlan, RequestLog, RequestRecord
from .orchestrator import CampaignResult, ExperimentPlan, run_campaign
from .telemetry import PowerSample, ResourceSample, SimPowerModel, simulate_power
from .traces import write_failed_trial, write_trial
from .workload import AntipatternKind, default_config

EPOCH_BASE = 1_700_000_000
SYNTHETIC_CORES = 4

# steady-regime shape: response time and request rate oscillate on coprime
# periods so they stay linearly unrelated; utilization tracks the rate
RT_MEAN_MS = 20.0
RT_SWING_MS = 15.0
RT_PERIOD_S = 37.0
RATE_MEAN = 30.0
RATE_SWING = 10.0
RATE_PERIOD_S = 23.0
UTIL_BASE = 0.15
UTIL_PER_RPS = 0.004
UTIL_NOISE_SD = 0.01

# warm-up transient: slow, busy, and sparse — a step change at the boundary
WARM_RT_MS = 250.0
WARM_RT_DECAY = 2.0
WARM_RATE = 5
WARM_UTIL = 0.6


def synthetic_plan(
    out_dir: Union[str, Path],
    *,
    kind: AntipatternKind = AntipatternKind.UNNECESSARY_PROCESSING,
    duration_s: float = 120.0,
    warmup_s: float = 20.0,
    repetitions: int = 3,
    users: int = 30,
    model: Optional[SimPowerModel] = None,
    seed: int = 0,
) -> ExperimentPlan:
    """A sim-backend plan whose artifacts come from this generator."""
    if model is None:
        # nonzero dram noise keeps that model's fit honestly inexact
        model = SimPowerModel(noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=seed)
    load = LoadPlan(
        target_users=users,
        spawn_rate=float(users),
        duration_s=duration_s,
        endpoint=f"http://synthetic.invalid/{kind.slug}",
    )
    return ExperimentPlan(
        workload=default_config(kind, dataset_seed=seed),
        load=load,
        warmup_s=warmup_s,
        cooldown_s=0.0,
        repetitions=repetitions,
        power_backend="sim",
        sim_model=model,
        out_dir=out_dir,
        settle_s=0.0,
    )


def _steady_second(k: int, rng: random.Random) -> Tuple[float, int, float]:
    rt = RT_MEAN_MS + RT_SWING_MS * math.sin(2.0 * math.pi * k / RT_PERIOD_S)
    rate = RATE_MEAN + RATE_SWING * math.sin(2.0 * math.pi * k / RATE_PERIOD_S + 1.3)
    util = UTIL_BASE + UTIL_PER_RPS * rate + rng.gauss(0.0, UTIL_NOISE_SD)
    return rt, int(round(rate)), min(1.0, max(0.01, util))


def _warm_second(k: int, rng: random.Random) -> Tuple[float, int, float]:
    rt = max(100.0, WARM_RT_MS - WARM_RT_DECAY * k)
    util = WARM_UTIL + rng.gauss(0.0, UTIL_NOISE_SD)
    return rt, WARM_RATE, min(1.0, max(0.01, util))


def generate_trial(plan: ExperimentPlan, repetition: int, seed: int) -> Path:
    """Write one synthetic rep-<i> trial directory under plan.out_dir."""
    assert plan.sim_model is not None, "synthetic trials need a sim model"

    duration = int(plan.load.duration_s)
    warmup = int(plan.warmup_s)
    t0 = EPOCH_BASE + seed * 10_000 + repetition * (duration + 60)
    rng = random.Random((seed << 20) ^ (repetition << 8) ^ 0xA5)

    power: list[PowerSample] = []
    resources: list[ResourceSample] = []
    records: list[RequestRecord] = []
    for k in range(duration):
        t = float(t0 + k)
        rt, rate, util = _warm_second(k, rng) if k < warmup else _steady_second(k, rng)
        resource = ResourceSample(
            t=t,
            cpu_util=util,
            memory_bytes=64 * 2**20 + k * 8192,
            disk_read_bytes=k * 512,
            disk_write_bytes=k * 4096,
            net_rx_bytes=k * 30_000,
            net_tx_bytes=k * 90_000,
        )
        resources.append(resource)
        power.append(simulate_power(plan.sim_model, resource, rt))
        for j in range(rate):
            completion_s = t + (j + 0.5) / rate
            records.append(
                RequestRecord(
                    start=completion_s * 1000.0 - rt,
                    response_time_ms=rt,
                    success=True,
                    user_id=j % plan.load.target_users,
                )
            )

    log = RequestLog()
    for record in records:
        log.append(record)
    log.finalize()
    meta = {
        "repetition": repetition,
        "plan": plan.to_dict(),
        "endpoint": plan.load.endpoint,
        "service": {"pid": 0, "port": 0, "pinned_core": None},
        "host": {
            "core_count": SYNTHETIC_CORES,
            "platform": "synthetic",
            "python": platform.python_version(),
            "governor": "powersave",
        },
        "fresh_probe": {"store_size": 1},
        "sampler": {"missed_ticks": 0, "errors": []},
        "started_at": float(t0),
        "load_started_at": float(t0),
        "load_ended_at": float(t0 + duration),
        "ended_at": float(t0 + duration),
        "synthetic": {"seed": seed},
    }
    return write_trial(Path(plan.out_dir) / f"rep-{repetition}", meta, log, power, resources)


def generate_campaign(
    plan: ExperimentPlan,
    seed: int = 0,
    fail_reps: Iterable[int] = (),
) -> CampaignResult:
    """A full campaign directory: rep-* trials, manifest, campaign.json.

    Reps listed in *fail_reps* are written as failed trials (meta only) to
    exercise failure containment downstream.
    """
    failed = frozenset(fail_reps)

    def trial(plan: ExperimentPlan, repetition: int) -> Path:
        if repetition in failed:
            cause = RuntimeError("synthetic failure injection")
            meta = {"repetition": repetition, "plan": plan.to_dict()}
            write_failed_trial(Path(plan.out_dir) / f"rep-{repetition}", meta, "load", cause)
            raise TrialError("load", cause)
        return generate_trial(plan, repetition, seed)

    return run_campaign(plan, trial=trial)
