"""Time-compressed synthetic campaigns.

Writes artifact directories in the :mod:`.traces` format, byte-compatible
with what :mod:`.orchestrator` produces from live trials, but generated in milliseconds from a seed: a
known warm-up transient, a steady regime with planted response-time /
utilization structure, and power from the simulated model.  This is the
workhorse for exercising the analysis pipeline end to end — planted
coefficients in, recovered coefficients out — without burning wall-clock
time on real load runs.
"""
from __future__ import annotations

import json
import math
import platform
import random
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

from .loadgen import LoadPlan, RequestLog, RequestRecord, write_requests_csv
from .orchestrator import (
    CampaignResult,
    ExperimentPlan,
    estimate_campaign_s,
    write_campaign_summary,
)
from .telemetry import PowerSample, ResourceSample, SimPowerModel, simulate_power
from .traces import (
    META_NAME,
    POWER_NAME,
    REQUESTS_NAME,
    RESOURCES_NAME,
    RunArtifact,
    write_power_csv,
    write_resources_csv,
)
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


def generate_trial(plan: ExperimentPlan, repetition: int, seed: int) -> RunArtifact:
    """Write one synthetic rep-<i> artifact under plan.out_dir."""
    assert plan.sim_model is not None, "synthetic trials need a sim model"
    rep_dir = Path(plan.out_dir) / f"rep-{repetition}"
    rep_dir.mkdir(parents=True, exist_ok=True)

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

    log = RequestLog(plan=plan.load)
    for record in records:
        log.append(record)
    log.finalize()
    write_requests_csv(log, rep_dir / REQUESTS_NAME)
    write_power_csv(power, rep_dir / POWER_NAME)
    write_resources_csv(resources, rep_dir / RESOURCES_NAME)

    meta = {
        "format": "antiwatt-run-v1",
        "repetition": repetition,
        "status": "ok",
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
    with open(rep_dir / META_NAME, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return RunArtifact(rep_dir)


def generate_campaign(
    plan: ExperimentPlan,
    seed: int = 0,
    fail_reps: Iterable[int] = (),
) -> CampaignResult:
    """A full campaign directory: rep-* artifacts, manifest, campaign.json.

    Reps listed in *fail_reps* are written as failed artifacts (meta only) to
    exercise failure containment downstream.
    """
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = set(fail_reps)
    statuses: list[Tuple[str, str, str]] = []
    artifacts: list[RunArtifact] = []
    for i in range(plan.repetitions):
        name = f"rep-{i}"
        if i in failed:
            rep_dir = out_dir / name
            rep_dir.mkdir(parents=True, exist_ok=True)
            meta = {
                "format": "antiwatt-run-v1",
                "repetition": i,
                "status": "failed",
                "failed_stage": "load",
                "cause": "RuntimeError: synthetic failure injection",
                "plan": plan.to_dict(),
            }
            with open(rep_dir / META_NAME, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.write("\n")
            statuses.append((name, "failed", "load: synthetic failure injection"))
            continue
        artifacts.append(generate_trial(plan, i, seed))
        statuses.append((name, "ok", ""))
    write_campaign_summary(out_dir, plan, statuses, estimate_campaign_s(plan))
    return CampaignResult(
        directory=out_dir, artifacts=tuple(artifacts), statuses=tuple(statuses)
    )
