"""Trial and campaign orchestration: planning and running trials.

One trial = fresh service process, health check, fresh-state probe, settle,
1 Hz sampling during a closed-loop load run, teardown, cool-down, and a
self-describing artifact directory (requests.csv, power.csv, resources.csv,
meta.json).  Campaigns run trials sequentially — concurrent trials would
contaminate the power signal — and keep going when an individual trial dies.
The artifact format itself (file names, the trial writers and readers,
warm-up trimming, validity) lives in :mod:`.traces`.  ``run_campaign`` also
drives synthetic campaigns, with a trial function that generates traces.
"""
from __future__ import annotations

import dataclasses
import http.client
import json
import logging
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from .errors import CapabilityError, TrialError
from .loadgen import LoadPlan, RequestLog, run_load
from .telemetry import (
    ProcSampler,
    RaplPowerSource,
    SimPowerModel,
    SimPowerSource,
    available as rapl_available,
    run_sampler,
)
from .traces import (  # noqa: F401 - the CSV writers stay importable from here
    CAMPAIGN_NAME,
    MANIFEST_NAME,
    write_failed_trial,
    write_power_csv,
    write_resources_csv,
    write_trial,
)
from .workload import WorkloadConfig
from .workload.config import service_argv

logger = logging.getLogger(__name__)

REAL_BACKEND = "real"
SIM_BACKEND = "sim"

# per-trial overhead beyond settle+duration+cooldown (launch, probe, teardown)
LAUNCH_OVERHEAD_S = 5.0
# the sampler's tick period; plans record it as "sample_interval_s"
SAMPLE_INTERVAL_S = 1.0


# ----------------------------------------------------------------- the plan


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything one campaign needs: what to run, how long, where."""

    workload: WorkloadConfig
    load: LoadPlan
    warmup_s: float = 120.0
    cooldown_s: float = 30.0
    repetitions: int = 30
    power_backend: str = REAL_BACKEND
    sim_model: Optional[SimPowerModel] = None
    out_dir: Union[str, Path] = "runs"
    settle_s: float = 10.0
    pin_core: str = "off"

    def __post_init__(self) -> None:
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be >= 0")
        if self.warmup_s >= self.load.duration_s:
            raise ValueError(
                f"warm-up of {self.warmup_s:.0f}s must fit inside the "
                f"{self.load.duration_s:.0f}s load run"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.power_backend not in (REAL_BACKEND, SIM_BACKEND):
            raise ValueError(f"power_backend must be '{REAL_BACKEND}' or '{SIM_BACKEND}'")
        if self.power_backend == SIM_BACKEND and self.sim_model is None:
            object.__setattr__(self, "sim_model", SimPowerModel())

    def to_dict(self) -> dict:
        out = {
            "workload": self.workload.to_dict(),
            "load": dataclasses.asdict(self.load),
            "warmup_s": self.warmup_s,
            "cooldown_s": self.cooldown_s,
            "repetitions": self.repetitions,
            "power_backend": self.power_backend,
            "out_dir": str(self.out_dir),
            "settle_s": self.settle_s,
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "pin_core": self.pin_core,
        }
        if self.sim_model is not None:
            out["sim_model"] = dataclasses.asdict(self.sim_model)
        return out


def estimate_campaign_s(plan: ExperimentPlan) -> float:
    per_trial = plan.settle_s + plan.load.duration_s + plan.cooldown_s + LAUNCH_OVERHEAD_S
    return plan.repetitions * per_trial


# -------------------------------------------------------- trial execution


def host_descriptor() -> dict:
    governor = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as fh:
            governor = fh.read().strip()
    except OSError:
        pass
    return {
        "core_count": os.cpu_count() or 1,
        # platform.platform() would start a `uname -p` child for the processor
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
        "python": platform.python_version(),
        "governor": governor,
    }


def _read_line_with_timeout(stream, timeout_s: float) -> Optional[str]:
    box: List[str] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout_s)
    return box[0] if box else None


def _launch_service(plan: ExperimentPlan, rep_dir: Path):
    argv = [sys.executable, "-m", "antiwatt.workload.service"]
    argv += service_argv(plan.workload, plan.pin_core)
    service_log = open(rep_dir / "service.log", "wb")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=service_log, text=True)
    service_log.close()
    line = _read_line_with_timeout(proc.stdout, timeout_s=30.0)
    if not line:
        proc.kill()
        proc.wait()
        raise RuntimeError("service produced no announce line within 30s")
    try:
        announce = json.loads(line)
    except json.JSONDecodeError as exc:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"bad announce line {line!r}") from exc
    if announce.get("event") != "listening":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"unexpected announce event {announce.get('event')!r}")
    return proc, announce


def _stop_service(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _get(base: str, path: str, timeout_s: float) -> Tuple[int, bytes]:
    """One GET on a fresh connection; (status, body)."""
    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _wait_healthz(base: str, timeout_s: float = 15.0) -> None:
    deadline = time.monotonic() + timeout_s
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            if _get(base, "/healthz", 2) == (200, b"ok"):
                return
        except (OSError, http.client.HTTPException) as exc:
            last = exc
        time.sleep(0.1)
    raise RuntimeError(f"/healthz never answered within {timeout_s:.0f}s (last: {last})")


def _fresh_probe(base: str, cfg: WorkloadConfig) -> dict:
    """First request against the endpoint; proves per-trial state is fresh."""
    status, raw = _get(base, f"/{cfg.kind.slug}", 60)
    if status != 200:
        raise RuntimeError(f"probe got HTTP {status}")
    payload = json.loads(raw)
    body = payload.get("body_summary", {})
    if "store_size" in body and body["store_size"] != 1:
        raise RuntimeError(f"stale state: first request saw store_size={body['store_size']}")
    if "request_count" in body and body["request_count"] not in (0, 1):
        raise RuntimeError(f"stale state: first request saw request_count={body['request_count']}")
    return body


def _build_power_source(plan: ExperimentPlan, pid: int):
    if plan.power_backend == REAL_BACKEND:
        return RaplPowerSource(target_pid=pid)
    assert plan.sim_model is not None
    return SimPowerSource(plan.sim_model)


def execute_trial(plan: ExperimentPlan, repetition: int) -> Path:
    """Run one full trial; on any stage failure the rep directory is marked
    failed (stage + cause in meta.json) and TrialError is raised."""
    rep_dir = Path(plan.out_dir) / f"rep-{repetition}"
    stage = "prepare"
    proc = None
    meta: Dict[str, object] = {
        "repetition": repetition,
        "plan": plan.to_dict(),
        "host": host_descriptor(),
        "started_at": time.time(),
    }
    try:
        rep_dir.mkdir(parents=True, exist_ok=True)
        canary = rep_dir / ".writable"
        canary.write_text("ok")
        canary.unlink()
        if plan.power_backend == REAL_BACKEND and not rapl_available():
            raise CapabilityError(
                "powercap/RAPL is not readable on this host; rerun with the "
                "simulated backend (--backend sim)"
            )

        stage = "launch"
        proc, announce = _launch_service(plan, rep_dir)
        base = f"http://{announce['host']}:{announce['port']}"
        meta["service"] = {
            "pid": announce["pid"],
            "port": announce["port"],
            "pinned_core": announce.get("pinned_core"),
        }
        meta["endpoint"] = f"{base}/{plan.workload.kind.slug}"

        stage = "healthz"
        _wait_healthz(base)

        stage = "fresh_probe"
        meta["fresh_probe"] = _fresh_probe(base, plan.workload)

        stage = "settle"
        time.sleep(plan.settle_s)

        stage = "sample"
        source = _build_power_source(plan, proc.pid)
        resources = ProcSampler(proc.pid)
        effective = dataclasses.replace(plan.load, endpoint=str(meta["endpoint"]))
        log = RequestLog()
        rt_provider = None
        if plan.power_backend == SIM_BACKEND:
            rt_provider = lambda: log.recent_mean_rt(time.time())  # noqa: E731
        stop_sampling = threading.Event()
        holder: Dict[str, object] = {}

        def _sampling_thread():
            holder["result"] = run_sampler(
                source,
                resource_sampler=resources,
                stop_event=stop_sampling,
                interval_s=SAMPLE_INTERVAL_S,
                rt_provider=rt_provider,
            )

        sampler = threading.Thread(target=_sampling_thread, name="sampler", daemon=True)
        sampler.start()

        stage = "load"
        meta["load_started_at"] = time.time()
        run_load(effective, log=log)
        meta["load_ended_at"] = time.time()
        stop_sampling.set()
        sampler.join(timeout=SAMPLE_INTERVAL_S + 10)
        result = holder.get("result")
        if result is None:
            raise RuntimeError("sampling thread never returned")

        stage = "stop"
        _stop_service(proc)

        stage = "write"
        meta["sampler"] = {"missed_ticks": result.missed_ticks, "errors": result.errors}
        meta["ended_at"] = time.time()
        write_trial(rep_dir, meta, log, result.power, result.resources)

        stage = "cooldown"
        time.sleep(plan.cooldown_s)
        return rep_dir
    except Exception as exc:  # noqa: BLE001 - one trial must never kill the campaign
        if proc is not None:
            _stop_service(proc)
        meta["ended_at"] = time.time()
        try:
            write_failed_trial(rep_dir, meta, stage, exc)
        except OSError:
            logger.exception("could not record failure for %s", rep_dir)
        if isinstance(exc, TrialError):
            raise
        raise TrialError(stage, exc) from exc


# ------------------------------------------------------------- the campaign


@dataclass(frozen=True)
class CampaignResult:
    directory: Path
    artifacts: Tuple[Path, ...]  # the ok trial directories
    statuses: Tuple[Tuple[str, str, str], ...]  # (rep name, ok|failed, detail)

    @property
    def ok_count(self) -> int:
        return sum(1 for _, status, _ in self.statuses if status == "ok")

    @property
    def failed_count(self) -> int:
        return len(self.statuses) - self.ok_count


def write_campaign_summary(
    out_dir: Path,
    plan: ExperimentPlan,
    statuses: Sequence[Tuple[str, str, str]],
    estimated_s: float,
) -> None:
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        for name, status, detail in statuses:
            line = f"{name} {status}"
            if detail:
                line += f" {detail}"
            fh.write(line + "\n")
    summary = {
        "format": "antiwatt-campaign-v1",
        "plan": plan.to_dict(),
        "estimated_duration_s": estimated_s,
        "repetitions": [
            {"name": name, "status": status, "detail": detail}
            for name, status, detail in statuses
        ],
        "ok_count": sum(1 for _, s, _ in statuses if s == "ok"),
        "failed_count": sum(1 for _, s, _ in statuses if s != "ok"),
    }
    with open(out_dir / CAMPAIGN_NAME, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_campaign(
    plan: ExperimentPlan,
    trial: Optional[Callable[[ExperimentPlan, int], Path]] = None,
) -> CampaignResult:
    """Sequential repetitions of *trial* (default: execute_trial); a trial
    that raises TrialError is recorded as failed, not fatal."""
    if trial is None:
        trial = execute_trial  # looked up per call, so a patched one is used
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    estimated = estimate_campaign_s(plan)
    logger.info(
        "campaign: %d x %s for %.0fs each, estimated total %.1f min",
        plan.repetitions,
        plan.workload.kind.slug,
        plan.load.duration_s,
        estimated / 60.0,
    )
    statuses: List[Tuple[str, str, str]] = []
    artifacts: List[Path] = []
    for i in range(plan.repetitions):
        name = f"rep-{i}"
        try:
            artifacts.append(trial(plan, i))
            statuses.append((name, "ok", ""))
            logger.info("%s ok", name)
        except TrialError as exc:
            statuses.append((name, "failed", f"{exc.stage}: {exc.cause}"))
            logger.warning("%s failed at %s: %s", name, exc.stage, exc.cause)
    write_campaign_summary(out_dir, plan, statuses, estimated)
    return CampaignResult(
        directory=out_dir, artifacts=tuple(artifacts), statuses=tuple(statuses)
    )

