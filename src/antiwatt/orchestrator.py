"""Trial and campaign orchestration.

One trial = fresh service process, health check, fresh-state probe, settle,
1 Hz sampling during a closed-loop load run, teardown, cool-down, and a
self-describing artifact directory (requests.csv, power.csv, resources.csv,
meta.json).  Campaigns run trials sequentially — concurrent trials would
contaminate the power signal — and keep going when an individual trial dies.
"""
from __future__ import annotations

import csv
import dataclasses
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
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.error import URLError
from urllib.request import urlopen

from .errors import CapabilityError, TrialError
from .loadgen import (
    LoadPlan,
    RequestLog,
    RequestRecord,
    read_requests_csv,
    run_load,
    write_requests_csv,
)
from .telemetry import (
    PowerSample,
    ProcSampler,
    RaplPowerSource,
    ResourceSample,
    SimPowerModel,
    SimPowerSource,
    available as rapl_available,
    run_sampler,
)
from .workload import WorkloadConfig, config_from_dict

logger = logging.getLogger(__name__)

REAL_BACKEND = "real"
SIM_BACKEND = "sim"

META_NAME = "meta.json"
REQUESTS_NAME = "requests.csv"
POWER_NAME = "power.csv"
RESOURCES_NAME = "resources.csv"
MANIFEST_NAME = "manifest.txt"
CAMPAIGN_NAME = "campaign.json"

# per-trial overhead beyond settle+duration+cooldown (launch, probe, teardown)
LAUNCH_OVERHEAD_S = 5.0

# mean post-warm-up utilization must reach 0.3 of one core, as a fraction of
# total host capacity: 0.075 on a four-core box
CPU_FLOOR_PER_CORE = 0.3

_POWER_HEADER = ["t_s", "cpu_power_w", "dram_power_w"]
_RESOURCE_HEADER = [
    "t_s",
    "cpu_util",
    "memory_bytes",
    "disk_read_bytes",
    "disk_write_bytes",
    "net_rx_bytes",
    "net_tx_bytes",
]


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
    sample_interval_s: float = 1.0
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
            "sample_interval_s": self.sample_interval_s,
            "pin_core": self.pin_core,
        }
        if self.sim_model is not None:
            out["sim_model"] = dataclasses.asdict(self.sim_model)
        return out


def plan_from_dict(raw: dict) -> ExperimentPlan:
    model = SimPowerModel(**raw["sim_model"]) if "sim_model" in raw else None
    return ExperimentPlan(
        workload=config_from_dict(raw["workload"]),
        load=LoadPlan(**raw["load"]),
        warmup_s=raw["warmup_s"],
        cooldown_s=raw["cooldown_s"],
        repetitions=raw["repetitions"],
        power_backend=raw["power_backend"],
        sim_model=model,
        out_dir=raw["out_dir"],
        settle_s=raw["settle_s"],
        sample_interval_s=raw["sample_interval_s"],
        pin_core=raw.get("pin_core", "off"),
    )


def estimate_campaign_s(plan: ExperimentPlan) -> float:
    per_trial = plan.settle_s + plan.load.duration_s + plan.cooldown_s + LAUNCH_OVERHEAD_S
    return plan.repetitions * per_trial


# ------------------------------------------------------------ trace file io


def write_power_csv(samples: Sequence[PowerSample], path: Union[str, Path]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_POWER_HEADER)
        for s in samples:
            writer.writerow([f"{s.t:.3f}", f"{s.cpu_power_w:.6f}", f"{s.dram_power_w:.6f}"])


def read_power_csv(path: Union[str, Path]) -> List[PowerSample]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _POWER_HEADER:
            raise ValueError(f"{path}: expected header {_POWER_HEADER}, got {header}")
        return [PowerSample(float(t), float(cpu), float(dram)) for t, cpu, dram in reader]


def _opt_int(cell: str) -> Optional[int]:
    return int(cell) if cell != "" else None


def write_resources_csv(samples: Sequence[ResourceSample], path: Union[str, Path]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_RESOURCE_HEADER)
        for s in samples:
            writer.writerow(
                [
                    f"{s.t:.3f}",
                    f"{s.cpu_util:.6f}",
                    "" if s.memory_bytes is None else s.memory_bytes,
                    "" if s.disk_read_bytes is None else s.disk_read_bytes,
                    "" if s.disk_write_bytes is None else s.disk_write_bytes,
                    "" if s.net_rx_bytes is None else s.net_rx_bytes,
                    "" if s.net_tx_bytes is None else s.net_tx_bytes,
                ]
            )


def read_resources_csv(path: Union[str, Path]) -> List[ResourceSample]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _RESOURCE_HEADER:
            raise ValueError(f"{path}: expected header {_RESOURCE_HEADER}, got {header}")
        out = []
        for row in reader:
            out.append(
                ResourceSample(
                    t=float(row[0]),
                    cpu_util=float(row[1]),
                    memory_bytes=_opt_int(row[2]),
                    disk_read_bytes=_opt_int(row[3]),
                    disk_write_bytes=_opt_int(row[4]),
                    net_rx_bytes=_opt_int(row[5]),
                    net_tx_bytes=_opt_int(row[6]),
                )
            )
        return out


# -------------------------------------------------------------able artifacts


@dataclass(frozen=True)
class RunArtifact:
    """Handle on one trial's directory."""

    directory: Path

    @property
    def meta_path(self) -> Path:
        return self.directory / META_NAME

    def meta(self) -> dict:
        with open(self.meta_path, encoding="utf-8") as fh:
            return json.load(fh)

    def is_ok(self) -> bool:
        try:
            return self.meta().get("status") == "ok"
        except (OSError, json.JSONDecodeError):
            return False


@dataclass(frozen=True)
class TraceSet:
    """One trial's parsed traces; the unit the analysis pipeline consumes."""

    meta: dict
    requests: Tuple[RequestRecord, ...]
    power: Tuple[PowerSample, ...]
    resources: Tuple[ResourceSample, ...]

    @property
    def warmup_s(self) -> float:
        return float(self.meta["plan"]["warmup_s"])

    @property
    def core_count(self) -> int:
        return int(self.meta["host"]["core_count"])


def load_artifact(artifact: Union[RunArtifact, str, Path]) -> TraceSet:
    directory = artifact.directory if isinstance(artifact, RunArtifact) else Path(artifact)
    meta_path = directory / META_NAME
    if not meta_path.exists():
        raise TrialError("read", FileNotFoundError(str(meta_path)))
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("status") != "ok":
        raise TrialError("read", ValueError(f"{directory} is marked {meta.get('status')!r}"))
    requests = read_requests_csv(directory / REQUESTS_NAME)
    power = read_power_csv(directory / POWER_NAME)
    resources = read_resources_csv(directory / RESOURCES_NAME)
    return TraceSet(
        meta=meta,
        requests=tuple(requests.records),
        power=tuple(power),
        resources=tuple(resources),
    )


def verify_artifact(ts: TraceSet) -> List[str]:
    """Consistency problems (empty list = artifact is self-consistent)."""
    problems = []
    for name, stream in (("power", ts.power), ("resources", ts.resources)):
        if not stream:
            problems.append(f"{name}.csv holds no samples")
    if not ts.requests:
        problems.append("requests.csv holds no records")
    planned = float(ts.meta["plan"]["load"]["duration_s"])
    for name, span in (
        ("power", _span(s.t for s in ts.power)),
        ("resources", _span(s.t for s in ts.resources)),
        ("requests", _span(r.completion_s for r in ts.requests)),
    ):
        if span is not None and abs(span - planned) > 5.0:
            problems.append(f"{name} span {span:.1f}s vs planned duration {planned:.1f}s")
    return problems


def _span(ts_iter) -> Optional[float]:
    values = list(ts_iter)
    if not values:
        return None
    return max(values) - min(values)


# --------------------------------------------------------- warm-up trimming


def trim_warmup(ts: TraceSet, warmup_s: Optional[float] = None) -> TraceSet:
    """Drop everything before ``earliest timestamp + warmup_s``.

    The anchor is the earliest instant seen across all three trace files, so
    the cut is the same wall-clock moment for every stream.  Requests count
    as inside the window when they *complete* inside it, matching the
    completion-time binning used everywhere else.  Raw files are untouched;
    this returns a trimmed view.
    """
    if warmup_s is None:
        warmup_s = ts.warmup_s
    if warmup_s < 0:
        raise ValueError("warmup_s must be >= 0")
    starts = []
    ends = []
    if ts.power:
        starts.append(min(s.t for s in ts.power))
        ends.append(max(s.t for s in ts.power))
    if ts.resources:
        starts.append(min(s.t for s in ts.resources))
        ends.append(max(s.t for s in ts.resources))
    if ts.requests:
        # a record's timestamp is its completion, here as in binning
        starts.append(min(r.completion_s for r in ts.requests))
        ends.append(max(r.completion_s for r in ts.requests))
    if not starts:
        raise ValueError("cannot trim an empty trace set")
    t0 = min(starts)
    span = max(ends) - t0
    if warmup_s >= span and warmup_s > 0:
        raise ValueError(f"warm-up of {warmup_s:.0f}s swallows the whole {span:.0f}s trace")
    cutoff = t0 + warmup_s
    return TraceSet(
        meta=ts.meta,
        requests=tuple(r for r in ts.requests if r.completion_s >= cutoff),
        power=tuple(s for s in ts.power if s.t >= cutoff),
        resources=tuple(s for s in ts.resources if s.t >= cutoff),
    )


# -------------------------------------------------------------- validity


@dataclass(frozen=True)
class ValidityReport:
    zero_failures: bool
    cpu_floor: bool
    failure_count: int
    request_count: int
    mean_cpu_util: float
    cpu_floor_threshold: float
    core_count: int

    @property
    def valid(self) -> bool:
        return self.zero_failures and self.cpu_floor

    def to_dict(self) -> dict:
        return {
            "zero_failures": self.zero_failures,
            "cpu_floor": self.cpu_floor,
            "valid": self.valid,
            "failure_count": self.failure_count,
            "request_count": self.request_count,
            "mean_cpu_util": self.mean_cpu_util,
            "cpu_floor_threshold": self.cpu_floor_threshold,
            "core_count": self.core_count,
        }


def validity_check(
    ts: TraceSet,
    warmup_s: Optional[float] = None,
    *,
    trimmed: Optional[TraceSet] = None,
) -> ValidityReport:
    """The two run-validity rules: no failed requests, enough CPU demand.

    The utilization floor is 0.3 of one core expressed as a fraction of total
    host capacity (0.075 on four cores), averaged after the warm-up trim.
    Failures are counted over the whole run — a failure during warm-up
    invalidates the trial just as much as a late one.  A caller that already
    holds ``trim_warmup(ts, warmup_s)`` passes it as ``trimmed`` so the trace
    is not trimmed twice.
    """
    failures = sum(1 for r in ts.requests if not r.success)
    if trimmed is None:
        trimmed = trim_warmup(ts, warmup_s)
    cores = ts.core_count
    threshold = CPU_FLOOR_PER_CORE / cores
    utils = [s.cpu_util for s in trimmed.resources]
    mean_util = sum(utils) / len(utils) if utils else 0.0
    return ValidityReport(
        zero_failures=failures == 0,
        cpu_floor=mean_util >= threshold,
        failure_count=failures,
        request_count=len(ts.requests),
        mean_cpu_util=mean_util,
        cpu_floor_threshold=threshold,
        core_count=cores,
    )


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
        "platform": platform.platform(),
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
    cfg = plan.workload
    argv = [
        sys.executable,
        "-m",
        "antiwatt.workload.service",
        "--antipattern",
        cfg.kind.slug,
        "--port",
        "0",
        "--seed",
        str(cfg.dataset_seed),
        "--scale",
        str(cfg.dataset_scale),
        "--iterations",
        str(cfg.iterations),
        "--payload-size",
        str(cfg.payload_size),
        "--workers",
        str(cfg.worker_count),
        "--window-period-s",
        str(cfg.window_period_s),
        "--heavy-fraction",
        str(cfg.heavy_fraction),
        "--pin-core",
        plan.pin_core,
    ]
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


def _wait_healthz(base: str, timeout_s: float = 15.0) -> None:
    deadline = time.monotonic() + timeout_s
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with urlopen(base + "/healthz", timeout=2) as resp:
                if resp.status == 200 and resp.read() == b"ok":
                    return
        except (URLError, OSError, ConnectionError) as exc:
            last = exc
        time.sleep(0.1)
    raise RuntimeError(f"/healthz never answered within {timeout_s:.0f}s (last: {last})")


def _fresh_probe(base: str, cfg: WorkloadConfig) -> dict:
    """First request against the endpoint; proves per-trial state is fresh."""
    with urlopen(f"{base}/{cfg.kind.slug}", timeout=60) as resp:
        if resp.status != 200:
            raise RuntimeError(f"probe got HTTP {resp.status}")
        payload = json.loads(resp.read())
    body = payload.get("body_summary", {})
    if "store_size" in body and body["store_size"] != 1:
        raise RuntimeError(f"stale state: first request saw store_size={body['store_size']}")
    if "request_count" in body and body["request_count"] not in (0, 1):
        raise RuntimeError(f"stale state: first request saw request_count={body['request_count']}")
    return body


def _build_power_source(plan: ExperimentPlan, pid: int):
    if plan.power_backend == REAL_BACKEND:
        if not rapl_available():
            raise CapabilityError(
                "powercap/RAPL is not readable on this host; rerun with the "
                "simulated backend (--backend sim)"
            )
        return RaplPowerSource(target_pid=pid)
    assert plan.sim_model is not None
    return SimPowerSource(plan.sim_model)


def execute_trial(plan: ExperimentPlan, repetition: int) -> RunArtifact:
    """Run one full trial; on any stage failure the rep directory is marked
    failed (stage + cause in meta.json) and TrialError is raised."""
    rep_dir = Path(plan.out_dir) / f"rep-{repetition}"
    stage = "prepare"
    proc = None
    meta: Dict[str, object] = {
        "format": "antiwatt-run-v1",
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
        log = RequestLog(plan=effective)
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
                interval_s=plan.sample_interval_s,
                rt_provider=rt_provider,
            )

        sampler = threading.Thread(target=_sampling_thread, name="sampler", daemon=True)
        sampler.start()

        stage = "load"
        meta["load_started_at"] = time.time()
        run_load(effective, log=log)
        meta["load_ended_at"] = time.time()
        stop_sampling.set()
        sampler.join(timeout=plan.sample_interval_s + 10)
        result = holder.get("result")
        if result is None:
            raise RuntimeError("sampling thread never returned")

        stage = "stop"
        _stop_service(proc)

        stage = "write"
        meta["sampler"] = {"missed_ticks": result.missed_ticks, "errors": result.errors}
        meta["ended_at"] = time.time()
        meta["status"] = "ok"
        write_requests_csv(log, rep_dir / REQUESTS_NAME)
        write_power_csv(result.power, rep_dir / POWER_NAME)
        write_resources_csv(result.resources, rep_dir / RESOURCES_NAME)
        with open(rep_dir / META_NAME, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")

        stage = "cooldown"
        time.sleep(plan.cooldown_s)
        return RunArtifact(rep_dir)
    except Exception as exc:  # noqa: BLE001 - one trial must never kill the campaign
        if proc is not None:
            _stop_service(proc)
        _write_failed_meta(rep_dir, meta, stage, exc)
        if isinstance(exc, TrialError):
            raise
        raise TrialError(stage, exc) from exc


def _write_failed_meta(rep_dir: Path, meta: Dict[str, object], stage: str, exc: Exception) -> None:
    meta = dict(meta)
    meta["status"] = "failed"
    meta["failed_stage"] = stage
    meta["cause"] = f"{type(exc).__name__}: {exc}"
    meta["ended_at"] = time.time()
    try:
        rep_dir.mkdir(parents=True, exist_ok=True)
        with open(rep_dir / META_NAME, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError:
        logger.exception("could not record failure for %s", rep_dir)


# ------------------------------------------------------------- the campaign


@dataclass(frozen=True)
class CampaignResult:
    directory: Path
    artifacts: Tuple[RunArtifact, ...]
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


def run_campaign(plan: ExperimentPlan) -> CampaignResult:
    """Sequential repetitions of execute_trial; failures are recorded, not fatal."""
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
    artifacts: List[RunArtifact] = []
    for i in range(plan.repetitions):
        name = f"rep-{i}"
        try:
            artifacts.append(execute_trial(plan, i))
            statuses.append((name, "ok", ""))
            logger.info("%s ok", name)
        except TrialError as exc:
            statuses.append((name, "failed", f"{exc.stage}: {exc.cause}"))
            logger.warning("%s failed at %s: %s", name, exc.stage, exc.cause)
    write_campaign_summary(out_dir, plan, statuses, estimated)
    return CampaignResult(
        directory=out_dir, artifacts=tuple(artifacts), statuses=tuple(statuses)
    )


def discover_artifacts(campaign_dir: Union[str, Path]) -> List[RunArtifact]:
    """All rep-* artifacts under a campaign directory, ok or failed, in order."""
    root = Path(campaign_dir)
    reps = sorted(
        (p for p in root.glob("rep-*") if p.is_dir()),
        key=lambda p: int(p.name.split("-", 1)[1]),
    )
    return [RunArtifact(p) for p in reps]
