"""The trial-artifact format: file names, trace CSVs, loading, trimming, validity.

A trial directory holds ``meta.json``, ``requests.csv``, ``power.csv`` and
``resources.csv``; a campaign directory holds ``rep-*`` trial directories, a
``manifest.txt`` and a ``campaign.json``.  This module names those files,
writes and reads back every trial directory, ok or failed, and holds the two
rules every analysis applies to a trial before using it: the warm-up trim and
the validity check.  It knows nothing of how trials are run, so the analysis
layer reads traces without importing the orchestrator.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .errors import TrialError
from .loadgen import RequestLog, RequestRecord, read_requests_csv, write_requests_csv
from .telemetry import PowerSample, ResourceSample

META_NAME = "meta.json"
REQUESTS_NAME = "requests.csv"
POWER_NAME = "power.csv"
RESOURCES_NAME = "resources.csv"
MANIFEST_NAME = "manifest.txt"
CAMPAIGN_NAME = "campaign.json"
RUN_FORMAT = "antiwatt-run-v1"

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


# ---------------------------------------------------------- trial directories


def _write_meta(rep_dir: Path, meta: dict) -> None:
    with open(rep_dir / META_NAME, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trial(
    rep_dir: Path,
    meta: dict,
    log: RequestLog,
    power: Sequence[PowerSample],
    resources: Sequence[ResourceSample],
) -> Path:
    """Write an ok trial: the three trace CSVs, then ``meta.json`` last, so a
    directory whose meta says ok always holds complete traces."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    write_requests_csv(log, rep_dir / REQUESTS_NAME)
    write_power_csv(power, rep_dir / POWER_NAME)
    write_resources_csv(resources, rep_dir / RESOURCES_NAME)
    _write_meta(rep_dir, {**meta, "format": RUN_FORMAT, "status": "ok"})
    return rep_dir


def write_failed_trial(rep_dir: Path, meta: dict, stage: str, cause: BaseException) -> None:
    """Write a failed trial: ``meta.json`` alone, naming the stage and cause."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    _write_meta(
        rep_dir,
        {
            **meta,
            "format": RUN_FORMAT,
            "status": "failed",
            "failed_stage": stage,
            "cause": f"{type(cause).__name__}: {cause}",
        },
    )


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


def load_artifact(directory: Union[str, Path]) -> TraceSet:
    """One trial's traces; TrialError at stage "read" when its ``meta.json``
    is missing, unreadable or not marked ok."""
    directory = Path(directory)
    try:
        with open(directory / META_NAME, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise TrialError("read", exc) from exc
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


def discover_artifacts(campaign_dir: Union[str, Path]) -> List[Path]:
    """All rep-* trial directories under a campaign directory, ok or failed, in order."""
    root = Path(campaign_dir)
    return sorted(
        (p for p in root.glob("rep-*") if p.is_dir()),
        key=lambda p: int(p.name.split("-", 1)[1]),
    )


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
    # a record's timestamp is its completion, here as in binning
    completions = [r.completion_s for r in ts.requests]
    starts = []
    ends = []
    for times in ([s.t for s in ts.power], [s.t for s in ts.resources], completions):
        if times:
            starts.append(min(times))
            ends.append(max(times))
    if not starts:
        raise ValueError("cannot trim an empty trace set")
    t0 = min(starts)
    span = max(ends) - t0
    if warmup_s >= span and warmup_s > 0:
        raise ValueError(f"warm-up of {warmup_s:.0f}s swallows the whole {span:.0f}s trace")
    cutoff = t0 + warmup_s
    return TraceSet(
        meta=ts.meta,
        requests=tuple(r for r, c in zip(ts.requests, completions) if c >= cutoff),
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
