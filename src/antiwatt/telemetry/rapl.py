"""RAPL energy counters via the Linux powercap sysfs interface.

The powercap tree exposes one directory per RAPL zone
(``intel-rapl:0``, ``intel-rapl:0:0``, ...), each holding ``name``,
``energy_uj`` (a monotone counter that wraps at ``max_energy_range_uj``)
and ``max_energy_range_uj``. Package zones are named ``package-N``; DRAM
zones are subzones named ``dram``. Multi-socket hosts are handled by
summation over matching zones.

Average power over an interval is the energy delta divided by the wall
interval; counter wraps are corrected per zone before summing.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import CapabilityError
from .base import CPU_PACKAGE, DRAM, PowerSample, ResourceSample
from .procfs import _proc_cpu_seconds

logger = logging.getLogger(__name__)

DEFAULT_SYSFS_ROOT = "/sys/class/powercap"


@dataclass(frozen=True)
class EnergyReading:
    """A snapshot of one RAPL domain's energy counter.

    ``energy_uj`` counts microjoules since an arbitrary origin and wraps to 0
    past ``max_range_uj``. ``t`` is epoch milliseconds.
    """

    domain: str
    energy_uj: int
    max_range_uj: int
    t: float

    def __post_init__(self) -> None:
        if not 0 <= self.energy_uj <= self.max_range_uj:
            raise ValueError(
                f"energy counter {self.energy_uj} outside [0, {self.max_range_uj}]"
            )


def _read_int(path: Path) -> int:
    return int(path.read_text().strip())


def _zone_dirs(root: Path) -> List[Path]:
    """All RAPL zone directories under *root*, subzones included."""
    zones = sorted(root.glob("intel-rapl:*"))
    zones += sorted(root.glob("intel-rapl:*/intel-rapl:*"))
    return [z for z in zones if z.is_dir()]


def _zones_for_domain(root: Path, domain: str) -> List[Path]:
    matched = []
    for zone in _zone_dirs(root):
        try:
            name = (zone / "name").read_text().strip()
        except OSError:
            continue
        if domain == CPU_PACKAGE and name.startswith("package"):
            matched.append(zone)
        elif domain == DRAM and name == "dram":
            matched.append(zone)
    return matched


def available(sysfs_root: str = DEFAULT_SYSFS_ROOT) -> bool:
    """True when at least one readable package-domain counter exists."""
    root = Path(sysfs_root)
    if not root.is_dir():
        return False
    for zone in _zones_for_domain(root, CPU_PACKAGE):
        try:
            _read_int(zone / "energy_uj")
            return True
        except (OSError, ValueError):
            continue
    return False


def power_from_deltas(prev: EnergyReading, curr: EnergyReading) -> float:
    """Average watts between two readings of the same domain.

    watts = Δenergy_uj / Δt_µs. A counter wrap (curr < prev) is corrected as
    Δenergy = max_range − prev + curr, which lands in [0, max_range).
    """
    if prev.domain != curr.domain:
        raise ValueError(f"domain mismatch: {prev.domain!r} vs {curr.domain!r}")
    dt_ms = curr.t - prev.t
    if dt_ms <= 0:
        raise ValueError(f"non-positive time delta: {dt_ms} ms")
    delta_uj = curr.energy_uj - prev.energy_uj
    if delta_uj < 0:
        delta_uj = curr.max_range_uj - prev.energy_uj + curr.energy_uj
    return delta_uj / (dt_ms * 1000.0)


def _read_host_busy_jiffies(stat_path: Path) -> int:
    """Non-idle clock ticks summed over all CPUs, from /proc/stat."""
    with stat_path.open() as fh:
        first = fh.readline().split()
    if not first or first[0] != "cpu":
        raise CapabilityError(f"unexpected /proc/stat layout in {stat_path}")
    fields = [int(v) for v in first[1:]]
    idle = fields[3] if len(fields) > 3 else 0
    iowait = fields[4] if len(fields) > 4 else 0
    return sum(fields) - idle - iowait


class RaplPowerSource:
    """1 Hz power from powercap counters, with optional per-process attribution.

    Each zone's counter is delta'd (wrap-corrected) independently and the
    per-zone watts are summed into the package and DRAM figures. When
    ``target_pid`` is given, package power is attributed to the process by
    its share of non-idle host CPU time over the same interval; DRAM power
    stays host-wide — the counter cannot be split per process, and trace
    metadata records that scope.
    """

    def __init__(
        self,
        target_pid: Optional[int] = None,
        sysfs_root: str = DEFAULT_SYSFS_ROOT,
        proc_root: str = "/proc",
    ) -> None:
        root = Path(sysfs_root)
        self._cpu_zones = _zones_for_domain(root, CPU_PACKAGE) if root.is_dir() else []
        self._dram_zones = _zones_for_domain(root, DRAM) if root.is_dir() else []
        if not self._cpu_zones:
            raise CapabilityError(
                f"no RAPL package zones under {sysfs_root}; "
                "use the simulated backend (--backend sim)"
            )
        if not self._dram_zones:
            logger.warning("no RAPL dram zone found; dram power will read 0.0 W")
        self._target_pid = target_pid
        self._proc_root = Path(proc_root)
        # per-zone (energy_uj, t_ms) baselines
        self._prev: Dict[Path, Tuple[int, float]] = {}
        self._prev_jiffies: Optional[Tuple[float, int]] = None  # (proc, host busy)
        self._ranges: Dict[Path, int] = {}

    def _read_zone(self, zone: Path) -> int:
        return _read_int(zone / "energy_uj")

    def _zone_range(self, zone: Path) -> int:
        if zone not in self._ranges:
            self._ranges[zone] = _read_int(zone / "max_energy_range_uj")
        return self._ranges[zone]

    def _domain_watts(self, zones: List[Path], domain: str, t_ms: float) -> float:
        watts = 0.0
        for zone in zones:
            energy = self._read_zone(zone)
            prev = self._prev.get(zone)
            self._prev[zone] = (energy, t_ms)
            if prev is None:
                continue
            rng = self._zone_range(zone)
            watts += power_from_deltas(
                EnergyReading(domain, prev[0], rng, prev[1]),
                EnergyReading(domain, energy, rng, t_ms),
            )
        return watts

    def _jiffies(self) -> Tuple[float, int]:
        # both in clock ticks: a clock-tick rate of 1 leaves utime+stime unscaled
        busy = _read_host_busy_jiffies(self._proc_root / "stat")
        proc = _proc_cpu_seconds(self._proc_root / str(self._target_pid) / "stat", 1.0)
        return proc, busy

    def prime(self, t: float) -> None:
        self.sample(t, None, None)

    def sample(
        self,
        t: float,
        resource: Optional[ResourceSample] = None,
        rt_ms: Optional[float] = None,
    ) -> Optional[PowerSample]:
        """Read all zones; returns None on the baseline-establishing call."""
        t_ms = t * 1000.0
        primed = bool(self._prev)
        cpu_w = self._domain_watts(self._cpu_zones, CPU_PACKAGE, t_ms)
        dram_w = self._domain_watts(self._dram_zones, DRAM, t_ms)
        if self._target_pid is not None:
            jiffies = self._jiffies()
            prev = self._prev_jiffies
            self._prev_jiffies = jiffies
            if prev is not None:
                dproc = jiffies[0] - prev[0]
                dbusy = jiffies[1] - prev[1]
                share = min(1.0, max(0.0, dproc / dbusy)) if dbusy > 0 else 0.0
                cpu_w *= share
        if not primed:
            return None
        return PowerSample(t=t, cpu_power_w=max(0.0, cpu_w), dram_power_w=max(0.0, dram_w))
