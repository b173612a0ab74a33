"""The 1 Hz sampling loop that drives a power source and a resource sampler.

The loop runs on a fixed tick grid (start + k*interval on the monotonic
clock): a late wake never shifts subsequent ticks, and ticks that were missed
entirely are counted and logged — never silently interpolated. One resource
sample and one power sample are emitted per tick; a backend failure ends the
stream with an explicit error record instead of crashing the host thread.
"""
from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .base import PowerSample, PowerSource, ResourceSample

logger = logging.getLogger(__name__)

# injectable clocks so tests can run the loop in simulated time
MonotonicClock = Callable[[], float]
WallClock = Callable[[], float]
Sleeper = Callable[[float], None]


@dataclass
class SamplerResult:
    """Everything one sampling run produced."""

    power: List[PowerSample] = field(default_factory=list)
    resources: List[ResourceSample] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    missed_ticks: int = 0


class _NullResourceSampler:
    def sample(self) -> None:
        return None


def run_sampler(
    power_source: PowerSource,
    resource_sampler=None,
    stop_event: Optional[threading.Event] = None,
    interval_s: float = 1.0,
    rt_provider: Optional[Callable[[], Optional[float]]] = None,
    max_ticks: Optional[int] = None,
    clock: MonotonicClock = time.monotonic,
    wall: WallClock = time.time,
    sleep: Sleeper = time.sleep,
) -> SamplerResult:
    """Sample until *stop_event* is set (or *max_ticks* reached).

    ``rt_provider`` supplies the current binned response time to simulated
    backends; real backends ignore it.
    """
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    if stop_event is None:
        stop_event = threading.Event()
    if resource_sampler is None:
        resource_sampler = _NullResourceSampler()
    result = SamplerResult()

    try:
        power_source.prime(wall())
    except Exception as exc:  # noqa: BLE001 - backend failure is data here
        msg = f"prime: {type(exc).__name__}: {exc}"
        logger.error("sampler could not prime power source: %s", msg)
        result.errors.append(msg)
        return result

    start = clock()
    k = 0
    while not stop_event.is_set():
        if max_ticks is not None and k >= max_ticks:
            break
        k += 1
        target = start + k * interval_s
        while True:
            remaining = target - clock()
            if remaining <= 0:
                break
            # short naps keep stop_event latency bounded
            sleep(min(remaining, 0.1))
            if stop_event.is_set():
                return result
        late_by = clock() - target
        if late_by >= interval_s:
            skipped = int(late_by // interval_s)
            logger.warning("sampler missed %d tick(s) at k=%d", skipped, k)
            result.missed_ticks += skipped
            k += skipped
        t = wall()
        try:
            resource = resource_sampler.sample()
            rt_ms = rt_provider() if rt_provider is not None else None
            power = power_source.sample(t, resource, rt_ms)
        except Exception as exc:  # noqa: BLE001
            msg = f"tick {k}: {type(exc).__name__}: {exc}"
            logger.error("sampler backend failed, ending stream: %s", msg)
            result.errors.append(msg)
            break
        if resource is not None:
            result.resources.append(resource)
        if power is not None:
            result.power.append(power)
    return result
