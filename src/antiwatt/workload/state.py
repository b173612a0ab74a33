"""Mutable per-service state shared by the antipattern handlers.

A fresh service process gets a fresh state — that is what guarantees an
empty ramp store and zeroed counters at the start of every trial. All
mutation happens under per-structure locks; only One-Lane Bridge's gate is
*meant* to serialize whole requests.
"""
from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fixture import RelationalFixture, generate_fixture
from .config import AntipatternKind, WorkloadConfig

# the kinds whose handlers read state.fixture; the others start without it
FIXTURE_KINDS = frozenset(
    {
        AntipatternKind.SISYPHUS_RETRIEVAL,
        AntipatternKind.GOD_CLASS,
        AntipatternKind.CIRCUITOUS_TREASURE_HUNT,
    }
)


@dataclass
class GodCounters:
    """Monolithic-handler bookkeeping: valid/error tallies plus its cache."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    request_count: int = 0
    error_count: int = 0
    cache: Dict[str, str] = field(default_factory=dict)


@dataclass
class BridgeGate:
    """The process-wide exclusion region plus occupancy instrumentation."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    meta: threading.Lock = field(default_factory=threading.Lock)
    counter: int = 0
    occupancy: int = 0
    max_occupancy: int = 0

    def enter(self) -> int:
        with self.meta:
            self.occupancy += 1
            self.max_occupancy = max(self.max_occupancy, self.occupancy)
            return self.occupancy

    def leave(self) -> None:
        with self.meta:
            self.occupancy -= 1


@dataclass
class JamClock:
    """Traffic Jam's lingering-backlog tracker (work debt in request units)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    debt: float = 0.0


@dataclass
class ServiceState:
    config: WorkloadConfig
    fixture: Optional[RelationalFixture]  # None unless config.kind is in FIXTURE_KINDS
    rng: random.Random
    rng_lock: threading.Lock = field(default_factory=threading.Lock)
    # TheRamp's unbounded store: one item per completed request
    ramp_store: List[str] = field(default_factory=list)
    ramp_lock: threading.Lock = field(default_factory=threading.Lock)
    # UnbalancedProcessing's own growing store (distinct from the ramp's)
    unbalanced_store: List[bytes] = field(default_factory=list)
    unbalanced_lock: threading.Lock = field(default_factory=threading.Lock)
    god: GodCounters = field(default_factory=GodCounters)
    bridge: BridgeGate = field(default_factory=BridgeGate)
    jam: JamClock = field(default_factory=JamClock)

    def random_bytes(self, n: int) -> bytes:
        with self.rng_lock:
            return self.rng.randbytes(n)

    def random_hex(self, n_bits: int = 128) -> str:
        with self.rng_lock:
            return f"{self.rng.getrandbits(n_bits):0{n_bits // 4}x}"


def make_state(config: WorkloadConfig) -> ServiceState:
    """Fresh state for a fresh service process; the fixture derives from config."""
    fixture = None
    if config.kind in FIXTURE_KINDS:
        fixture = generate_fixture(config.dataset_seed, config.dataset_scale)
    return ServiceState(
        config=config,
        fixture=fixture,
        rng=random.Random(config.dataset_seed),
    )
