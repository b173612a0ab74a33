"""Antipattern catalog, workload configuration and the service's command line.

Each antipattern is one HTTP endpoint of one service process; the kebab-case
enum value doubles as the endpoint path. Default virtual-user counts follow
the experiment design: 50 concurrent users except the three workloads whose
response times would explode (Unbalanced Processing at 10, Unnecessary
Processing and Traffic Jam at 30).

Iteration defaults are set so a single request costs tens of milliseconds
on a desktop-class core. Every knob is overridable, and the service takes
them only from the flags service_argv emits, so every service a campaign
starts does the work its plan names.
"""
from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict


class AntipatternKind(str, Enum):
    UNBALANCED_PROCESSING = "unbalanced-processing"
    UNNECESSARY_PROCESSING = "unnecessary-processing"
    THE_RAMP = "the-ramp"
    SISYPHUS_RETRIEVAL = "sisyphus-retrieval"
    MORE_IS_LESS = "more-is-less"
    GOD_CLASS = "god-class"
    EXCESSIVE_DYNAMIC_ALLOCATION = "excessive-dynamic-allocation"
    CIRCUITOUS_TREASURE_HUNT = "circuitous-treasure-hunt"
    ONE_LANE_BRIDGE = "one-lane-bridge"
    TRAFFIC_JAM = "traffic-jam"

    @property
    def slug(self) -> str:
        return self.value


SLUG_TO_KIND: Dict[str, AntipatternKind] = {k.value: k for k in AntipatternKind}

DEFAULT_USERS: Dict[AntipatternKind, int] = {
    **{k: 50 for k in AntipatternKind},
    AntipatternKind.UNBALANCED_PROCESSING: 10,
    AntipatternKind.UNNECESSARY_PROCESSING: 30,
    AntipatternKind.TRAFFIC_JAM: 30,
}

# primary work amount per request; meaning is kind-specific (hash rounds,
# loop steps, per-lookup rounds, ...) — see each handler
DEFAULT_ITERATIONS: Dict[AntipatternKind, int] = {
    AntipatternKind.UNBALANCED_PROCESSING: 24_000,
    AntipatternKind.UNNECESSARY_PROCESSING: 60_000,
    AntipatternKind.THE_RAMP: 1,
    AntipatternKind.SISYPHUS_RETRIEVAL: 1,
    AntipatternKind.MORE_IS_LESS: 80_000,
    AntipatternKind.GOD_CLASS: 24_000,
    AntipatternKind.EXCESSIVE_DYNAMIC_ALLOCATION: 2_000,
    AntipatternKind.CIRCUITOUS_TREASURE_HUNT: 2_400,
    AntipatternKind.ONE_LANE_BRIDGE: 48_000,
    AntipatternKind.TRAFFIC_JAM: 400_000,
}


@dataclass(frozen=True)
class WorkloadConfig:
    kind: AntipatternKind
    iterations: int
    payload_size: int = 2048
    worker_count: int = 4  # MoreIsLess only
    window_period_s: float = 60.0  # TrafficJam only
    heavy_fraction: float = 0.25  # TrafficJam only
    dataset_seed: int = 1
    dataset_scale: int = 1
    max_store_items: int = 10_000_000
    recent_orders: int = 5  # CircuitousTreasureHunt: how many orders are "recent"

    def __post_init__(self) -> None:
        counts = {
            "iterations": self.iterations,
            "payload_size": self.payload_size,
            "worker_count": self.worker_count,
            "dataset_scale": self.dataset_scale,
            "max_store_items": self.max_store_items,
            "recent_orders": self.recent_orders,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 0.0 < self.heavy_fraction < 1.0:
            raise ValueError("heavy_fraction must be strictly between 0 and 1")
        if self.window_period_s <= 0:
            raise ValueError("window_period_s must be positive")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "iterations": self.iterations,
            "payload_size": self.payload_size,
            "worker_count": self.worker_count,
            "window_period_s": self.window_period_s,
            "heavy_fraction": self.heavy_fraction,
            "dataset_seed": self.dataset_seed,
            "dataset_scale": self.dataset_scale,
            "max_store_items": self.max_store_items,
            "recent_orders": self.recent_orders,
        }


def default_config(kind: AntipatternKind, **overrides) -> WorkloadConfig:
    """The default configuration for *kind*, with overrides."""
    cfg = WorkloadConfig(kind=kind, iterations=DEFAULT_ITERATIONS[kind])
    return replace(cfg, **overrides) if overrides else cfg


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antiwatt-service", description="serve one antipattern endpoint"
    )
    parser.add_argument("--antipattern", required=True, choices=sorted(SLUG_TO_KIND))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument("--seed", type=int, default=1, help="dataset/rng seed")
    parser.add_argument("--scale", type=int, default=1, help="fixture scale multiplier")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--payload-size", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None, help="MoreIsLess worker count")
    parser.add_argument("--window-period-s", type=float, default=None, help="TrafficJam period")
    parser.add_argument("--heavy-fraction", type=float, default=None)
    parser.add_argument("--pin-core", default="auto", help="core id, 'auto', or 'off'")
    return parser


def config_from_args(args: argparse.Namespace) -> WorkloadConfig:
    overrides = {"dataset_seed": args.seed, "dataset_scale": args.scale}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.payload_size is not None:
        overrides["payload_size"] = args.payload_size
    if args.workers is not None:
        overrides["worker_count"] = args.workers
    if args.window_period_s is not None:
        overrides["window_period_s"] = args.window_period_s
    if args.heavy_fraction is not None:
        overrides["heavy_fraction"] = args.heavy_fraction
    return default_config(SLUG_TO_KIND[args.antipattern], **overrides)


def service_argv(config: WorkloadConfig, pin_core: str) -> list[str]:
    """The service's command-line flags for *config*; the inverse of config_from_args."""
    return [
        "--antipattern", config.kind.slug,
        "--seed", str(config.dataset_seed),
        "--scale", str(config.dataset_scale),
        "--iterations", str(config.iterations),
        "--payload-size", str(config.payload_size),
        "--workers", str(config.worker_count),
        "--window-period-s", str(config.window_period_s),
        "--heavy-fraction", str(config.heavy_fraction),
        "--pin-core", pin_core,
    ]
