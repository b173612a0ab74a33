"""Antipattern catalog, workload configuration and the service's command line.

Each antipattern is one HTTP endpoint of one service process; the kebab-case
enum value doubles as the endpoint path. Default virtual-user counts follow
the experiment design: 50 concurrent users except the three workloads whose
response times would explode (Unbalanced Processing at 10, Unnecessary
Processing and Traffic Jam at 30).

Iteration defaults are set so a single request costs tens of milliseconds
on a desktop-class core. A campaign sets a workload's kind, iterations and
dataset seed and scale; the service takes them only from the flags
service_argv emits, so every service a campaign starts does the work its
plan names. The other per-kind parameters are module constants.
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


# fixed per-kind work parameters: no campaign varies them, so they are
# constants, recorded in every trial's plan by WorkloadConfig.to_dict
PAYLOAD_SIZE = 2048  # UnbalancedProcessing: random bytes per request
WORKER_COUNT = 4  # MoreIsLess: threads, unless a request's ?workers= says otherwise
WINDOW_PERIOD_S = 60.0  # TrafficJam: length of one heavy + normal cycle
HEAVY_FRACTION = 0.25  # TrafficJam: share of each cycle that is heavy
MAX_STORE_ITEMS = 10_000_000  # UnbalancedProcessing, TheRamp: store capacity
RECENT_ORDERS = 5  # CircuitousTreasureHunt: how many orders are "recent"


@dataclass(frozen=True)
class WorkloadConfig:
    kind: AntipatternKind
    iterations: int
    dataset_seed: int = 1
    dataset_scale: int = 1

    def __post_init__(self) -> None:
        for name in ("iterations", "dataset_scale"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "iterations": self.iterations,
            "payload_size": PAYLOAD_SIZE,
            "worker_count": WORKER_COUNT,
            "window_period_s": WINDOW_PERIOD_S,
            "heavy_fraction": HEAVY_FRACTION,
            "dataset_seed": self.dataset_seed,
            "dataset_scale": self.dataset_scale,
            "max_store_items": MAX_STORE_ITEMS,
            "recent_orders": RECENT_ORDERS,
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
    parser.add_argument("--pin-core", default="auto", help="core id, 'auto', or 'off'")
    return parser


def config_from_args(args: argparse.Namespace) -> WorkloadConfig:
    overrides = {"dataset_seed": args.seed, "dataset_scale": args.scale}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    return default_config(SLUG_TO_KIND[args.antipattern], **overrides)


def service_argv(config: WorkloadConfig, pin_core: str) -> list[str]:
    """The service's command-line flags for *config*; the inverse of config_from_args."""
    return [
        "--antipattern", config.kind.slug,
        "--seed", str(config.dataset_seed),
        "--scale", str(config.dataset_scale),
        "--iterations", str(config.iterations),
        "--pin-core", pin_core,
    ]
