"""antiwatt command line: serve | load | campaign | analyze | report.

Exit codes: 0 success, 2 usage error, 3 missing capability (e.g. no
readable powercap counters for ``--backend real``), 4 runtime failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional

from .errors import AntiwattError, CapabilityError, TrialError
from .loadgen import LoadPlan, run_load, write_requests_csv
from .orchestrator import ExperimentPlan, run_campaign
from .reporting import REPORT_NAME, render_report, write_bundle
from .stats.campaign import analyze_campaign_dir
from .telemetry import SimPowerModel
from .telemetry.rapl import available as rapl_available
from .workload import DEFAULT_USERS, SLUG_TO_KIND, default_config

log = logging.getLogger("antiwatt")

USAGE_EXIT = 2
CAPABILITY_EXIT = 3
RUNTIME_EXIT = 4

_SLUGS = sorted(SLUG_TO_KIND)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    # accepted both before and after the subcommand; the subcommand wins
    parser.add_argument("--out", default=argparse.SUPPRESS, help="output path")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antiwatt",
        description="performance-antipattern workloads, load driving, and power analysis",
    )
    parser.set_defaults(out=None, seed=None, verbose=False)
    _common_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    # the service's own flags are declared once, in workload.service, and
    # reach it unparsed; -h/--help there lists them
    serve = sub.add_parser(
        "serve", add_help=False, help="run one antipattern service in the foreground"
    )
    _common_flags(serve)
    serve.set_defaults(func=cmd_serve)

    load = sub.add_parser("load", help="drive closed-loop load against a running endpoint")
    _common_flags(load)
    load.add_argument("--endpoint", required=True, help="full URL of the antipattern endpoint")
    load.add_argument("--users", type=int, default=10)
    load.add_argument("--spawn-rate", type=float, default=None, help="users per second")
    load.add_argument("--duration", type=float, default=60.0)
    load.add_argument("--think-time-ms", type=float, default=0.0)
    load.set_defaults(func=cmd_load)

    campaign = sub.add_parser("campaign", help="run a repeated measurement campaign")
    _common_flags(campaign)
    campaign.add_argument("--antipattern", required=True, choices=_SLUGS)
    campaign.add_argument("--backend", required=True, choices=["real", "sim"])
    campaign.add_argument("--users", type=int, default=None, help="default depends on the antipattern")
    campaign.add_argument("--spawn-rate", type=float, default=None)
    campaign.add_argument("--duration", type=float, default=180.0)
    campaign.add_argument("--warmup", type=float, default=30.0)
    campaign.add_argument("--cooldown", type=float, default=5.0)
    campaign.add_argument("--settle", type=float, default=10.0)
    campaign.add_argument("--reps", type=int, default=5)
    campaign.add_argument("--scale", type=int, default=1)
    campaign.add_argument("--iterations", type=int, default=None)
    campaign.add_argument("--pin-core", default="off")
    campaign.add_argument("--rt-coeff", type=float, default=0.0, help="sim backend only")
    campaign.add_argument("--noise-sd-w", type=float, default=0.2, help="sim backend only")
    campaign.set_defaults(func=cmd_campaign)

    analyze = sub.add_parser("analyze", help="turn a campaign directory into a report bundle")
    _common_flags(analyze)
    analyze.add_argument("campaign_dir")
    analyze.add_argument("--alpha", type=float, default=0.05)
    analyze.set_defaults(func=cmd_analyze)

    report = sub.add_parser("report", help="re-render report.md from a bundle's CSV tables")
    _common_flags(report)
    report.add_argument("bundle_dir")
    report.set_defaults(func=cmd_report)

    return parser


def cmd_serve(args: argparse.Namespace) -> int:
    from .workload.service import run_service  # only serve loads the server side

    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    return run_service(args.service_argv + seed)


def cmd_load(args: argparse.Namespace) -> int:
    spawn = args.spawn_rate if args.spawn_rate is not None else max(1.0, args.users / 10)
    plan = LoadPlan(
        target_users=args.users,
        spawn_rate=spawn,
        duration_s=args.duration,
        endpoint=args.endpoint,
        think_time_ms=args.think_time_ms,
    )
    out = Path(args.out) if args.out else Path("requests.csv")
    request_log = run_load(plan)
    write_requests_csv(request_log, out)
    records = request_log.records
    mean_rt = sum(r.response_time_ms for r in records) / len(records) if records else 0.0
    print(
        f"{len(records)} requests, {request_log.failure_count} failures, "
        f"mean rt {mean_rt:.1f} ms -> {out}"
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.backend == "real" and not rapl_available():
        # fail before launching anything rather than after the first trial
        raise CapabilityError(
            "powercap/RAPL is not readable on this host; rerun with --backend sim"
        )
    kind = SLUG_TO_KIND[args.antipattern]
    seed = args.seed if args.seed is not None else 1
    users = args.users if args.users is not None else DEFAULT_USERS[kind]
    spawn = args.spawn_rate if args.spawn_rate is not None else max(1.0, users / 10)

    overrides = {"dataset_seed": seed, "dataset_scale": args.scale}
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    workload = default_config(kind, **overrides)
    load_plan = LoadPlan(
        target_users=users,
        spawn_rate=spawn,
        duration_s=args.duration,
        endpoint=f"http://pending.invalid/{args.antipattern}",
    )
    sim_model = None
    if args.backend == "sim":
        sim_model = SimPowerModel(
            rt_coeff=args.rt_coeff,
            noise_sd_w=args.noise_sd_w,
            dram_noise_sd_w=0.05,
            seed=seed,
        )
    out_dir = args.out if args.out else f"runs/{args.antipattern}"
    plan = ExperimentPlan(
        workload=workload,
        load=load_plan,
        warmup_s=args.warmup,
        cooldown_s=args.cooldown,
        repetitions=args.reps,
        power_backend=args.backend,
        sim_model=sim_model,
        out_dir=out_dir,
        settle_s=args.settle,
        pin_core=args.pin_core,
    )
    result = run_campaign(plan)
    print(
        f"{result.ok_count}/{len(result.statuses)} repetitions ok -> {result.directory}"
    )
    if result.ok_count == 0:
        print("all repetitions failed; see manifest.txt", file=sys.stderr)
        return RUNTIME_EXIT
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    campaign_dir = Path(args.campaign_dir)
    if not campaign_dir.is_dir():
        print(f"antiwatt analyze: no such campaign directory: {campaign_dir}", file=sys.stderr)
        return USAGE_EXIT
    out = Path(args.out) if args.out else campaign_dir / "report"
    analysis = analyze_campaign_dir(campaign_dir, alpha=args.alpha)
    bundle = write_bundle(analysis, out)
    print(f"report bundle -> {bundle.directory}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    bundle_dir = Path(args.bundle_dir)
    if not bundle_dir.is_dir():
        print(f"antiwatt report: no such bundle directory: {bundle_dir}", file=sys.stderr)
        return USAGE_EXIT
    text = render_report(bundle_dir)
    (bundle_dir / REPORT_NAME).write_text(text, encoding="utf-8")
    print(f"rendered {bundle_dir / REPORT_NAME}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "serve":
        args.service_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"antiwatt: {exc}", file=sys.stderr)
        return CAPABILITY_EXIT
    except TrialError as exc:
        print(f"antiwatt: trial failed during {exc.stage}: {exc.cause}", file=sys.stderr)
        return RUNTIME_EXIT
    except (AntiwattError, ValueError, OSError) as exc:
        # e.g. a campaign with no valid repetition
        print(f"antiwatt: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
