#!/usr/bin/env python3
"""Benchmark of antiwatt: the harness floor and a handler-bound trial.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``.
With ``--trace 0`` it drives ``antiwatt campaign`` as a user would and prints
the end-to-end metrics; with ``--trace 1`` it runs the campaign, and
``antiwatt analyze`` and ``report`` on a 30-repetition campaign, under
``perfbench/traced.py`` and prints the per-layer metrics.
Either way it checks the program's outputs, and its last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and the meaning of each metric.
"""
from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import checks
import procs
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# a program process that runs longer than this is killed and the run fails
PROCESS_TIMEOUT_S = 120.0

# trials: the load of one run is split over this many campaigns, each with
# its own set-up; a run reports the median over them, so a pause of the host
# that spans a minority of them does not move the result
CAMPAIGNS_PER_RUN = 5

# the traced analysis: 30 repetitions of 540 s after warm-up, ~0.5 M request
# rows, the shape of the paper's campaigns
PAPER_REPETITIONS = 30
PAPER_DURATION_S = 600.0
PAPER_WARMUP_S = 60.0
PLANTED_RT_COEFF = 0.05  # W per ms of response time
# 99.99% intervals: the planted coefficient falls outside on one seed in
# 10 000 rather than one in 20, while a bias of four standard errors shows
ANALYZE_ALPHA = "0.0001"

TRACED_LAYERS = ("cli", "orchestrator", "loadgen", "telemetry", "stats", "reporting")

# the time metrics are given at a reference speed of the program's CPU, the
# speed at which procs.SpeedProbe's loop takes this much CPU time: a time
# measured while the loop took t is scaled by REFERENCE_PROBE_S / t, so the
# drift of the host's CPU speed during and between runs cancels
REFERENCE_PROBE_S = 0.35e-3
TIME_UNITS = {"op_p50_ms": "ms", "cpu_ms_per_op": "ms", "setup_s": "s"}

FLOOR = "unnecessary-processing"
SISYPHUS = "sisyphus-retrieval"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Trial:
    antipattern: str
    users: int
    options: Tuple[str, ...] = ()


TRIALS = {
    "trial-floor": Trial(FLOOR, 1, ("--iterations", "1")),
    "trial-sisyphus": Trial(SISYPHUS, 2),
}


@dataclass
class Result:
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    reference: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def campaign_args(trial: Trial, seed: int, duration_s: float, out: Path) -> List[str]:
    """One repetition, closed loop without think time, no settle or cool-down."""
    return [
        "campaign", "--antipattern", trial.antipattern, "--backend", "sim",
        "--users", str(trial.users), "--spawn-rate", "100", "--duration", f"{duration_s:g}",
        "--warmup", "0", "--settle", "0", "--cooldown", "0", "--reps", "1",
        "--rt-coeff", "0", "--noise-sd-w", "0", "--seed", str(seed), "--out", str(out),
        *trial.options,
    ]


def traced(result: Path, args: List[str]) -> List[str]:
    return [sys.executable, str(HERE / "traced.py"), str(result), "--", *args]


def run_ok(argv: List[str], env, what: str) -> procs.Exit:
    end = procs.run(argv, env, PROCESS_TIMEOUT_S)
    if end.code != 0:
        raise BenchError(f"{what} exited with code {end.code}")
    return end


# ------------------------------------------------------------------- trials


@dataclass(frozen=True)
class TrialOutput:
    requests: checks.Requests
    load_started_at: float
    load_ended_at: float
    problems: List[str]


def read_trial(campaign_dir: Path) -> TrialOutput:
    meta = json.loads((campaign_dir / "rep-0" / "meta.json").read_text(encoding="utf-8"))
    requests = checks.Requests.read(campaign_dir / "rep-0" / "requests.csv")
    start, end = float(meta["load_started_at"]), float(meta["load_ended_at"])
    problems = checks.check_manifest(campaign_dir)
    problems += checks.check_requests(requests, start, end)
    problems += checks.check_power_model(campaign_dir)
    return TrialOutput(requests, start, end, [f"{campaign_dir.name}: {p}" for p in problems])


def measure_trial(trial: Trial, seed: int, seconds: float, work: Path, env) -> Result:
    result = Result()
    # metric -> per-campaign (value as measured, value at the reference speed)
    times: Dict[str, List[Tuple[float, float]]] = {name: [] for name in TIME_UNITS}
    ok_rts = []
    load_s, peak_rss = 0.0, 0.0
    with procs.SpeedProbe() as probe:
        for i in range(CAMPAIGNS_PER_RUN):
            out = work / f"campaign-{i}"
            spawned, started = time.time(), time.perf_counter()
            proc = procs.spawn(procs.antiwatt(campaign_args(trial, seed, seconds / CAMPAIGNS_PER_RUN, out)), env)
            with procs.CpuPoller(proc.pid) as poller:
                end = procs.wait(proc, started, PROCESS_TIMEOUT_S)
            if end.code != 0:
                raise BenchError(f"campaign {i} exited with code {end.code}")
            trial_out = read_trial(out)
            req = trial_out.requests
            result.problems += trial_out.problems
            result.attempted += len(req.success)
            result.failed += int((~req.success).sum())
            ok_rts.append(req.rt_ms[req.success])
            if poller.child_seen_at is None or poller.child_seen_at > trial_out.load_started_at:
                raise BenchError(f"campaign {i}: the service was not seen before the load began")
            load = (trial_out.load_started_at, trial_out.load_ended_at)
            t_a, t_b, cpu_s = poller.between(*load)
            done = req.completion_s
            first_request = req.start_ms.min() / 1000.0
            measured = {
                "op_p50_ms": (ok_p50_ms(req), load),
                "cpu_ms_per_op": (cpu_s * 1000.0 / int((req.success & (done >= t_a) & (done <= t_b)).sum()), load),
                "setup_s": (first_request - spawned, (spawned, first_request)),
            }
            for name, (value, window) in measured.items():
                times[name].append((value, at_reference_speed(value, probe, *window)))
            load_s += load[1] - load[0]
            peak_rss = max(peak_rss, end.maxrss_mb)
    rts = np.concatenate(ok_rts)
    result.metrics = {
        **{name: (statistics.median(v[1] for v in values), TIME_UNITS[name]) for name, values in times.items()},
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    result.reference = {
        **{f"{name}_as_measured": statistics.median(v[0] for v in values) for name, values in times.items()},
        "req_per_s": len(rts) / load_s,
        "rt_p99_ms": float(np.percentile(rts, 99)),
        "ok_requests": len(rts),
    }
    return result


def at_reference_speed(value: float, probe: procs.SpeedProbe, t_from: float, t_to: float) -> float:
    """*value*, a time measured between *t_from* and *t_to*, scaled to the
    reference speed of the program's CPU."""
    return value * REFERENCE_PROBE_S / probe.median_s(t_from, t_to)


def trace_trial(trial: Trial, seed: int, seconds: float, work: Path, env) -> Result:
    result = Result()
    out, summary_path = work / "traced-campaign", work / "traced-campaign.json"
    with procs.SpeedProbe() as probe:
        run_ok(traced(summary_path, campaign_args(trial, seed, seconds, out)), env, "traced campaign")
    trial_out = read_trial(out)
    traced_p50 = at_reference_speed(ok_p50_ms(trial_out.requests), probe,
                                    trial_out.load_started_at, trial_out.load_ended_at)
    result.problems += trial_out.problems
    result.attempted = len(trial_out.requests.success)
    result.failed = int((~trial_out.requests.success).sum())
    campaign = json.loads(summary_path.read_text(encoding="utf-8"))
    analyze, report = traced_analysis(work / "analysis", seed, env, result)
    result.metrics = per_layer(seed, work, env, trial, trial_out, traced_p50, campaign, analyze, report)
    return result


def ok_p50_ms(requests: checks.Requests) -> float:
    return checks.rounded_median(requests.rt_ms[requests.success], checks.MS_ROUNDING * 2)


# ----------------------------------------------------------------- analysis


def write_campaign(out: Path, seed: int) -> None:
    """The analysis input, written by the program's own generator."""
    from antiwatt import synthetic
    from antiwatt.telemetry import SimPowerModel

    model = SimPowerModel(rt_coeff=PLANTED_RT_COEFF, noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=seed)
    plan = synthetic.synthetic_plan(
        out, duration_s=PAPER_DURATION_S, warmup_s=PAPER_WARMUP_S,
        repetitions=PAPER_REPETITIONS, model=model, seed=seed,
    )
    synthetic.generate_campaign(plan, seed=seed)


def traced_analysis(work: Path, seed: int, env, result: Result):
    """Traced analyze and report of a generated campaign, checked; their summaries."""
    work.mkdir(parents=True, exist_ok=True)
    campaign, bundle = work / "campaign", work / "bundle"
    write_campaign(campaign, seed)
    began = time.perf_counter()
    run_ok(traced(work / "analyze.json",
                  ["analyze", str(campaign), "--out", str(bundle), "--alpha", ANALYZE_ALPHA]),
           env, "traced analyze")
    analyze_s = time.perf_counter() - began
    written = (bundle / "report.md").read_bytes()
    run_ok(traced(work / "report.json", ["report", str(bundle)]), env, "traced report")
    result.problems += checks.check_bundle(bundle, checks.reference_analysis(campaign), PLANTED_RT_COEFF)
    if (bundle / "report.md").read_bytes() != written:
        result.problems.append("antiwatt report re-rendered report.md to other bytes")
    analyze = json.loads((work / "analyze.json").read_text(encoding="utf-8"))
    analyze["wall_s"] = analyze_s
    return analyze, json.loads((work / "report.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------- per layer


def workload_probes(trial: Trial, seed: int, work: Path, env) -> Dict[str, Tuple[float, str]]:
    """In-process timings of the workload layer's public functions."""
    from antiwatt.workload import SLUG_TO_KIND, default_config, execute, make_state

    tracer = Tracer()
    make_state_span = tracer.wrap("workload", "workload.make_state", make_state)
    execute_span = tracer.wrap("workload", "workload.execute", execute)
    configs = {
        FLOOR: default_config(SLUG_TO_KIND[FLOOR], iterations=1, dataset_seed=seed),
        SISYPHUS: default_config(SLUG_TO_KIND[SISYPHUS], dataset_seed=seed),
    }
    calls = {FLOOR: 2000, SISYPHUS: 200}
    metrics: Dict[str, Tuple[float, str]] = {}
    for slug, config in configs.items():
        marks = len(tracer.spans)
        states = [make_state_span(config) for _ in range(3)]
        if slug == SISYPHUS:
            metrics[f"workload.state_ms.{slug}"] = (_median_ms(tracer.spans[marks:]), "ms")
        marks = len(tracer.spans)
        for _ in range(calls[slug]):
            code, _response = execute_span(states[0], config, "")
            if code != 200:
                raise BenchError(f"{slug}: in-process execute returned HTTP {code}")
        metrics[f"workload.execute_ms.{slug}"] = (_median_ms(tracer.spans[marks:]), "ms")
    tracer.write(work / "workload.spans.jsonl")
    metrics["workload.launch_s"] = (statistics.median(_launch_s(trial, seed, env) for _ in range(3)), "s")
    return metrics


def _median_ms(spans) -> float:
    return statistics.median(s.end - s.start for s in spans) * 1000.0


def _launch_s(trial: Trial, seed: int, env) -> float:
    """Start of the trial's service process to its "listening" announce line."""
    argv = [sys.executable, "-m", "antiwatt.workload.service", "--antipattern", trial.antipattern,
            "--port", "0", "--seed", str(seed), "--pin-core", "off", *trial.options]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        announce = json.loads(proc.stdout.readline())
        elapsed = time.perf_counter() - started
    finally:
        proc.terminate()
        proc.communicate(timeout=PROCESS_TIMEOUT_S)
    if announce.get("event") != "listening":
        raise BenchError(f"service announced {announce!r}")
    return elapsed


def per_layer(seed: int, work: Path, env, trial: Trial, trial_out: TrialOutput, traced_p50_ms: float,
              campaign: dict, analyze: dict, report: dict) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: the workload probes, the traced trial
    (*campaign*), the traced analysis (*analyze*, *report*), the self time
    of each layer summed over those three processes, and the trial's op
    time (at the reference speed, *traced_p50_ms*) and the analyze time
    with tracing on."""
    probes = workload_probes(trial, seed, work, env)
    execute_ms = probes[f"workload.execute_ms.{trial.antipattern}"][0]
    traced_runs = (campaign, analyze, report)
    return {
        **probes,
        **trial_layers(campaign, trial_out.requests, execute_ms),
        **analysis_layers(analyze, report),
        **{f"{layer}.self_s": (sum(r["self_s"].get(layer, 0.0) for r in traced_runs), "s")
           for layer in TRACED_LAYERS},
        "cli.import_s": (statistics.median(r["import_s"] for r in traced_runs), "s"),
        "trace.op_p50_ms": (traced_p50_ms, "ms"),
        "trace.analyze_s": (analyze["wall_s"], "s"),
    }


def trial_layers(summary: dict, requests: checks.Requests, execute_ms: float) -> Dict[str, Tuple[float, str]]:
    load = summary["loads"][0]
    ok = load["ok"]
    late = summary["tick_late_ms"]
    return {
        "workload.service_cpu_ms_per_req": (load["service_cpu_s"] * 1000.0 / ok, "ms"),
        "loadgen.driver_cpu_ms_per_req": (load["driver_cpu_s"] * 1000.0 / ok, "ms"),
        "loadgen.harness_rt_ms": (ok_p50_ms(requests) - execute_ms, "ms"),
        "telemetry.tick_cost_ms": (statistics.median(summary["tick_cost_ms"]), "ms"),
        "telemetry.tick_late_ms_p50": (statistics.median(late), "ms"),
        "telemetry.tick_late_ms_max": (max(late), "ms"),
        "orchestrator.write_ms": (_total_ms(summary, "loadgen.write_requests_csv",
                                            "orchestrator.write_power_csv",
                                            "orchestrator.write_resources_csv"), "ms"),
    }


def analysis_layers(analyze: dict, report: dict) -> Dict[str, Tuple[float, str]]:
    rows = analyze["request_rows_read"]
    return {
        "orchestrator.load_artifact_ms": (_total_ms(analyze, "orchestrator.load_artifact"), "ms"),
        "orchestrator.trim_warmup_ms": (_total_ms(analyze, "orchestrator.trim_warmup"), "ms"),
        "orchestrator.trim_warmup_calls": (
            analyze["calls"].get("orchestrator.trim_warmup", {}).get("calls", 0), "count"),
        "orchestrator.validity_check_ms": (_total_ms(analyze, "orchestrator.validity_check"), "ms"),
        "orchestrator.completion_s_per_row": (analyze["completion_s_evals"] / rows if rows else 0.0, "count"),
        "stats.align_ms": (_total_ms(analyze, "stats.align"), "ms"),
        "stats.build_timeline_ms": (_total_ms(analyze, "stats.build_timeline"), "ms"),
        "stats.correlation_ms": (_total_ms(analyze, "stats.correlation_pair"), "ms"),
        "stats.fit_ms": (_total_ms(analyze, "stats.assemble_design", "stats.ols_fit",
                                   "stats.hc3_covariance", "stats.infer_coefficient",
                                   "stats.breusch_pagan", "stats.anderson_darling"), "ms"),
        "reporting.write_bundle_ms": (_total_ms(analyze, "reporting.write_bundle"), "ms"),
        "reporting.render_report_ms": (_total_ms(report, "reporting.render_report"), "ms"),
    }


def _total_ms(summary: dict, *names: str) -> float:
    return sum(summary["calls"].get(name, {}).get("total_s", 0.0) for name in names) * 1000.0


# --------------------------------------------------------------------- main


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRIALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "antiwatt" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    procs.pin_to_one_cpu()
    # byte-compile up front, so no set-up measured below pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    # the analysis input and the workload timings use the program in process
    sys.path.insert(0, str(SRC))
    env = procs.program_env(SRC)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    measure = trace_trial if args.trace else measure_trial
    try:
        result = measure(TRIALS[args.workload], args.seed, args.seconds, work, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if result.reference:
        print("reference only: " + ", ".join(f"{k}={v:.6g}" for k, v in result.reference.items()))
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
