"""Run one antiwatt command in this process with spans around every layer.

    python3 perfbench/traced.py RESULT.json -- <antiwatt arguments>

The command runs through ``antiwatt.cli.main`` exactly as the ``antiwatt``
entry point runs it, after :func:`install` has wrapped the public functions
of ``cli``, ``orchestrator``, ``loadgen``, ``telemetry``, ``stats`` and
``reporting``. When it ends, RESULT.json gets the per-name and per-layer
span totals and the counts below, and RESULT.spans.jsonl every span:

- the time ``import antiwatt.cli`` took in this fresh process;
- evaluations of ``RequestRecord.completion_s`` and request rows read;
- per load run: requests, successes, the CPU time of the driver's ``vu-*``
  threads and of the service process between the start and end of
  ``run_load``;
- per sampler tick: lateness against the tick grid and the tick's CPU cost.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

# functions that get a span, by module; each is public in its module
SPANNED = {
    "antiwatt.cli": ["main", "cmd_campaign", "cmd_analyze", "cmd_report"],
    "antiwatt.orchestrator": [
        "run_campaign", "execute_trial", "load_artifact", "trim_warmup", "validity_check",
        "write_power_csv", "write_resources_csv", "read_power_csv", "read_resources_csv",
        "write_campaign_summary", "discover_artifacts", "host_descriptor",
    ],
    "antiwatt.loadgen": ["write_requests_csv"],
    "antiwatt.stats.campaign": ["analyze_campaign_dir", "analyze_campaign", "build_timeline"],
    "antiwatt.stats.align": ["align"],
    "antiwatt.stats.core": ["describe", "correlation_pair"],
    "antiwatt.stats.regression": ["assemble_design", "ols_fit", "hc3_covariance", "infer_coefficient"],
    "antiwatt.stats.diagnostics": ["breusch_pagan", "anderson_darling"],
    "antiwatt.stats.energy": ["trapezoid_energy"],
    "antiwatt.reporting": ["write_bundle", "render_report"],
}


class Probes:
    """Counts and timings taken at layer boundaries besides the spans."""

    def __init__(self) -> None:
        self.completion_s_evals = 0
        self.request_rows_read = 0
        self.loads = []
        self.tick_late_ms = []
        self.tick_cost_ms = []
        # state of the load run and the sampler tick in progress
        self.vu_cpu = {}
        self.grid_start = None
        self.interval_s = 1.0
        self.tick_entry_cpu = None


def install(tracer, probes: Probes) -> None:
    import antiwatt.loadgen as loadgen
    from antiwatt.telemetry import sampler
    from antiwatt.telemetry.procfs import ProcSampler
    from antiwatt.telemetry.sim import SimPowerSource

    import procs

    for module, names in SPANNED.items():
        for name in names:
            tracer.patch(module, name)

    completion_s = loadgen.RequestRecord.completion_s

    def counted_completion(record):
        # only one thread evaluates it at a time: analysis, or the sampler
        probes.completion_s_evals += 1
        return completion_s.fget(record)

    tracer.patch("antiwatt.loadgen", "RequestRecord.completion_s", property(counted_completion))

    read_span = tracer.wrap("loadgen", "loadgen.read_requests_csv", loadgen.read_requests_csv)

    def read_requests_csv(path):
        log = read_span(path)
        probes.request_rows_read += len(log)
        return log

    tracer.patch("antiwatt.loadgen", "read_requests_csv", read_requests_csv)

    append = loadgen.RequestLog.append

    def timed_append(log, record):
        thread = threading.current_thread()
        if thread.name.startswith("vu-"):
            probes.vu_cpu[thread] = time.thread_time()
        return append(log, record)

    tracer.patch("antiwatt.loadgen", "RequestLog.append", timed_append)

    load_span = tracer.wrap("loadgen", "loadgen.run_load", loadgen.run_load)

    def run_load(*args, **kwargs):
        services = procs.children(os.getpid())
        before = sum(procs.cpu_seconds(pid) or 0.0 for pid in services)
        probes.vu_cpu = {}
        log = load_span(*args, **kwargs)
        after = sum(procs.cpu_seconds(pid) or 0.0 for pid in services)
        records = log.records
        probes.loads.append({
            "requests": len(records),
            "ok": sum(1 for r in records if r.success),
            "services": len(services),
            "service_cpu_s": after - before,
            "driver_cpu_s": sum(probes.vu_cpu.values()),
        })
        return log

    tracer.patch("antiwatt.loadgen", "run_load", run_load)

    sampler_span = tracer.wrap("telemetry", "telemetry.run_sampler", sampler.run_sampler)

    def run_sampler(*args, **kwargs):
        probes.interval_s = kwargs.get("interval_s", 1.0)
        return sampler_span(*args, **kwargs)

    tracer.patch("antiwatt.telemetry.sampler", "run_sampler", run_sampler)

    prime = SimPowerSource.prime

    def timed_prime(source, t):
        prime(source, t)
        probes.grid_start = time.monotonic()

    tracer.patch("antiwatt.telemetry.sim", "SimPowerSource.prime", timed_prime)

    resource_span = tracer.wrap("telemetry", "telemetry.ProcSampler.sample", ProcSampler.sample)

    def timed_resource_sample(sampler):
        now = time.monotonic()
        if probes.grid_start is not None:
            behind = now - probes.grid_start
            probes.tick_late_ms.append((behind % probes.interval_s) * 1000.0)
        probes.tick_entry_cpu = time.thread_time()
        return resource_span(sampler)

    tracer.patch("antiwatt.telemetry.procfs", "ProcSampler.sample", timed_resource_sample)

    power_span = tracer.wrap("telemetry", "telemetry.SimPowerSource.sample", SimPowerSource.sample)

    def timed_power_sample(source, t, resource, rt_ms):
        sample = power_span(source, t, resource, rt_ms)
        if probes.tick_entry_cpu is not None:
            probes.tick_cost_ms.append((time.thread_time() - probes.tick_entry_cpu) * 1000.0)
        return sample

    tracer.patch("antiwatt.telemetry.sim", "SimPowerSource.sample", timed_power_sample)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result = Path(argv[0])
    started = time.perf_counter()
    import antiwatt.cli as cli

    import_s = time.perf_counter() - started
    # the benchmark's own modules load after the timed import, so they do
    # not pre-load anything the program's import would pay for
    from tracing import Tracer

    tracer = Tracer()
    probes = Probes()
    install(tracer, probes)
    code = cli.main(argv[2:])
    tracer.write(result.with_suffix(".spans.jsonl"))
    summary = {
        "exit_code": code,
        "import_s": import_s,
        "calls": tracer.by_name(),
        "self_s": tracer.self_by_layer(),
        "completion_s_evals": probes.completion_s_evals,
        "request_rows_read": probes.request_rows_read,
        "loads": probes.loads,
        "tick_late_ms": probes.tick_late_ms,
        "tick_cost_ms": probes.tick_cost_ms,
    }
    result.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
