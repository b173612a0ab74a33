"""Fast tests of the benchmark's own code; no live service is started.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import procs  # noqa: E402
from tracing import Tracer  # noqa: E402

from antiwatt import cli, synthetic  # noqa: E402
from antiwatt.loadgen import RequestLog, RequestRecord, write_requests_csv  # noqa: E402
from antiwatt.orchestrator import write_power_csv, write_resources_csv  # noqa: E402
from antiwatt.telemetry import ResourceSample, SimPowerModel, simulate_power  # noqa: E402

T0 = 1_700_000_000.0


def write_trial(root: Path) -> Path:
    """A campaign directory shaped like one trial's, written with the
    program's own writers: two users, ten seconds, the sim power model."""
    rep = root / "rep-0"
    rep.mkdir(parents=True)
    (root / "manifest.txt").write_text("rep-0 ok\n", encoding="utf-8")
    meta = {"status": "ok", "sampler": {"missed_ticks": 0, "errors": []},
            "load_started_at": T0, "load_ended_at": T0 + 10.0}
    (rep / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    log = RequestLog()
    for user in (0, 1):
        start_ms = T0 * 1000.0 + 1.0 + user
        while start_ms < (T0 + 9.0) * 1000.0:
            log.append(RequestRecord(start=start_ms, response_time_ms=2.5, success=True, user_id=user))
            start_ms += 3.0
    log.finalize()
    write_requests_csv(log, rep / "requests.csv")
    model = SimPowerModel(rt_coeff=0.0, noise_sd_w=0.0)
    resources = [ResourceSample(t=T0 + k + 0.25, cpu_util=0.1 + 0.037 * k, memory_bytes=1 << 26)
                 for k in range(10)]
    write_resources_csv(resources, rep / "resources.csv")
    write_power_csv([simulate_power(model, r, 2.5) for r in resources], rep / "power.csv")
    return root


def trial_problems(root: Path):
    requests = checks.Requests.read(root / "rep-0" / "requests.csv")
    return (checks.check_manifest(root)
            + checks.check_requests(requests, T0, T0 + 10.0)
            + checks.check_power_model(root))


def rewrite_cell(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    i = header.index(column)
    cells[i] = edit(cells[i])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_trial_checks_pass_on_program_output(tmp_path):
    assert trial_problems(write_trial(tmp_path)) == []


def test_trial_checks_reject_overlapping_requests_of_one_user(tmp_path):
    root = write_trial(tmp_path)
    path = root / "rep-0" / "requests.csv"
    # row 3 is user 0's second request: start it inside its first one
    rewrite_cell(path, 3, "start_ms", lambda cell: f"{float(cell) - 1.0:.3f}")
    problems = trial_problems(root)
    assert len(problems) == 1 and "overlaps" in problems[0]


def test_trial_checks_reject_a_power_row_off_the_model(tmp_path):
    root = write_trial(tmp_path)
    rewrite_cell(root / "rep-0" / "power.csv", 4, "cpu_power_w", lambda cell: f"{float(cell) + 0.0001:.6f}")
    problems = trial_problems(root)
    assert len(problems) == 1 and "the model gives" in problems[0]


def test_trial_checks_reject_a_failed_request_and_a_sampler_error(tmp_path):
    root = write_trial(tmp_path)
    rewrite_cell(root / "rep-0" / "requests.csv", 5, "success", lambda cell: "false")
    meta_path = root / "rep-0" / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["sampler"]["errors"] = ["tick 3: OSError: gone"]
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    problems = trial_problems(root)
    assert any("failed requests" in p for p in problems)
    assert any("sampler errors" in p for p in problems)


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A small planted campaign and the bundle `antiwatt analyze` made of it."""
    root = tmp_path_factory.mktemp("analysis")
    model = SimPowerModel(rt_coeff=0.05, noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=7)
    plan = synthetic.synthetic_plan(root / "campaign", repetitions=3, model=model, seed=7)
    synthetic.generate_campaign(plan, seed=7)
    assert cli.main(["analyze", str(root / "campaign"), "--out", str(root / "bundle"),
                     "--alpha", "0.0001"]) == 0
    return root / "campaign", root / "bundle"


def test_analysis_check_passes_on_program_output(analyzed):
    campaign, bundle = analyzed
    assert checks.check_bundle(bundle, checks.reference_analysis(campaign), 0.05) == []


@pytest.mark.parametrize("step", [+1, -1])
def test_analysis_check_rejects_beta_changed_in_its_last_digit(analyzed, tmp_path, step):
    campaign, bundle = analyzed
    tampered = tmp_path / "bundle"
    shutil.copytree(bundle, tampered)
    rewrite_cell(tampered / "regression.csv", 1, "beta_lat", lambda cell: f"{float(cell) + step * 1e-6:.6f}")
    problems = checks.check_bundle(tampered, checks.reference_analysis(campaign), 0.05)
    assert len(problems) == 1 and "beta_lat" in problems[0]


def test_analysis_check_rejects_an_energy_changed_in_its_last_digit(analyzed, tmp_path):
    campaign, bundle = analyzed
    tampered = tmp_path / "bundle"
    shutil.copytree(bundle, tampered)
    rewrite_cell(tampered / "runs.csv", 2, "cpu_energy_kj", lambda cell: f"{float(cell) + 1e-6:.6f}")
    problems = checks.check_bundle(tampered, checks.reference_analysis(campaign), 0.05)
    assert len(problems) == 1 and "rep-1 energies" in problems[0]


def test_analysis_check_rejects_a_planted_coefficient_outside_the_ci(analyzed):
    campaign, bundle = analyzed
    problems = checks.check_bundle(bundle, checks.reference_analysis(campaign), 0.06)
    assert len(problems) == 1 and "outside the CI" in problems[0]


def test_rounded_median_interpolates_inside_the_printed_step():
    assert checks.rounded_median(np.array([0.249] * 10 + [0.250] * 10), 0.001) == pytest.approx(0.2495)
    assert checks.rounded_median(np.array([1.0, 2.0, 3.0]), 1.0) == pytest.approx(2.0)
    # three quarters of the values printed as 0.250: the median sits inside that step
    assert checks.rounded_median(np.array([0.249] + [0.250] * 3), 0.001) == pytest.approx(0.2498333, abs=1e-6)


def test_speed_probe_takes_the_median_of_the_samples_inside_the_window():
    probe = procs.SpeedProbe()
    probe.samples = [(1.0, 0.5), (2.0, 0.1), (3.0, 0.2), (4.0, 0.3), (5.0, 9.0)]
    assert probe.median_s(2.0, 4.0) == 0.2
    with pytest.raises(ValueError):
        probe.median_s(6.0, 7.0)


def test_tracer_records_self_time_of_nested_spans():
    tracer = Tracer()
    inner = tracer.wrap("stats", "stats.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("orchestrator", "orchestrator.outer", outer_body)()
    inner_span, outer_span = tracer.spans
    assert inner_span.parent_id == outer_span.span_id and outer_span.parent_id == 0
    assert inner_span.self_s == pytest.approx(inner_span.end - inner_span.start)
    assert outer_span.self_s == pytest.approx(
        (outer_span.end - outer_span.start) - (inner_span.end - inner_span.start))
    layers = tracer.self_by_layer()
    assert layers["stats"] >= 0.02 and 0.01 <= layers["orchestrator"] < 0.02


def test_tracer_patches_every_module_that_imported_the_function():
    import antiwatt.stats.campaign as campaign
    import antiwatt.stats.energy as energy

    original = energy.trapezoid_energy
    tracer = Tracer()
    assert tracer.patch("antiwatt.stats.energy", "trapezoid_energy")
    assert not tracer.patch("antiwatt.stats.energy", "no_such_function")
    try:
        assert campaign.trapezoid_energy is energy.trapezoid_energy is not original
        assert campaign.trapezoid_energy([(0.0, 1.0), (2.0, 3.0)]) == 4.0
    finally:
        tracer.uninstall()
    assert campaign.trapezoid_energy is energy.trapezoid_energy is original
    assert [(s.layer, s.name) for s in tracer.spans] == [("stats", "stats.trapezoid_energy")]


def test_benchmark_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-floor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
