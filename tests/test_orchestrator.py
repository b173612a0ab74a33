"""Trial/campaign orchestration: plans, artifacts, trimming, validity."""
import dataclasses
import hashlib
import json
import math
import platform
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiwatt.errors import TrialError
from antiwatt.loadgen import LoadPlan, RequestRecord
from antiwatt.orchestrator import (
    CampaignResult,
    ExperimentPlan,
    estimate_campaign_s,
    execute_trial,
    host_descriptor,
    run_campaign,
)
from antiwatt.synthetic import EPOCH_BASE, generate_campaign, generate_trial, synthetic_plan
from antiwatt.telemetry import PowerSample, ResourceSample, SimPowerModel
from antiwatt.traces import (
    TraceSet,
    discover_artifacts,
    load_artifact,
    read_power_csv,
    read_resources_csv,
    trim_warmup,
    validity_check,
    write_power_csv,
    write_resources_csv,
)
from antiwatt.workload import AntipatternKind, default_config

K = AntipatternKind


def quick_load(duration_s=60.0):
    return LoadPlan(
        target_users=4, spawn_rate=4.0, duration_s=duration_s, endpoint="http://x/the-ramp"
    )


def quick_plan(tmp_path, **overrides):
    base = dict(
        workload=default_config(K.THE_RAMP),
        load=quick_load(),
        warmup_s=10.0,
        cooldown_s=0.0,
        repetitions=2,
        power_backend="sim",
        out_dir=str(tmp_path / "camp"),
        settle_s=0.0,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


# ----------------------------------------------------------------- the plan


def test_plan_rejects_warmup_swallowing_the_run(tmp_path):
    with pytest.raises(ValueError, match="warm-up"):
        quick_plan(tmp_path, warmup_s=60.0)


def test_plan_rejects_zero_repetitions(tmp_path):
    with pytest.raises(ValueError, match="repetitions"):
        quick_plan(tmp_path, repetitions=0)


def test_plan_rejects_unknown_backend(tmp_path):
    with pytest.raises(ValueError, match="power_backend"):
        quick_plan(tmp_path, power_backend="psychic")


def test_sim_plan_gets_a_default_model(tmp_path):
    plan = quick_plan(tmp_path)
    assert plan.sim_model == SimPowerModel()


def test_campaign_estimate_scales_with_repetitions(tmp_path):
    one = quick_plan(tmp_path, repetitions=1)
    five = quick_plan(tmp_path, repetitions=5)
    assert estimate_campaign_s(five) == pytest.approx(5 * estimate_campaign_s(one))
    assert estimate_campaign_s(one) >= one.load.duration_s


# ------------------------------------------------------------ trace file io


def test_power_csv_round_trip(tmp_path):
    samples = [PowerSample(1700000000.0, 12.5, 1.25), PowerSample(1700000001.0, 0.0, 0.0)]
    path = tmp_path / "power.csv"
    write_power_csv(samples, path)
    assert read_power_csv(path) == samples
    text = path.read_text()
    assert text.splitlines()[0] == "t_s,cpu_power_w,dram_power_w"
    assert "\r" not in text


def test_resources_csv_round_trips_missing_fields(tmp_path):
    samples = [
        ResourceSample(1700000000.0, 0.25, memory_bytes=2**20),
        ResourceSample(1700000001.0, 0.5, disk_read_bytes=5, net_tx_bytes=7),
    ]
    path = tmp_path / "resources.csv"
    write_resources_csv(samples, path)
    back = read_resources_csv(path)
    assert back == samples
    assert back[0].disk_read_bytes is None
    assert back[1].memory_bytes is None


def test_power_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,watts\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_power_csv(path)
    with pytest.raises(ValueError, match="header"):
        read_resources_csv(path)


@settings(max_examples=30, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=2**31).map(float),
    cpu=st.floats(min_value=0, max_value=500),
    dram=st.floats(min_value=0, max_value=50),
)
def test_power_csv_preserves_values_to_format_precision(tmp_path_factory, t, cpu, dram):
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    write_power_csv([PowerSample(t, cpu, dram)], path)
    (back,) = read_power_csv(path)
    assert back.t == pytest.approx(t, abs=1e-3)
    assert back.cpu_power_w == pytest.approx(cpu, abs=1e-6)
    assert back.dram_power_w == pytest.approx(dram, abs=1e-6)


# ------------------------------------------------------- synthetic artifacts


def test_synthetic_trial_is_a_valid_artifact(tmp_path):
    plan = synthetic_plan(tmp_path / "c", duration_s=120, warmup_s=20, seed=3)
    artifact = generate_trial(plan, 0, seed=3)
    ts = load_artifact(artifact)
    assert len(ts.power) == 120 and len(ts.resources) == 120
    assert ts.meta["fresh_probe"]["store_size"] == 1
    assert ts.meta["host"]["core_count"] == 4
    assert ts.power[0].t == EPOCH_BASE + 3 * 10_000


def test_synthetic_trial_deterministic(tmp_path):
    plan_a = synthetic_plan(tmp_path / "a", duration_s=60, warmup_s=5, seed=11)
    plan_b = synthetic_plan(tmp_path / "b", duration_s=60, warmup_s=5, seed=11)
    a = load_artifact(generate_trial(plan_a, 1, seed=11))
    b = load_artifact(generate_trial(plan_b, 1, seed=11))
    assert a.power == b.power and a.resources == b.resources and a.requests == b.requests


def test_synthetic_reps_do_not_overlap_in_time(tmp_path):
    plan = synthetic_plan(tmp_path / "c", duration_s=60, warmup_s=5, repetitions=2, seed=0)
    first = load_artifact(generate_trial(plan, 0, seed=0))
    second = load_artifact(generate_trial(plan, 1, seed=0))
    assert min(s.t for s in second.power) > max(s.t for s in first.power)


def test_synthetic_campaign_layout(tmp_path):
    out = tmp_path / "camp"
    plan = synthetic_plan(out, duration_s=60, warmup_s=5, repetitions=3, seed=1)
    result = generate_campaign(plan, seed=1)
    assert result.ok_count == 3 and result.failed_count == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest == ["rep-0 ok", "rep-1 ok", "rep-2 ok"]
    summary = json.loads((out / "campaign.json").read_text())
    assert summary["ok_count"] == 3
    assert summary["plan"]["warmup_s"] == 5
    assert len(discover_artifacts(out)) == 3


def test_synthetic_campaign_failure_marks(tmp_path):
    out = tmp_path / "camp"
    plan = synthetic_plan(out, duration_s=60, warmup_s=5, repetitions=3, seed=1)
    result = generate_campaign(plan, seed=1, fail_reps={1})
    assert result.ok_count == 2 and result.failed_count == 1
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[0] == "rep-0 ok" and lines[1].startswith("rep-1 failed") and lines[2] == "rep-2 ok"
    artifacts = discover_artifacts(out)
    statuses = [json.loads((a / "meta.json").read_text())["status"] for a in artifacts]
    assert statuses == ["ok", "failed", "ok"]
    with pytest.raises(TrialError):
        load_artifact(artifacts[1])


# sha256 of every file of the campaign below: a change to these bytes is a
# change to the trial format, and needs a reason
PINNED_CAMPAIGN = {
    "campaign.json": "a6699f1363e32b7150fe28915883624f01c8e2eeaf2a5b5856204b87cb6ff3cb",
    "manifest.txt": "b98f49ee7fbe67c8440b87de8395c55c61b1ff5d3cbfbfe416b254737ffb3202",
    "rep-0/meta.json": "2f77e62476fde2890d04afba0e917e7d0a60c428120ffbb5ff90d9e1a3c5532b",
    "rep-0/power.csv": "c738c928d585fba4f0aea4225aabc72a2a93a6e79965e1af4c38c47a65faf674",
    "rep-0/requests.csv": "470a5b5679f87f1c607a45f3223cd1f134b376e8b3d2eb7e41a63d8354d6eadc",
    "rep-0/resources.csv": "75eb4671c54481d039f2d21f1368864b6857ea4f1c09f4a9bbc010839ee46de6",
    "rep-1/meta.json": "c5ca4123c9bcf73f40db5f10563b539abef2442a52ff7313baff6e35a11d06c2",
    "rep-2/meta.json": "5c00ae17ef2c1cae030260d36f572298a66191e4b78289fec69d348d5ff77eb1",
    "rep-2/power.csv": "b2b05c22c72085289adbf73a9fff495b7f192f131e4896ff70f1ffaee295a81f",
    "rep-2/requests.csv": "4bf90f62b92d4af853ba05deb1d795b8b4a9bb17420eabe6c3b625e5842049ea",
    "rep-2/resources.csv": "6001f2480fef823d734ae566d6f34dadcd836745dd321173884ca5f1eb4a06f4",
}


def test_campaign_bytes_are_pinned(tmp_path, monkeypatch):
    # meta.json embeds the plan's out_dir and the host's Python version
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(platform, "python_version", lambda: "3.11.7")
    plan = synthetic_plan("runs", duration_s=60, warmup_s=10, repetitions=3, seed=5)
    generate_campaign(plan, seed=5, fail_reps={1})
    root = tmp_path / "runs"
    got = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    assert got == PINNED_CAMPAIGN


# --------------------------------------------------------- warm-up trimming


def synthetic_traces(tmp_path, duration=300, warmup=120, seed=5):
    plan = synthetic_plan(tmp_path / "c", duration_s=duration, warmup_s=warmup, seed=seed)
    return load_artifact(generate_trial(plan, 0, seed=seed))


def test_trim_removes_exactly_the_warmup_prefix(tmp_path):
    ts = synthetic_traces(tmp_path, duration=300, warmup=120)
    trimmed = trim_warmup(ts)
    assert len(trimmed.power) == 180
    assert len(trimmed.resources) == 180
    t0 = min(s.t for s in ts.power)
    assert min(s.t for s in trimmed.power) == t0 + 120
    assert min(r.completion_s for r in trimmed.requests) >= t0 + 120


def test_trim_zero_is_identity(tmp_path):
    ts = synthetic_traces(tmp_path, duration=60, warmup=5)
    trimmed = trim_warmup(ts, 0.0)
    assert trimmed.power == ts.power
    assert trimmed.resources == ts.resources
    assert trimmed.requests == ts.requests


def test_trim_drops_the_startup_transient(tmp_path):
    # warm-up seconds carry >=100 ms responses and ~0.6 utilization; the
    # steady regime stays at <=35 ms — after the trim only that regime remains
    ts = synthetic_traces(tmp_path, duration=120, warmup=20)
    assert max(r.response_time_ms for r in ts.requests) >= 100.0
    trimmed = trim_warmup(ts)
    assert max(r.response_time_ms for r in trimmed.requests) <= 36.0
    assert max(s.cpu_util for s in trimmed.resources) < 0.45


def test_trim_rejects_warmup_longer_than_trace(tmp_path):
    ts = synthetic_traces(tmp_path, duration=60, warmup=5)
    with pytest.raises(ValueError, match="swallows"):
        trim_warmup(ts, 60.0)
    with pytest.raises(ValueError):
        trim_warmup(ts, -1.0)


def test_trim_leaves_raw_files_untouched(tmp_path):
    plan = synthetic_plan(tmp_path / "c", duration_s=60, warmup_s=5, seed=5)
    artifact = generate_trial(plan, 0, seed=5)
    before = (artifact / "power.csv").read_bytes()
    trim_warmup(load_artifact(artifact))
    assert (artifact / "power.csv").read_bytes() == before


# -------------------------------------------------------------- validity


def hand_traces(utils, successes, cores=4, warmup=0.0):
    t0 = 1_700_000_000.0
    meta = {
        "plan": {"warmup_s": warmup, "load": {"duration_s": float(len(utils))}},
        "host": {"core_count": cores},
    }
    resources = tuple(ResourceSample(t0 + i, u) for i, u in enumerate(utils))
    power = tuple(PowerSample(t0 + i, 10.0, 1.0) for i in range(len(utils)))
    requests = tuple(
        RequestRecord(start=(t0 + i) * 1000.0, response_time_ms=5.0, success=ok, user_id=0)
        for i, ok in enumerate(successes)
    )
    return TraceSet(meta=meta, requests=requests, power=power, resources=resources)


def test_validity_flags_a_single_failure():
    ts = hand_traces([0.2, 0.2, 0.2], [True, False, True])
    report = validity_check(ts)
    assert report.zero_failures is False
    assert report.failure_count == 1
    assert report.valid is False


def test_validity_cpu_floor_scales_with_core_count():
    busy = hand_traces([0.20] * 4, [True] * 4, cores=4)
    assert validity_check(busy).cpu_floor is True
    assert validity_check(busy).cpu_floor_threshold == pytest.approx(0.075)
    idle = hand_traces([0.01] * 4, [True] * 4, cores=4)
    assert validity_check(idle).cpu_floor is False
    # the same absolute utilization passes on 4 cores but fails on 1
    single = hand_traces([0.20] * 4, [True] * 4, cores=1)
    assert validity_check(single).cpu_floor_threshold == pytest.approx(0.3)
    assert validity_check(single).cpu_floor is False


def test_validity_averages_after_the_warmup_trim(tmp_path):
    # warm-up utilization is ~0.6; steady is ~0.27 — the report must use
    # the trimmed mean, not the inflated whole-trace mean
    ts = synthetic_traces(tmp_path, duration=120, warmup=20)
    report = validity_check(ts)
    assert report.valid
    assert report.mean_cpu_util < 0.45
    whole = sum(s.cpu_util for s in ts.resources) / len(ts.resources)
    assert report.mean_cpu_util < whole


# ------------------------------------------------------------- live trials


def live_plan(tmp_path, reps=1):
    return ExperimentPlan(
        workload=default_config(K.THE_RAMP),
        load=LoadPlan(
            target_users=2, spawn_rate=4.0, duration_s=6.0, endpoint="http://placeholder/"
        ),
        warmup_s=2.0,
        cooldown_s=0.0,
        repetitions=reps,
        power_backend="sim",
        sim_model=SimPowerModel(noise_sd_w=0.1, seed=1),
        out_dir=str(tmp_path / "live"),
        settle_s=0.2,
    )


def test_execute_trial_smoke(tmp_path):
    plan = live_plan(tmp_path)
    artifact = execute_trial(plan, 0)
    ts = load_artifact(artifact)
    meta = ts.meta
    assert meta["status"] == "ok"
    assert meta["fresh_probe"]["store_size"] == 1
    assert meta["sampler"]["errors"] == []
    assert len(ts.power) >= 4
    assert len(ts.requests) > 0
    assert all(r.success for r in ts.requests)
    assert (artifact / "service.log").exists()


def test_trials_are_isolated_between_repetitions(tmp_path):
    plan = live_plan(tmp_path, reps=2)
    for rep in range(2):
        artifact = execute_trial(plan, rep)
        assert load_artifact(artifact).meta["fresh_probe"]["store_size"] == 1


def test_unwritable_out_dir_fails_in_prepare(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    plan = live_plan(tmp_path)
    plan = dataclasses.replace(plan, out_dir=str(blocker / "camp"))
    with pytest.raises(TrialError) as err:
        execute_trial(plan, 0)
    assert err.value.stage == "prepare"


def test_campaign_continues_past_a_failing_trial(tmp_path, monkeypatch):
    import antiwatt.orchestrator as orch

    plan = quick_plan(tmp_path, repetitions=3)
    real = orch.execute_trial

    def flaky(p, rep):
        if rep == 1:
            raise TrialError("launch", RuntimeError("injected"))
        out = (tmp_path / "camp" / f"rep-{rep}")
        out.mkdir(parents=True, exist_ok=True)
        (out / "meta.json").write_text('{"status": "ok"}\n')
        return out

    monkeypatch.setattr(orch, "execute_trial", flaky)
    result = orch.run_campaign(plan)
    assert result.ok_count == 2 and result.failed_count == 1
    lines = (tmp_path / "camp" / "manifest.txt").read_text().splitlines()
    assert lines[1].startswith("rep-1 failed launch:")
    assert real is not flaky  # the real one is restored by monkeypatch teardown


def test_host_descriptor_starts_no_child_process():
    # a fresh interpreter, so no platform cache filled by an earlier test
    # hides a child process
    code = (
        "import json, subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('child process started')\n"
        "subprocess.Popen = refuse\n"
        "from antiwatt.orchestrator import host_descriptor\n"
        "print(json.dumps(host_descriptor()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    host = json.loads(proc.stdout)
    assert host.keys() == host_descriptor().keys() == {"core_count", "platform", "python", "governor"}
    assert host["platform"].startswith(platform.system())
