"""Acceptance gate: the eight operating criteria, one test function each.

A verbose pytest run therefore prints exactly one PASS/FAIL line per
criterion; with -s each test also prints a `[criterion N] PASS` line with
its measured margins.  Runtime limits are asserted inside the tests.
"""
import json
import math
import random
import subprocess
import sys
import threading
import time

import pytest

from antiwatt.loadgen import LoadPlan, RequestRecord, run_load
from antiwatt.orchestrator import ExperimentPlan, run_campaign
from antiwatt.stats.campaign import analyze_campaign
from antiwatt.stats.core import correlation_pair, pearson, spearman
from antiwatt.stats.diagnostics import anderson_darling, breusch_pagan
from antiwatt.stats.energy import trapezoid_energy
from antiwatt.stats.regression import (
    DECISION_DISPLAY,
    decide,
    hc3_covariance,
    infer_coefficient,
    ols_fit,
)
from antiwatt.synthetic import generate_campaign, synthetic_plan
from antiwatt.telemetry import PowerSample, ResourceSample, SimPowerModel, simulate_power
from antiwatt.telemetry.rapl import (
    EnergyReading,
    RaplPowerSource,
    available as rapl_available,
    power_from_deltas,
)
from antiwatt.traces import (
    TraceSet,
    discover_artifacts,
    load_artifact,
    trim_warmup,
    validity_check,
)
from antiwatt.workload import AntipatternKind, default_config
from antiwatt.workload.handlers import (
    handle_god_class,
    handle_more_is_less,
    handle_one_lane_bridge,
    handle_sisyphus_retrieval,
)
from antiwatt.workload.state import make_state

import datasets
import frozen_oracle
from timing import concurrently, median_round_ratio


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS — {detail}")


def _rel(actual: float, expected: float) -> float:
    if expected == 0.0:
        return abs(actual)
    return abs(actual - expected) / abs(expected)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_statistical_oracle_equivalence():
    """Every estimator matches the extended-precision oracle to 1e-9."""
    t0 = time.monotonic()
    tol = 1e-9
    worst = 0.0

    def check(actual, expected):
        nonlocal worst
        err = _rel(actual, expected)
        worst = max(worst, err)
        assert err <= tol, f"{actual} vs oracle {expected} (rel {err:.2e})"

    for n in datasets.CORR_SIZES:
        x, y = datasets.corr_dataset(n)
        check(pearson(x, y), frozen_oracle.CORR[n]["pearson"])
        check(spearman(x, y), frozen_oracle.CORR[n]["spearman"])

    for n in datasets.OLS_SIZES:
        X, y = datasets.ols_dataset(n)
        oracle = frozen_oracle.OLS[n]
        fit = ols_fit(X, y)
        for got, want in zip(fit.beta, oracle["beta"]):
            check(float(got), want)
        check(fit.r_squared, oracle["r2"])
        for got, want in zip(fit.leverage[:3], oracle["leverage_head"]):
            check(float(got), want)
        check(float(fit.leverage.sum()), oracle["leverage_sum"])
        hc3 = hc3_covariance(fit, X)
        for j, want in enumerate(oracle["hc3_diag"]):
            check(float(hc3[j, j]), want)
        check(float(hc3[0, 1]), oracle["hc3_01"])
        for j, want in enumerate(oracle["classical_diag"]):
            check(float(fit.classical_cov[j, j]), want)
        bp = breusch_pagan(fit, X)
        check(bp.statistic, oracle["bp_lm"])
        check(bp.p_value, oracle["bp_p"])
        inf = infer_coefficient(fit, hc3, 1)
        check(inf.beta, oracle["infer_beta"])
        check(inf.se, oracle["infer_se"])
        check(inf.p_value, oracle["infer_p"])
        check(inf.ci_low, oracle["infer_ci"][0])
        check(inf.ci_high, oracle["infer_ci"][1])

    # the smallest AD dataset is n=8, the statistic's own validity floor
    for n in datasets.AD_SIZES:
        ad = anderson_darling(datasets.ad_dataset(n))
        check(ad.statistic, frozen_oracle.AD[n]["a2_adj"])
        check(ad.p_value, frozen_oracle.AD[n]["p"])

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (limit 10s)"
    _report(1, f"worst relative error {worst:.2e} over 5 sizes, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

# Reference coefficient table for the decision rule: per antipattern and
# model, the reported (beta, ci_low, ci_high, p) and the decision the
# original analysis printed for it.
REFERENCE_DECISIONS = {
    "cpu": [
        ("unbalanced-processing", -0.000083, -0.000147, -0.000018, 0.011860, "Reject ↓"),
        ("unnecessary-processing", -0.000002, -0.000008, 0.000004, 0.422677, "Keep"),
        ("the-ramp", 0.018475, 0.017443, 0.019508, 0.000000, "Reject ↑"),
        ("sisyphus-retrieval", -0.000115, -0.000197, -0.000032, 0.006348, "Reject ↓"),
        ("more-is-less", -0.001140, -0.001290, -0.000991, 0.000000, "Reject ↓"),
        ("god-class", 0.000190, 0.000153, 0.000227, 0.000000, "Reject ↑"),
        ("excessive-dynamic-allocation", 0.000017, -0.000026, 0.000059, 0.445093, "Keep"),
        ("circuitous-treasure-hunt", -0.000566, -0.000771, -0.000360, 0.000000, "Reject ↓"),
        ("one-lane-bridge", -0.000047, -0.000119, 0.000024, 0.194439, "Keep"),
        ("traffic-jam", 0.000029, 0.000023, 0.000035, 0.000000, "Reject ↑"),
    ],
    "dram": [
        ("unbalanced-processing", 0.000000, -0.000000, 0.000001, 0.799513, "Keep"),
        ("unnecessary-processing", -0.000004, -0.000006, -0.000002, 0.000127, "Reject ↓"),
        ("the-ramp", -0.000677, -0.000743, -0.000610, 0.000000, "Reject ↓"),
        ("sisyphus-retrieval", -0.000005, -0.000007, -0.000002, 0.000231, "Reject ↓"),
        ("more-is-less", -0.000001, -0.000002, -0.000001, 0.000007, "Reject ↓"),
        ("god-class", -0.000000, -0.000000, 0.000000, 0.141974, "Keep"),
        ("excessive-dynamic-allocation", -0.000000, -0.000001, 0.000001, 0.964429, "Keep"),
        ("circuitous-treasure-hunt", 0.000006, -0.000001, 0.000012, 0.108985, "Keep"),
        ("one-lane-bridge", 0.000000, -0.000001, 0.000002, 0.465744, "Keep"),
        ("traffic-jam", -0.000000, -0.000000, 0.000000, 0.814016, "Keep"),
    ],
}


def test_criterion_2_reference_decisions_reproduced():
    """decide() maps all 20 reference (beta, CI, p) rows to their decisions."""
    t0 = time.monotonic()
    checked = 0
    for model, rows in REFERENCE_DECISIONS.items():
        for slug, beta, ci_low, ci_high, p, expected in rows:
            got = DECISION_DISPLAY[decide(p, 0.05, beta)]
            assert got == expected, f"{model}/{slug}: {got} != {expected}"
            # the reported CI must tell the same story as the p-value
            ci_keeps = ci_low <= 0.0 <= ci_high
            assert ci_keeps == (expected == "Keep"), f"{model}/{slug} CI vs decision"
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 20
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (limit 1s)"
    _report(2, f"all 20 decisions exact, {elapsed * 1000:.0f} ms")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_planted_coefficient_recovery(tmp_path):
    """CI coverage of a planted rt coefficient, and Keep when it is absent."""
    t0 = time.monotonic()
    seeds = range(20)

    covered = 0
    for seed in seeds:
        model = SimPowerModel(
            rt_coeff=0.002, noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=seed
        )
        plan = synthetic_plan(
            tmp_path / f"planted-{seed}",
            duration_s=120.0,
            warmup_s=20.0,
            repetitions=3,
            model=model,
            seed=seed,
        )
        analysis = analyze_campaign(generate_campaign(plan, seed=seed).artifacts)
        inf = analysis.model("cpu").rt_inference
        covered += inf.ci_low <= 0.002 <= inf.ci_high

    keeps = 0
    for seed in seeds:
        model = SimPowerModel(
            rt_coeff=0.0, noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=seed
        )
        plan = synthetic_plan(
            tmp_path / f"null-{seed}",
            duration_s=120.0,
            warmup_s=20.0,
            repetitions=3,
            model=model,
            seed=seed,
        )
        analysis = analyze_campaign(generate_campaign(plan, seed=seed).artifacts)
        keeps += analysis.model("cpu").rt_inference.decision == "keep"

    elapsed = time.monotonic() - t0
    assert covered >= 18, f"CI covered 0.002 in only {covered}/20 campaigns"
    assert keeps >= 18, f"null coefficient kept in only {keeps}/20 campaigns"
    assert elapsed < 900.0, f"criterion 3 took {elapsed:.0f}s (limit 900s)"
    _report(3, f"coverage {covered}/20, keeps {keeps}/20, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4


def _launch(slug, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "antiwatt.workload.service",
         "--antipattern", slug, "--port", "0", "--pin-core", "off", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    announce = json.loads(proc.stdout.readline())
    return proc, f"http://{announce['host']}:{announce['port']}/{slug}"


def test_criterion_4_behavioral_signatures():
    t0 = time.monotonic()
    details = []

    # TheRamp: response time grows with accumulated state, live over HTTP
    proc, url = _launch("the-ramp")
    try:
        log = run_load(LoadPlan(target_users=4, spawn_rate=4.0, duration_s=40.0, endpoint=url))
    finally:
        proc.terminate()
        proc.wait()
    records = sorted(log.records, key=lambda r: r.completion_s)
    assert len(records) >= 5000, f"only {len(records)} ramp requests"
    rho = correlation_pair(
        list(range(len(records))), [r.response_time_ms for r in records]
    ).spearman_rho
    assert rho > 0.5, f"ramp Spearman(index, rt) = {rho:.3f}"
    details.append(f"ramp n={len(records)} ρ={rho:.3f}")

    # OneLaneBridge: eight concurrent calls serialize through the gate.
    # Rounds of one crossing and one 8-way makespan alternate, and the bound
    # holds for the median per-round ratio, so a slow spell on a shared host
    # lands on both halves of a round instead of on one lone measurement.
    state = make_state(default_config(AntipatternKind.ONE_LANE_BRIDGE))
    cfg = state.config
    rounds = 5

    def crossing():
        handle_one_lane_bridge(state, cfg)

    ratio = median_round_ratio(
        lambda: concurrently(crossing, 8), crossing, rounds, time.perf_counter
    )
    assert ratio >= 6.0, f"bridge makespan only {ratio:.1f}x single in the median round"
    final = handle_one_lane_bridge(state, cfg)
    # every crossing counted once: the warm-up round and each timed round
    # (one crossing, then 8 at once), then this one
    assert final["counter"] == (1 + rounds) * (1 + 8) + 1
    assert final["max_occupancy"] == 1
    details.append(f"bridge {ratio:.1f}x")

    # MoreIsLess: oversubscribing workers never beats one worker here.
    # Compared on the handler's own multi-section timing (each reply also
    # runs an untimed single-thread reference pass that would dilute outer
    # wall-clock contrast).  A small work quantum keeps the 64-thread
    # spawn/join overhead the dominant term, and the two worker counts are
    # measured in interleaved pairs so machine-state drift (the bridge leg
    # above just saturated the CPU) hits both arms equally.
    state = make_state(default_config(AntipatternKind.MORE_IS_LESS))
    cfg = state.config
    handle_more_is_less(state, cfg, workers=1, iterations=8000)  # warm
    handle_more_is_less(state, cfg, workers=64, iterations=8000)  # warm

    def timed_ms(workers):
        reply = handle_more_is_less(state, cfg, workers=workers, iterations=8000)
        return reply["multi_time_ms"]

    pairs = [(timed_ms(1), timed_ms(64)) for _ in range(7)]
    one = sorted(t for t, _ in pairs)[3]
    many = sorted(t for _, t in pairs)[3]
    assert many >= one, f"workers=64 ({many:.1f} ms) beat workers=1 ({one:.1f} ms)"
    details.append(f"more-is-less {many / one:.2f}x")

    # Sisyphus: every page rescans the entire joined table
    state = make_state(default_config(AntipatternKind.SISYPHUS_RETRIEVAL))
    cfg = state.config
    table_size = len(state.fixture.orders)
    last_page = (table_size - 1) // 10
    for page in list(range(0, last_page + 1, 7)) + [last_page, last_page + 50]:
        reply = handle_sisyphus_retrieval(state, cfg, page=page)
        assert reply["scanned_count"] == table_size, f"page {page}"
    details.append(f"sisyphus scans {table_size}/page")

    # GodClass: shared counters stay exact under 1000 concurrent requests
    state = make_state(
        default_config(AntipatternKind.GOD_CLASS, iterations=2000)
    )
    cfg = state.config
    queries = ["key=k%d" % (i % 5) if i % 10 else "a&b=1" for i in range(1000)]
    gate = threading.Barrier(1000)

    def god_call(q):
        gate.wait()
        handle_god_class(state, cfg, q)

    workers = [threading.Thread(target=god_call, args=(q,)) for q in queries]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    final = handle_god_class(state, cfg, "key=k0")
    malformed = sum(1 for q in queries if q == "a&b=1")
    assert final["error_count"] == malformed == 100
    assert final["request_count"] == 1000 - malformed + 1
    details.append("god-class counters exact @1000")

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.0f}s (limit 600s)"
    _report(4, "; ".join(details) + f"; {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_energy_integration_exactness():
    base = 1_700_000_000.0
    constant = [(base + k, 10.0) for k in range(10)]
    assert trapezoid_energy(constant) == 90.0  # 10 W for 9 s, exactly

    rng = random.Random(55)
    worst = 0.0
    for _ in range(25):
        # keep the series positive so the exact integral is well away from 0;
        # grid points are multiples of 1/1024 s so epoch timestamps stay
        # exactly representable and dt carries no quantization error
        a = rng.uniform(0.5, 40.0)
        b = rng.uniform(0.0, 0.3)
        ts = sorted(
            {rng.randrange(0, 600 * 1024) / 1024.0 for _ in range(rng.randint(2, 400))}
        )
        if len(ts) < 2:
            continue
        series = [(base + t, a + b * t) for t in ts]
        got = trapezoid_energy(series)
        span = ts[-1] - ts[0]
        exact = a * span + b * (ts[-1] ** 2 - ts[0] ** 2) / 2.0
        err = _rel(got, exact)
        worst = max(worst, err)
        assert err <= 1e-12, f"affine series off by rel {err:.2e}"
    _report(5, f"constant series exact, affine worst rel error {worst:.1e}")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_counter_wrap_and_nonnegative_power():
    rng = random.Random(606)
    for case in range(100):
        max_range = rng.randrange(10**6, 262_143_328_850_226)
        prev = rng.randrange(2, max_range)
        # force a wrap: the planted delta overruns the counter's headroom
        delta = rng.randrange(max_range - prev + 1, max_range)
        curr = prev + delta - max_range
        dt_ms = rng.choice([250.0, 500.0, 1000.0, 2000.0])
        t = 1_000_000.0 + case
        watts = power_from_deltas(
            EnergyReading("package-0", prev, max_range, t),
            EnergyReading("package-0", curr, max_range, t + dt_ms),
        )
        assert watts >= 0.0
        assert round(watts * dt_ms * 1000.0) == delta, f"case {case}"

    # simulated samples clamp at zero no matter how wild the noise
    loud = SimPowerModel(noise_sd_w=50.0, dram_noise_sd_w=20.0, seed=9)
    for k in range(100):
        sample = simulate_power(
            loud, ResourceSample(1_700_000_000.0 + k, rng.uniform(0.0, 1.0)), rng.uniform(0, 300)
        )
        assert sample.cpu_power_w >= 0.0 and sample.dram_power_w >= 0.0
    _report(6, "100 wrap reconstructions exact; all power samples >= 0")


def test_criterion_6_live_rapl_spin_exceeds_idle():
    if not rapl_available():
        notice = (
            "live RAPL check skipped: no readable powercap counters on this "
            "host (needs /sys/class/powercap with intel-rapl package zones)"
        )
        print(f"[criterion 6] SKIP — {notice}")
        pytest.skip(notice)

    import os

    source = RaplPowerSource(target_pid=os.getpid())
    source.prime()

    def mean_power(seconds):
        vals = []
        for _ in range(seconds):
            time.sleep(1.0)
            vals.append(source.sample().cpu_power_w)
        return sum(vals) / len(vals)

    idle = mean_power(3)
    stop = threading.Event()

    def spin():
        x = 1.0
        while not stop.is_set():
            x = math.sqrt(x + 1.0)

    burner = threading.Thread(target=spin)
    burner.start()
    try:
        busy = mean_power(3)
    finally:
        stop.set()
        burner.join()
    assert busy > idle, f"spin mean {busy:.2f} W not above idle mean {idle:.2f} W"
    _report(6, f"live RAPL: spin {busy:.2f} W > idle {idle:.2f} W")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_protocol_fidelity(tmp_path):
    t0 = time.monotonic()

    # (a) the default warm-up trim drops exactly the first 120 s
    plan = synthetic_plan(
        tmp_path / "trim", duration_s=300.0, warmup_s=120.0, repetitions=1, seed=6
    )
    artifact = generate_campaign(plan, seed=6).artifacts[0]
    ts = load_artifact(artifact)
    assert len(ts.power) == 300
    trimmed = trim_warmup(ts)
    cutoff = ts.power[0].t + 120.0
    assert len(trimmed.power) == 300 - 120
    assert min(s.t for s in trimmed.power) == cutoff
    assert all(r.completion_s >= cutoff for r in trimmed.requests)

    # (b) fresh-state isolation: the probe is the service's first request
    ramp_plan = ExperimentPlan(
        workload=default_config(AntipatternKind.THE_RAMP),
        load=LoadPlan(
            target_users=2, spawn_rate=2.0, duration_s=8.0,
            endpoint="http://pending.invalid/the-ramp",
        ),
        warmup_s=2.0,
        cooldown_s=0.0,
        repetitions=3,
        power_backend="sim",
        sim_model=SimPowerModel(noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=3),
        out_dir=str(tmp_path / "ramp"),
        settle_s=0.2,
        pin_core="off",
    )
    result = run_campaign(ramp_plan)
    assert result.ok_count == 3
    probes = [load_artifact(a).meta["fresh_probe"]["store_size"]
              for a in discover_artifacts(result.directory)]
    assert probes == [1, 1, 1], f"stale state leaked across repetitions: {probes}"

    # (c) the validity rules: failure count stays on zero, and mean
    # utilization reaches at least 0.3 of one core's share of the host
    def hand(utils, successes, cores):
        base = 1_700_000_000.0
        meta = {
            "plan": {"warmup_s": 0.0, "load": {"duration_s": float(len(utils))}},
            "host": {"core_count": cores},
        }
        return TraceSet(
            meta=meta,
            requests=tuple(
                RequestRecord(start=(base + i) * 1000.0, response_time_ms=4.0,
                              success=ok, user_id=0)
                for i, ok in enumerate(successes)
            ),
            power=tuple(PowerSample(base + i, 8.0, 1.0) for i in range(len(utils))),
            resources=tuple(ResourceSample(base + i, u) for i, u in enumerate(utils)),
        )

    clean = validity_check(hand([0.2] * 4, [True] * 4, cores=4))
    assert clean.zero_failures and clean.valid
    failed = validity_check(hand([0.2] * 4, [True, False, True, True], cores=4))
    assert not failed.zero_failures and not failed.valid and failed.failure_count == 1

    at_floor = validity_check(hand([0.075] * 4, [True] * 4, cores=4))
    assert at_floor.cpu_floor and at_floor.cpu_floor_threshold == pytest.approx(0.075)
    below = validity_check(hand([0.074] * 4, [True] * 4, cores=4))
    assert not below.cpu_floor and not below.valid
    one_core = validity_check(hand([0.29] * 4, [True] * 4, cores=1))
    assert one_core.cpu_floor_threshold == pytest.approx(0.3) and not one_core.cpu_floor

    elapsed = time.monotonic() - t0
    _report(7, f"trim exact at 120s; probes {probes}; validity rules hold; {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_diagnostic_calibration():
    t0 = time.monotonic()

    rejections = 0
    for seed in range(200):
        X, y = datasets.homoskedastic_design(200, seed)
        fit = ols_fit(X, y)
        rejections += breusch_pagan(fit, X).null_rejected
    rate = rejections / 200.0
    assert 0.02 <= rate <= 0.08, f"BP false-rejection rate {rate:.3f} outside 5% ± 3pts"

    normal_accepts = sum(
        not anderson_darling(datasets.ad_normal(100, seed)).null_rejected
        for seed in range(200)
    )
    uniform_rejects = sum(
        anderson_darling(datasets.ad_uniform(100, seed)).null_rejected
        for seed in range(200)
    )
    assert normal_accepts >= 180, f"AD accepted only {normal_accepts}/200 normal samples"
    assert uniform_rejects >= 180, f"AD rejected only {uniform_rejects}/200 uniform samples"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.0f}s (limit 120s)"
    _report(
        8,
        f"BP rate {rate:.3f}; AD normal accepts {normal_accepts}/200, "
        f"uniform rejects {uniform_rejects}/200; {elapsed:.1f}s",
    )
