"""Per-second joins, alignment rules and campaign-level analysis."""
import math

import pytest

from antiwatt.errors import EmptyAlignmentError
from antiwatt.loadgen import RequestRecord
from antiwatt.stats import (
    align,
    analyze_campaign,
    analyze_campaign_dir,
    build_timeline,
    per_second,
)
from antiwatt.synthetic import generate_campaign, generate_trial, synthetic_plan
from antiwatt.telemetry import PowerSample, ResourceSample, SimPowerModel
from antiwatt.traces import TraceSet, load_artifact, read_power_csv

T0 = 1_700_000_000


def power_row(k, cpu=10.0, dram=1.0):
    return PowerSample(float(T0 + k), cpu, dram)


def res_row(k, util=0.2, mem=2**20):
    return ResourceSample(float(T0 + k), util, memory_bytes=mem)


def request_row(k, rt=40.0, success=True, frac=0.5):
    completion = (T0 + k + frac) * 1000.0
    return RequestRecord(
        start=completion - rt, response_time_ms=rt, success=success, user_id=0
    )


# ------------------------------------------------------------- per_second


def test_per_second_of_empty_streams_is_empty():
    assert per_second([], [], []) == ((), 0)


def test_per_second_assigns_a_request_by_its_completion_second():
    # starts at .950 with 100 ms rt: completes in the NEXT second
    late = request_row(1, rt=100.0, frac=0.05)
    assert int(late.start // 1000) == T0
    (row,), _ = per_second([], [], [late])
    assert row.t == T0 + 1
    assert row.rt_ms == pytest.approx(100.0) and row.req_rate == 1


def test_per_second_gives_a_lone_request_its_own_rt():
    (row,), _ = per_second([], [], [request_row(0, rt=40.0)])
    assert row.t == T0
    assert row.rt_ms == 40.0 and row.req_rate == 1 and row.failures == 0


def test_per_second_rt_is_the_mean_of_the_successes_only():
    requests = [
        request_row(0, rt=10.0, frac=0.1),
        request_row(0, rt=30.0, frac=0.2),
        request_row(0, rt=9999.0, success=False, frac=0.3),
    ]
    (row,), _ = per_second([], [], requests)
    assert row.rt_ms == pytest.approx(20.0)
    assert row.req_rate == 2 and row.failures == 1


def test_per_second_counts_successes_and_failures_per_second():
    requests = [
        request_row(s, rt=5.0, success=i % 3 != 0, frac=(i + 0.5) / 10)
        for s in range(10)
        for i in range(10)
    ]
    rows, _ = per_second([], [], requests)
    assert [row.t for row in rows] == [T0 + s for s in range(10)]
    assert all(row.req_rate == 6 and row.failures == 4 for row in rows)
    assert sum(row.req_rate + row.failures for row in rows) == len(requests)


def test_per_second_counts_every_request_completing_in_one_second():
    requests = [request_row(0, rt=1.0, frac=i / 1000) for i in range(10)]
    (row,), _ = per_second([], [], requests)
    assert row.t == T0 and row.req_rate == 10


def test_per_second_second_covered_only_by_power_has_no_rt():
    power = [power_row(k) for k in range(4)]
    requests = [request_row(k, rt=100.0 + k) for k in (0, 1, 3)]  # second 2 is silent
    rows, _ = per_second(power, [], requests)
    assert [row.rt_ms for row in rows] == [100.0, 101.0, None, 103.0]
    assert rows[2].req_rate == 0 and rows[2].failures == 0
    assert rows[2].cpu_power_w == 10.0 and rows[2].cpu_util is None


def test_per_second_counts_later_samples_of_a_filled_second_as_duplicates():
    power = [power_row(0, cpu=10.0), PowerSample(T0 + 0.5, 99.0, 9.0), power_row(1)]
    resources = [res_row(0, util=0.2), ResourceSample(T0 + 0.9, 0.9), res_row(1)]
    rows, duplicates = per_second(power, resources, [])
    assert duplicates == 2
    assert [(row.cpu_power_w, row.cpu_util) for row in rows] == [(10.0, 0.2), (10.0, 0.2)]


# ------------------------------------------------------------------ align


def test_align_joins_on_integer_seconds():
    power = [power_row(k) for k in range(5)]
    resources = [res_row(k) for k in range(5)]
    requests = [request_row(k, rt=10.0 * (k + 1)) for k in range(5)]
    table = align(power, resources, requests)
    assert len(table) == 5
    assert [row.t for row in table.rows] == [T0 + k for k in range(5)]
    assert table.rows[2].rt_ms == pytest.approx(30.0)
    assert all(row.req_rate == 1.0 for row in table.rows)
    assert table.exclusions == {}


def test_align_rt_is_the_mean_of_the_seconds_completions():
    power = [power_row(0)]
    resources = [res_row(0)]
    requests = [request_row(0, rt=10.0, frac=0.2), request_row(0, rt=30.0, frac=0.8)]
    (row,) = align(power, resources, requests).rows
    assert row.rt_ms == pytest.approx(20.0)
    assert row.req_rate == 2.0


def test_read_power_csv_rejects_a_negative_reading(tmp_path):
    # align never sees negative power: no power.csv holding it can be read
    path = tmp_path / "power.csv"
    path.write_text(f"t_s,cpu_power_w,dram_power_w\n{T0}.000,10.0,1.0\n{T0 + 1}.000,-0.5,1.0\n")
    with pytest.raises(ValueError, match="non-negative"):
        read_power_csv(path)


def test_align_excludes_seconds_without_completions():
    power = [power_row(k) for k in range(3)]
    resources = [res_row(k) for k in range(3)]
    requests = [request_row(0), request_row(2)]
    table = align(power, resources, requests)
    assert [row.t for row in table.rows] == [T0, T0 + 2]
    assert table.exclusions["no_completions"] == 1


def test_align_failed_requests_never_count_toward_rt():
    power = [power_row(0)]
    resources = [res_row(0)]
    requests = [request_row(0, rt=10.0), request_row(0, rt=9999.0, success=False)]
    (row,) = align(power, resources, requests).rows
    assert row.rt_ms == pytest.approx(10.0)
    assert row.req_rate == 1.0


def test_align_requires_matching_resources():
    power = [power_row(0), power_row(1)]
    resources = [res_row(0)]
    requests = [request_row(0), request_row(1)]
    table = align(power, resources, requests)
    assert len(table) == 1
    assert table.exclusions["no_resource"] == 1


def test_align_empty_join_is_an_error():
    with pytest.raises(EmptyAlignmentError):
        align([power_row(0)], [res_row(5)], [request_row(9)])


def test_aligned_t_strictly_increasing_despite_shuffled_input():
    power = [power_row(k) for k in (3, 0, 2, 1)]
    resources = [res_row(k) for k in (1, 3, 0, 2)]
    requests = [request_row(k) for k in (2, 0, 3, 1)]
    ts = [row.t for row in align(power, resources, requests).rows]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)


def test_with_memory_filters_rows_lacking_a_reading():
    power = [power_row(k) for k in range(3)]
    resources = [res_row(0), res_row(1, mem=None), res_row(2)]
    requests = [request_row(k) for k in range(3)]
    table = align(power, resources, requests)
    assert len(table) == 3
    filtered = table.with_memory()
    assert len(filtered) == 2
    assert filtered.exclusions["missing_memory"] == 1


# ------------------------------------------------------------- timelines


def test_timeline_outer_joins_and_counts_failures(tmp_path):
    plan = synthetic_plan(tmp_path / "c", duration_s=30, warmup_s=5, seed=2)
    ts = load_artifact(generate_trial(plan, 0, seed=2))
    rows = build_timeline(ts)
    assert len(rows) == 30
    assert all(r.failures == 0 for r in rows)
    assert [r.t for r in rows] == sorted(r.t for r in rows)
    assert all(r.cpu_power_w is not None for r in rows)
    # warm-up rows are visible in the timeline (no trimming here)
    assert rows[0].rt_ms >= 100.0


def test_timeline_marks_second_without_completions(tmp_path):
    ts = TraceSet(
        meta={"plan": {"warmup_s": 0}, "host": {"core_count": 1}},
        requests=(request_row(0), request_row(2, success=False)),
        power=tuple(power_row(k) for k in range(3)),
        resources=tuple(res_row(k) for k in range(3)),
    )
    rows = build_timeline(ts)
    assert rows[1].rt_ms is None and rows[1].req_rate == 0
    assert rows[2].rt_ms is None and rows[2].failures == 1


# ------------------------------------------------------- campaign analysis


@pytest.fixture(scope="module")
def planted_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("camp")
    model = SimPowerModel(rt_coeff=0.002, noise_sd_w=0.2, dram_noise_sd_w=0.05, seed=4)
    plan = synthetic_plan(out, duration_s=120, warmup_s=20, repetitions=3, model=model, seed=4)
    generate_campaign(plan, seed=4)
    return out


def test_analysis_pools_rows_across_repetitions(planted_campaign):
    analysis = analyze_campaign_dir(planted_campaign)
    assert analysis.repetitions_analyzed == 3
    assert len(analysis.pooled) == 300  # 3 x (120 - 20) aligned seconds
    assert analysis.antipattern == "unnecessary-processing"
    assert [name for name, _ in analysis.timelines] == ["rep-0", "rep-1", "rep-2"]


def test_analysis_descriptives_cover_the_three_metrics(planted_campaign):
    analysis = analyze_campaign_dir(planted_campaign)
    assert set(analysis.descriptives) == {"rt_ms", "cpu_power_w", "dram_power_w"}
    rt = analysis.descriptives["rt_ms"]
    assert rt.minimum <= rt.mean <= rt.maximum
    assert 5.0 <= rt.mean <= 35.0


def test_analysis_recovers_planted_cpu_coefficient(planted_campaign):
    analysis = analyze_campaign_dir(planted_campaign)
    inference = analysis.model("cpu").rt_inference
    assert inference.ci_low <= 0.002 <= inference.ci_high
    assert analysis.model("cpu").r_squared > 0.9
    assert analysis.model("cpu").column_names[1] == "rt_ms"


def test_analysis_correlations_have_both_flavors(planted_campaign):
    analysis = analyze_campaign_dir(planted_campaign)
    pair = analysis.correlations["cpu_power_vs_rt"]
    assert -1.0 <= pair.pearson_r <= 1.0
    assert -1.0 <= pair.spearman_rho <= 1.0
    # utilization dominates cpu power and is independent of rt, so the
    # correlation is weak but defined; dram tracks util the same way
    assert "dram_power_vs_rt" in analysis.correlations


def test_analysis_energy_is_per_run_mean(planted_campaign):
    analysis = analyze_campaign_dir(planted_campaign)
    per_run = [run.cpu_energy_kj for run in analysis.runs]
    assert analysis.mean_cpu_energy_kj == pytest.approx(sum(per_run) / 3)
    assert all(run.dram_energy_kj > 0 for run in analysis.runs)
    # ~23 W over 99 post-warmup seconds: energy must land near 2.3 kJ
    assert 1.5 <= analysis.mean_cpu_energy_kj <= 3.0


def test_analysis_validity_per_run(planted_campaign):
    analysis = analyze_campaign_dir(planted_campaign)
    assert all(run.validity.valid for run in analysis.runs)
    assert all(run.validity.cpu_floor_threshold == pytest.approx(0.075) for run in analysis.runs)


def test_analysis_skips_failed_reps_but_needs_one(tmp_path):
    out = tmp_path / "camp"
    plan = synthetic_plan(out, duration_s=60, warmup_s=10, repetitions=3, seed=6)
    generate_campaign(plan, seed=6, fail_reps={0, 2})
    analysis = analyze_campaign_dir(out)
    assert analysis.repetitions_analyzed == 1
    assert analysis.repetitions_skipped == 2

    all_failed = tmp_path / "dead"
    plan2 = synthetic_plan(all_failed, duration_s=60, warmup_s=10, repetitions=2, seed=6)
    generate_campaign(plan2, seed=6, fail_reps={0, 1})
    with pytest.raises(ValueError, match="no valid"):
        analyze_campaign_dir(all_failed)


def test_analysis_rejects_mixed_antipatterns(tmp_path):
    from antiwatt.workload import AntipatternKind

    a = synthetic_plan(tmp_path / "c", duration_s=60, warmup_s=10, seed=1)
    generate_trial(a, 0, seed=1)
    b = synthetic_plan(
        tmp_path / "c", duration_s=60, warmup_s=10, kind=AntipatternKind.THE_RAMP, seed=1
    )
    generate_trial(b, 1, seed=1)
    with pytest.raises(ValueError, match="mixes"):
        analyze_campaign_dir(tmp_path / "c")


def test_analysis_is_deterministic(planted_campaign):
    first = analyze_campaign_dir(planted_campaign)
    second = analyze_campaign_dir(planted_campaign)
    assert first.model("cpu").rt_inference == second.model("cpu").rt_inference
    assert first.pooled.rows == second.pooled.rows
    assert first.descriptives == second.descriptives
