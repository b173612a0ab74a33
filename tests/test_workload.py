"""Direct (no-HTTP) behavioral tests for the ten antipattern handlers."""
import statistics
import threading
import time

import pytest

from antiwatt.fixture import build_indexes
from antiwatt.kernels import trig_loop
from antiwatt.stats import spearman
from antiwatt.workload import (
    AntipatternKind,
    WorkloadFailure,
    default_config,
    dispatch,
    execute,
    make_state,
)
from antiwatt.workload.handlers import (
    handle_circuitous_treasure_hunt,
    handle_excessive_dynamic_allocation,
    handle_god_class,
    handle_more_is_less,
    handle_one_lane_bridge,
    handle_sisyphus_retrieval,
    handle_the_ramp,
    handle_traffic_jam,
    handle_unbalanced_processing,
    handle_unnecessary_processing,
)
from test_fixture import make_hand_fixture
from timing import concurrently, median_round_ratio

K = AntipatternKind


def fresh(kind, **overrides):
    cfg = default_config(kind, **overrides)
    return make_state(cfg), cfg


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, (time.perf_counter() - t0) * 1000.0


# ------------------------------------------------------- unbalanced processing


def test_unbalanced_store_grows_one_per_request():
    state, cfg = fresh(K.UNBALANCED_PROCESSING)
    assert handle_unbalanced_processing(state, cfg)["store_size"] == 1
    assert handle_unbalanced_processing(state, cfg)["store_size"] == 2
    assert len(state.unbalanced_store) == 2


def test_unbalanced_two_concurrent_monopolize_the_core():
    state, cfg = fresh(K.UNBALANCED_PROCESSING)

    def call():
        handle_unbalanced_processing(state, cfg)

    ratio = median_round_ratio(lambda: concurrently(call, 2), call, 5, time.perf_counter)
    assert ratio >= 1.8


def test_unbalanced_elapsed_grows_with_store():
    grown, cfg = fresh(K.UNBALANCED_PROCESSING, iterations=2000)
    elapsed = []
    for _ in range(100):
        _, dt = timed(handle_unbalanced_processing, grown, cfg)
        elapsed.append(dt)
    assert spearman(list(range(100)), elapsed) > 0
    # each round calls once on a store of about 100 items and once on an
    # empty one; the empty stores are built here, one per call, not timed
    rounds = 9
    empty = iter([make_state(cfg) for _ in range(rounds + 1)])
    ratio = median_round_ratio(
        lambda: handle_unbalanced_processing(grown, cfg),
        lambda: handle_unbalanced_processing(next(empty), cfg),
        rounds,
        time.thread_time,
    )
    assert ratio > 1


def test_unbalanced_store_cap_flips_to_failure():
    state, cfg = fresh(K.UNBALANCED_PROCESSING, iterations=2, max_store_items=3)
    for _ in range(3):
        handle_unbalanced_processing(state, cfg)
    with pytest.raises(WorkloadFailure):
        handle_unbalanced_processing(state, cfg)
    code, resp = execute(state, cfg, "")
    assert code == 507 and resp.status == "failure"


# ------------------------------------------------------ unnecessary processing


def test_unnecessary_zero_iterations_is_baseline_fast():
    state, cfg = fresh(K.UNNECESSARY_PROCESSING)
    _, dt = timed(handle_unnecessary_processing, state, cfg, 0)
    assert dt < 5.0


def test_unnecessary_work_scales_linearly():
    state, cfg = fresh(K.UNNECESSARY_PROCESSING)
    ratio = median_round_ratio(
        lambda: handle_unnecessary_processing(state, cfg, 60_000),
        lambda: handle_unnecessary_processing(state, cfg, 30_000),
        7,
        time.thread_time,
    )
    assert 1.6 <= ratio <= 2.4


def test_unnecessary_reply_is_constant():
    state, cfg = fresh(K.UNNECESSARY_PROCESSING, iterations=100)
    a = handle_unnecessary_processing(state, cfg)
    b = handle_unnecessary_processing(state, cfg)
    assert a == b


# ---------------------------------------------------------------------- ramp


def test_ramp_store_size_counts_requests_exactly():
    state, cfg = fresh(K.THE_RAMP)
    first = handle_the_ramp(state, cfg)
    assert first["store_size"] == 1
    assert first["match_count"] <= 1
    for k in range(2, 51):
        assert handle_the_ramp(state, cfg)["store_size"] == k


def test_ramp_deterministic_across_fresh_services():
    a_state, cfg = fresh(K.THE_RAMP)
    b_state, _ = fresh(K.THE_RAMP)
    for _ in range(10):
        assert handle_the_ramp(a_state, cfg) == handle_the_ramp(b_state, cfg)


def test_ramp_elapsed_trends_upward():
    state, cfg = fresh(K.THE_RAMP)
    elapsed = []
    for _ in range(1500):
        _, dt = timed(handle_the_ramp, state, cfg)
        elapsed.append(dt)
    assert spearman(list(range(len(elapsed))), elapsed) > 0.3


# ------------------------------------------------------------------- sisyphus


def test_sisyphus_first_page():
    state, cfg = fresh(K.SISYPHUS_RETRIEVAL)
    body = handle_sisyphus_retrieval(state, cfg, page=0, page_size=10)
    assert body["returned"] == 10 and len(body["rows"]) == 10
    assert body["scanned_count"] == 830


def test_sisyphus_out_of_range_page_is_success():
    state, cfg = fresh(K.SISYPHUS_RETRIEVAL)
    body = handle_sisyphus_retrieval(state, cfg, page=10**6, page_size=10)
    assert body["returned"] == 0 and body["scanned_count"] == 830
    code, resp = execute(state, cfg, "page=1000000&page_size=10")
    assert code == 200 and resp.status == "success"


def test_sisyphus_waste_ratio():
    state, cfg = fresh(K.SISYPHUS_RETRIEVAL)
    for page in (0, 5, 40):
        body = handle_sisyphus_retrieval(state, cfg, page=page, page_size=10)
        assert body["scanned_count"] / body["returned"] >= 830 / 10


def test_sisyphus_scales_with_fixture():
    state1, cfg1 = fresh(K.SISYPHUS_RETRIEVAL, dataset_scale=1)
    state3, cfg3 = fresh(K.SISYPHUS_RETRIEVAL, dataset_scale=3)
    assert handle_sisyphus_retrieval(state3, cfg3)["scanned_count"] == 2490
    ratio = median_round_ratio(
        lambda: handle_sisyphus_retrieval(state3, cfg3),
        lambda: handle_sisyphus_retrieval(state1, cfg1),
        9,
        time.thread_time,
    )
    assert 1.5 <= ratio <= 4.5  # ~3x, generous timing margin


def test_sisyphus_rejects_bad_paging():
    state, cfg = fresh(K.SISYPHUS_RETRIEVAL)
    with pytest.raises(ValueError):
        handle_sisyphus_retrieval(state, cfg, page=-1)
    with pytest.raises(ValueError):
        handle_sisyphus_retrieval(state, cfg, page_size=0)


# --------------------------------------------------------------- more is less


def test_more_is_less_single_worker_matches_inline_run():
    state, cfg = fresh(K.MORE_IS_LESS)
    n = 60_000
    # a reply runs a one-worker pass and then an inline pass of n steps, so
    # its cost over one inline pass is 1 + the one-worker pass's over it
    ratio = median_round_ratio(
        lambda: handle_more_is_less(state, cfg, workers=1, iterations=n),
        lambda: trig_loop(n),
        11,
        time.perf_counter,
    )
    assert ratio - 1 == pytest.approx(1.0, rel=0.35)


def test_more_is_less_oversubscription_never_wins():
    state, cfg = fresh(K.MORE_IS_LESS)
    ratios = []
    for _ in range(5):
        body = handle_more_is_less(state, cfg, workers=64, iterations=60_000)
        ratios.append(body["multi_time_ms"] / body["single_time_ms"])
    assert statistics.median(ratios) >= 1.0


def test_more_is_less_zero_iterations():
    state, cfg = fresh(K.MORE_IS_LESS)
    body = handle_more_is_less(state, cfg, workers=2, iterations=0)
    assert body["multi_time_ms"] < 50.0 and body["single_time_ms"] < 5.0


def test_more_is_less_rejects_zero_workers():
    state, cfg = fresh(K.MORE_IS_LESS)
    with pytest.raises(ValueError):
        handle_more_is_less(state, cfg, workers=0)


# ------------------------------------------------------------------ god class


def test_god_class_counts_valid_requests():
    state, cfg = fresh(K.GOD_CLASS, iterations=50)
    for k in range(1, 6):
        body = handle_god_class(state, cfg, f"key=k{k}")
        assert body["request_count"] == k
    assert body["error_count"] == 0
    assert body["customer"]


def test_god_class_absorbs_malformed_payload():
    state, cfg = fresh(K.GOD_CLASS, iterations=50)
    body = handle_god_class(state, cfg, "not_a_pair")
    assert body["valid"] is False
    assert body["error_count"] == 1 and body["request_count"] == 0
    code, resp = execute(state, cfg, "also&bad&fields")
    assert code == 200 and resp.status == "success"
    assert resp.body_summary["error_count"] == 2


def test_god_class_counters_exact_under_concurrency():
    state, cfg = fresh(K.GOD_CLASS, iterations=10)
    total = 240

    def worker(i):
        query = f"key=k{i % 7}" if i % 3 else "bad~query~field"
        handle_god_class(state, cfg, query)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(total)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    with state.god.lock:
        assert state.god.request_count + state.god.error_count == total


def test_god_class_store_flag_extends_cache():
    state, cfg = fresh(K.GOD_CLASS, iterations=50)
    a = handle_god_class(state, cfg, "key=alpha")
    b = handle_god_class(state, cfg, "key=alpha&store=1")
    assert b["cache_size"] == a["cache_size"] + 1


# ------------------------------------------------- excessive dynamic allocation


def test_eda_zero_iterations_near_zero_time():
    state, cfg = fresh(K.EXCESSIVE_DYNAMIC_ALLOCATION)
    body = handle_excessive_dynamic_allocation(state, cfg, 0)
    assert body["phase_a_ms"] < 2.0 and body["phase_b_ms"] < 2.0


def test_eda_allocation_phase_is_slower():
    state, cfg = fresh(K.EXCESSIVE_DYNAMIC_ALLOCATION)
    handle_excessive_dynamic_allocation(state, cfg)  # warm-up
    a_times, b_times = [], []
    for _ in range(7):
        body = handle_excessive_dynamic_allocation(state, cfg)
        a_times.append(body["phase_a_ms"])
        b_times.append(body["phase_b_ms"])
    assert statistics.median(a_times) >= statistics.median(b_times)


def test_eda_phases_do_identical_logical_work():
    state, cfg = fresh(K.EXCESSIVE_DYNAMIC_ALLOCATION, iterations=50)
    body = handle_excessive_dynamic_allocation(state, cfg)
    assert body["checksums_match"] is True


def test_eda_reply_deterministic():
    state, cfg = fresh(K.EXCESSIVE_DYNAMIC_ALLOCATION, iterations=40)
    a = handle_excessive_dynamic_allocation(state, cfg)
    b = handle_excessive_dynamic_allocation(state, cfg)
    assert a["iterations"] == b["iterations"] == 40
    assert a["crc"] == b["crc"]


# --------------------------------------------------------------- treasure hunt


def test_treasure_hunt_unknown_customer():
    state, cfg = fresh(K.CIRCUITOUS_TREASURE_HUNT, iterations=1)
    body = handle_circuitous_treasure_hunt(state, cfg, customer_id=10**6)
    assert body == {"found": False, "customer_id": 10**6, "lookups": 1, "items": []}


def test_treasure_hunt_lookup_arithmetic():
    # 1 customer + 1 recent-orders + 3 detail-lists + 6 details + 6 products
    # + 6 suppliers = 23
    state, cfg = fresh(K.CIRCUITOUS_TREASURE_HUNT, iterations=1)
    state.fixture = make_hand_fixture()
    body = handle_circuitous_treasure_hunt(state, cfg, customer_id=1)
    assert body["found"] is True
    assert body["orders"] == 3
    assert len(body["items"]) == 6
    assert body["lookups"] == 23


def test_treasure_hunt_read_only_determinism():
    state, cfg = fresh(K.CIRCUITOUS_TREASURE_HUNT, iterations=1)
    a = handle_circuitous_treasure_hunt(state, cfg, customer_id=5)
    b = handle_circuitous_treasure_hunt(state, cfg, customer_id=5)
    assert a == b


def test_treasure_hunt_respects_recent_orders_limit():
    state, cfg = fresh(K.CIRCUITOUS_TREASURE_HUNT, iterations=1, recent_orders=2)
    state.fixture = make_hand_fixture()
    body = handle_circuitous_treasure_hunt(state, cfg, customer_id=1)
    assert body["orders"] == 2
    assert body["lookups"] == 1 + 1 + 2 + 3 * 4


# ------------------------------------------------------------- one lane bridge


def test_bridge_single_caller():
    state, cfg = fresh(K.ONE_LANE_BRIDGE)
    body = handle_one_lane_bridge(state, cfg)
    assert body == {"counter": 1, "waited": False, "occupancy": 1, "max_occupancy": 1}


def test_bridge_serializes_concurrent_callers():
    state, cfg = fresh(K.ONE_LANE_BRIDGE)
    n, rounds = 4, 5

    def call():
        handle_one_lane_bridge(state, cfg)

    ratio = median_round_ratio(lambda: concurrently(call, n), call, rounds, time.perf_counter)
    assert ratio >= 0.8 * n
    with state.bridge.meta:
        assert state.bridge.max_occupancy == 1
    # the warm-up round and each timed round: one crossing, then n at once
    assert state.bridge.counter == (1 + rounds) * (1 + n)


def test_bridge_counter_exact_under_stress():
    state, cfg = fresh(K.ONE_LANE_BRIDGE, iterations=5)
    total = 200
    threads = [
        threading.Thread(target=handle_one_lane_bridge, args=(state, cfg)) for _ in range(total)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state.bridge.counter == total
    with state.bridge.meta:
        assert state.bridge.max_occupancy == 1


# ---------------------------------------------------------------- traffic jam


def jam_state(period=60.0, frac=0.25, iterations=60_000):
    return fresh(
        K.TRAFFIC_JAM, window_period_s=period, heavy_fraction=frac, iterations=iterations
    )


def test_jam_normal_window_with_no_backlog_is_light():
    state, cfg = jam_state()
    body, dt = timed(handle_traffic_jam, state, cfg, now=30.0)  # deep in normal
    assert body["phase"] == "normal"
    assert body["backlog"] is False
    assert body["debt"] == 0.0
    light_ms = dt
    _, heavy_dt = timed(handle_traffic_jam, state, cfg, now=5.0)  # heavy window
    assert heavy_dt > light_ms


def test_jam_backlog_lingers_past_window_end():
    state, cfg = jam_state()
    for _ in range(4):
        handle_traffic_jam(state, cfg, now=5.0)  # heavy: debt += 0.5 each
    first_after = handle_traffic_jam(state, cfg, now=16.0)
    assert first_after["phase"] == "normal"
    assert first_after["backlog"] is True
    debts = [first_after["debt"]]
    while debts[-1] > 0:
        debts.append(handle_traffic_jam(state, cfg, now=17.0)["debt"])
    assert debts == sorted(debts, reverse=True)  # debt drains monotonically


def test_jam_heavy_mean_exceeds_drained_normal_mean():
    state, cfg = jam_state()
    heavy = [timed(handle_traffic_jam, state, cfg, now=3.0)[1] for _ in range(5)]
    # drain whatever debt those built
    while handle_traffic_jam(state, cfg, now=40.0)["debt"] > 0:
        pass
    late_normal = [timed(handle_traffic_jam, state, cfg, now=50.0)[1] for _ in range(5)]
    assert statistics.mean(heavy) > statistics.mean(late_normal)


# ------------------------------------------------------------ dispatch/execute


def test_dispatch_parses_query_params():
    state, cfg = fresh(K.SISYPHUS_RETRIEVAL)
    body = dispatch(state, cfg, "page=2&page_size=5")
    assert body["page"] == 2 and body["page_size"] == 5 and body["returned"] == 5


def test_execute_maps_handler_bugs_to_500():
    state, cfg = fresh(K.SISYPHUS_RETRIEVAL)
    code, resp = execute(state, cfg, "page=-3")
    assert code == 500
    assert resp.status == "failure"
    assert "error" in resp.body_summary
    assert resp.server_elapsed_ms >= 0
