"""Load driver: spawn schedule, closed-loop runs, recent rt, CSV round-trip."""
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from antiwatt.loadgen import (
    LoadPlan,
    RequestLog,
    RequestRecord,
    read_requests_csv,
    run_load,
    spawn_schedule,
    write_requests_csv,
)


def plan(users=1, rate=10.0, duration=5.0, endpoint="http://127.0.0.1:1/x", think=0.0):
    return LoadPlan(
        target_users=users,
        spawn_rate=rate,
        duration_s=duration,
        endpoint=endpoint,
        think_time_ms=think,
    )


# ---------------------------------------------------------------------- plans


def test_plan_validation():
    with pytest.raises(ValueError):
        plan(users=0)
    with pytest.raises(ValueError):
        plan(rate=0.0)
    with pytest.raises(ValueError):
        plan(users=100, rate=10.0, duration=10.0)  # ramp == duration
    with pytest.raises(ValueError):
        plan(think=-1.0)


def test_schedule_fifty_users_at_ten_per_second():
    offsets = spawn_schedule(plan(users=50, rate=10.0, duration=60.0))
    assert len(offsets) == 50
    assert offsets == sorted(offsets)
    assert offsets[-1] == pytest.approx(4900.0)


def test_schedule_single_user_starts_immediately():
    assert spawn_schedule(plan(users=1)) == [0.0]


def test_schedule_thirty_users_second_buckets():
    offsets = spawn_schedule(plan(users=30, rate=10.0, duration=30.0))
    for i, off in enumerate(offsets):
        assert int(off // 1000) == i // 10  # users 0-9 in s0, 10-19 in s1, 20-29 in s2


# ---------------------------------------------------------------- recent rt


def rec(start_ms, rt_ms, ok=True, user=0):
    return RequestRecord(start=start_ms, response_time_ms=rt_ms, success=ok, user_id=user)


def make_log(records):
    log = RequestLog()
    for r in records:
        log.append(r)
    log.finalize()
    return log


def test_recent_mean_rt_window():
    base_s = 1_700_000_000.0
    log = make_log([rec(base_s * 1000 + 100, 50.0), rec(base_s * 1000 + 300, 70.0)])
    assert log.recent_mean_rt(base_s + 1.0) == pytest.approx(60.0)
    assert log.recent_mean_rt(base_s + 5.0) is None


def test_recent_mean_rt_covers_every_completion_in_a_busy_window():
    # 5000 completions inside one second: 1000 slow ones, then 4000 fast ones
    base_ms = 1_700_000_000_000.0
    records = [rec(base_ms - 500.0, 1.0)]  # completes before the window
    records += [rec(base_ms + i * 0.2, 100.0 if i < 1000 else 10.0) for i in range(5000)]
    log = make_log(records)
    assert log.recent_mean_rt(base_ms / 1000.0 + 1.05) == pytest.approx(28.0)


def test_recent_mean_rt_reads_past_a_record_appended_out_of_completion_order():
    base_ms = 1_700_000_000_000.0
    log = RequestLog()  # not finalized: records stay in append order
    log.append(rec(base_ms + 90.0, 10.0))  # inside the window
    log.append(rec(base_ms - 300.0, 100.0))  # completes before the window, appended late
    log.append(rec(base_ms + 870.0, 30.0))
    assert log.recent_mean_rt(base_ms / 1000.0 + 1.0) == pytest.approx(20.0)


# ------------------------------------------------------------------------ csv


def test_requests_csv_round_trip(tmp_path):
    log = make_log([rec(1000.0, 5.5, ok=True, user=0), rec(2000.0, 7.25, ok=False, user=3)])
    path = tmp_path / "requests.csv"
    write_requests_csv(log, path)
    text = path.read_text()
    assert text.splitlines()[0] == "start_ms,response_time_ms,success,user_id"
    back = read_requests_csv(path)
    assert back.records == log.records
    assert back.failure_count == 1


def test_requests_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_requests_csv(p)


# ------------------------------------------------------------------ live runs


class _SleepHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    sleep_s = 0.0

    def do_GET(self):  # noqa: N802 - stdlib handler naming
        time.sleep(self.sleep_s)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def sleepy_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SleepHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def url_of(server):
    return f"http://127.0.0.1:{server.server_address[1]}/x"


def test_run_load_smoke_no_failures(sleepy_server):
    _SleepHandler.sleep_s = 0.0
    log = run_load(plan(users=1, duration=1.5, endpoint=url_of(sleepy_server)))
    assert len(log.records) > 0
    assert log.failure_count == 0
    starts = [r.start for r in log.records]
    assert starts == sorted(starts)


def test_run_load_closed_loop_arithmetic(sleepy_server):
    _SleepHandler.sleep_s = 0.1
    log = run_load(plan(users=2, rate=10.0, duration=3.0, endpoint=url_of(sleepy_server)))
    # 2 users * 3 s / 0.1 s per request = 60 expected
    assert 40 <= len(log.records) <= 70


def test_run_load_endpoint_down_records_failures():
    log = run_load(plan(users=2, duration=1.2, endpoint="http://127.0.0.1:9/x"))
    assert len(log.records) > 0
    assert log.failure_count == len(log.records)
    # back-off paces the failure loop: 2 users for ~1.2 s at >=0.1 s per try
    assert len(log.records) <= 2 * 14


def test_run_load_think_time_paces_users(sleepy_server):
    _SleepHandler.sleep_s = 0.0
    log = run_load(plan(users=1, duration=2.0, endpoint=url_of(sleepy_server), think=200.0))
    assert 5 <= len(log.records) <= 12  # ~2 s / 0.2 s think


class _OneRequestPerConnectionHandler(BaseHTTPRequestHandler):
    """Answers as if keeping the connection alive, then drops it."""

    protocol_version = "HTTP/1.1"
    served = 0

    def do_GET(self):  # noqa: N802 - stdlib naming
        type(self).served += 1
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True  # no "Connection: close" told to the client

    def log_message(self, *args):
        pass


def test_run_load_retries_a_dropped_keepalive_once_and_records_it_once():
    _OneRequestPerConnectionHandler.served = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _OneRequestPerConnectionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # the think pause leaves each connection idle long enough to be gone
        log = run_load(plan(users=1, duration=1.0, endpoint=url_of(server), think=100.0))
    finally:
        server.shutdown()
        server.server_close()
    # every request after the first met a dropped connection and was retried
    # on a fresh one: one successful record per request the server answered
    assert len(log.records) >= 3
    assert log.failure_count == 0
    assert len(log.records) == _OneRequestPerConnectionHandler.served
