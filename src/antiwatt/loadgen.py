"""Closed-loop virtual-user load driver.

Each virtual user is a thread that issues one request at a time over a
persistent HTTP/1.1 connection: request, await the full reply, record,
optional think pause, repeat until the run duration elapses. Users spawn on a
fixed ramp (user i enters at i/spawn_rate seconds), so concurrency rises
linearly to the target and in-flight requests never exceed spawned users.

Connection errors and timeouts become failed records — never driver crashes —
with a short back-off so a dead endpoint cannot spin the driver. A stale
keep-alive connection (server closed between requests) is retried once on a
fresh connection; the retried request still yields exactly one record.
"""
from __future__ import annotations

import bisect
import csv
import http.client
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional
from urllib.parse import urlsplit

logger = logging.getLogger(__name__)

REQUEST_TIMEOUT_S = 60.0  # generous: a timeout is a real failure, not noise
FAILURE_BACKOFF_S = 0.1
# records reach a RequestLog out of completion order by at most about this much
APPEND_SLACK_S = 1.0

# exceptions that mean "the server dropped our idle keep-alive socket"
_STALE = (
    http.client.NotConnected,
    http.client.BadStatusLine,
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


@dataclass(frozen=True)
class LoadPlan:
    """What to load, how hard, for how long."""

    target_users: int
    spawn_rate: float  # users per second
    duration_s: float
    endpoint: str
    think_time_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.target_users < 1:
            raise ValueError("target_users must be >= 1")
        if self.spawn_rate <= 0:
            raise ValueError("spawn_rate must be positive")
        if self.think_time_ms < 0:
            raise ValueError("think_time_ms must be >= 0")
        ramp_s = self.target_users / self.spawn_rate
        if ramp_s >= self.duration_s:
            raise ValueError(
                f"ramp-up of {ramp_s:.1f}s must finish inside the {self.duration_s:.1f}s run"
            )


@dataclass(frozen=True)
class RequestRecord:
    start: float  # epoch ms
    response_time_ms: float
    success: bool
    user_id: int

    def __post_init__(self) -> None:
        if self.response_time_ms < 0:
            raise ValueError("response_time_ms must be >= 0")

    @property
    def completion_s(self) -> float:
        return (self.start + self.response_time_ms) / 1000.0


class RequestLog:
    """Append-only record sink shared by all virtual users."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[RequestRecord] = []

    def append(self, record: RequestRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> List[RequestRecord]:
        with self._lock:
            return list(self._records)

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.records if not r.success)

    def finalize(self) -> None:
        """Order by start time once all users have stopped appending."""
        with self._lock:
            self._records.sort(key=lambda r: r.start)

    def recent_mean_rt(self, now_s: float, window_s: float = 1.0) -> Optional[float]:
        """Mean rt of requests completing within the trailing window, or None.

        Users append records in completion order give or take
        ``APPEND_SLACK_S``, so every record before one that completes that
        long ahead of the window completes before the window too: a binary
        search finds where the window's records start.
        """
        low = now_s - window_s
        with self._lock:
            first = bisect.bisect_left(
                self._records,
                (low - APPEND_SLACK_S) * 1000.0,
                key=lambda r: r.start + r.response_time_ms,
            )
            tail = self._records[first:]
        rts = [r.response_time_ms for r in tail if low < r.completion_s <= now_s]
        if not rts:
            return None
        return sum(rts) / len(rts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def spawn_schedule(plan: LoadPlan) -> List[float]:
    """Start offsets (ms) per user: user i enters at i/spawn_rate seconds.

    With 50 users at 10/s the last user starts at 4900 ms, i.e. within the
    fifth second of the ramp.
    """
    return [i / plan.spawn_rate * 1000.0 for i in range(plan.target_users)]


def _split_endpoint(endpoint: str):
    parts = urlsplit(endpoint)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"only http endpoints are supported, got {endpoint!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    path = parts.path or "/"
    if parts.query:
        path = f"{path}?{parts.query}"
    return host, port, path


def _issue(conn: http.client.HTTPConnection, path: str) -> bool:
    conn.request("GET", path)
    resp = conn.getresponse()
    resp.read()
    return 200 <= resp.status < 300


def _user_loop(
    user_id: int,
    offset_s: float,
    plan: LoadPlan,
    log: RequestLog,
    t0: float,
) -> None:
    host, port, path = _split_endpoint(plan.endpoint)
    delay = (t0 + offset_s) - time.monotonic()
    if delay > 0:
        time.sleep(delay)
    end = t0 + plan.duration_s
    conn: Optional[http.client.HTTPConnection] = None
    try:
        while time.monotonic() < end:
            start_ms = time.time() * 1000.0
            t_req = time.monotonic()
            ok = False
            for attempt in (0, 1):
                try:
                    if conn is None:
                        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
                    ok = _issue(conn, path)
                    break
                except _STALE:
                    # dropped keep-alive: one retry on a fresh socket
                    if conn is not None:
                        conn.close()
                    conn = None
                    if attempt == 1:
                        break
                except Exception:
                    if conn is not None:
                        conn.close()
                    conn = None
                    break
            rt_ms = (time.monotonic() - t_req) * 1000.0
            log.append(
                RequestRecord(start=start_ms, response_time_ms=rt_ms, success=ok, user_id=user_id)
            )
            if not ok:
                time.sleep(FAILURE_BACKOFF_S)
            elif plan.think_time_ms:
                time.sleep(plan.think_time_ms / 1000.0)
    finally:
        if conn is not None:
            conn.close()


def run_load(plan: LoadPlan, log: Optional[RequestLog] = None) -> RequestLog:
    """Drive the endpoint per *plan*; returns the completed, ordered log.

    Pass a pre-built *log* to observe records live from another thread
    (e.g. a sampler's response-time provider); it is returned finalized.
    """
    if log is None:
        log = RequestLog()
    t0 = time.monotonic()
    threads = [
        threading.Thread(
            target=_user_loop,
            args=(i, off / 1000.0, plan, log, t0),
            name=f"vu-{i}",
            daemon=True,
        )
        for i, off in enumerate(spawn_schedule(plan))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    log.finalize()
    logger.info(
        "load run complete: %d records, %d failures", len(log), log.failure_count
    )
    return log


# ------------------------------------------------------------------ CSV forms

REQUESTS_CSV_COLUMNS = ["start_ms", "response_time_ms", "success", "user_id"]


def write_requests_csv(log: RequestLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUESTS_CSV_COLUMNS)
        for r in log.records:
            writer.writerow(
                [f"{r.start:.3f}", f"{r.response_time_ms:.3f}", str(r.success).lower(), r.user_id]
            )


def read_requests_csv(path) -> RequestLog:
    log = RequestLog()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != REQUESTS_CSV_COLUMNS:
            raise ValueError(f"unexpected requests.csv header in {path}: {reader.fieldnames}")
        for row in reader:
            log.append(
                RequestRecord(
                    start=float(row["start_ms"]),
                    response_time_ms=float(row["response_time_ms"]),
                    success=row["success"] in ("true", "1", "True"),
                    user_id=int(row["user_id"]),
                )
            )
    log.finalize()
    return log
