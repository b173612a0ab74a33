"""The ten antipattern request handlers.

Each handler is a plain function (state, config, params...) -> body dict so
tests can drive it without HTTP; the service wraps it with timing and the
WorkResponse envelope. Handlers are concurrency-safe: shared structures are
touched under their locks, and only One-Lane Bridge holds a lock across its
actual work — that serialization is the antipattern itself, not an accident.

Work amounts are expressed through ``config.iterations`` (kind-specific
meaning), which a campaign's plan sets, and the fixed per-kind constants of
config.py; per-request query overrides exist where a contract needs them
(e.g. iterations=0 probes).
"""
from __future__ import annotations

import itertools
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qsl

from ..fixture import FixtureSession
from ..kernels import busy_loop, hash_rounds, trig_loop
from .config import (
    HEAVY_FRACTION,
    MAX_STORE_ITEMS,
    PAYLOAD_SIZE,
    RECENT_ORDERS,
    WINDOW_PERIOD_S,
    WORKER_COUNT,
    WorkloadConfig,
)
from .state import ServiceState


class WorkloadFailure(Exception):
    """An anticipated handler failure (e.g. store capacity guard)."""

    def __init__(self, summary: dict):
        super().__init__(summary.get("error", "workload failure"))
        self.summary = summary


@dataclass(frozen=True)
class WorkResponse:
    status: str  # "success" | "failure"
    body_summary: dict
    server_elapsed_ms: float

    def __post_init__(self) -> None:
        if self.server_elapsed_ms < 0:
            raise ValueError("server_elapsed_ms must be >= 0")

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "body_summary": self.body_summary,
            "server_elapsed_ms": self.server_elapsed_ms,
        }


def _resolve_n(config: WorkloadConfig, override: Optional[int]) -> int:
    if override is None:
        return config.iterations
    if override < 0:
        raise ValueError("iterations override must be >= 0")
    return override


def handle_unbalanced_processing(state: ServiceState, config: WorkloadConfig) -> dict:
    """Full synchronous pipeline per request, against an ever-growing store."""
    payload = state.random_bytes(PAYLOAD_SIZE)
    digest = hash_rounds(config.iterations // 2, payload=payload)
    # validate: full scan + checksum
    checksum = zlib.adler32(payload)
    # sort and copy churn
    ordered = bytes(sorted(payload))
    doubled = ordered + ordered
    _middle = doubled[len(ordered) // 2 : -(len(ordered) // 2)]
    with state.unbalanced_lock:
        if len(state.unbalanced_store) >= MAX_STORE_ITEMS:
            raise WorkloadFailure(
                {"error": "store capacity reached", "store_size": len(state.unbalanced_store)}
            )
        state.unbalanced_store.append(digest)
        size = len(state.unbalanced_store)
        tail = b"".join(state.unbalanced_store[-64:])
    # serialize/rehash churn proportional to how far the store has grown
    hash_rounds(min(size, 100_000) * 24, payload=tail + checksum.to_bytes(4, "big"))
    return {"store_size": size, "checksum": checksum, "digest": digest[:8].hex()}


def handle_unnecessary_processing(
    state: ServiceState, config: WorkloadConfig, iterations: Optional[int] = None
) -> dict:
    """Burns exactly n loop steps; the reply never depends on the result."""
    n = _resolve_n(config, iterations)
    trig_loop(n)
    return {"result": "done", "iterations": n}


def handle_the_ramp(state: ServiceState, config: WorkloadConfig) -> dict:
    item = state.random_hex(128)
    target = state.random_hex(8)  # two hex chars
    with state.ramp_lock:
        if len(state.ramp_store) >= MAX_STORE_ITEMS:
            raise WorkloadFailure(
                {"error": "store capacity reached", "store_size": len(state.ramp_store)}
            )
        state.ramp_store.append(item)
        size = len(state.ramp_store)
    # linear scan of everything appended so far (append-only list: reading
    # the first `size` slots without the lock is safe)
    matches = [s for s in itertools.islice(state.ramp_store, size) if target in s]
    matches.sort()
    return {"store_size": size, "match_count": len(matches), "target": target}


def handle_sisyphus_retrieval(
    state: ServiceState, config: WorkloadConfig, page: int = 0, page_size: int = 10
) -> dict:
    """Materializes the whole orders><customers join, returns one page of it."""
    if page < 0:
        raise ValueError("page must be >= 0")
    if page_size < 1:
        raise ValueError("page_size must be >= 1")
    fx = state.fixture
    rows = []
    for order in fx.orders:
        cust = fx.customers_by_id[order.customer_id]
        rows.append(
            {
                "order_id": order.id,
                "customer": cust.name,
                "city": cust.city,
                "country": cust.country,
                "freight": f"{order.freight:.2f}",
                "day": order.order_day,
            }
        )
    start = page * page_size
    page_rows = rows[start : start + page_size]
    return {
        "rows": page_rows,
        "returned": len(page_rows),
        "scanned_count": len(rows),
        "page": page,
        "page_size": page_size,
    }


def handle_more_is_less(
    state: ServiceState,
    config: WorkloadConfig,
    workers: Optional[int] = None,
    iterations: Optional[int] = None,
) -> dict:
    w = WORKER_COUNT if workers is None else workers
    if w < 1:
        raise ValueError("workers must be >= 1")
    n = _resolve_n(config, iterations)
    base, extra = divmod(n, w)
    chunks = [base + (1 if i < extra else 0) for i in range(w)]
    t0 = time.perf_counter()
    threads = [threading.Thread(target=trig_loop, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    multi_ms = (time.perf_counter() - t0) * 1000.0
    t1 = time.perf_counter()
    trig_loop(n)
    single_ms = (time.perf_counter() - t1) * 1000.0
    return {
        "workers": w,
        "iterations": n,
        "multi_time_ms": multi_ms,
        "single_time_ms": single_ms,
    }


def handle_god_class(state: ServiceState, config: WorkloadConfig, raw_query: str = "") -> dict:
    """One monolithic routine: parse, count, hash, cache, maybe store.

    Malformed payloads are absorbed into the error counter — the reply is
    still a success. Every cache miss opens a fresh fixture session (the
    no-connection-reuse cost is deliberate).
    """
    valid = True
    fields = {}
    try:
        if raw_query:
            fields = dict(parse_qsl(raw_query, strict_parsing=True))
    except ValueError:
        valid = False
    god = state.god
    with god.lock:
        if valid:
            god.request_count += 1
        else:
            god.error_count += 1
    digest = hash_rounds(config.iterations, payload=raw_query.encode("utf-8", "replace"))
    customer_name = None
    if valid:
        key = fields.get("key", "default")
        with god.lock:
            cached = god.cache.get(key)
        if cached is None:
            session = FixtureSession(
                state.fixture,
                open_cost_rounds=config.iterations // 4,
                lookup_cost_rounds=config.iterations // 10,
            )
            cid = zlib.crc32(key.encode("utf-8")) % len(state.fixture.customers) + 1
            cust = session.get_customer(cid)
            cached = cust.name if cust is not None else ""
            with god.lock:
                god.cache[key] = cached
        customer_name = cached or None
        if fields.get("store") == "1":
            blob = hash_rounds(config.iterations // 2, payload=digest)
            with god.lock:
                god.cache[f"blob:{key}"] = blob[:8].hex()
    with god.lock:
        rc, ec, cache_size = god.request_count, god.error_count, len(god.cache)
    return {
        "valid": valid,
        "customer": customer_name,
        "request_count": rc,
        "error_count": ec,
        "cache_size": cache_size,
    }


def handle_excessive_dynamic_allocation(
    state: ServiceState, config: WorkloadConfig, iterations: Optional[int] = None
) -> dict:
    """Phase A allocates fresh containers per iteration; phase B reuses them.

    Both phases produce the identical byte stream (checked by CRC), so any
    timing gap is allocation overhead, not different work.
    """
    n = _resolve_n(config, iterations)
    t0 = time.perf_counter()
    crc_a = 0
    for i in range(n):
        parts = ["%06d" % ((i * j) & 0xFFFF) for j in range(16)]
        record = {f"k{j}": parts[j] for j in range(16)}
        blob = "".join(value + "," for value in record.values()).encode("ascii")
        crc_a = zlib.crc32(blob, crc_a)
    phase_a_ms = (time.perf_counter() - t0) * 1000.0

    buf = bytearray(16 * 7)
    view = memoryview(buf)
    t1 = time.perf_counter()
    crc_b = 0
    for i in range(n):
        for j in range(16):
            view[j * 7 : j * 7 + 7] = b"%06d," % ((i * j) & 0xFFFF)
        crc_b = zlib.crc32(buf, crc_b)
    phase_b_ms = (time.perf_counter() - t1) * 1000.0
    return {
        "iterations": n,
        "phase_a_ms": phase_a_ms,
        "phase_b_ms": phase_b_ms,
        "checksums_match": crc_a == crc_b,
        "crc": crc_a,
    }


def handle_circuitous_treasure_hunt(
    state: ServiceState, config: WorkloadConfig, customer_id: Optional[int] = None
) -> dict:
    """Strictly sequential dependent lookups, one fresh session per request."""
    session = FixtureSession(
        state.fixture,
        open_cost_rounds=config.iterations * 5,
        lookup_cost_rounds=config.iterations,
    )
    if customer_id is None:
        customer_id = 1
    cust = session.get_customer(customer_id)
    if cust is None:
        return {
            "found": False,
            "customer_id": customer_id,
            "lookups": session.lookups,
            "items": [],
        }
    order_ids = session.recent_order_ids(customer_id, limit=RECENT_ORDERS)
    items = []
    for oid in order_ids:
        for did in session.detail_ids_for_order(oid):
            det = session.get_detail(did)
            product = session.get_product(det.product_id)
            supplier = session.get_supplier(product.supplier_id)
            items.append(
                {
                    "order_id": oid,
                    "product": product.name,
                    "quantity": det.quantity,
                    "supplier": supplier.name,
                }
            )
    return {
        "found": True,
        "customer_id": customer_id,
        "customer": cust.name,
        "orders": len(order_ids),
        "lookups": session.lookups,
        "items": items,
    }


def handle_one_lane_bridge(state: ServiceState, config: WorkloadConfig) -> dict:
    gate = state.bridge
    waited = not gate.lock.acquire(blocking=False)
    if waited:
        gate.lock.acquire()
    try:
        occupancy = gate.enter()
        hash_rounds(config.iterations)  # CPU-heavy work while holding the gate
        gate.counter += 1  # guarded by the gate lock itself
        counter = gate.counter
    finally:
        gate.leave()
        gate.lock.release()
    with gate.meta:
        max_occ = gate.max_occupancy
    return {
        "counter": counter,
        "waited": waited,
        "occupancy": occupancy,
        "max_occupancy": max_occ,
    }


def handle_traffic_jam(
    state: ServiceState, config: WorkloadConfig, now: Optional[float] = None
) -> dict:
    """Heavy kernel inside the heavy window; debt from it lingers afterwards."""
    if now is None:
        now = time.time()
    phase_pos = (now % WINDOW_PERIOD_S) / WINDOW_PERIOD_S
    heavy = phase_pos < HEAVY_FRACTION
    consumed = 0.0
    with state.jam.lock:
        backlog_at_entry = state.jam.debt > 1e-9
        if heavy:
            state.jam.debt += 0.5
        else:
            consumed = min(state.jam.debt, 0.5)
            state.jam.debt -= consumed
        debt_after = state.jam.debt
    if heavy:
        busy_loop(config.iterations)
    else:
        busy_loop(config.iterations // 8 + int(consumed * config.iterations))
    return {
        "phase": "heavy" if heavy else "normal",
        "backlog": backlog_at_entry,
        "debt": round(debt_after, 6),
        "window_pos": round(phase_pos, 4),
    }
