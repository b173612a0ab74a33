"""Timing claims measured in interleaved rounds, for tests on a shared host."""
import contextlib
import gc
import os
import statistics
import threading


@contextlib.contextmanager
def _one_cpu():
    """Run this thread, and the threads it starts, on one CPU: the CPUs of a
    shared host differ in speed for seconds at a time, and a round whose two
    halves ran on different CPUs would measure that difference."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def median_round_ratio(slow, fast, rounds, clock):
    """Median over *rounds* rounds of slow()'s cost over fast()'s on *clock*.

    Each round times fast() and then slow() back to back on one CPU, so a
    slow stretch of the host lands on both halves of a round instead of on
    one lone measurement, and the median drops the rounds it still spoils.
    One warm-up call of each comes first, and the collector is held off so
    that a collection of other tests' garbage lands in neither half. Pass
    time.thread_time for a single-thread cost, where time spent preempted
    must not count, and time.perf_counter for a makespan across threads.
    """
    ratios = []
    with _one_cpu():
        fast(), slow()
        gc.disable()
        try:
            for _ in range(rounds):
                t0 = clock()
                fast()
                t1 = clock()
                slow()
                ratios.append((clock() - t1) / (t1 - t0))
        finally:
            gc.enable()
    return statistics.median(ratios)


def concurrently(fn, n):
    """Call fn() from *n* threads released together; return once all end."""
    barrier = threading.Barrier(n)

    def call():
        barrier.wait()
        fn()

    threads = [threading.Thread(target=call) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "a concurrent call did not finish within 60 s"
