"""Program processes as the benchmark runs them.

Each program process is started in its own session, so a hung one can be
killed together with the service it launched, and is reaped with
``os.wait4`` so its CPU time and peak RSS come from the kernel. CPU time
over a window inside a process's life comes from sampling
``/proc/<pid>/stat`` of the process and its children.

The benchmark, its threads and every program process run on one CPU. On a
host whose virtual CPUs share physical cores with other machines, a request
that hands over between processes on two virtual CPUs waits for the
hypervisor to wake the other one, and that wait follows the neighbours'
load; on one CPU the hand-over is a context switch inside the guest.

That CPU still changes speed with the neighbours' load, by a quarter either
way over seconds to minutes. ``SpeedProbe`` times a fixed Python loop on it
all through a run, so a time can be scaled to the speed the CPU had while
it was measured.
"""
from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

CLK_TCK = float(os.sysconf("SC_CLK_TCK"))


@dataclass(frozen=True)
class Exit:
    """How one program process ended."""

    code: int
    wall_s: float
    cpu_s: float  # user + system, including the children it reaped
    maxrss_mb: float  # peak RSS of the largest process in its tree


def pin_to_one_cpu() -> None:
    """Run this process on the first CPU it may use; the threads and
    processes it starts from now on inherit that."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def program_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def antiwatt(args: Sequence[str]) -> List[str]:
    """argv of the program's command line, run from the checkout's sources."""
    return [sys.executable, "-m", "antiwatt", *args]


def spawn(argv: Sequence[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, start_new_session=True)


def wait(proc: subprocess.Popen, started: float, timeout_s: float) -> Exit:
    """Reap *proc* (killing its process group after *timeout_s*)."""
    killer = threading.Timer(timeout_s, _kill_group, args=(proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # a service left behind by a killed campaign
    return Exit(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def run(argv: Sequence[str], env: Dict[str, str], timeout_s: float) -> Exit:
    started = time.perf_counter()
    return wait(spawn(argv, env), started, timeout_s)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and _group_alive(pgid):
        time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    # fields: state, ppid, pgrp; a zombie has ended and only waits to be reaped
    return any(f[2] == str(pgid) and f[0] != "Z" for _, _, f in _proc_table())


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            raw = fh.read()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> Optional[float]:
    """utime + stime of every thread of *pid*, or None once it is gone."""
    fields = _stat_fields(pid)
    if fields is None:
        return None
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def _proc_table():
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                yield int(name), int(fields[1]), fields


def children(pid: int) -> List[int]:
    return [child for child, ppid, _ in _proc_table() if ppid == pid]


class CpuPoller:
    """Samples the CPU time of a process plus its children every *interval_s*.

    While no child is alive the children are looked up again, so a
    short-lived helper (``platform`` runs ``uname -p``) does not hide the
    service that a campaign starts after it. A process that has ended keeps
    its last reading, so the sum never falls.
    """

    def __init__(self, pid: int, interval_s: float = 0.05) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.samples: List[Tuple[float, float]] = []  # (epoch s, cpu s)
        self.child_seen_at: Optional[float] = None  # when the last child was found
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="cpu-poller", daemon=True)

    def __enter__(self) -> "CpuPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        last: Dict[int, float] = {}
        live: set = set()
        while not self._stop.wait(self.interval_s):
            now = time.time()
            if not live:
                found = set(children(self.pid)) - last.keys()
                if found:
                    self.child_seen_at = now
                    live |= found
            for pid in [self.pid, *live]:
                value = cpu_seconds(pid)
                if value is not None:
                    last[pid] = value
                else:
                    live.discard(pid)
            self.samples.append((now, sum(last.values())))

    def between(self, t_from: float, t_to: float) -> Tuple[float, float, float]:
        """(first sample time >= t_from, last sample time <= t_to, CPU s between)."""
        inside = [s for s in self.samples if t_from <= s[0] <= t_to]
        if len(inside) < 2:
            raise ValueError("fewer than two CPU samples inside the window")
        (t_a, cpu_a), (t_b, cpu_b) = inside[0], inside[-1]
        return t_a, t_b, cpu_b - cpu_a


class SpeedProbe:
    """Times a fixed Python loop, by the CPU time of its own thread, every
    *interval_s*, on the CPU the program shares with it.

    CPU time leaves out the time the hypervisor steals, so a loop's time
    follows how fast the CPU runs Python, not how much of it the guest gets.
    At 5000 steps (0.3-0.4 ms) every 50 ms the probe takes under 1 % of
    that CPU.
    """

    STEPS = 5000

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: List[Tuple[float, float]] = []  # (epoch s, CPU s of one loop)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            began = time.thread_time()
            total = 0
            for i in range(self.STEPS):
                total += i * i
            self.samples.append((time.time(), time.thread_time() - began))

    def median_s(self, t_from: float, t_to: float) -> float:
        """Median loop time of the samples taken between *t_from* and *t_to*."""
        inside = [cpu for t, cpu in self.samples if t_from <= t <= t_to]
        if not inside:
            raise ValueError("no speed sample inside the window")
        return statistics.median(inside)
