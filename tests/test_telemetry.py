"""Telemetry layer: RAPL counter math, procfs sampling, simulated backend, loop."""
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiwatt.errors import CapabilityError, ProcessVanishedError
from antiwatt.telemetry import (
    CPU_PACKAGE,
    DRAM,
    EnergyReading,
    PowerSample,
    ProcSampler,
    RaplPowerSource,
    ResourceSample,
    SimPowerModel,
    SimPowerSource,
    available,
    power_from_deltas,
    run_sampler,
    simulate_power,
)

RANGE = 262_143_328_850  # typical max_energy_range_uj


def reading(energy, t_ms, domain=CPU_PACKAGE, rng=RANGE):
    return EnergyReading(domain=domain, energy_uj=energy, max_range_uj=rng, t=t_ms)


# ---------------------------------------------------------------- counter math


def test_energy_reading_rejects_counter_above_range():
    with pytest.raises(ValueError):
        EnergyReading(domain=CPU_PACKAGE, energy_uj=RANGE + 1, max_range_uj=RANGE, t=0)
    with pytest.raises(ValueError):
        EnergyReading(domain=CPU_PACKAGE, energy_uj=-1, max_range_uj=RANGE, t=0)


def test_power_ten_joules_over_one_second():
    assert power_from_deltas(reading(0, 0), reading(10_000_000, 1000)) == 10.0


def test_power_wrap_five_joules_each_side():
    # counter at max_range - 5 J wraps to 5 J: 10 J over the interval
    prev = reading(RANGE - 5_000_000, 0)
    curr = reading(5_000_000, 1000)
    assert power_from_deltas(prev, curr) == pytest.approx(10.0)


def test_power_magnitude_anchor():
    # 18.74 J in one second is 18.74 W — the scale real package counters move at
    assert power_from_deltas(reading(0, 0), reading(18_740_000, 1000)) == pytest.approx(18.74)


def test_power_rejects_non_positive_dt():
    with pytest.raises(ValueError):
        power_from_deltas(reading(0, 1000), reading(10, 1000))
    with pytest.raises(ValueError):
        power_from_deltas(reading(0, 1000), reading(10, 500))


def test_power_rejects_domain_mismatch():
    with pytest.raises(ValueError):
        power_from_deltas(reading(0, 0), reading(10, 1000, domain=DRAM))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_wrap_reconstruction_in_range(data):
    rng = data.draw(st.integers(min_value=10, max_value=RANGE))
    prev = data.draw(st.integers(min_value=1, max_value=rng))
    curr = data.draw(st.integers(min_value=0, max_value=prev - 1))  # forced wrap
    dt = data.draw(st.integers(min_value=1, max_value=10_000))
    watts = power_from_deltas(reading(prev, 0.0, rng=rng), reading(curr, float(dt), rng=rng))
    delta = rng - prev + curr
    assert 0 <= delta < rng
    assert watts >= 0.0
    assert watts == pytest.approx(delta / (dt * 1000.0))


# ------------------------------------------------------------ powercap fixture


def make_zone(root, rel, name, energy, rng=RANGE):
    z = root / rel
    z.mkdir(parents=True, exist_ok=True)
    (z / "name").write_text(name + "\n")
    (z / "energy_uj").write_text(f"{energy}\n")
    (z / "max_energy_range_uj").write_text(f"{rng}\n")
    return z


@pytest.fixture
def sysfs(tmp_path):
    root = tmp_path / "powercap"
    make_zone(root, "intel-rapl:0", "package-0", 12345)
    make_zone(root, "intel-rapl:0/intel-rapl:0:0", "dram", 777)
    return root


def test_available(sysfs, tmp_path):
    assert available(str(sysfs)) is True
    assert available(str(tmp_path / "absent")) is False


def test_rapl_source_first_sample_primes(sysfs):
    src = RaplPowerSource(sysfs_root=str(sysfs))
    assert src.sample(100.0) is None
    (sysfs / "intel-rapl:0" / "energy_uj").write_text(f"{12345 + 7_000_000}\n")
    (sysfs / "intel-rapl:0" / "intel-rapl:0:0" / "energy_uj").write_text(f"{777 + 1_500_000}\n")
    got = src.sample(101.0)
    assert got.cpu_power_w == pytest.approx(7.0)
    assert got.dram_power_w == pytest.approx(1.5)


def test_rapl_source_corrects_wrap_per_zone(sysfs):
    make_zone(sysfs, "intel-rapl:1", "package-1", RANGE - 2_000_000)
    src = RaplPowerSource(sysfs_root=str(sysfs))
    src.prime(100.0)
    # zone 0 advances 3 J; zone 1 wraps past its range for another 5 J
    (sysfs / "intel-rapl:0" / "energy_uj").write_text(f"{12345 + 3_000_000}\n")
    (sysfs / "intel-rapl:1" / "energy_uj").write_text("3000000\n")
    got = src.sample(101.0)
    assert got.cpu_power_w == pytest.approx(8.0)


def test_rapl_source_requires_package_zone(tmp_path):
    with pytest.raises(CapabilityError):
        RaplPowerSource(sysfs_root=str(tmp_path))


def make_proc(root, pid, proc_jiffies, busy_jiffies):
    (root / str(pid)).mkdir(parents=True, exist_ok=True)
    pad = " ".join(["0"] * 10)
    (root / str(pid) / "stat").write_text(f"{pid} (svc) S {pad} {proc_jiffies} 0 0 0\n")
    idle = 5000
    (root / "stat").write_text(f"cpu {busy_jiffies} 0 0 {idle} 0 0 0 0 0 0\nintr 0\n")


def test_rapl_attribution_scales_by_cpu_share(sysfs, tmp_path):
    proc = tmp_path / "proc"
    make_proc(proc, 42, proc_jiffies=100, busy_jiffies=1000)
    src = RaplPowerSource(target_pid=42, sysfs_root=str(sysfs), proc_root=str(proc))
    src.prime(100.0)
    # interval: process used 50 of 100 busy jiffies, package drew 10 J
    make_proc(proc, 42, proc_jiffies=150, busy_jiffies=1100)
    (sysfs / "intel-rapl:0" / "energy_uj").write_text(f"{12345 + 10_000_000}\n")
    got = src.sample(101.0)
    assert got.cpu_power_w == pytest.approx(5.0)


# ------------------------------------------------------------------- simulated


def rsample(t=0.0, util=0.25):
    return ResourceSample(t=t, cpu_util=util)


def test_simulate_power_constant_model():
    model = SimPowerModel(base_w=5.0, cpu_coeff_w=0.0)
    for util in (0.0, 0.3, 1.0):
        assert simulate_power(model, rsample(util=util), None).cpu_power_w == 5.0


def test_simulate_power_affine_arithmetic():
    model = SimPowerModel(base_w=5.0, cpu_coeff_w=60.0)
    assert simulate_power(model, rsample(util=0.25), None).cpu_power_w == pytest.approx(20.0)
    model_rt = SimPowerModel(base_w=5.0, cpu_coeff_w=0.0, rt_coeff=0.01)
    assert simulate_power(model_rt, rsample(), 300.0).cpu_power_w == pytest.approx(8.0)


def test_simulate_power_clamps_at_zero():
    model = SimPowerModel(base_w=1.0, cpu_coeff_w=0.0, rt_coeff=-1.0)
    assert simulate_power(model, rsample(), 500.0).cpu_power_w == 0.0


def test_simulate_power_deterministic_and_seed_sensitive():
    a = SimPowerModel(base_w=5.0, noise_sd_w=0.5, seed=7)
    b = SimPowerModel(base_w=5.0, noise_sd_w=0.5, seed=8)
    r = rsample(t=1_700_000_123.4)
    assert simulate_power(a, r, 12.0) == simulate_power(a, r, 12.0)
    assert simulate_power(a, r, 12.0) != simulate_power(b, r, 12.0)
    # different seconds draw different noise under the same seed
    assert simulate_power(a, r, 12.0) != simulate_power(a, rsample(t=r.t + 1), 12.0)


def test_sim_model_validation():
    with pytest.raises(ValueError):
        SimPowerModel(base_w=0.0)
    with pytest.raises(ValueError):
        SimPowerModel(noise_sd_w=-0.1)


# ---------------------------------------------------------------------- procfs


@pytest.fixture
def spin_child():
    proc = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        yield proc
    finally:
        proc.terminate()
        proc.wait()


def test_proc_sampler_busy_child_near_full_core(spin_child):
    sampler = ProcSampler(spin_child.pid, core_count=1)
    time.sleep(0.6)
    got = sampler.sample()
    assert 0.5 <= got.cpu_util <= 1.0
    assert got.memory_bytes and got.memory_bytes > 0


def test_proc_sampler_divides_by_core_count(spin_child):
    # emulate the busy-process-on-8-core-host reading
    sampler = ProcSampler(spin_child.pid, core_count=8)
    time.sleep(0.6)
    assert 0.06 <= sampler.sample().cpu_util <= 0.13


def test_proc_sampler_sleeping_child_near_zero():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        time.sleep(0.3)  # skip interpreter start-up burn
        sampler = ProcSampler(proc.pid, core_count=1)
        time.sleep(0.4)
        assert sampler.sample().cpu_util < 0.15
    finally:
        proc.terminate()
        proc.wait()


def test_proc_sampler_disk_write_fixture(tmp_path):
    sampler = ProcSampler(os.getpid())
    before = sampler.sample()
    if before.disk_write_bytes is None:
        pytest.skip("process io accounting not readable here")
    payload = b"x" * (10 * 1024 * 1024)
    with open(tmp_path / "blob.bin", "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    after = sampler.sample()
    assert after.disk_write_bytes - before.disk_write_bytes >= 10 * 1024 * 1024


def test_proc_sampler_cumulative_fields_non_decreasing():
    sampler = ProcSampler(os.getpid())
    a = sampler.sample()
    b = sampler.sample()
    for field_name in ("disk_read_bytes", "disk_write_bytes", "net_rx_bytes", "net_tx_bytes"):
        x, y = getattr(a, field_name), getattr(b, field_name)
        if x is not None and y is not None:
            assert y >= x


def test_proc_sampler_vanished_process():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    sampler = ProcSampler(proc.pid)
    proc.kill()
    proc.wait()
    with pytest.raises(ProcessVanishedError):
        sampler.sample()


def test_proc_sampler_absent_fields_are_none_not_zero(tmp_path):
    # a proc root with only stat present: every optional counter is absent
    make_proc(tmp_path, 99, proc_jiffies=10, busy_jiffies=100)
    sampler = ProcSampler(99, core_count=1, proc_root=str(tmp_path))
    got = sampler.sample()
    assert got.memory_bytes is None
    assert got.disk_read_bytes is None and got.disk_write_bytes is None
    assert got.net_rx_bytes is None and got.net_tx_bytes is None


# ------------------------------------------------------------------------ loop


class FakeTime:
    def __init__(self):
        self.t = 1000.0

    def monotonic(self):
        return self.t

    def wall(self):
        return 1_700_000_000.0 + self.t

    def sleep(self, dt):
        self.t += dt


class StaticResources:
    def __init__(self, ft, util=0.2, stall_on=None, stall_for=0.0):
        self.ft = ft
        self.util = util
        self.calls = 0
        self.stall_on = stall_on
        self.stall_for = stall_for

    def sample(self):
        self.calls += 1
        if self.calls == self.stall_on:
            self.ft.t += self.stall_for
        return ResourceSample(t=self.ft.wall(), cpu_util=self.util)


def run_fake(source, resources, ft, **kw):
    return run_sampler(
        source,
        resources,
        clock=ft.monotonic,
        wall=ft.wall,
        sleep=ft.sleep,
        **kw,
    )


def test_run_sampler_one_pair_per_tick():
    ft = FakeTime()
    res = StaticResources(ft)
    out = run_fake(SimPowerSource(SimPowerModel()), res, ft, max_ticks=10)
    assert len(out.power) == 10
    assert len(out.resources) == 10
    assert out.errors == [] and out.missed_ticks == 0
    gaps = [b.t - a.t for a, b in zip(out.power, out.power[1:])]
    assert all(g == pytest.approx(1.0) for g in gaps)


def test_run_sampler_streams_identical_under_fixed_seed():
    model = SimPowerModel(noise_sd_w=0.4, seed=5)
    runs = []
    for _ in range(2):
        ft = FakeTime()
        runs.append(run_fake(SimPowerSource(model), StaticResources(ft), ft, max_ticks=6).power)
    assert runs[0] == runs[1]


def test_run_sampler_counts_missed_ticks():
    ft = FakeTime()
    res = StaticResources(ft, stall_on=2, stall_for=2.7)
    out = run_fake(SimPowerSource(SimPowerModel()), res, ft, max_ticks=6)
    assert out.missed_ticks == 1
    assert len(out.power) == 5  # one grid slot was skipped, never interpolated


def test_run_sampler_backend_failure_ends_stream_with_record():
    class Flaky:
        calls = 0

        def prime(self, t):
            pass

        def sample(self, t, resource, rt_ms):
            Flaky.calls += 1
            if Flaky.calls == 3:
                raise OSError("counter gone")
            return PowerSample(t=t, cpu_power_w=1.0, dram_power_w=0.0)

    ft = FakeTime()
    out = run_fake(Flaky(), StaticResources(ft), ft, max_ticks=10)
    assert len(out.power) == 2
    assert len(out.errors) == 1 and "counter gone" in out.errors[0]


def test_run_sampler_stop_event_halts_promptly():
    stop = threading.Event()
    out_box = {}

    def work():
        out_box["res"] = run_sampler(
            SimPowerSource(SimPowerModel()),
            None,
            stop_event=stop,
            interval_s=0.05,
        )

    worker = threading.Thread(target=work)
    worker.start()
    time.sleep(0.3)
    stop.set()
    worker.join(timeout=2.0)
    assert not worker.is_alive()
    assert 2 <= len(out_box["res"].power) <= 12


def test_run_sampler_rt_provider_feeds_simulation():
    model = SimPowerModel(base_w=5.0, cpu_coeff_w=0.0, rt_coeff=0.01)
    ft = FakeTime()
    out = run_fake(
        SimPowerSource(model),
        StaticResources(ft),
        ft,
        max_ticks=3,
        rt_provider=lambda: 200.0,
    )
    assert [p.cpu_power_w for p in out.power] == pytest.approx([7.0, 7.0, 7.0])
