"""The traced benchmark run (perfbench/traced.py) still works on the program.

The benchmark's per-layer metrics take medians of what traced.py's hooks
record: a load run from its wrapper of loadgen.run_load, and each sampler
tick's lateness and cost from its wrappers of ProcSampler.sample and
SimPowerSource.sample. A change that stops those calls leaves the lists
empty, and the traced benchmark run then fails; this test catches that.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_floor_campaign_records_every_layer(tmp_path):
    out = tmp_path / "traced.json"
    campaign = tmp_path / "campaign"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "perfbench/traced.py", str(out), "--",
         "campaign", "--antipattern", "unnecessary-processing", "--backend", "sim",
         "--users", "1", "--spawn-rate", "100", "--duration", "3", "--warmup", "0",
         "--settle", "0", "--cooldown", "0", "--reps", "1", "--rt-coeff", "0",
         "--noise-sd-w", "0", "--seed", "1", "--out", str(campaign), "--iterations", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["exit_code"] == 0
    [load] = result["loads"]
    assert load["services"] == 1 and load["ok"] > 0
    assert len(result["tick_cost_ms"]) >= 2
    assert len(result["tick_late_ms"]) >= 2
    meta = json.loads((campaign / "rep-0" / "meta.json").read_text(encoding="utf-8"))
    assert meta["sampler"]["errors"] == []
    for name in ["telemetry.SimPowerSource.sample", "telemetry.ProcSampler.sample",
                 "telemetry.run_sampler", "loadgen.run_load", "loadgen.write_requests_csv"]:
        assert result["calls"][name]["calls"] >= 1, name
