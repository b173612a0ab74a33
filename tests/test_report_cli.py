"""Report bundle serialization and the antiwatt CLI."""
import csv
import dataclasses
import hashlib
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import antiwatt.cli as cli
from antiwatt.loadgen import LoadPlan
from antiwatt.reporting import (
    REPORT_NAME,
    ReportBundle,
    display_name,
    render_report,
    write_bundle,
)
from antiwatt.stats.campaign import analyze_campaign
from antiwatt.synthetic import generate_campaign, synthetic_plan
from antiwatt.workload import AntipatternKind, WorkloadConfig, default_config
from antiwatt.workload.service import build_arg_parser, config_from_args, serve, service_argv


def read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_header(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    plan = synthetic_plan(root / "runs", duration_s=90.0, warmup_s=15.0, repetitions=2)
    result = generate_campaign(plan, seed=11)
    analysis = analyze_campaign(result.artifacts)
    return analysis, write_bundle(analysis, root / "report")


def test_bundle_contains_all_tables_and_traces(bundle):
    analysis, b = bundle
    for name in (
        "descriptive.csv",
        "correlations.csv",
        "regression.csv",
        "energy.csv",
        "diagnostics.csv",
        "runs.csv",
    ):
        assert (b.directory / name).is_file()
    assert b.report_path.is_file()
    traces = b.trace_paths()
    assert [p.parent.name for p in traces] == ["rep-0", "rep-1"]


def test_csv_headers_are_exact(bundle):
    _, b = bundle
    expected = {
        "descriptive.csv": [
            "experiment", "rt_mean_ms", "rt_min_ms", "rt_max_ms",
            "cpu_mean_w", "cpu_min_w", "cpu_max_w",
            "dram_mean_w", "dram_min_w", "dram_max_w",
        ],
        "correlations.csv": [
            "experiment", "cpu_pearson_r", "cpu_spearman_rho", "cpu_sign_agreement",
            "dram_pearson_r", "dram_spearman_rho", "dram_sign_agreement",
        ],
        "regression.csv": [
            "experiment", "model", "beta_lat", "ci_low", "ci_high",
            "p_lat", "decision", "n", "r_squared", "alpha",
        ],
        "energy.csv": ["experiment", "cpu_kj", "dram_kj"],
        "diagnostics.csv": [
            "experiment", "model", "test", "statistic", "p_value", "null_rejected",
        ],
    }
    for name, header in expected.items():
        assert read_header(b.directory / name) == header, name
    assert read_header(b.trace_paths()[0]) == [
        "t_s", "rt_ms", "req_rate", "failures",
        "cpu_util", "memory_bytes", "cpu_power_w", "dram_power_w",
    ]


def test_regression_rows_one_per_model_with_valid_tokens(bundle):
    _, b = bundle
    rows = read_rows(b.directory / "regression.csv")
    assert [r["model"] for r in rows] == ["cpu", "dram"]
    for row in rows:
        assert row["decision"] in {"keep", "reject_up", "reject_down"}
        assert row["experiment"] == "Unnecessary Processing"
        float(row["beta_lat"]), float(row["p_lat"])  # parse as numbers


def test_csv_files_use_lf_and_no_trailing_space(bundle):
    _, b = bundle
    for name in ("regression.csv", "runs.csv", "energy.csv"):
        raw = (b.directory / name).read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_report_md_embeds_the_csv_numbers(bundle):
    _, b = bundle
    text = b.report_path.read_text(encoding="utf-8")
    reg = read_rows(b.directory / "regression.csv")
    desc = read_rows(b.directory / "descriptive.csv")[0]
    energy = read_rows(b.directory / "energy.csv")[0]
    for row in reg:
        assert row["beta_lat"] in text
        assert row["p_lat"] in text
    assert desc["rt_mean_ms"] in text
    assert energy["cpu_kj"] in text
    display = {"keep": "Keep", "reject_up": "Reject ↑", "reject_down": "Reject ↓"}
    for row in reg:
        assert display[row["decision"]] in text


def test_report_header_names_the_experiment(bundle):
    _, b = bundle
    first = b.report_path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "# Unnecessary Processing — campaign report"


def test_rerender_is_byte_identical(bundle):
    _, b = bundle
    original = b.report_path.read_bytes()
    assert render_report(b.directory).encode() == original


def test_reanalysis_reproduces_every_file_byte_for_byte(tmp_path):
    plan = synthetic_plan(tmp_path / "runs", duration_s=60.0, warmup_s=10.0, repetitions=2)
    result = generate_campaign(plan, seed=5)
    first = write_bundle(analyze_campaign(result.artifacts), tmp_path / "a")
    second = write_bundle(analyze_campaign(result.artifacts), tmp_path / "b")
    names = sorted(
        p.relative_to(first.directory).as_posix()
        for p in first.directory.rglob("*")
        if p.is_file()
    )
    assert names, "bundle unexpectedly empty"
    for name in names:
        assert (first.directory / name).read_bytes() == (
            second.directory / name
        ).read_bytes(), name


def test_timeline_covers_untrimmed_run(bundle):
    analysis, b = bundle
    rows = read_rows(b.trace_paths()[0])
    assert len(rows) == 90  # full run, warm-up included
    ts = [int(r["t_s"]) for r in rows]
    assert ts == sorted(set(ts))
    # warm-up rows are present, so some response times exceed the steady band
    rts = [float(r["rt_ms"]) for r in rows if r["rt_ms"]]
    assert max(rts) > 90


def test_render_missing_tables_raises(tmp_path):
    (tmp_path / "descriptive.csv").write_text("experiment\nX\n")
    with pytest.raises(ValueError, match="regression.csv"):
        render_report(tmp_path)


def test_render_notes_missing_traces(bundle, tmp_path):
    _, b = bundle
    clone = tmp_path / "clone"
    clone.mkdir()
    for name in (
        "descriptive.csv", "correlations.csv", "regression.csv",
        "energy.csv", "diagnostics.csv", "runs.csv",
    ):
        (clone / name).write_bytes((b.directory / name).read_bytes())
    text = render_report(clone)
    assert "No timeline data present" in text


def test_display_name():
    assert display_name("one-lane-bridge") == "One Lane Bridge"
    assert display_name("god-class") == "God Class"


# ------------------------------------------------------------------ CLI


def test_cli_unknown_slug_is_usage_error_listing_choices():
    proc = subprocess.run(
        [sys.executable, "-m", "antiwatt", "campaign", "--antipattern", "bogus",
         "--backend", "sim"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    for slug in ("the-ramp", "one-lane-bridge", "god-class", "traffic-jam"):
        assert slug in proc.stderr


def test_cli_requires_backend():
    proc = subprocess.run(
        [sys.executable, "-m", "antiwatt", "campaign", "--antipattern", "the-ramp"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "--backend" in proc.stderr


def _loaded_after(code: str, module: str) -> bool:
    """Run ``code`` in a fresh interpreter; is ``module`` imported at its end?"""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip().splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ["antiwatt.cli", "antiwatt.workload.service"])
def test_importing_an_entry_point_leaves_scipy_unloaded(module):
    assert not _loaded_after(f"import {module}", "scipy")


@pytest.mark.parametrize(
    "module",
    ["numpy", "http.server", "urllib.request", "antiwatt.fixture", "antiwatt.workload.service"],
)
def test_importing_the_cli_leaves_unloaded(module):
    assert not _loaded_after("import antiwatt.cli", module)


def test_a_sim_campaign_leaves_numpy_unloaded(tmp_path):
    args = ["campaign", "--antipattern", "unnecessary-processing", "--backend", "sim",
            "--users", "1", "--duration", "2", "--warmup", "0", "--cooldown", "0",
            "--settle", "0", "--reps", "1", "--iterations", "1", "--out", str(tmp_path / "runs")]
    assert not _loaded_after(f"import antiwatt.cli as cli\nassert cli.main({args!r}) == 0", "numpy")


def _analyze_then_report(tmp_path, module: str):
    """Is ``module`` loaded after ``antiwatt analyze``, and after ``antiwatt report``?"""
    plan = synthetic_plan(tmp_path / "runs", duration_s=60.0, warmup_s=10.0,
                          repetitions=1)
    generate_campaign(plan, seed=3)
    runs = tmp_path / "runs"
    run = "import antiwatt.cli as cli\nassert cli.main({!r}) == 0"
    return (_loaded_after(run.format(["analyze", str(runs)]), module),
            _loaded_after(run.format(["report", str(runs / "report")]), module))


def test_only_analyze_loads_scipy(tmp_path):
    assert _analyze_then_report(tmp_path, "scipy") == (True, False)


def test_only_analyze_loads_numpy(tmp_path):
    assert _analyze_then_report(tmp_path, "numpy") == (True, False)


def test_the_service_module_runs_once_under_dash_m():
    # a package __init__ that imported .service would make runpy warn that
    # the module is already in sys.modules and then execute it a second time
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "antiwatt.workload.service", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["antiwatt.stats.campaign", "antiwatt.reporting"])
def test_the_analysis_layer_does_not_import_the_orchestrator(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}\nprint('antiwatt.orchestrator' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


# sha256 of every bundle file of the campaign below: a change to these bytes
# is a change to what the report says, and needs a reason
PINNED_BUNDLE = {
    "correlations.csv": "696bd553c971532c3ddeccb824e9ddce074f05e9e50be24c012db2dead0cd671",
    "descriptive.csv": "32de42c86914ef9a7cde2d37f31395731ecc16a9bbe51782e7e78f98e2d6f27d",
    "diagnostics.csv": "6cffdc2f6a40d6940483f85cc30985b92dc322f0cff76df451a6fb404afbf4f3",
    "energy.csv": "17d68e93f6c2d1b1e278ecdc5d87446935bad5bc2431d4ea4293d921e6306930",
    "regression.csv": "b45c7778b64832a91bfc9f50f24bff59a08877a0fad5308dd6cd53be6bca0e51",
    "report.md": "7b9df864c18c715ac7b0034e934f4962f5ac59e09ff377d3d50b4cfb78f6a59f",
    "runs.csv": "ca08eceb010f8d56f2519d930ccc742f1b7d56a037b9ff0c9e1aa4d0f9dc8b20",
    "traces/rep-0/timeline.csv": "a276c3b8d9a884e0a38884460e9c71ab29e13b3b8035349f243da9e81f41a383",
    "traces/rep-2/timeline.csv": "38dade3560b030bc0dd1a6e2fa37a0322d6bbc3b45f3372f37e3e8fb29f8a643",
}


def test_bundle_bytes_are_pinned(tmp_path):
    plan = synthetic_plan(tmp_path / "runs", duration_s=60, warmup_s=10, repetitions=3, seed=5)
    generate_campaign(plan, seed=5, fail_reps={1})
    out = tmp_path / "bundle"
    assert cli.main(["analyze", str(tmp_path / "runs"), "--out", str(out)]) == 0
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert got == PINNED_BUNDLE


def test_cli_real_backend_checks_capability_first(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "rapl_available", lambda: False)
    rc = cli.main([
        "campaign", "--antipattern", "the-ramp", "--backend", "real",
        "--out", str(tmp_path / "runs"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "--backend sim" in err
    assert not (tmp_path / "runs").exists(), "no trial should have started"


def test_cli_analyze_missing_dir_is_usage_error(tmp_path, capsys):
    rc = cli.main(["analyze", str(tmp_path / "nope")])
    assert rc == 2
    assert "no such campaign" in capsys.readouterr().err


def test_cli_analyze_all_failed_campaign_is_runtime_error(tmp_path, capsys):
    plan = synthetic_plan(tmp_path / "runs", duration_s=30.0, warmup_s=5.0,
                          repetitions=2)
    generate_campaign(plan, seed=1, fail_reps=(0, 1))
    rc = cli.main(["analyze", str(tmp_path / "runs")])
    assert rc == 4
    assert "no valid" in capsys.readouterr().err


def _campaign_with_memory(tmp_path, memory_of_row):
    """A one-rep synthetic campaign whose resources.csv memory column is
    replaced row by row (``memory_of_row(i, rows)`` for data row i)."""
    plan = synthetic_plan(tmp_path / "runs", duration_s=30.0, warmup_s=5.0,
                          repetitions=1)
    generate_campaign(plan, seed=1)
    resources = tmp_path / "runs" / "rep-0" / "resources.csv"
    with open(resources, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("memory_bytes")
    for i, row in enumerate(rows[1:]):
        row[column] = str(memory_of_row(i, len(rows) - 1))
    with open(resources, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return tmp_path / "runs"


def _analyze_keeps_cpu_and_names_dram_reason(runs):
    assert cli.main(["analyze", str(runs)]) == 0
    bundle_dir = runs / "report"
    cpu, dram = read_rows(bundle_dir / "regression.csv")
    assert cpu["model"] == "cpu" and cpu["decision"] in ("keep", "reject_up", "reject_down")
    float(cpu["beta_lat"]), float(cpu["p_lat"])  # estimated: numbers, not blanks
    assert dram["model"] == "dram"
    assert dram["decision"].startswith("not_estimated: ")
    assert dram["beta_lat"] == dram["ci_low"] == dram["ci_high"] == dram["p_lat"] == ""
    assert dram["r_squared"] == "" and dram["n"] == cpu["n"]
    assert {row["model"] for row in read_rows(bundle_dir / "diagnostics.csv")} == {"cpu"}
    reason = dram["decision"].split(": ", 1)[1]
    report = (bundle_dir / REPORT_NAME).read_text(encoding="utf-8")
    assert f"- DRAM not estimated: {reason}" in report
    assert "| DRAM |  |  |  |  | Not estimated |" in report
    before = (bundle_dir / REPORT_NAME).read_bytes()
    assert cli.main(["report", str(bundle_dir)]) == 0
    assert (bundle_dir / REPORT_NAME).read_bytes() == before
    return reason


def test_cli_analyze_flat_memory_column_reports_dram_not_estimated(tmp_path):
    runs = _campaign_with_memory(tmp_path, lambda i, n: 26202112)  # an RSS that never moves
    reason = _analyze_keeps_cpu_and_names_dram_reason(runs)
    assert reason == "design matrix is singular; offending column: memory_bytes"


def test_cli_analyze_memory_stepping_once_reports_dram_not_estimated(tmp_path):
    # the RSS grows by one page in the last second only, so that row alone
    # carries the memory column and fits itself exactly (leverage 1)
    runs = _campaign_with_memory(
        tmp_path, lambda i, n: 26202112 + (4096 if i == n - 1 else 0)
    )
    reason = _analyze_keeps_cpu_and_names_dram_reason(runs)
    assert reason == "HC3 undefined: a leverage-1 point fits itself exactly"


def test_cli_report_on_non_bundle_is_runtime_error(tmp_path, capsys):
    rc = cli.main(["report", str(tmp_path)])
    assert rc == 4
    assert "missing" in capsys.readouterr().err


def test_cli_analyze_then_report_round_trip(tmp_path, capsys):
    plan = synthetic_plan(tmp_path / "runs", duration_s=60.0, warmup_s=10.0,
                          repetitions=2)
    generate_campaign(plan, seed=3)
    assert cli.main(["analyze", str(tmp_path / "runs")]) == 0
    bundle_dir = tmp_path / "runs" / "report"
    before = (bundle_dir / REPORT_NAME).read_bytes()
    assert cli.main(["report", str(bundle_dir)]) == 0
    assert (bundle_dir / REPORT_NAME).read_bytes() == before


def test_cli_analyze_respects_out_and_alpha(tmp_path):
    plan = synthetic_plan(tmp_path / "runs", duration_s=60.0, warmup_s=10.0,
                          repetitions=2)
    generate_campaign(plan, seed=3)
    out = tmp_path / "elsewhere"
    assert cli.main(["analyze", str(tmp_path / "runs"), "--out", str(out),
                     "--alpha", "0.01"]) == 0
    rows = read_rows(out / "regression.csv")
    assert rows[0]["alpha"] == "0.01"
    assert not (tmp_path / "runs" / "report").exists()


def test_cli_analyze_does_not_touch_campaign_inputs(tmp_path):
    plan = synthetic_plan(tmp_path / "runs", duration_s=60.0, warmup_s=10.0,
                          repetitions=1)
    generate_campaign(plan, seed=9)
    rep = tmp_path / "runs" / "rep-0"
    before = {p.name: p.read_bytes() for p in rep.iterdir()}
    cli.main(["analyze", str(tmp_path / "runs"), "--out", str(tmp_path / "out")])
    after = {p.name: p.read_bytes() for p in rep.iterdir()}
    assert before == after


def test_cli_global_seed_reaches_the_plan(tmp_path, monkeypatch):
    captured = {}

    def fake_run_campaign(plan):
        captured["plan"] = plan
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
    with pytest.raises(SystemExit):
        cli.main(["--seed", "7", "campaign", "--antipattern", "the-ramp",
                  "--backend", "sim", "--out", str(tmp_path)])
    plan = captured["plan"]
    assert plan.workload.dataset_seed == 7
    assert plan.sim_model.seed == 7
    assert plan.load.target_users == 50  # the-ramp default


def test_cli_campaign_defaults(monkeypatch, tmp_path):
    captured = {}

    def fake_run_campaign(plan):
        captured["plan"] = plan
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
    with pytest.raises(SystemExit):
        cli.main(["campaign", "--antipattern", "unbalanced-processing",
                  "--backend", "sim", "--out", str(tmp_path)])
    plan = captured["plan"]
    assert plan.load.duration_s == 180.0
    assert plan.warmup_s == 30.0
    assert plan.repetitions == 5
    assert plan.load.target_users == 10  # unbalanced-processing default
    assert plan.load.spawn_rate == 1.0
    assert plan.power_backend == "sim"


def test_cli_campaign_user_defaults_per_antipattern(monkeypatch, tmp_path):
    captured = {}

    def fake_run_campaign(plan):
        captured["plan"] = plan
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
    expected = {
        "the-ramp": 50,
        "god-class": 50,
        "unbalanced-processing": 10,
        "unnecessary-processing": 30,
        "traffic-jam": 30,
    }
    for slug, users in expected.items():
        with pytest.raises(SystemExit):
            cli.main(["campaign", "--antipattern", slug, "--backend", "sim",
                      "--out", str(tmp_path)])
        assert captured["plan"].load.target_users == users, slug


def test_cli_serve_delegates_all_flags(monkeypatch):
    seen = {}

    def fake_run_service(argv):
        seen["argv"] = argv
        return 0

    monkeypatch.setattr("antiwatt.workload.service.run_service", fake_run_service)
    rc = cli.main(["serve", "--antipattern", "god-class", "--port", "8123",
                   "--seed", "7", "--scale", "2", "--host", "127.0.0.2",
                   "--pin-core", "off"])
    assert rc == 0
    argv = seen["argv"]
    pairs = dict(zip(argv[::2], argv[1::2]))
    assert pairs["--antipattern"] == "god-class"
    assert pairs["--port"] == "8123"
    assert pairs["--seed"] == "7"
    assert pairs["--scale"] == "2"
    assert pairs["--host"] == "127.0.0.2"
    assert pairs["--pin-core"] == "off"
    assert "--iterations" not in pairs  # unset optionals stay unset


@pytest.mark.parametrize(
    "cfg",
    [default_config(kind, dataset_seed=7, dataset_scale=2) for kind in AntipatternKind]
    + [default_config(AntipatternKind.GOD_CLASS, dataset_seed=7, dataset_scale=2, iterations=123)],
    ids=[kind.slug for kind in AntipatternKind] + ["god-class-iterations-123"],
)
def test_service_argv_round_trips_through_the_service_parser(cfg):
    assert config_from_args(build_arg_parser().parse_args(service_argv(cfg, "off"))) == cfg


def test_every_service_flag_is_one_a_campaign_passes_or_a_deployment_setting():
    # a flag only `antiwatt serve` can pass would let a service do work its
    # campaign's plan does not name
    emitted = set(service_argv(default_config(AntipatternKind.GOD_CLASS), "off")[::2])
    allowed = emitted | {"--host", "--port", "-h", "--help"}
    for action in build_arg_parser()._actions:
        assert set(action.option_strings) <= allowed, action.option_strings


def test_every_workload_config_field_is_one_a_campaign_sets():
    # the other per-kind parameters are constants in workload/config.py
    names = [f.name for f in dataclasses.fields(WorkloadConfig)]
    assert names == ["kind", "iterations", "dataset_seed", "dataset_scale"]


def test_cli_serve_rejects_a_removed_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "antiwatt", "serve", "--antipattern", "god-class",
         "--workers", "8"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert "--workers" in proc.stderr


def test_cli_serve_announce_echoes_seed_and_scale(tmp_path):
    import json
    import signal

    proc = subprocess.Popen(
        [sys.executable, "-m", "antiwatt", "serve", "--antipattern", "god-class",
         "--port", "0", "--seed", "7", "--scale", "2", "--pin-core", "off"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        announce = json.loads(proc.stdout.readline())
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    assert announce["event"] == "listening"
    assert announce["config"]["dataset_seed"] == 7
    assert announce["config"]["dataset_scale"] == 2


def test_cli_load_against_live_service(tmp_path):
    cfg = default_config(AntipatternKind.UNNECESSARY_PROCESSING, iterations=200)
    server = serve(cfg, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/unnecessary-processing"
        urllib.request.urlopen(url, timeout=5).read()
        out = tmp_path / "req.csv"
        rc = cli.main(["load", "--endpoint", url, "--users", "2",
                       "--spawn-rate", "2", "--duration", "2",
                       "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows and all(r["success"] == "true" for r in rows)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_cli_sim_campaign_end_to_end(tmp_path):
    runs = tmp_path / "runs"
    rc = cli.main([
        "campaign", "--antipattern", "unnecessary-processing", "--backend", "sim",
        "--users", "2", "--duration", "16", "--warmup", "4", "--cooldown", "0",
        "--settle", "0.2", "--reps", "1", "--out", str(runs), "--seed", "2",
    ])
    assert rc == 0
    assert (runs / "manifest.txt").read_text().splitlines() == ["rep-0 ok"]
    assert cli.main(["analyze", str(runs)]) == 0
    rows = read_rows(runs / "report" / "regression.csv")
    assert rows[0]["model"] == "cpu" and rows[1]["model"] == "dram"


def test_cli_desk_scale_campaign_finds_planted_positive_coefficient(tmp_path):
    """3 reps x 60 s, sim power with a strong planted rt term -> reject_up."""
    runs = tmp_path / "runs"
    t0 = time.monotonic()
    rc = cli.main([
        "campaign", "--antipattern", "the-ramp", "--backend", "sim",
        "--users", "6", "--duration", "60", "--warmup", "10", "--cooldown", "0",
        "--settle", "0.5", "--reps", "3", "--out", str(runs), "--seed", "4",
        "--rt-coeff", "0.2",
    ])
    elapsed = time.monotonic() - t0
    assert rc == 0
    assert elapsed < 300, f"desk campaign took {elapsed:.0f}s"
    manifest = (runs / "manifest.txt").read_text().splitlines()
    assert manifest == ["rep-0 ok", "rep-1 ok", "rep-2 ok"]
    assert cli.main(["analyze", str(runs)]) == 0
    rows = read_rows(runs / "report" / "regression.csv")
    cpu = next(r for r in rows if r["model"] == "cpu")
    assert cpu["decision"] == "reject_up", cpu
    assert float(cpu["beta_lat"]) > 0
