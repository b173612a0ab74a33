"""Report bundle: machine-readable CSV tables plus a Markdown rendering.

One campaign → one bundle directory holding descriptive.csv,
correlations.csv, regression.csv, energy.csv, diagnostics.csv, runs.csv,
traces/<rep>/timeline.csv, and report.md.  The Markdown is rendered *from*
the CSV files, so the two can never disagree, and nothing here embeds a
timestamp — re-analysis of the same inputs is byte-identical.

Formatting mirrors the published tables: coefficients and p-values to six
decimals, powers to two, energies (kJ) to six, correlations to three.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Union

from .stats.campaign import CampaignAnalysis, ModelReport
from .stats.regression import DECISION_DISPLAY, NOT_ESTIMATED

DESCRIPTIVE_NAME = "descriptive.csv"
CORRELATIONS_NAME = "correlations.csv"
REGRESSION_NAME = "regression.csv"
ENERGY_NAME = "energy.csv"
DIAGNOSTICS_NAME = "diagnostics.csv"
RUNS_NAME = "runs.csv"
TRACES_DIR = "traces"
REPORT_NAME = "report.md"

_TABLE_FILES = (
    DESCRIPTIVE_NAME,
    CORRELATIONS_NAME,
    REGRESSION_NAME,
    ENERGY_NAME,
    DIAGNOSTICS_NAME,
    RUNS_NAME,
)


def display_name(slug: str) -> str:
    return slug.replace("-", " ").title()


def _f2(x: float) -> str:
    return f"{x:.2f}"


def _f3(x: float) -> str:
    return f"{x:.3f}"


def _f6(x: float) -> str:
    return f"{x:.6f}"


def _fb(flag: bool) -> str:
    return "true" if flag else "false"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _estimate_cells(model: ModelReport) -> List[str]:
    """beta_lat, ci_low, ci_high, p_lat and decision of one regression.csv row."""
    if model.not_estimated is not None:
        return ["", "", "", "", f"{NOT_ESTIMATED}: {model.not_estimated}"]
    inference = model.rt_inference
    return [
        _f6(inference.beta),
        _f6(inference.ci_low),
        _f6(inference.ci_high),
        _f6(inference.p_value),
        inference.decision,
    ]


@dataclass(frozen=True)
class ReportBundle:
    directory: Path

    @property
    def report_path(self) -> Path:
        return self.directory / REPORT_NAME

    def trace_paths(self) -> List[Path]:
        root = self.directory / TRACES_DIR
        if not root.is_dir():
            return []
        return sorted(root.glob("*/timeline.csv"))


def write_bundle(analysis: CampaignAnalysis, out_dir: Union[str, Path]) -> ReportBundle:
    """Serialize *analysis* into a bundle directory (created if needed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    experiment = display_name(analysis.antipattern)

    d = analysis.descriptives
    _write_csv(
        out / DESCRIPTIVE_NAME,
        [
            "experiment",
            "rt_mean_ms",
            "rt_min_ms",
            "rt_max_ms",
            "cpu_mean_w",
            "cpu_min_w",
            "cpu_max_w",
            "dram_mean_w",
            "dram_min_w",
            "dram_max_w",
        ],
        [
            [
                experiment,
                _f2(d["rt_ms"].mean),
                _f2(d["rt_ms"].minimum),
                _f2(d["rt_ms"].maximum),
                _f2(d["cpu_power_w"].mean),
                _f2(d["cpu_power_w"].minimum),
                _f2(d["cpu_power_w"].maximum),
                _f2(d["dram_power_w"].mean),
                _f2(d["dram_power_w"].minimum),
                _f2(d["dram_power_w"].maximum),
            ]
        ],
    )

    cpu_corr = analysis.correlations["cpu_power_vs_rt"]
    dram_corr = analysis.correlations["dram_power_vs_rt"]
    _write_csv(
        out / CORRELATIONS_NAME,
        [
            "experiment",
            "cpu_pearson_r",
            "cpu_spearman_rho",
            "cpu_sign_agreement",
            "dram_pearson_r",
            "dram_spearman_rho",
            "dram_sign_agreement",
        ],
        [
            [
                experiment,
                _f3(cpu_corr.pearson_r),
                _f3(cpu_corr.spearman_rho),
                _fb(cpu_corr.sign_agreement),
                _f3(dram_corr.pearson_r),
                _f3(dram_corr.spearman_rho),
                _fb(dram_corr.sign_agreement),
            ]
        ],
    )

    _write_csv(
        out / REGRESSION_NAME,
        [
            "experiment",
            "model",
            "beta_lat",
            "ci_low",
            "ci_high",
            "p_lat",
            "decision",
            "n",
            "r_squared",
            "alpha",
        ],
        [
            [
                experiment,
                model.name,
                *_estimate_cells(model),
                str(model.n),
                "" if model.r_squared is None else _f6(model.r_squared),
                f"{analysis.alpha:g}",
            ]
            for model in analysis.models
        ],
    )

    _write_csv(
        out / ENERGY_NAME,
        ["experiment", "cpu_kj", "dram_kj"],
        [[experiment, _f6(analysis.mean_cpu_energy_kj), _f6(analysis.mean_dram_energy_kj)]],
    )

    _write_csv(
        out / DIAGNOSTICS_NAME,
        ["experiment", "model", "test", "statistic", "p_value", "null_rejected"],
        [
            [
                experiment,
                model.name,
                diag.test,
                _f6(diag.statistic),
                _f6(diag.p_value),
                _fb(diag.null_rejected),
            ]
            for model in analysis.models
            if model.not_estimated is None
            for diag in (model.breusch_pagan, model.anderson_darling)
        ],
    )

    _write_csv(
        out / RUNS_NAME,
        [
            "rep",
            "rows",
            "mean_rt_ms",
            "mean_cpu_power_w",
            "mean_dram_power_w",
            "cpu_energy_kj",
            "dram_energy_kj",
            "zero_failures",
            "cpu_floor",
            "valid",
            "failure_count",
            "mean_cpu_util",
        ],
        [
            [
                run.name,
                str(run.rows),
                _f2(run.mean_rt_ms),
                _f2(run.mean_cpu_power_w),
                _f2(run.mean_dram_power_w),
                _f6(run.cpu_energy_kj),
                _f6(run.dram_energy_kj),
                _fb(run.validity.zero_failures),
                _fb(run.validity.cpu_floor),
                _fb(run.validity.valid),
                str(run.validity.failure_count),
                f"{run.validity.mean_cpu_util:.4f}",
            ]
            for run in analysis.runs
        ],
    )

    for name, rows in analysis.timelines:
        trace_dir = out / TRACES_DIR / name
        trace_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(
            trace_dir / "timeline.csv",
            [
                "t_s",
                "rt_ms",
                "req_rate",
                "failures",
                "cpu_util",
                "memory_bytes",
                "cpu_power_w",
                "dram_power_w",
            ],
            [
                [
                    str(row.t),
                    "" if row.rt_ms is None else f"{row.rt_ms:.3f}",
                    str(row.req_rate),
                    str(row.failures),
                    "" if row.cpu_util is None else f"{row.cpu_util:.6f}",
                    "" if row.memory_bytes is None else str(row.memory_bytes),
                    "" if row.cpu_power_w is None else _f6(row.cpu_power_w),
                    "" if row.dram_power_w is None else _f6(row.dram_power_w),
                ]
                for row in rows
            ],
        )

    bundle = ReportBundle(out)
    bundle.report_path.write_text(render_report(out), encoding="utf-8")
    return bundle


# ----------------------------------------------------------- markdown layer


def _read_table(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def _corr_cell(value: str, agree: str) -> str:
    # agreement between the two coefficients is marked with emphasis, the
    # Markdown stand-in for the published tables' underlines
    return f"_{value}_" if agree == "true" else value


def render_report(bundle_dir: Union[str, Path]) -> str:
    """Markdown report assembled from the bundle's CSV files.

    Every number comes from the CSVs, never from a live analysis object, so
    `antiwatt report` reproduces the exact bytes `antiwatt analyze` wrote.
    """
    root = Path(bundle_dir)
    missing = [name for name in _TABLE_FILES if not (root / name).exists()]
    if missing:
        raise ValueError(f"{root} is not a report bundle; missing {', '.join(missing)}")

    descriptive = _read_table(root / DESCRIPTIVE_NAME)[0]
    correlations = _read_table(root / CORRELATIONS_NAME)[0]
    regressions = _read_table(root / REGRESSION_NAME)
    energy = _read_table(root / ENERGY_NAME)[0]
    diagnostics = _read_table(root / DIAGNOSTICS_NAME)
    runs = _read_table(root / RUNS_NAME)
    experiment = descriptive["experiment"]

    lines: List[str] = [f"# {experiment} — campaign report", ""]
    lines += [
        f"{len(runs)} repetitions pooled, {regressions[0]['n']} aligned seconds, "
        f"α = {regressions[0]['alpha']}",
        "",
    ]

    lines += ["## Descriptive statistics", ""]
    lines += _md_table(
        [
            "Experiment",
            "RT x̄ (ms)",
            "RT max (ms)",
            "CPU x̄ (W)",
            "CPU max (W)",
            "DRAM x̄ (W)",
            "DRAM min (W)",
            "DRAM max (W)",
        ],
        [
            [
                experiment,
                descriptive["rt_mean_ms"],
                descriptive["rt_max_ms"],
                descriptive["cpu_mean_w"],
                descriptive["cpu_max_w"],
                descriptive["dram_mean_w"],
                descriptive["dram_min_w"],
                descriptive["dram_max_w"],
            ]
        ],
    )
    lines += ["", "Minimum response time and minimum CPU power are in descriptive.csv.", ""]

    lines += ["## Correlation with response time", ""]
    lines += _md_table(
        ["Experiment", "CPU Pearson r", "CPU Spearman ρ", "DRAM Pearson r", "DRAM Spearman ρ"],
        [
            [
                experiment,
                _corr_cell(correlations["cpu_pearson_r"], correlations["cpu_sign_agreement"]),
                _corr_cell(correlations["cpu_spearman_rho"], correlations["cpu_sign_agreement"]),
                _corr_cell(correlations["dram_pearson_r"], correlations["dram_sign_agreement"]),
                _corr_cell(correlations["dram_spearman_rho"], correlations["dram_sign_agreement"]),
            ]
        ],
    )
    lines += ["", "_Emphasized_ pairs share the same sign (Pearson and Spearman agree).", ""]

    lines += ["## Power vs response time (OLS with HC3 errors)", ""]
    table_rows, not_estimated = [], []
    for row in regressions:
        decision, _, reason = row["decision"].partition(": ")
        if decision == NOT_ESTIMATED:
            not_estimated.append(f"- {row['model'].upper()} not estimated: {reason}")
        table_rows.append(
            [
                experiment,
                row["model"].upper(),
                row["beta_lat"],
                row["ci_low"],
                row["ci_high"],
                row["p_lat"],
                DECISION_DISPLAY.get(decision, decision),
            ]
        )
    lines += _md_table(
        ["Experiment", "Model", "β_lat", "CI low", "CI high", "p_lat", "Decision"], table_rows
    )
    lines += [""]
    if not_estimated:
        lines += not_estimated + [""]

    lines += ["## Residual diagnostics", ""]
    lines += _md_table(
        ["Model", "Test", "Statistic", "p-value", "Null rejected"],
        [
            [row["model"].upper(), row["test"], row["statistic"], row["p_value"], row["null_rejected"]]
            for row in diagnostics
        ],
    )
    lines += [""]

    lines += ["## Energy (trapezoidal, mean over repetitions)", ""]
    lines += _md_table(
        ["Experiment", "CPU (kJ)", "DRAM (kJ)"],
        [[experiment, energy["cpu_kj"], energy["dram_kj"]]],
    )
    lines += [""]

    lines += ["## Run validity", ""]
    lines += _md_table(
        ["Rep", "Rows", "Zero failures", "CPU floor", "Valid", "Mean CPU util"],
        [
            [
                row["rep"],
                row["rows"],
                row["zero_failures"],
                row["cpu_floor"],
                row["valid"],
                row["mean_cpu_util"],
            ]
            for row in runs
        ],
    )
    lines += [""]

    lines += ["## Traces", ""]
    trace_files = ReportBundle(root).trace_paths()
    if trace_files:
        lines += [f"- {p.relative_to(root).as_posix()}" for p in trace_files]
    else:
        lines += ["No timeline data present (traces/ directory is empty)."]
    lines += [""]
    return "\n".join(lines)
