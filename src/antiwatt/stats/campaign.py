"""Campaign-level analysis: pooled rows in, report model out.

Repetition traces are trimmed, aligned, and pooled row-wise (not averaged
per run), then descriptive stats, correlations against response time, both
OLS models with HC3 inference on the response-time coefficient, residual
diagnostics, and per-run trapezoidal energies are computed.  Each model is
fitted on its own: one whose design is singular or has a leverage-1 row is
reported as not estimated, with the reason, and the other still stands.
Everything here is a pure function of artifact bytes, so re-analysis is
bit-reproducible.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from antiwatt.errors import DegenerateInferenceError, SingularDesignError, TrialError
from antiwatt.stats.align import AlignedTable, TimelineRow, align, per_second
from antiwatt.stats.core import CorrelationPair, DescriptiveStats, correlation_pair, describe
from antiwatt.stats.diagnostics import DiagnosticResult, anderson_darling, breusch_pagan
from antiwatt.stats.energy import trapezoid_energy
from antiwatt.stats.regression import (
    CPU_MODEL_COLUMNS,
    DRAM_MODEL_COLUMNS,
    RT_COEF_INDEX,
    CoefficientInference,
    assemble_design,
    hc3_covariance,
    infer_coefficient,
    ols_fit,
)
from antiwatt.traces import (
    TraceSet,
    ValidityReport,
    discover_artifacts,
    load_artifact,
    trim_warmup,
    validity_check,
)

logger = logging.getLogger(__name__)

__all__ = [
    "CampaignAnalysis",
    "ModelReport",
    "RunSummary",
    "TimelineRow",
    "analyze_campaign",
    "analyze_campaign_dir",
    "build_timeline",
]


@dataclass(frozen=True)
class ModelReport:
    """One fitted power model plus the inference the tables report.

    A model that cannot be estimated keeps its name, n and columns, carries
    the reason in ``not_estimated``, and has no fit: ``r_squared``,
    ``rt_inference`` and both diagnostics are None, ``coefficients`` empty.
    """

    name: str  # "cpu" | "dram"
    n: int
    r_squared: Optional[float]
    column_names: Tuple[str, ...]
    coefficients: Tuple[float, ...]
    rt_inference: Optional[CoefficientInference]
    breusch_pagan: Optional[DiagnosticResult]
    anderson_darling: Optional[DiagnosticResult]
    not_estimated: Optional[str] = None


@dataclass(frozen=True)
class RunSummary:
    name: str
    rows: int
    mean_rt_ms: float
    mean_cpu_power_w: float
    mean_dram_power_w: float
    cpu_energy_kj: float
    dram_energy_kj: float
    validity: ValidityReport


@dataclass(frozen=True)
class CampaignAnalysis:
    antipattern: str
    alpha: float
    repetitions_analyzed: int
    repetitions_skipped: int
    pooled: AlignedTable
    descriptives: Dict[str, DescriptiveStats]
    correlations: Dict[str, CorrelationPair]
    models: Tuple[ModelReport, ...]
    runs: Tuple[RunSummary, ...]
    timelines: Tuple[Tuple[str, Tuple[TimelineRow, ...]], ...]
    mean_cpu_energy_kj: float
    mean_dram_energy_kj: float

    def model(self, name: str) -> ModelReport:
        for report in self.models:
            if report.name == name:
                return report
        raise KeyError(name)


def build_timeline(ts: TraceSet) -> Tuple[TimelineRow, ...]:
    """Per-second outer join over the whole (untrimmed) trial."""
    rows, _duplicates = per_second(ts.power, ts.resources, ts.requests)
    return rows


def _fit_model(name: str, table: AlignedTable, alpha: float) -> ModelReport:
    X, y = assemble_design(table, name)
    names = CPU_MODEL_COLUMNS if name == "cpu" else DRAM_MODEL_COLUMNS
    try:
        fit = ols_fit(X, y, column_names=names)
        inference = infer_coefficient(fit, hc3_covariance(fit, X), RT_COEF_INDEX, alpha=alpha)
    except (SingularDesignError, DegenerateInferenceError) as exc:
        logger.warning("%s model not estimated: %s", name, exc)
        return ModelReport(
            name=name,
            n=len(y),
            r_squared=None,
            column_names=tuple(names),
            coefficients=(),
            rt_inference=None,
            breusch_pagan=None,
            anderson_darling=None,
            not_estimated=str(exc),
        )
    return ModelReport(
        name=name,
        n=fit.n,
        r_squared=fit.r_squared,
        column_names=tuple(names),
        coefficients=tuple(float(b) for b in fit.beta),
        rt_inference=inference,
        breusch_pagan=breusch_pagan(fit, X),
        anderson_darling=anderson_darling(fit.residuals),
    )


def analyze_campaign(
    artifacts: Sequence[Union[str, Path]],
    alpha: float = 0.05,
) -> CampaignAnalysis:
    """Full analysis over a campaign's artifacts.

    Failed or unreadable repetitions are skipped (and counted); at least one
    must survive.  Mixing antipatterns in one campaign is a caller bug and
    rejected outright.
    """
    summaries: List[RunSummary] = []
    timelines: List[Tuple[str, Tuple[TimelineRow, ...]]] = []
    pooled: Optional[AlignedTable] = None
    kinds = set()
    skipped = 0
    for item in artifacts:
        name = Path(item).name
        try:
            ts = load_artifact(item)
        except TrialError:
            logger.warning("skipping %s: marked failed or unreadable", name)
            skipped += 1
            continue
        kinds.add(ts.meta["plan"]["workload"]["kind"])
        trimmed = trim_warmup(ts)
        table = align(trimmed.power, trimmed.resources, trimmed.requests)
        pooled = table if pooled is None else pooled.extend(table)
        cpu_j = trapezoid_energy([(s.t, s.cpu_power_w) for s in trimmed.power])
        dram_j = trapezoid_energy([(s.t, s.dram_power_w) for s in trimmed.power])
        summaries.append(
            RunSummary(
                name=name,
                rows=len(table),
                mean_rt_ms=_mean(table.column("rt_ms")),
                mean_cpu_power_w=_mean(table.column("cpu_power_w")),
                mean_dram_power_w=_mean(table.column("dram_power_w")),
                cpu_energy_kj=cpu_j / 1000.0,
                dram_energy_kj=dram_j / 1000.0,
                validity=validity_check(ts, trimmed=trimmed),
            )
        )
        timelines.append((name, build_timeline(ts)))
    if pooled is None:
        raise ValueError("no valid repetition artifacts to analyze")
    if len(kinds) > 1:
        raise ValueError(f"campaign mixes antipatterns: {sorted(kinds)}")

    rt = pooled.column("rt_ms")
    descriptives = {
        "rt_ms": describe(rt),
        "cpu_power_w": describe(pooled.column("cpu_power_w")),
        "dram_power_w": describe(pooled.column("dram_power_w")),
    }
    correlations = {
        "cpu_power_vs_rt": correlation_pair(pooled.column("cpu_power_w"), rt),
        "dram_power_vs_rt": correlation_pair(pooled.column("dram_power_w"), rt),
    }
    models = (
        _fit_model("cpu", pooled, alpha),
        _fit_model("dram", pooled.with_memory(), alpha),
    )
    return CampaignAnalysis(
        antipattern=kinds.pop(),
        alpha=alpha,
        repetitions_analyzed=len(summaries),
        repetitions_skipped=skipped,
        pooled=pooled,
        descriptives=descriptives,
        correlations=correlations,
        models=models,
        runs=tuple(summaries),
        timelines=tuple(timelines),
        mean_cpu_energy_kj=_mean([s.cpu_energy_kj for s in summaries]),
        mean_dram_energy_kj=_mean([s.dram_energy_kj for s in summaries]),
    )


def analyze_campaign_dir(campaign_dir: Union[str, Path], alpha: float = 0.05) -> CampaignAnalysis:
    artifacts = discover_artifacts(campaign_dir)
    if not artifacts:
        raise ValueError(f"{campaign_dir} holds no rep-* artifact directories")
    return analyze_campaign(artifacts, alpha=alpha)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)
