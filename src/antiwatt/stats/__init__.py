"""Analysis pipeline: correlations, OLS + HC3 inference, diagnostics, energy."""

from antiwatt.stats.align import AlignedTable, TimelineRow, align, per_second
from antiwatt.stats.campaign import (
    CampaignAnalysis,
    ModelReport,
    RunSummary,
    analyze_campaign,
    analyze_campaign_dir,
    build_timeline,
)
from antiwatt.stats.core import (
    CorrelationPair,
    DescriptiveStats,
    correlation_pair,
    describe,
    pearson,
    rankdata,
    spearman,
)
from antiwatt.stats.diagnostics import DiagnosticResult, anderson_darling, breusch_pagan
from antiwatt.stats.energy import trapezoid_energy
from antiwatt.stats.regression import (
    KEEP,
    REJECT_DOWN,
    REJECT_UP,
    CoefficientInference,
    RegressionResult,
    assemble_design,
    decide,
    hc3_covariance,
    infer_coefficient,
    ols_fit,
)

__all__ = [
    "AlignedTable",
    "align",
    "per_second",
    "CampaignAnalysis",
    "ModelReport",
    "RunSummary",
    "TimelineRow",
    "analyze_campaign",
    "analyze_campaign_dir",
    "build_timeline",
    "CorrelationPair",
    "DescriptiveStats",
    "correlation_pair",
    "describe",
    "pearson",
    "rankdata",
    "spearman",
    "DiagnosticResult",
    "anderson_darling",
    "breusch_pagan",
    "trapezoid_energy",
    "KEEP",
    "REJECT_DOWN",
    "REJECT_UP",
    "CoefficientInference",
    "RegressionResult",
    "assemble_design",
    "decide",
    "hc3_covariance",
    "infer_coefficient",
    "ols_fit",
]
