"""OLS via orthogonal decomposition, HC3 covariance, and coefficient inference.

Coefficients stay in natural units (watts per millisecond for the
response-time column); predictors are deliberately not standardized.
The QR route keeps the fit stable even with ~1e9-magnitude memory
columns, where raw normal equations lose precision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

from antiwatt.errors import DegenerateInferenceError, SingularDesignError

if TYPE_CHECKING:  # numpy loads inside the functions that compute with arrays
    import numpy as np

logger = logging.getLogger(__name__)

KEEP = "keep"
REJECT_UP = "reject_up"
REJECT_DOWN = "reject_down"
# a model that could not be fitted; its decision cell reads "not_estimated: <reason>"
NOT_ESTIMATED = "not_estimated"

# Human-readable forms used in the Markdown report.
DECISION_DISPLAY = {
    KEEP: "Keep",
    REJECT_UP: "Reject ↑",
    REJECT_DOWN: "Reject ↓",
    NOT_ESTIMATED: "Not estimated",
}

CPU_MODEL_COLUMNS = ("intercept", "rt_ms", "req_rate", "cpu_util")
DRAM_MODEL_COLUMNS = ("intercept", "rt_ms", "req_rate", "cpu_util", "memory_bytes")
RT_COEF_INDEX = 1  # column order contract: index 1 is always response time


@dataclass
class RegressionResult:
    beta: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    leverage: np.ndarray
    n: int
    p: int
    r_squared: float
    sigma2: float  # SSR / (n - p)
    classical_cov: np.ndarray
    xtx_inv: np.ndarray


@dataclass(frozen=True)
class CoefficientInference:
    beta: float
    se: float
    t_stat: float
    p_value: float
    ci_low: float
    ci_high: float
    df: int
    alpha: float
    decision: str


def ols_fit(X: np.ndarray, y: np.ndarray, column_names: tuple[str, ...] | None = None) -> RegressionResult:
    """Least-squares fit via reduced QR; X must carry its intercept column.

    Raises SingularDesignError naming the offending column on rank
    deficiency. R² uses the centered total sum of squares and is defined
    as 0 when y is constant.
    """
    import numpy as np
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError("y length must match X rows")
    if n <= p:
        raise ValueError(f"need n > p (got n={n}, p={p})")

    Q, R = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(R))
    col_scale = np.sqrt((X * X).sum(axis=0))
    col_scale[col_scale == 0.0] = 1.0
    tol = n * np.finfo(float).eps
    deficient = np.where(diag <= tol * np.maximum(col_scale, diag.max()))[0]
    if deficient.size:
        j = int(deficient[0])
        name = column_names[j] if column_names and j < len(column_names) else str(j)
        raise SingularDesignError(name)

    qty = Q.T @ y
    beta = np.linalg.solve(R, qty)
    fitted = X @ beta
    residuals = y - fitted
    leverage = np.einsum("ij,ij->i", Q, Q)  # diag of QQᵀ = hat matrix

    ssr = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)
    r_squared = 0.0 if sst <= 0.0 else 1.0 - ssr / sst

    r_inv = np.linalg.solve(R, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    sigma2 = ssr / (n - p)
    classical_cov = sigma2 * xtx_inv

    return RegressionResult(
        beta=beta,
        residuals=residuals,
        fitted=fitted,
        leverage=leverage,
        n=n,
        p=p,
        r_squared=r_squared,
        sigma2=sigma2,
        classical_cov=classical_cov,
        xtx_inv=xtx_inv,
    )


def hc3_covariance(fit: RegressionResult, X: np.ndarray) -> np.ndarray:
    """V = (XᵀX)⁻¹ Xᵀ diag(eᵢ²/(1−hᵢᵢ)²) X (XᵀX)⁻¹, symmetrized."""
    import numpy as np
    X = np.asarray(X, dtype=float)
    if X.shape != (fit.n, fit.p):
        raise ValueError("X does not match the fitted design")
    if np.any(fit.leverage >= 1.0 - 1e-12):
        raise DegenerateInferenceError(
            "HC3 undefined: a leverage-1 point fits itself exactly"
        )
    w = (fit.residuals / (1.0 - fit.leverage)) ** 2
    A = fit.xtx_inv @ X.T
    V = (A * w) @ A.T
    return (V + V.T) / 2.0


def decide(p_value: float, alpha: float, beta: float) -> str:
    """H0 decision: keep iff p ≥ α, else reject with the sign of β."""
    if p_value >= alpha:
        return KEEP
    return REJECT_UP if beta > 0 else REJECT_DOWN


def infer_coefficient(
    fit: RegressionResult,
    cov: np.ndarray,
    j: int,
    alpha: float = 0.05,
) -> CoefficientInference:
    """Two-sided Student-t inference for coefficient j under `cov`.

    df = n − p; CI = β_j ± t_{1−α/2,df}·se. At the sample sizes campaigns
    produce (hundreds to thousands of seconds) the t and normal references
    agree beyond reporting precision; t is used for finite-sample honesty.
    """
    # imported here, not at module scope, so that commands that never compute
    # a p-value (campaign, serve, load, report) start without scipy
    import numpy as np
    from scipy import stats as sps

    beta_j = float(fit.beta[j])
    var = float(cov[j, j])
    if var < 0:
        var = 0.0
    se = float(np.sqrt(var))
    df = fit.n - fit.p
    if se == 0.0:
        if beta_j != 0.0:
            raise DegenerateInferenceError(
                f"zero standard error with nonzero estimate {beta_j!r}"
            )
        return CoefficientInference(
            beta=0.0, se=0.0, t_stat=0.0, p_value=1.0,
            ci_low=0.0, ci_high=0.0, df=df, alpha=alpha, decision=KEEP,
        )
    t_stat = beta_j / se
    p_value = float(2.0 * sps.t.sf(abs(t_stat), df))
    t_crit = float(sps.t.ppf(1.0 - alpha / 2.0, df))
    return CoefficientInference(
        beta=beta_j,
        se=se,
        t_stat=t_stat,
        p_value=p_value,
        ci_low=beta_j - t_crit * se,
        ci_high=beta_j + t_crit * se,
        df=df,
        alpha=alpha,
        decision=decide(p_value, alpha, beta_j),
    )


def assemble_design(table, model: str) -> tuple[np.ndarray, np.ndarray]:
    """Build (X, y) from an aligned table.

    cpu model:  y = cpu_power_w,  X = [1, rt_ms, req_rate, cpu_util]
    dram model: y = dram_power_w, X = [1, rt_ms, req_rate, cpu_util, memory_bytes]
    """
    import numpy as np
    if model not in ("cpu", "dram"):
        raise ValueError(f"unknown model {model!r}")
    rows = table.rows
    if not rows:
        raise ValueError("aligned table is empty")
    rt = np.array([r.rt_ms for r in rows], dtype=float)
    rate = np.array([r.req_rate for r in rows], dtype=float)
    util = np.array([r.cpu_util for r in rows], dtype=float)
    ones = np.ones(len(rows), dtype=float)
    if model == "cpu":
        X = np.column_stack([ones, rt, rate, util])
        y = np.array([r.cpu_power_w for r in rows], dtype=float)
        names = CPU_MODEL_COLUMNS
    else:
        mem = np.array([r.memory_bytes for r in rows], dtype=float)
        X = np.column_stack([ones, rt, rate, util, mem])
        y = np.array([r.dram_power_w for r in rows], dtype=float)
        names = DRAM_MODEL_COLUMNS
    for j in range(1, X.shape[1]):
        if np.ptp(X[:, j]) == 0.0:
            logger.warning("design column %s is constant; fit will be singular", names[j])
    return X, y
