"""Residual diagnostics: Breusch-Pagan and Anderson-Darling tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from antiwatt.errors import UndefinedStatisticError
from antiwatt.stats.regression import RegressionResult, ols_fit

if TYPE_CHECKING:  # numpy loads inside the functions that compute with arrays
    import numpy as np

ALPHA = 0.05

BREUSCH_PAGAN = "BreuschPagan"
ANDERSON_DARLING = "AndersonDarling"


@dataclass(frozen=True)
class DiagnosticResult:
    test: str
    statistic: float
    p_value: float
    null_rejected: bool


def breusch_pagan(fit: RegressionResult, X: np.ndarray) -> DiagnosticResult:
    """LM test of constant residual variance against dependence on X.

    Auxiliary OLS of e² on X; LM = n·R²_aux; p from χ² with df = p−1.
    Constant residuals give LM = 0, p = 1.
    """
    import numpy as np
    from scipy import stats as sps  # lazily, as in regression.infer_coefficient

    X = np.asarray(X, dtype=float)
    if X.shape != (fit.n, fit.p):
        raise ValueError("X does not match the fitted design")
    if fit.p < 2:
        raise UndefinedStatisticError("Breusch-Pagan needs at least one non-constant regressor")
    e2 = fit.residuals**2
    df = fit.p - 1
    # Perfect (or constant-residual) fits carry no variance signal; float
    # noise in the residuals would otherwise produce an arbitrary LM.
    rms_e = float(np.sqrt(e2.mean()))
    rms_y = float(np.sqrt((fit.fitted**2 + fit.residuals**2).mean()))
    if np.ptp(e2) == 0.0 or rms_e <= 1e-12 * max(1.0, rms_y):
        return DiagnosticResult(
            test=BREUSCH_PAGAN, statistic=0.0, p_value=1.0, null_rejected=False
        )
    aux = ols_fit(X, e2)
    lm = fit.n * aux.r_squared
    p_value = float(sps.chi2.sf(lm, df))
    return DiagnosticResult(
        test=BREUSCH_PAGAN,
        statistic=float(lm),
        p_value=p_value,
        null_rejected=p_value < ALPHA,
    )


def anderson_darling(residuals: Sequence[float]) -> DiagnosticResult:
    """Normality test with estimated mean and variance (case 3).

    A² = −n − (1/n)·Σ(2i−1)[ln Φ(z₍ᵢ₎) + ln(1−Φ(z₍ₙ₊₁₋ᵢ₎))] on the
    standardized sorted sample, small-sample adjusted to
    A*² = A²(1 + 0.75/n + 2.25/n²). The p-value uses the
    piecewise-exponential approximation of D'Agostino & Stephens (1986)
    for the normal family; `statistic` reports the adjusted A*².
    """
    import numpy as np
    from scipy import stats as sps  # lazily, as in regression.infer_coefficient

    x = np.asarray(residuals, dtype=float)
    n = x.size
    if n < 8:
        raise ValueError(f"anderson_darling needs n >= 8 (got {n})")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise UndefinedStatisticError("Anderson-Darling undefined for zero-variance input")
    z = np.sort((x - x.mean()) / sd)
    log_cdf = sps.norm.logcdf(z)
    log_sf = sps.norm.logsf(z)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (log_cdf + log_sf[::-1]))
    a2a = a2 * (1.0 + 0.75 / n + 2.25 / n**2)

    # D'Agostino & Stephens (1986), Table 4.9 approximation.
    if a2a < 0.2:
        p = 1.0 - math.exp(-13.436 + 101.14 * a2a - 223.73 * a2a**2)
    elif a2a < 0.34:
        p = 1.0 - math.exp(-8.318 + 42.796 * a2a - 59.938 * a2a**2)
    elif a2a < 0.6:
        p = math.exp(0.9177 - 4.279 * a2a - 1.38 * a2a**2)
    elif a2a <= 13.0:
        p = math.exp(1.2937 - 5.709 * a2a + 0.0186 * a2a**2)
    else:
        p = 0.0
    p = min(max(p, 0.0), 1.0)
    return DiagnosticResult(
        test=ANDERSON_DARLING,
        statistic=float(a2a),
        p_value=p,
        null_rejected=p < ALPHA,
    )
