"""Descriptive statistics and correlation coefficients.

Pearson and Spearman are written out from their defining formulas rather
than delegated to scipy, so they can be checked against an independent
extended-precision oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from antiwatt.errors import UndefinedStatisticError

if TYPE_CHECKING:  # numpy loads inside the functions that compute with arrays
    import numpy as np


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    mean: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class CorrelationPair:
    pearson_r: float
    spearman_rho: float

    @property
    def sign_agreement(self) -> bool:
        """True when both coefficients point the same way (or both are 0)."""
        prod = self.pearson_r * self.spearman_rho
        if prod > 0:
            return True
        return self.pearson_r == 0 and self.spearman_rho == 0


def describe(values: Sequence[float]) -> DescriptiveStats:
    """Exact mean/min/max of a non-empty series."""
    import numpy as np
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise UndefinedStatisticError("describe() needs a non-empty series")
    return DescriptiveStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def rankdata(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; ties receive the mean of the rank span they occupy.

    [1, 2, 2, 3] -> [1, 2.5, 2.5, 4]
    """
    import numpy as np
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(arr.size, dtype=float)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        # positions i..j (0-based) share the average of ranks i+1..j+1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson's r from the definition: Σ(xᵢ−x̄)(yᵢ−ȳ) / √(Σ(xᵢ−x̄)²·Σ(yᵢ−ȳ)²)."""
    import numpy as np
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have equal length")
    if xa.size < 2:
        raise UndefinedStatisticError("pearson needs at least 2 points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedStatisticError("pearson undefined for zero-variance input")
    return float((dx @ dy) / np.sqrt(sxx * syy))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's ρ: Pearson on average-rank transforms."""
    return pearson(rankdata(x), rankdata(y))


def correlation_pair(x: Sequence[float], y: Sequence[float]) -> CorrelationPair:
    return CorrelationPair(pearson_r=pearson(x, y), spearman_rho=spearman(x, y))
