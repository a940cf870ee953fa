"""Ordinary least squares with classical and serial-correlation-robust errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import EstimationError

CLASSICAL = "classical"
NEWEY_WEST = "newey_west"
SE_TYPES = (CLASSICAL, NEWEY_WEST)


@dataclass(frozen=True)
class OlsFit:
    coef: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    r_squared: float


def default_hac_lags(n: int) -> int:
    """Bartlett-window lag rule, floor(4 (n/100)^(2/9))."""
    return int(np.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def fit_ols(
    X: np.ndarray,
    y: np.ndarray,
    se_type: str = CLASSICAL,
    hac_lags: int | None = None,
) -> OlsFit:
    """Fit y = X b by least squares.

    ``se_type='classical'`` gives homoskedastic standard errors with t-based
    p-values; ``'newey_west'`` gives Bartlett-weighted HAC errors (rows must
    be in time order). Raises on rank-deficient designs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n <= k:
        raise EstimationError(f"insufficient observations: n={n} with k={k} regressors")
    # lstsq's rank uses matrix_rank's tolerance, eps * max(n, k) * largest singular value
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise EstimationError("rank-deficient design matrix")
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    xtx_inv = np.linalg.inv(X.T @ X)

    if se_type == CLASSICAL:
        sigma2 = rss / (n - k)
        cov = sigma2 * xtx_inv
    elif se_type == NEWEY_WEST:
        lags = default_hac_lags(n) if hac_lags is None else int(hac_lags)
        xe = X * residuals[:, None]
        meat = xe.T @ xe
        for j in range(1, min(lags, n - 1) + 1):
            w = 1.0 - j / (lags + 1.0)
            gamma = xe[j:].T @ xe[:-j]
            meat += w * (gamma + gamma.T)
        cov = xtx_inv @ meat @ xtx_inv * (n / (n - k))
    else:
        raise ValueError(f"unknown se_type: {se_type!r}")

    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = coef / se
    p_values = 2.0 * special.stdtr(n - k, -np.abs(t_stats))

    tss = float(np.sum((y - y.mean()) ** 2))
    scale = max(1.0, float(y @ y))
    if tss <= 1e-16 * scale:
        # constant outcome: a perfect fit is R^2 = 1 by convention
        r_squared = 1.0 if rss <= 1e-16 * scale else 0.0
    else:
        r_squared = 1.0 - rss / tss

    return OlsFit(
        coef=coef,
        se=se,
        t_stats=t_stats,
        p_values=np.asarray(p_values),
        residuals=residuals,
        r_squared=r_squared,
    )
