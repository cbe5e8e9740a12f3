"""Local polynomial regression of pooled observations on time.

The mean curve and its derivative are read off a weighted least squares fit
of Y on powers of (T - t) inside a kernel window: the intercept estimates
m(t) and the linear coefficient estimates m'(t) directly, because the basis
uses raw centred powers rather than an orthogonalised system.  Degree 2 is
the default so the first derivative is not bias-limited at curve ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EstimationFailedError,
    SingularFitError,
    SparseWindowError,
    ValidationError,
)
from .kernels import EPANECHNIKOV, KernelSpec
from .observe import SparseObservations

# bounded bandwidth widening for sparse windows
WIDEN_FACTOR = 1.5
MAX_WIDEN = 5

_COND_LIMIT = 1e12


def solve_wls(
    basis: np.ndarray, weights: np.ndarray, responses: np.ndarray
) -> tuple[np.ndarray, float]:
    """Weighted least squares via the normal equations.

    :param basis: (N, p) design matrix
    :param weights: (N,) nonnegative weights
    :param responses: (N,) response vector
    :return: (coefficients, condition estimate of the normal matrix)

    Raises SingularFitError when fewer positively weighted rows than
    columns remain or the normal matrix is numerically singular.
    """
    basis = np.asarray(basis, dtype=float)
    weights = np.asarray(weights, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if basis.ndim != 2 or not (basis.shape[0] == weights.size == responses.size):
        raise ValidationError("basis, weights, responses have mismatched shapes")
    if np.any(weights < 0):
        raise ValidationError("weights must be nonnegative")
    p = basis.shape[1]
    if int(np.count_nonzero(weights > 0)) < p:
        raise SingularFitError(f"{np.count_nonzero(weights > 0)} weighted rows < {p} columns")
    wb = basis * weights[:, None]
    A = wb.T @ basis
    b = wb.T @ responses
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularFitError(f"normal matrix condition {cond:.3g}")
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularFitError(str(exc)) from exc
    return beta, cond


@dataclass
class MeanEstimate:
    """Mean curve fit on an evaluation grid.

    Flagged entries failed even after bandwidth widening and hold NaN.
    """

    eval_grid: np.ndarray
    m_hat: np.ndarray
    dm_hat: np.ndarray
    flags: np.ndarray  # bool, True = failed
    degree: int
    bandwidth: float
    kernel: KernelSpec


def default_bandwidth_mean(obs: SparseObservations, d: int = 2) -> float:
    """Rule-of-thumb bandwidth c * (total observations)^(-1/(2d+3)).

    The constant is 0.6 times the design range; the result is clamped to
    [3 * median design gap, 0.5] so windows neither starve nor span the
    whole interval.
    """
    return _clamped_bandwidth(obs, 0.6, obs.total ** (-1.0 / (2 * d + 3)))


def _clamped_bandwidth(obs: SparseObservations, c: float, rate: float) -> float:
    """c * (design range) * rate, clamped to [3 * median design gap, 0.5]."""
    t_sorted = np.sort(obs.t)
    rng = float(t_sorted[-1] - t_sorted[0])
    if rng <= 0:
        raise ValidationError("design has zero time range")
    h = c * rng * rate
    gaps = np.diff(t_sorted)
    gaps = gaps[gaps > 0]
    lo = 3.0 * float(np.median(gaps)) if gaps.size else 0.0
    return min(max(h, lo), 0.5)


def fit_mean_at(
    obs: SparseObservations,
    t: float,
    d: int = 2,
    h_m: float | None = None,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[float, float]:
    """Local polynomial fit of the mean at a single point.

    Returns (m_hat(t), dm_hat(t)).  If the kernel window holds fewer than
    d+1 distinct design points, the bandwidth is widened by 1.5x up to five
    times before SparseWindowError is raised.
    """
    if d < 1:
        raise ValidationError("need degree >= 1 to report a derivative")
    if h_m is None:
        h_m = default_bandwidth_mean(obs, d)
    if h_m <= 0:
        raise ValidationError("bandwidth must be positive")
    T, Y = obs.t, obs.y
    h = float(h_m)
    for _ in range(MAX_WIDEN + 1):
        u = (T - t) / h
        w = kernel.values(u) / h
        active = w > 0
        if np.unique(T[active]).size >= d + 1:
            # scaled powers keep the normal matrix well conditioned
            ua = u[active]
            basis = np.vander(ua, d + 1, increasing=True)
            try:
                beta, _ = solve_wls(basis, w[active], Y[active])
            except SingularFitError:
                pass
            else:
                return float(beta[0]), float(beta[1] / h)
        h *= WIDEN_FACTOR
    raise SparseWindowError(t)


def fit_mean_curve(
    obs: SparseObservations,
    eval_grid: np.ndarray,
    d: int = 2,
    h_m: float | None = None,
    kernel: KernelSpec = EPANECHNIKOV,
    max_flagged_frac: float = 0.2,
) -> MeanEstimate:
    """Mean fit over a whole grid; fails if > 20% of points are flagged."""
    eval_grid = np.asarray(eval_grid, dtype=float)
    if h_m is None:
        h_m = default_bandwidth_mean(obs, d)
    m = np.full(eval_grid.size, np.nan)
    dm = np.full(eval_grid.size, np.nan)
    flags = np.zeros(eval_grid.size, dtype=bool)
    for i, t in enumerate(eval_grid):
        try:
            m[i], dm[i] = fit_mean_at(obs, float(t), d, h_m, kernel)
        except SparseWindowError:
            flags[i] = True
    if flags.mean() > max_flagged_frac:
        raise EstimationFailedError(
            f"{int(flags.sum())}/{flags.size} mean fit points failed"
        )
    return MeanEstimate(
        eval_grid=eval_grid,
        m_hat=m,
        dm_hat=dm,
        flags=flags,
        degree=d,
        bandwidth=float(h_m),
        kernel=kernel,
    )
