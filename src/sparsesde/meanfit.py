"""Local polynomial regression of pooled observations on time.

The mean curve and its derivative are read off a weighted least squares fit
of Y on powers of (T - t) inside a kernel window: the intercept estimates
m(t) and the linear coefficient estimates m'(t) directly, because the basis
uses raw centred powers rather than an orthogonalised system.  Degree 2 is
the default so the first derivative is not bias-limited at curve ends.

`fit_mean_points` fits a whole grid at once.  In the time-sorted data each
centre's window is one segment of rows; one `np.add.reduceat` per block of
centres sums its kernel moments, responses and distinct active times, and
one batched solve applies the checks of `fit_mean_at` (distinct times
>= d + 1, condition <= its limit).  The batch decides the condition check
exactly as `solve_wls` does, but takes the SVD only of the normal matrices
that a determinant-trace bound does not clear (`_cond_screen`).  A centre
failing the checks is refitted by `fit_mean_at`, which widens its window or
flags it.  A centre reads only its own segment, so it fits the same
whatever other centres share the call.
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
# a batched condition check takes the SVD only of the matrices whose
# det-trace bound exceeds _COND_SCREEN.  On a matrix the bound clears, det and
# the SVD each round by about p * eps * cond < 1e-5 relative: _SCREEN_ROUNDING
# covers that, and the factor 1e3 below the limit dwarfs it
_COND_SCREEN = 1e-3 * _COND_LIMIT
_SCREEN_ROUNDING = 1.0 + 1e-3

# candidate rows of a window reach this many bandwidths from its centre,
# so rounding in (T - t)/h cannot drop a row the kernel still weights
_WINDOW_MARGIN = 1.01
# (centre, row) pairs per block of the batched fit; keeps its working set small
_PAIR_BLOCK = 1 << 11


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


def _cond_screen(A: np.ndarray) -> np.ndarray:
    """Condition number of each PSD matrix in A, or an upper bound where that clears.

    A PSD p x p matrix has lambda_max <= tr and, by AM-GM on the other
    p - 1 eigenvalues, lambda_min >= det / (tr / (p - 1))^(p - 1).  Where
    this bound on the condition is positive and <= `_COND_SCREEN` it is
    returned, raised by `_SCREEN_ROUNDING` so that it stays >= the
    computed `np.linalg.cond`; the remaining matrices get that exact cond.
    So the pass/fail decision against `_COND_LIMIT` is the one `solve_wls`
    makes.
    """
    p = A.shape[-1]
    tr = np.trace(A, axis1=-2, axis2=-1)
    with np.errstate(all="ignore"):
        cond = _SCREEN_ROUNDING * tr * (tr / (p - 1)) ** (p - 1) / np.linalg.det(A)
    exact = ~((cond > 0) & (cond <= _COND_SCREEN))
    cond[exact] = np.linalg.cond(A[exact])
    return cond


def _solve_cells(M, R, count, expo):
    """Batched local polynomial solve for each cell from its window sums.

    The basis column (p, q) of `expo` is a^p b^q, so the normal matrix holds
    M[p + p', q + q'] and the response R[p, q]; a mean fit uses exponents
    (p, 0).  Applies the checks of `solve_wls` (count of active rows or
    pairs >= columns, finite condition <= its limit) and decides them as it
    does, but takes the SVD only of the matrices `_cond_screen` does not
    clear; returns the coefficients in `expo` order and a mask of the cells
    that passed.
    """
    expo = np.asarray(expo)
    ncols = len(expo)
    p, q = expo[:, 0], expo[:, 1]
    A = np.moveaxis(M[p[:, None] + p[None, :], q[:, None] + q[None, :]], (0, 1), (-2, -1))
    b = np.moveaxis(R[p, q], 0, -1)
    ok = count >= ncols
    cond = np.full(count.shape, np.inf)
    if ok.any():
        cond[ok] = _cond_screen(A[ok])
    ok &= np.isfinite(cond) & (cond <= _COND_LIMIT)
    beta = np.full(b.shape, np.nan)
    if ok.any():
        beta[ok] = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    return beta, ok


def _features(a: np.ndarray, y: np.ndarray, kernel: KernelSpec, d: int) -> np.ndarray:
    """Stacked rows K(a)a^P (P = 0..2d), K(a)a^p y (p = 0..d) and K(a) > 0 at offsets a."""
    F = np.empty((3 * d + 3,) + a.shape)
    F[0] = kernel.values(a)
    for P in range(1, 2 * d + 1):
        F[P] = F[P - 1] * a
    F[2 * d + 1 : 3 * d + 2] = F[: d + 1] * y
    F[-1] = F[0] > 0
    return F


def fit_mean_points(
    obs: SparseObservations,
    centres: np.ndarray,
    d: int,
    h_m: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean fits (m_hat, dm_hat, flags) at every centre, batched as described above.

    Flagged centres failed even after widening and hold NaN.
    """
    if d < 1:
        raise ValidationError("need degree >= 1 to report a derivative")
    if h_m <= 0:
        raise ValidationError("bandwidth must be positive")
    h = float(h_m)
    centres = np.asarray(centres, dtype=float)
    order = obs.time_order
    T, Y = obs.t[order], obs.y[order]
    first = np.diff(T, prepend=-np.inf) > 0  # equal times share a window; count each once
    lo = np.searchsorted(T, centres - _WINDOW_MARGIN * h)
    size = np.searchsorted(T, centres + _WINDOW_MARGIN * h, "right") - lo
    sums = np.zeros((3 * d + 3, centres.size))  # `_features`, counting distinct times
    step = max(1, _PAIR_BLOCK // max(int(size.max(initial=0)), 1))
    for c0 in range(0, centres.size, step):
        sz = size[c0 : c0 + step]
        starts = np.cumsum(sz) - sz
        rows = np.arange(int(sz.sum())) + np.repeat(lo[c0 : c0 + step] - starts, sz)
        F = _features((T[rows] - np.repeat(centres[c0 : c0 + step], sz)) / h, Y[rows], kernel, d)
        F[-1] *= first[rows]
        nz = np.flatnonzero(sz)  # an empty segment keeps its zeros
        if nz.size:
            sums[:, c0 + nz] = np.add.reduceat(F, starts[nz], axis=1)
    M, R = sums[: 2 * d + 1, None], sums[2 * d + 1 : -1, None]
    beta, ok = _solve_cells(M, R, sums[-1], [(p, 0) for p in range(d + 1)])
    m, dm = beta[:, 0], beta[:, 1] / h
    flags = np.zeros(centres.size, dtype=bool)
    for i in np.flatnonzero(~ok):
        try:
            m[i], dm[i] = fit_mean_at(obs, float(centres[i]), d, h, kernel)
        except SparseWindowError:
            flags[i] = True
    return m, dm, flags


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
    m, dm, flags = fit_mean_points(obs, eval_grid, d, h_m, kernel)
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
