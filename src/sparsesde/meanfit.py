"""Local polynomial regression of pooled observations on time.

The mean curve and its derivative are read off a weighted least squares fit
of Y on powers of (T - t) inside a kernel window: the intercept estimates
m(t) and the linear coefficient estimates m'(t) directly, because the basis
uses raw centred powers rather than an orthogonalised system.  The
config's degree 2 (`estimation.d_mean`) keeps the first derivative from
being bias-limited at curve ends.

This module owns the local-window rule that `covfit` and `bootstrap` read.
A window holds the rows within `_WINDOW_MARGIN` bandwidths of its centre
(`_window_runs`) and is summed as the rows of `_features` (`_kinds`).  It
passes the checks of `solve_wls`: active rows or pairs >= columns, then
condition <= its limit (a window with fewer distinct times than columns is
singular).  `_solve_cells` decides them in a batch, taking the SVD only of
the normal matrices that a determinant-trace bound does not clear
(`_cond_screen`).  A window that fails is refitted along `_bandwidths` and
flagged if none passes; a fit fails when more than `_MAX_FLAGGED` of its
points or cells are flagged (`_check_flagged`).

`fit_mean_points` fits a whole grid at once: in the time-sorted data each
centre's window is one segment of rows, one `np.add.reduceat` per block of
centres sums its features, and `_solve_mean` solves them; `fit_mean_at`
refits a failing centre.  A centre reads only its own segment, so it fits
the same whatever other centres share the call.
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
_MAX_FLAGGED = 0.2  # share of points (`fit_mean_curve`) or cells (`fit_cov_grid`) a fit may flag

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
# (centre, row) pairs per block of the batched fit; keeps its working set at a
# few MB.  Each window is summed alone, so the fits do not depend on it
_PAIR_BLOCK = 1 << 13


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
    bandwidth: float


def default_bandwidth_mean(obs: SparseObservations, d: int) -> float:
    """Rule-of-thumb bandwidth c * (total observations)^(-1/(2d+3)).

    The constant is 0.6 times the design range; the result is clamped to
    [3 * median design gap, 0.5] so windows neither starve nor span the
    whole interval.
    """
    return _clamped_bandwidth(obs, 0.6, obs.total ** (-1.0 / (2 * d + 3)))


def _clamped_bandwidth(obs: SparseObservations, c: float, rate: float) -> float:
    """c * (design range) * rate, clamped to [3 * median design gap, 0.5]."""
    rng, gap = obs.design_scale
    return min(max(c * rng * rate, 3.0 * gap), 0.5)


def _check_fit(d: int, h: float, need: str) -> None:
    """Reject a degree below 1 (`need` says what for) or a nonpositive bandwidth."""
    if d < 1:
        raise ValidationError(f"need degree >= 1 {need}")
    if h <= 0:
        raise ValidationError("bandwidth must be positive")


def _bandwidths(h: float):
    """The bandwidths a widening fit tries: h, then each time `WIDEN_FACTOR`
    times the last, `MAX_WIDEN` times."""
    h = float(h)
    for _ in range(MAX_WIDEN + 1):
        yield h
        h *= WIDEN_FACTOR


def _check_flagged(n_bad: int, n: int, what: str) -> None:
    """Fail a fit that flags more than `_MAX_FLAGGED` of its n points or cells."""
    if n_bad > _MAX_FLAGGED * n:
        raise EstimationFailedError(f"{n_bad}/{n} {what} failed")


def _window_runs(sorted_x, t, h):
    """Bounds [lo, hi) of the run of sorted_x within `_WINDOW_MARGIN` h of each t."""
    reach = _WINDOW_MARGIN * h
    lo = np.searchsorted(sorted_x, t - reach)
    return lo, np.searchsorted(sorted_x, t + reach, "right")


def fit_mean_at(
    obs: SparseObservations,
    t: float,
    d: int,
    h_m: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[float, float]:
    """Local polynomial fit of the mean at a single point.

    Returns (m_hat(t), dm_hat(t)).  While `solve_wls` rejects the kernel
    window (too few active rows, or a singular normal matrix, as when it
    holds fewer than d+1 distinct design times), the bandwidth is widened by
    1.5x up to five times before SparseWindowError is raised.
    """
    _check_fit(d, h_m, "to report a derivative")
    T, Y = obs.t, obs.y
    for h in _bandwidths(h_m):
        u = (T - t) / h
        w = kernel.values(u) / h
        active = w > 0
        # scaled powers keep the normal matrix well conditioned
        basis = np.vander(u[active], d + 1, increasing=True)
        try:
            beta, _ = solve_wls(basis, w[active], Y[active])
        except SingularFitError:
            continue
        return float(beta[0]), float(beta[1] / h)
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


def _kinds(d: int) -> tuple[slice, slice, slice]:
    """The moment, response and indicator rows of `_features` at degree d."""
    return slice(0, 2 * d + 1), slice(2 * d + 1, 3 * d + 2), slice(3 * d + 2, 3 * d + 3)


def _features(a: np.ndarray, y: np.ndarray, kernel: KernelSpec, d: int) -> np.ndarray:
    """Stacked rows K(a)a^P (P = 0..2d), K(a)a^p y (p = 0..d) and K(a) > 0 at offsets a."""
    moments, responses, active = _kinds(d)
    F = np.empty((active.stop,) + a.shape)
    F[0] = kernel.values(a)
    for P in range(1, moments.stop):
        F[P] = F[P - 1] * a
    F[responses] = F[: d + 1] * y
    F[active] = F[0] > 0
    return F


def _solve_mean(sums: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """`_solve_cells` of mean windows (exponents (p, 0)) from their `_features` sums."""
    moments, responses, active = _kinds(d)
    return _solve_cells(
        sums[moments, None], sums[responses, None], sums[active][0], [(p, 0) for p in range(d + 1)]
    )


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
    _check_fit(d, h_m, "to report a derivative")
    h = float(h_m)
    centres = np.asarray(centres, dtype=float)
    order = obs.time_order
    T, Y = obs.t[order], obs.y[order]
    lo, hi = _window_runs(T, centres, h)
    size = hi - lo
    sums = np.zeros((_kinds(d)[2].stop, centres.size))
    step = max(1, _PAIR_BLOCK // max(int(size.max(initial=0)), 1))
    for c0 in range(0, centres.size, step):
        sz = size[c0 : c0 + step]
        starts = np.cumsum(sz) - sz
        rows = np.arange(int(sz.sum())) + np.repeat(lo[c0 : c0 + step] - starts, sz)
        F = _features((T[rows] - np.repeat(centres[c0 : c0 + step], sz)) / h, Y[rows], kernel, d)
        nz = np.flatnonzero(sz)  # an empty segment keeps its zeros
        if nz.size:
            sums[:, c0 + nz] = np.add.reduceat(F, starts[nz], axis=1)
    beta, ok = _solve_mean(sums, d)
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
    d: int,
    h_m: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> MeanEstimate:
    """Mean fit over a whole grid; fails if > 20% of points are flagged."""
    eval_grid = np.asarray(eval_grid, dtype=float)
    m, dm, flags = fit_mean_points(obs, eval_grid, d, h_m, kernel)
    _check_flagged(int(flags.sum()), flags.size, "mean fit points")
    return MeanEstimate(
        eval_grid=eval_grid,
        m_hat=m,
        dm_hat=dm,
        flags=flags,
        bandwidth=float(h_m),
    )
