"""Local polynomial fit of the second-moment surface from pair products.

For curves observed as Y_ij = X_i(T_ij) + U_ij, the off-diagonal products
Y_ij * Y_ik (k != j) have conditional mean G(T_ij, T_ik) = E[X(s)X(t)]:
measurement noise cancels because U_ij and U_ik are independent.  Products
with j = k would instead target G(t, t) + rho^2, so the surface fits here
exclude them; that exclusion is the entire trick for separating the
surface from the noise floor.

Both orientations of each pair enter the design, making the scatter
symmetric about the diagonal.  A fit in raw centred monomials returns the
surface value and both first partials directly.  D(t) = G(t, t) is fitted
at the cell (t, t).  With homoscedastic measurement noise E[Y^2 | T = t] =
D(t) + rho^2, so D' is the slope of a local fit of Y_ij^2 (`smooth_squares`),
with no pair products and no fit at the kink of G on the diagonal, and the
level of that fit gives rho^2 (`noise_variance_estimate`).

`fit_cov_at` fits one point from an explicit pair scatter.  `fit_cov_grid`
never builds the scatter unless it must: with a product kernel every
normal-matrix and response entry at (s, t) is a sum over curves of
(sum_j K(a_ij) a_ij^p Y_ij)(sum_k K(b_ik) b_ik^q Y_ik) minus the j = k
terms, with a = (T - s)/h and b = (T - t)/h.  So the whole grid comes from
matrix products of per-curve kernel sums, taken over blocks of curves, and
one batched solve.  The kernel has compact support, so the sums are
windowed: an observation is paired only with the band of sorted centres
whose windows reach its time, and the j = k terms come from chunks of
observations in time order, each with the run of centres its span reaches.
The per-curve sums are binned curve-major; centre-major bins put a full
block's curves `_CURVE_BLOCK` doubles apart, and the scatters then hit one
cache set.  Windows, their checks, widening and flagging follow the window
rule of `meanfit`: a cell that fails at h_G is refitted by `fit_cov_at`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EstimationFailedError, SingularFitError, SparseWindowError
from .kernels import EPANECHNIKOV, KernelSpec
from .meanfit import (
    _bandwidths,
    _check_fit,
    _check_flagged,
    _clamped_bandwidth,
    _features,
    _kinds,
    _solve_cells,
    _window_runs,
    fit_mean_points,
    solve_wls,
)
from .observe import SparseObservations

# diagonal evaluation offset of the pointwise D', as a fraction of the bandwidth
DIAG_EPS_FACTOR = 1e-3
# degree of the smooth of Y^2 whose slope is D': p - 1 odd, as Fan & Gijbels
# (1996, ch. 3) advise for a first derivative
SQUARES_DEGREE = 2
# a noise variance estimate within this fraction of the level of Y^2 is rounding
_NOISE_FLOOR_RTOL = 1e-12

# curves per block of the per-curve window sums, and observations per time-ordered
# chunk of the j = k terms; both keep the pair sums' working set at a few MB.  The block
# size fixes the fit's bytes; a power of two strides any centre-major axis by a power of two
_CURVE_BLOCK = 256
_ROW_CHUNK = 1024


@dataclass(frozen=True)
class PairScatter:
    """Flattened product scatter: response p at design point (u, v)."""

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray

    @property
    def size(self) -> int:
        return self.u.size


def pair_scatter(obs: SparseObservations) -> PairScatter:
    """All ordered within-curve pairs j != k.

    Curve by curve, the pairs (j, k) run over j, then k, in row order.
    """
    bounds = obs.curve_bounds()
    r = np.diff(bounds)
    first = np.repeat(bounds[:-1], r)  # first row of each row's curve
    # row j pairs with each row k of its curve, in reps[j] consecutive slots
    reps = np.repeat(r, r)
    start = np.cumsum(reps) - reps
    rows_k = np.arange(int(reps.sum()))
    rows_k -= np.repeat(start - first, reps)
    keep = np.ones(rows_k.size, dtype=bool)
    keep[start + np.arange(obs.total) - first] = False  # drop k = j
    rows_k = rows_k[keep]
    reps -= 1
    return PairScatter(
        u=np.repeat(obs.t, reps),
        v=obs.t[rows_k],
        p=np.repeat(obs.y, reps) * obs.y[rows_k],
    )


def _monomial_exponents(d: int) -> list[tuple[int, int]]:
    return [(p, q) for total in range(d + 1) for p in range(total, -1, -1) for q in [total - p]]


@dataclass
class CovEstimate:
    """Surface fit over the upper triangle of an evaluation grid.

    Square arrays are indexed [i, j] for the pair (eval_times[i],
    eval_times[j]) with i <= j; the lower triangle holds NaN.  Diagonal
    arrays carry D_hat, the surface at (t, t), and dD_hat, the slope of the
    smooth of Y^2, both NaN where diag_flags marks a failed cell or smooth.
    """

    eval_times: np.ndarray
    G2: np.ndarray
    ds2: np.ndarray
    dt2: np.ndarray
    pair_flags: np.ndarray  # bool, True = failed fit
    D_hat: np.ndarray
    dD_hat: np.ndarray
    diag_flags: np.ndarray
    bandwidth: float
    fallback_cells: int = 0  # cells refitted by fit_cov_at after the factorised solve


def default_bandwidth_cov(obs: SparseObservations, d: int) -> float:
    """Surface bandwidth c * (n * rbar^2)^(-1/(2d+4)), clamped like the mean rule."""
    counts = obs.counts()
    rbar = float(counts.mean())
    return _clamped_bandwidth(obs, 0.5, (counts.size * rbar**2) ** (-1.0 / (2 * d + 4)))


def fit_cov_at(
    scatter: PairScatter,
    s: float,
    t: float,
    d: int,
    h_G: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[float, float, float]:
    """Surface fit at one point; returns (G_hat, dsG_hat, dtG_hat).

    Product-kernel weights with a common bandwidth in both directions; the
    window widens along `meanfit._bandwidths` while `solve_wls` rejects it
    (fewer active pairs than the monomial basis has columns, or a singular
    normal matrix).
    """
    _check_fit(d, h_G, "for surface derivatives")
    expo = _monomial_exponents(d)
    u, v, p = scatter.u, scatter.v, scatter.p
    for h in _bandwidths(h_G):
        a = (u - s) / h
        b = (v - t) / h
        w = kernel.values(a) * kernel.values(b) / (h * h)
        active = np.flatnonzero(w > 0)
        aa = a[active]
        bb = b[active]
        basis = np.empty((active.size, len(expo)))
        for col, (pe, qe) in enumerate(expo):
            basis[:, col] = aa**pe * bb**qe
        try:
            beta, _ = solve_wls(basis, w[active], p[active])
        except SingularFitError:
            continue
        return float(beta[0]), float(beta[1] / h), float(beta[2] / h)
    raise SparseWindowError((s, t))


def fit_diag(
    scatter: PairScatter,
    t: float,
    d: int,
    h_G: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[float, float]:
    """Diagonal level and derivative: (D_hat(t), dD_hat(t)).

    The level is the surface fit at (t, t).  The derivative combines both
    first partials, dD = dsG + dtG, evaluated at (t - eps, t + eps) with
    eps = 1e-3 * h_G, a hair inside the triangle.  This is the bootstrap's
    route to D' at t*; `fit_cov_grid` takes D' from `smooth_squares`.
    """
    lo, hi = map(float, _offset_cells(t, h_G))
    D, _, _ = fit_cov_at(scatter, t, t, d, h_G, kernel)
    _, dsG, dtG = fit_cov_at(scatter, lo, hi, d, h_G, kernel)
    return D, dsG + dtG


def _curve_sums(obs, starts, centres, h, kernel, d):
    """Per-curve sums of `meanfit._features` at each centre, shaped
    (power, centre, curve), for the curves with row offsets `starts`.

    Each row is paired with a band of consecutive sorted centres, as many
    as the widest window run of the block and placed to cover the row's
    own run; the pairs are summed into curve-major (curve, centre) bins, so
    a curve's rows scatter into one short run, then transposed.
    """
    nb = starts.size - 1
    rows = slice(starts[0], starts[-1])
    t, y = obs.t[rows, None], obs.y[rows, None]
    order = np.argsort(centres, kind="stable")
    lo, hi = _window_runs(centres[order], t[:, 0], h)
    width = int((hi - lo).max(initial=0))
    band = order[np.minimum(lo, centres.size - width)[:, None] + np.arange(width)]
    F = _features((t - centres[band]) / h, y, kernel, d)
    key = (band + np.repeat(np.arange(nb) * centres.size, np.diff(starts))[:, None]).ravel()
    sums = np.empty((F.shape[0], centres.size, nb))
    for out, f in zip(sums, F):
        out[:] = np.bincount(key, f.ravel(), out.size).reshape(nb, -1).T
    return sums


def _contract(x, y):
    """Sum over the last axis of x[p, i] y[q, j], shaped (p, q, i, j)."""
    xy = x.reshape(-1, x.shape[-1]) @ y.reshape(-1, y.shape[-1]).T
    return xy.reshape(x.shape[:2] + y.shape[:2]).swapaxes(1, 2)


def surface_sums(obs, eval_times, d, h, kernel=EPANECHNIKOV):
    """Sums over within-curve pairs j != k of products of window features,
    for the grid cells (s, t) = (eval_times[i], eval_times[j]) of `fit_cov_grid`.

    The pair (T_ij, T_ik) enters through a = (T_ij - s)/h and
    b = (T_ik - t)/h.  Returns M[P, Q] = sum K(a)a^P K(b)b^Q, R[p, q] = sum
    K(a)a^p Y_ij K(b)b^q Y_ik and the count of pairs with K(a)K(b) > 0, with
    trailing axes (i, j).  A curve's pair sum is the product of its two
    feature sums minus its j = k terms (`bootstrap._curve_pair_sums` keeps
    them per curve), so the sums are matrix products over curves.

    Only (centre, observation) pairs near a kernel window are formed: the
    feature sums come from `_curve_sums`, a block of curves at a time, and
    the j = k terms from chunks of observations in time order, each taken on
    the run of sorted centres that `meanfit._window_runs` gives its time
    span.  The pass runs at one BLAS thread: the order in which the matrix
    products sum, and so the bytes of the fit, must not depend on the
    thread count.
    """
    from .lanes import _one_blas_thread  # compiled on the first call, not at import

    pts = np.asarray(eval_times, dtype=float)
    kinds = _kinds(d)
    bounds = obs.curve_bounds()
    sums = [0.0, 0.0, 0.0]
    with _one_blas_thread():
        for c0 in range(0, bounds.size - 1, _CURVE_BLOCK):
            cx = _curve_sums(obs, bounds[c0 : c0 + _CURVE_BLOCK + 1], pts, h, kernel, d)
            sums = [total + _contract(cx[k], cx[k]) for total, k in zip(sums, kinds)]

        order = np.argsort(pts, kind="stable")
        by_time = obs.time_order
        for r0 in range(0, obs.total, _ROW_CHUNK):
            rows = by_time[r0 : r0 + _ROW_CHUNK]
            t = obs.t[rows]
            lo, hi = _window_runs(pts[order], t[[0, -1]], h)
            run = order[lo[0] : hi[1]]
            x = _features((t - pts[run, None]) / h, obs.y[rows], kernel, d)
            for total, k in zip(sums, kinds):
                total[..., run[:, None], run] -= _contract(x[k], x[k])
    M, R, count = sums
    return M, R, count[0, 0]


def _offset_cells(eval_times, h):
    """The cells (t - eps, t + eps) behind the pointwise D', eps = DIAG_EPS_FACTOR * h,
    clipped to [0, 1]: (s, t), each shaped as eval_times.  `fit_diag` and the
    bootstrap place D' here."""
    eps = DIAG_EPS_FACTOR * h
    return np.maximum(eval_times - eps, 0.0), np.minimum(eval_times + eps, 1.0)


def fit_cov_grid(
    obs: SparseObservations,
    eval_times: np.ndarray,
    d: int,
    h_G: float,
    kernel: KernelSpec = EPANECHNIKOV,
    sums: tuple | None = None,
    squares: tuple | None = None,
) -> CovEstimate:
    """Fit the surface on every grid pair s <= t plus the diagonal arrays.

    Every cell is first solved at h_G from factorised pair sums; a cell
    whose window fails the `solve_wls` checks there is refitted by
    `fit_cov_at`, which widens or flags it.  `sums` holds the `surface_sums`
    pass at h_G and `squares` the `smooth_squares` fit behind dD_hat where
    they are taken already; else that smooth is taken at bandwidth h_G.
    """
    _check_fit(d, h_G, "for surface derivatives")
    eval_times = np.asarray(eval_times, dtype=float)
    h = float(h_G)
    nt = eval_times.size
    iu = np.triu_indices(nt)
    if sums is None:
        sums = surface_sums(obs, eval_times, d, h, kernel)
    M, R, count = (x[..., iu[0], iu[1]] for x in sums)
    beta, ok = _solve_cells(M, R, count, _monomial_exponents(d))
    fits = np.stack((beta[:, 0], beta[:, 1] / h, beta[:, 2] / h), axis=1)
    failed = np.zeros(ok.size, dtype=bool)
    scatter = None
    for c in np.flatnonzero(~ok):
        if scatter is None:
            scatter = pair_scatter(obs)
        s, t = float(eval_times[iu[0][c]]), float(eval_times[iu[1][c]])
        try:
            fits[c] = fit_cov_at(scatter, s, t, d, h, kernel)
        except SparseWindowError:
            failed[c] = True
    _check_flagged(int(failed.sum()), failed.size, "surface cells")

    G2, ds2, dt2 = np.full((3, nt, nt), np.nan)
    G2[iu], ds2[iu], dt2[iu] = fits.T
    flags = np.zeros((nt, nt), dtype=bool)
    flags[iu] = failed
    if squares is None:
        squares = smooth_squares(obs, eval_times, SQUARES_DEGREE, h, kernel)
    _, dV, smooth_failed = squares
    diag_flags = np.diag(flags) | smooth_failed
    D_hat = np.where(diag_flags, np.nan, np.diag(G2))
    dD_hat = np.where(diag_flags, np.nan, dV)
    return CovEstimate(
        eval_times=eval_times,
        G2=G2,
        ds2=ds2,
        dt2=dt2,
        pair_flags=flags,
        D_hat=D_hat,
        dD_hat=dD_hat,
        diag_flags=diag_flags,
        bandwidth=h,
        fallback_cells=int((~ok).sum()),
    )


def smooth_squares(
    obs: SparseObservations,
    eval_times: np.ndarray,
    d: int,
    h: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`fit_mean_points` of the squared observations Y_ij^2: (V, dV, flags).

    V estimates D(t) + rho^2, and with homoscedastic measurement noise (the
    observation model here) dV estimates D'(t).  Flagged points failed even
    after widening and hold NaN.
    """
    sq = replace_responses(obs, obs.y**2)
    return fit_mean_points(sq, np.asarray(eval_times, dtype=float), d, h, kernel)


def fit_diagonal_inclusive(
    obs: SparseObservations,
    eval_times: np.ndarray,
    h: float,
    kernel: KernelSpec = EPANECHNIKOV,
) -> np.ndarray:
    """Local linear `smooth_squares` level along the diagonal, at bandwidth h.

    This is the fit that does NOT exclude same-index products, so it
    estimates D(t) + rho^2 rather than D(t); it serves as the biased
    control in diagnostics.  A point that fails even after widening raises
    SparseWindowError.
    """
    out, _, flags = smooth_squares(obs, eval_times, 1, h, kernel)
    if flags.any():
        raise SparseWindowError(float(np.asarray(eval_times)[np.argmax(flags)]))
    return out


def replace_responses(obs: SparseObservations, new_y: np.ndarray) -> SparseObservations:
    """`obs` with responses `new_y`; it shares `obs.t`, and so its time order."""
    out = replace(obs, y=np.asarray(new_y, dtype=float))
    out.time_order = obs.time_order
    return out


def noise_variance_estimate(
    obs: SparseObservations,
    cov_est: CovEstimate,
    smooth,
) -> tuple[float, bool]:
    """Measurement noise variance rho^2 and a flag marking a zero floor.

    E[Y^2 | T = t] = D(t) + rho^2, so the average gap between the
    diagonal-inclusive smooth of Y^2 and the diagonal-excluding D_hat,
    taken over all observation times, estimates rho^2.  Averages that are
    negative, or no larger than the rounding of the two smooths
    (`_NOISE_FLOOR_RTOL` times their mean level), are floored at zero and
    flagged: noiseless data land there with either sign.  `smooth()`, called
    once the diagonal fit has passed its check, returns the level of the
    smooth of Y^2 on the grid; a NaN level raises SparseWindowError there.
    """
    grid = cov_est.eval_times
    ok = ~cov_est.diag_flags
    if ok.sum() < 2:
        raise EstimationFailedError("too few diagonal values for noise estimate")
    V = smooth()
    if np.isnan(V).any():
        raise SparseWindowError(float(grid[np.argmax(np.isnan(V))]))
    V_at = np.interp(obs.t, grid, V)
    D_at = np.interp(obs.t, grid[ok], cov_est.D_hat[ok])
    rho2 = float(np.mean(V_at - D_at))
    if rho2 <= _NOISE_FLOOR_RTOL * float(np.mean(np.abs(V_at))):
        return 0.0, True
    return rho2, False
