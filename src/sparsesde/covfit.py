"""Local polynomial fit of the second-moment surface from pair products.

For curves observed as Y_ij = X_i(T_ij) + U_ij, the off-diagonal products
Y_ij * Y_ik (k != j) have conditional mean G(T_ij, T_ik) = E[X(s)X(t)]:
measurement noise cancels because U_ij and U_ik are independent.  Products
with j = k would instead target G(t, t) + rho^2, so the fits here exclude
them; that exclusion is the entire trick for separating the surface from
the noise floor.

Both orientations of each pair enter the design, making the scatter
symmetric about the diagonal.  A fit in raw centred monomials returns the
surface value and both first partials directly.  Diagonal quantities
combine the two partials, D'(t) = d/dt G(t,t), evaluated a hair inside the
triangle to keep the arithmetic one-sided.

`fit_cov_at` fits one point from an explicit pair scatter.  `fit_cov_grid`
never builds the scatter unless it must: with a product kernel every
normal-matrix and response entry at (s, t) is a sum over curves of
(sum_j K(a_ij) a_ij^p Y_ij)(sum_k K(b_ik) b_ik^q Y_ik) minus the j = k
terms, with a = (T - s)/h and b = (T - t)/h.  So the whole grid comes from
matrix products of per-curve kernel sums, taken over blocks of curves, and
one batched solve; the offset cells (t - eps, t + eps) behind D' come from
one more pass that pairs each s with its own t.  The kernel has compact
support, so the sums are windowed: an observation is paired only with the
band of sorted centres within the window margin of `meanfit` around its
time, and the j = k terms come from chunks of observations in time order,
each with the run of centres its span reaches.  A cell whose window at
h_G holds fewer active pairs than basis columns, or whose normal matrix
fails the condition check of `solve_wls`, is refitted by `fit_cov_at`,
which widens its window or flags the cell.  The batch decides that check
exactly as `solve_wls` does, but takes the SVD only of the normal matrices
that a determinant-trace bound does not clear (`meanfit._cond_screen`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EstimationFailedError,
    SingularFitError,
    SparseWindowError,
    ValidationError,
)
from .kernels import EPANECHNIKOV, KernelSpec
from .meanfit import (
    MAX_WIDEN,
    WIDEN_FACTOR,
    _WINDOW_MARGIN,
    _clamped_bandwidth,
    _features,
    _solve_cells,
    default_bandwidth_mean,
    fit_mean_points,
    solve_wls,
)
from .observe import SparseObservations

# diagonal evaluation offset, as a fraction of the bandwidth
DIAG_EPS_FACTOR = 1e-3
# a noise variance estimate within this fraction of the level of Y^2 is rounding
_NOISE_FLOOR_RTOL = 1e-12

# curves per block of the per-curve window sums, and observations per time-ordered
# chunk of the j = k terms; both keep the pair sums' working set at a few MB
_CURVE_BLOCK = 256
_ROW_CHUNK = 1024


@dataclass(frozen=True)
class PairScatter:
    """Flattened product scatter: response p at design point (u, v)."""

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    includes_diagonal: bool = False

    @property
    def size(self) -> int:
        return self.u.size


def pair_scatter(obs: SparseObservations, include_diagonal: bool = False) -> PairScatter:
    """All ordered within-curve pairs; j = k products only on request.

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
    if not include_diagonal:
        keep = np.ones(rows_k.size, dtype=bool)
        keep[start + np.arange(obs.total) - first] = False
        rows_k = rows_k[keep]
        reps = reps - 1
    return PairScatter(
        u=np.repeat(obs.t, reps),
        v=obs.t[rows_k],
        p=np.repeat(obs.y, reps) * obs.y[rows_k],
        includes_diagonal=include_diagonal,
    )


def _monomial_exponents(d: int) -> list[tuple[int, int]]:
    return [(p, q) for total in range(d + 1) for p in range(total, -1, -1) for q in [total - p]]


@dataclass
class CovEstimate:
    """Surface fit over the upper triangle of an evaluation grid.

    Square arrays are indexed [i, j] for the pair (eval_times[i],
    eval_times[j]) with i <= j; the lower triangle holds NaN.  Diagonal
    arrays carry D_hat and its derivative along the diagonal.
    """

    eval_times: np.ndarray
    G2: np.ndarray
    ds2: np.ndarray
    dt2: np.ndarray
    pair_flags: np.ndarray  # bool, True = failed fit
    D_hat: np.ndarray
    dD_hat: np.ndarray
    diag_flags: np.ndarray
    degree: int
    bandwidth: float
    kernel: KernelSpec
    eps_diag: float
    fallback_cells: int = 0  # cells refitted by fit_cov_at after the factorised solve


def default_bandwidth_cov(obs: SparseObservations, d: int = 1) -> float:
    """Surface bandwidth c * (n * rbar^2)^(-1/(2d+4)), clamped like the mean rule."""
    counts = obs.counts()
    rbar = float(counts.mean())
    return _clamped_bandwidth(obs, 0.5, (counts.size * rbar**2) ** (-1.0 / (2 * d + 4)))


def fit_cov_at(
    scatter: PairScatter,
    s: float,
    t: float,
    d: int = 1,
    h_G: float | None = None,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[float, float, float]:
    """Surface fit at one point; returns (G_hat, dsG_hat, dtG_hat).

    Product-kernel weights with a common bandwidth in both directions; the
    window widens by 1.5x (at most five times) when it holds fewer usable
    pairs than the monomial basis has columns.
    """
    if d < 1:
        raise ValidationError("need degree >= 1 for surface derivatives")
    if h_G is None:
        raise ValidationError("h_G is required at this level")
    if h_G <= 0:
        raise ValidationError("bandwidth must be positive")
    expo = _monomial_exponents(d)
    ncols = len(expo)
    u, v, p = scatter.u, scatter.v, scatter.p
    h = float(h_G)
    for _ in range(MAX_WIDEN + 1):
        a = (u - s) / h
        b = (v - t) / h
        w = kernel.values(a) * kernel.values(b) / (h * h)
        active = np.flatnonzero(w > 0)
        if active.size >= ncols:
            aa = a[active]
            bb = b[active]
            basis = np.empty((active.size, ncols))
            for col, (pe, qe) in enumerate(expo):
                basis[:, col] = aa**pe * bb**qe
            try:
                beta, _ = solve_wls(basis, w[active], p[active])
            except SingularFitError:
                pass
            else:
                return float(beta[0]), float(beta[1] / h), float(beta[2] / h)
        h *= WIDEN_FACTOR
    raise SparseWindowError((s, t))


def fit_diag(
    scatter: PairScatter,
    t: float,
    d: int = 1,
    h_G: float | None = None,
    kernel: KernelSpec = EPANECHNIKOV,
) -> tuple[float, float]:
    """Diagonal level and derivative: (D_hat(t), dD_hat(t)).

    The level is the surface fit at (t, t).  The derivative combines both
    first partials, dD = dsG + dtG, evaluated at (t - eps, t + eps) with
    eps = 1e-3 * h_G, a hair inside the triangle.
    """
    if h_G is None or h_G <= 0:
        raise ValidationError("need a positive h_G")
    eps = DIAG_EPS_FACTOR * h_G
    lo = max(t - eps, 0.0)
    hi = min(t + eps, 1.0)
    D, _, _ = fit_cov_at(scatter, t, t, d, h_G, kernel)
    _, dsG, dtG = fit_cov_at(scatter, lo, hi, d, h_G, kernel)
    return D, dsG + dtG


def _window_runs(sorted_centres, t, h):
    """Bounds [lo, hi) of the run of sorted centres within `_WINDOW_MARGIN` h of each time."""
    reach = _WINDOW_MARGIN * h
    lo = np.searchsorted(sorted_centres, t - reach)
    return lo, np.searchsorted(sorted_centres, t + reach, "right")


def _curve_sums(obs, starts, centres, h, kernel, d):
    """Per-curve sums of `meanfit._features` at each centre, shaped
    (power, centre, curve), for the curves with row offsets `starts`.

    Each row is paired with a band of consecutive sorted centres, as many
    as the widest window run of the block and placed to cover the row's
    own run; the pairs are summed into (centre, curve) bins.
    """
    nb = starts.size - 1
    rows = slice(starts[0], starts[-1])
    t, y = obs.t[rows, None], obs.y[rows, None]
    order = np.argsort(centres, kind="stable")
    lo, hi = _window_runs(centres[order], t[:, 0], h)
    width = int((hi - lo).max(initial=0))
    band = order[np.minimum(lo, centres.size - width)[:, None] + np.arange(width)]
    F = _features((t - centres[band]) / h, y, kernel, d)
    key = (band * nb + np.repeat(np.arange(nb), np.diff(starts))[:, None]).ravel()
    sums = np.empty((F.shape[0], centres.size * nb))
    for out, f in zip(sums, F):
        out[:] = np.bincount(key, f.ravel(), out.size)
    return sums.reshape(-1, centres.size, nb)


def _pair_sums(obs, h, kernel, d, s_pts, t_pts=None):
    """Sums over within-curve pairs j != k of products of window features.

    For each cell (s, t) the pair (T_ij, T_ik) enters through
    a = (T_ij - s)/h and b = (T_ik - t)/h.  Returns M[P, Q] = sum
    K(a)a^P K(b)b^Q, R[p, q] = sum K(a)a^p Y_ij K(b)b^q Y_ik and the count of
    pairs with K(a)K(b) > 0.  A curve's pair sum is the product of its two
    feature sums minus its j = k terms (`bootstrap._curve_pair_sums` keeps
    them per curve), so the trailing axes come from products summed over
    curves: (i, j) for the cells (s_pts[i], s_pts[j]), or, given t_pts, one
    axis c for the cells (s_pts[c], t_pts[c]).

    Only (centre, observation) pairs near a kernel window are formed: the
    feature sums come from `_curve_sums`, a block of curves at a time, and
    the j = k terms from chunks of observations in time order, each taken
    on the run of sorted s_pts within `_WINDOW_MARGIN` h of its time span.
    """
    grid = t_pts is None
    s_pts = np.asarray(s_pts, dtype=float)
    if grid:
        t_pts = s_pts

        def contract(x, y):
            xy = x.reshape(-1, x.shape[-1]) @ y.reshape(-1, y.shape[-1]).T
            return xy.reshape(x.shape[:2] + y.shape[:2]).swapaxes(1, 2)
    else:
        t_pts = np.asarray(t_pts, dtype=float)

        def contract(x, y):
            return np.einsum("pcn,qcn->pqc", x, y)

    nf = 3 * d + 3
    kinds = (slice(0, 2 * d + 1), slice(2 * d + 1, nf - 1), slice(nf - 1, nf))
    bounds = obs.curve_bounds()
    sums = [0.0, 0.0, 0.0]
    for c0 in range(0, bounds.size - 1, _CURVE_BLOCK):
        starts = bounds[c0 : c0 + _CURVE_BLOCK + 1]
        cx = _curve_sums(obs, starts, s_pts, h, kernel, d)
        cy = cx if grid else _curve_sums(obs, starts, t_pts, h, kernel, d)
        sums = [total + contract(cx[k], cy[k]) for total, k in zip(sums, kinds)]

    order = np.argsort(s_pts, kind="stable")
    by_time = obs.time_order
    for r0 in range(0, obs.total, _ROW_CHUNK):
        rows = by_time[r0 : r0 + _ROW_CHUNK]
        t = obs.t[rows]
        lo, hi = _window_runs(s_pts[order], t[[0, -1]], h)
        run = order[lo[0] : hi[1]]
        x = _features((t - s_pts[run, None]) / h, obs.y[rows], kernel, d)
        y = x if grid else _features((t - t_pts[run, None]) / h, obs.y[rows], kernel, d)
        cells = np.ix_(run, run) if grid else (run,)
        for total, k in zip(sums, kinds):
            total[(...,) + cells] -= contract(x[k], y[k])
    M, R, count = sums
    return M, R, count[0, 0]


def _offset_cells(eval_times, h):
    """The cells (t - eps, t + eps) behind D', clipped to [0, 1]: (s, t) arrays."""
    eps = DIAG_EPS_FACTOR * h
    return np.maximum(eval_times - eps, 0.0), np.minimum(eval_times + eps, 1.0)


def surface_sums(obs, eval_times, d, h, kernel=EPANECHNIKOV, offset=False):
    """`_pair_sums` of one pass of `fit_cov_grid` at bandwidth h: the grid
    cells (s_i, t_j), or with `offset` the cells (t - eps, t + eps).

    The pass runs at one BLAS thread: the order in which the matrix
    products sum, and so the bytes of the fit, must not depend on the
    thread count.
    """
    from .lanes import _one_blas_thread  # compiled on the first call, not at import

    eval_times = np.asarray(eval_times, dtype=float)
    cells = _offset_cells(eval_times, h) if offset else (eval_times,)
    with _one_blas_thread():
        return _pair_sums(obs, h, kernel, d, *cells)


def fit_cov_grid(
    obs: SparseObservations,
    eval_times: np.ndarray,
    d: int = 1,
    h_G: float | None = None,
    kernel: KernelSpec = EPANECHNIKOV,
    max_flagged_frac: float = 0.2,
    sums: tuple | None = None,
) -> CovEstimate:
    """Fit the surface on every grid pair s <= t plus the diagonal arrays.

    Every cell is first solved at h_G from factorised pair sums; a cell
    whose window fails the `solve_wls` checks there is refitted by
    `fit_cov_at`, which widens or flags it.  `sums` holds the grid and
    the offset pass of `surface_sums` at h_G where they are taken already.
    """
    if d < 1:
        raise ValidationError("need degree >= 1 for surface derivatives")
    eval_times = np.asarray(eval_times, dtype=float)
    if h_G is None:
        h_G = default_bandwidth_cov(obs, d)
    if h_G <= 0:
        raise ValidationError("bandwidth must be positive")
    h = float(h_G)
    nt = eval_times.size
    iu = np.triu_indices(nt)
    eps = DIAG_EPS_FACTOR * h
    lo, hi = _offset_cells(eval_times, h)
    if sums is None:
        sums = [surface_sums(obs, eval_times, d, h, kernel, offset) for offset in (False, True)]
    M, R, count = (
        np.concatenate((g[..., iu[0], iu[1]], o), axis=-1) for g, o in zip(*sums)
    )
    beta, ok = _solve_cells(M, R, count, _monomial_exponents(d))
    fits = np.stack((beta[:, 0], beta[:, 1] / h, beta[:, 2] / h), axis=1)
    cell_s = np.concatenate((eval_times[iu[0]], lo))
    cell_t = np.concatenate((eval_times[iu[1]], hi))
    failed = np.zeros(ok.size, dtype=bool)
    scatter = None
    for c in np.flatnonzero(~ok):
        if scatter is None:
            scatter = pair_scatter(obs)
        try:
            fits[c] = fit_cov_at(scatter, float(cell_s[c]), float(cell_t[c]), d, h, kernel)
        except SparseWindowError:
            failed[c] = True

    # the diagonal pair carries the level at (t, t) with the offset partials,
    # so downstream quadrature sees one consistent value there
    ncell = iu[0].size
    on_diag = np.flatnonzero(iu[0] == iu[1])
    diag_flags = failed[on_diag] | failed[ncell:]
    diag_fits = fits[ncell:]
    diag_fits[:, 0] = fits[on_diag, 0]
    diag_fits[diag_flags] = np.nan
    fits[on_diag] = diag_fits
    failed[on_diag] = diag_flags
    G2, ds2, dt2 = np.full((3, nt, nt), np.nan)
    G2[iu], ds2[iu], dt2[iu] = fits[:ncell].T
    flags = np.zeros((nt, nt), dtype=bool)
    flags[iu] = failed[:ncell]
    D_hat = diag_fits[:, 0]
    dD_hat = diag_fits[:, 1] + diag_fits[:, 2]

    n_bad = int(failed[:ncell].sum())
    if n_bad > max_flagged_frac * ncell:
        raise EstimationFailedError(f"{n_bad}/{ncell} surface cells failed")
    return CovEstimate(
        eval_times=eval_times,
        G2=G2,
        ds2=ds2,
        dt2=dt2,
        pair_flags=flags,
        D_hat=D_hat,
        dD_hat=dD_hat,
        diag_flags=diag_flags,
        degree=d,
        bandwidth=h,
        kernel=kernel,
        eps_diag=eps,
        fallback_cells=int((~ok).sum()),
    )


def fit_diagonal_inclusive(
    obs: SparseObservations,
    eval_times: np.ndarray,
    h: float | None = None,
    kernel: KernelSpec = EPANECHNIKOV,
) -> np.ndarray:
    """1-D smooth of the squared observations Y_ij^2 along the diagonal.

    This is the fit that does NOT exclude same-index products, so it
    estimates D(t) + rho^2 rather than D(t).  It serves as the biased
    control in diagnostics and as an ingredient of the noise variance
    estimate.  The local linear fits come from the batched
    `fit_mean_points`; a point that fails even after widening raises
    SparseWindowError.
    """
    sq = replace_responses(obs, obs.y**2)
    if h is None:
        h = default_bandwidth_mean(sq, 1)
    eval_times = np.asarray(eval_times, dtype=float)
    out, _, flags = fit_mean_points(sq, eval_times, 1, h, kernel)
    if flags.any():
        raise SparseWindowError(float(eval_times[np.argmax(flags)]))
    return out


def replace_responses(obs: SparseObservations, new_y: np.ndarray) -> SparseObservations:
    """`obs` with responses `new_y`; it shares `obs.t`, and so its time order."""
    out = replace(obs, y=np.asarray(new_y, dtype=float))
    out.time_order = obs.time_order
    return out


def noise_variance_estimate(
    obs: SparseObservations,
    cov_est: CovEstimate,
    kernel: KernelSpec = EPANECHNIKOV,
    smooth=None,
) -> tuple[float, bool]:
    """Measurement noise variance rho^2 and a flag marking a zero floor.

    E[Y^2 | T = t] = D(t) + rho^2, so the average gap between the
    diagonal-inclusive smooth of Y^2 and the diagonal-excluding D_hat,
    taken over all observation times, estimates rho^2.  Averages that are
    negative, or no larger than the rounding of the two smooths
    (`_NOISE_FLOOR_RTOL` times their mean level), are floored at zero and
    flagged: noiseless data land there with either sign.  `smooth()`, where
    given, returns the smooth of Y^2 on the grid taken already.
    """
    grid = cov_est.eval_times
    ok = ~cov_est.diag_flags
    if ok.sum() < 2:
        raise EstimationFailedError("too few diagonal values for noise estimate")
    V = fit_diagonal_inclusive(obs, grid, h=None, kernel=kernel) if smooth is None else smooth()
    V_at = np.interp(obs.t, grid, V)
    D_at = np.interp(obs.t, grid[ok], cov_est.D_hat[ok])
    rho2 = float(np.mean(V_at - D_at))
    if rho2 <= _NOISE_FLOOR_RTOL * float(np.mean(np.abs(V_at))):
        return 0.0, True
    return rho2, False
