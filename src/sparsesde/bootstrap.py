"""Curve-level bootstrap at one time point from per-curve sufficient statistics.

The pointwise estimate at t* (mean fit, drift threshold, diagonal surface
fit, separation) reads only window sums, and each window sum is a sum over
curves: the mean fit's kernel moments, responses and active rows directly,
the surface fit's pair sums and active pairs because a curve's sum over its
pairs j != k is the product of its two feature sums minus its j = k terms.
So one n x k table of per-curve sums gives every resample's sums by adding
up the rows of its drawn curves, and all resamples are solved in one batch.  Each fit that
fails a check is solved again at the next bandwidth of `meanfit`'s window
rule, from the table rebuilt there and gathered for the failing resamples
only, as the pointwise chain `point_estimates` widens it.

`harness.run_bootstrap` loads this module on its first call, so the other
commands do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .covfit import _monomial_exponents, _offset_cells, fit_diag, pair_scatter
from .errors import EstimationFailedError, SparseWindowError
from .meanfit import _bandwidths, _features, _kinds, _solve_cells, _solve_mean, fit_mean_points
from .recover import separate

KEYS = ("mu", "sigma2", "xi2")


def point_estimates(data, t_star: float, st, thr: float) -> tuple[float, float, float]:
    """(mu, sigma2, xi2) at t_star on one observation set, by pointwise fits.

    `st` holds the run's settings (`harness._Settings`).  Mean fit, drift
    threshold, diagonal surface fit, separation; each fit widens its window
    as it needs, and the mean fit is the one `fit_mean_curve` makes at
    t_star.  Raises SparseSdeError when a step fails.
    """
    (m,), (dm,), (failed,) = fit_mean_points(data, [t_star], st.d_mean, st.h_m, st.kernel)
    if failed:
        raise SparseWindowError(t_star)
    if abs(m) < thr:
        raise EstimationFailedError(f"|m_hat({t_star})| below drift threshold")
    mu = dm / m
    # perfbench's bootstrap check imports fit_diag and pair_scatter, and a traced
    # bootstrap call gets its only covfit-layer spans from this line: dropping
    # this route needs a perfbench change too
    D, dD = fit_diag(pair_scatter(data), t_star, st.d_cov, st.h_G, st.kernel)
    s_val = max(dD - 2.0 * mu * D, 0.0)
    sigma2, xi2, _ = separate(np.asarray([t_star]), np.asarray([s_val]), st.policy, st.nu_K)
    return float(mu), float(sigma2[0]), float(xi2[0])


def _curve_pair_sums(obs, h, kernel, d, s_pts, t_pts):
    """Per-curve sums over within-curve pairs j != k at the cells (s_pts[c], t_pts[c]).

    A curve's pair sum is the product of its two feature sums minus its
    j = k terms.  Returns M, R and the active-pair count as
    `covfit.surface_sums` defines them, each with trailing axes (cell, curve).
    """
    starts = obs.curve_bounds()[:-1]
    left, right = (
        _features((obs.t[None] - c[:, None]) / h, obs.y, kernel, d) for c in (s_pts, t_pts)
    )
    out = []
    for k in _kinds(d):
        x, y = left[k], right[k]
        cx = np.add.reduceat(x, starts, axis=-1)
        cy = np.add.reduceat(y, starts, axis=-1)
        same = np.stack([np.add.reduceat(xp * y, starts, axis=-1) for xp in x])
        out.append(cx[:, None] * cy[None] - same)
    return out


def _corner(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (P, Q) of the k x k entries with P + Q < k.

    A basis of total degree d reads exactly these entries of the pair
    sums: M[P, Q] with P + Q <= 2d (k = 2d + 1) and R[p, q] with
    p + q <= d (k = d + 1).
    """
    P, Q = np.indices((k, k)).reshape(2, -1)
    keep = P + Q < k
    return P[keep], Q[keep]


def _from_corner(kept: np.ndarray, k: int) -> np.ndarray:
    """The k x k layout of the entries `kept` holds in `_corner(k)` order; the
    entries no solve reads are zero."""
    out = np.zeros((k, k) + kept.shape[1:])
    out[_corner(k)] = kept
    return out


def _curve_statistics(obs, t_star: float, st, h_m: float, h_G: float):
    """Per-curve sums behind the fits of `point_estimates` at bandwidths h_m and h_G.

    Returns (table, shapes).  Row i of the (n, k) table holds curve i's
    mean-window sums of `meanfit._features` at t_star, then its pair sums
    and active-pair counts at the cells (t*, t*) and (t* - eps, t* + eps) of
    `fit_diag` (`covfit._offset_cells` at st.h_G); of the pair sums it keeps
    only the `_corner` entries the surface solve reads.  `shapes` gives each
    block's leading shape.  The weights' common factors 1/h and 1/h^2
    cancel in the solves and are left out.
    """
    starts = obs.curve_bounds()[:-1]
    n = starts.size
    mean = _features((obs.t - t_star) / h_m, obs.y, st.kernel, st.d_mean)
    mean = np.add.reduceat(mean, starts, axis=-1)
    lo, hi = _offset_cells(t_star, st.h_G)
    cells = np.asarray([[t_star, lo], [t_star, hi]])
    M, R, count = _curve_pair_sums(obs, h_G, st.kernel, st.d_cov, *cells)
    M, R = M[_corner(M.shape[0])], R[_corner(R.shape[0])]
    parts = [mean, M, R, count[0, 0]]
    table = np.concatenate([p.reshape(-1, n) for p in parts]).T.copy()
    return table, [p.shape[:-1] for p in parts]


def _resample_sums(table, draws):
    """Table sums of each row of draws.

    One draw position at a time, gathered into one reused slab of rows x k,
    keeps the working set small; the rows are added in draw order, so the
    sums are those of `sums += table[c]`.  `mode="clip"` lets `take` write
    straight into the slab (the default "raise" buffers it); every draw is
    a valid curve index.
    """
    sums = np.zeros((draws.shape[0], table.shape[1]))
    slab = np.empty_like(sums)
    for c in draws.T:
        sums += table.take(c, axis=0, out=slab, mode="clip")
    return sums


def gathered_estimates(obs, t_star: float, st, thr: float, draws: np.ndarray):
    """Batched estimates of each resample, a row of curve indices in draws.

    Returns (est, used, fallback), est being (rows, 3).  Each of a row's
    fits, the mean and the cells (t*, t*) and (t* - eps, t* + eps), keeps
    the first bandwidth of `meanfit._bandwidths` at which it passes the
    checks of `solve_wls`, decided as `meanfit._solve_cells` decides them; a
    row stops widening once its mean falls below the drift threshold.  Used
    rows passed all three and the threshold; fallback rows failed a check at
    h_m or h_G and widened.
    """
    n_rows = draws.shape[0]
    fit = np.full((4, n_rows), np.nan)  # m, dm, D, dD
    ok = np.zeros((3, n_rows), dtype=bool)  # mean, (t*, t*) cell, offset cell
    rows = slice(None)  # the first pass reads every row of draws without a copy
    expo = _monomial_exponents(st.d_cov)
    for k, (h_m, h_G) in enumerate(zip(_bandwidths(st.h_m), _bandwidths(st.h_G))):
        table, shapes = _curve_statistics(obs, t_star, st, h_m, h_G)
        sums = _resample_sums(table, draws[rows])
        blocks = np.split(sums.T, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        mean, M, R, count = (b.reshape(sh + (-1,)) for b, sh in zip(blocks, shapes))
        M, R = _from_corner(M, 2 * st.d_cov + 1), _from_corner(R, st.d_cov + 1)
        mean_beta, mean_ok = _solve_mean(mean, st.d_mean)
        beta, cell_ok = _solve_cells(M, R, count, expo)
        dD = beta[1, :, 1] / h_G + beta[1, :, 2] / h_G
        now = np.stack((mean_beta[:, 0], mean_beta[:, 1] / h_m, beta[0, :, 0], dD))
        passed = np.stack((mean_ok, *cell_ok)) & ~ok[:, rows]  # each fit keeps its first pass
        fit[:, rows] = np.where(passed[[0, 0, 1, 2]], now, fit[:, rows])
        ok[:, rows] |= passed
        retry = ~ok[0] | ((np.abs(fit[0]) >= thr) & ~ok[1:].all(axis=0))
        if k == 0:
            fallback = retry
        rows = np.flatnonzero(retry)
        if not rows.size:
            break

    m, dm, D, dD = fit
    used = ok.all(axis=0) & (np.abs(m) >= thr)
    est = np.full((n_rows, len(KEYS)), np.nan)
    mu = dm[used] / m[used]
    s_val = np.maximum(dD[used] - 2.0 * mu * D[used], 0.0)
    sigma2, xi2, _ = separate(np.asarray([t_star]), s_val, st.policy, st.nu_K)
    est[used] = np.stack((mu, sigma2, xi2), axis=1)
    return est, used, fallback
