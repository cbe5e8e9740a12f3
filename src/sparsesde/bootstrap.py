"""Curve-level bootstrap at one time point from per-curve sufficient statistics.

The pointwise estimate at t* (mean fit, drift threshold, diagonal surface
fit, separation) reads only window sums, and each window sum is a sum over
curves: the mean fit's kernel moments and responses directly, the surface
fit's pair sums because a curve's sum over its pairs j != k is the product
of its two feature sums minus its j = k terms.  So one n x k table of
per-curve sums at the original bandwidths gives every resample's sums by
adding up the rows of its drawn curves, and all resamples are solved in
one batch.  A resample whose window fails a check there goes to the
pointwise chain `point_estimates`, which widens the window or fails.

`harness.run_bootstrap` loads this module on its first call, so the other
commands do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .covfit import DIAG_EPS_FACTOR, _monomial_exponents, fit_diag, pair_scatter
from .errors import EstimationFailedError, SparseWindowError
from .meanfit import _features, _solve_cells, fit_mean_points
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
    D, dD = fit_diag(pair_scatter(data), t_star, st.d_cov, st.h_G, st.kernel)
    s_val = max(dD - 2.0 * mu * D, 0.0)
    sigma2, xi2, _ = separate(np.asarray([t_star]), np.asarray([s_val]), st.policy, st.nu_K)
    return float(mu), float(sigma2[0]), float(xi2[0])


def _window_features(obs, lo: int, hi: int, centres, h, kernel, d):
    """`meanfit._features` of rows lo:hi at each centre c, with a = (T - c)/h.

    Returns its moments, responses and window indicator, each stacked as
    (power, centre, observation).
    """
    F = _features((obs.t[None, lo:hi] - centres[:, None]) / h, obs.y[lo:hi], kernel, d)
    return F[: 2 * d + 1], F[2 * d + 1 : -1], F[-1:]


def _curve_pair_sums(obs, h, kernel, d, s_pts, t_pts):
    """Per-curve sums over within-curve pairs j != k at the cells (s_pts[c], t_pts[c]).

    A curve's pair sum is the product of its two feature sums minus its
    j = k terms.  Returns M, R and the active-pair count as
    `covfit._pair_sums` defines them, each with trailing axes (cell, curve);
    summed over the curves they are `_pair_sums(obs, h, kernel, d, s_pts, t_pts)`.
    """
    starts = obs.curve_bounds()[:-1]
    left = _window_features(obs, 0, obs.total, s_pts, h, kernel, d)
    right = _window_features(obs, 0, obs.total, t_pts, h, kernel, d)
    out = []
    for x, y in zip(left, right):
        cx = np.add.reduceat(x, starts, axis=-1)
        cy = np.add.reduceat(y, starts, axis=-1)
        same = np.stack([np.add.reduceat(xp * y, starts, axis=-1) for xp in x])
        out.append(cx[:, None] * cy[None] - same)
    return out


def _curve_statistics(obs, t_star: float, st):
    """Per-curve sums behind the fits of `point_estimates` at h_m and h_G.

    Returns (table, shapes, own, shared).  Row i of the (n, k) table holds
    curve i's mean-fit sums K(u)u^P and K(u)u^p Y at t_star, then its pair
    sums and active-pair counts at the cells (t*, t*) and
    (t* - eps, t* + eps) of `fit_diag`; `shapes` gives the leading shape of
    each block.  The distinct design times in the mean window, which
    `fit_mean_at` counts, are own[i] times held by curve i alone plus the
    columns of the (n, S) presence matrix `shared` for times held by several
    curves.  The common factors 1/h and 1/h^2 of the weights cancel in the
    solves and are left out.
    """
    bounds = obs.curve_bounds()
    n = bounds.size - 1
    centre = np.asarray([t_star])
    mom, resp, ind = _window_features(obs, 0, obs.total, centre, st.h_m, st.kernel, st.d_mean)
    # the single centre axis stands for the exponent q = 0 of `_solve_cells`
    mean_M = np.add.reduceat(mom, bounds[:-1], axis=-1)
    mean_R = np.add.reduceat(resp, bounds[:-1], axis=-1)
    eps = DIAG_EPS_FACTOR * st.h_G
    cells = np.asarray([[t_star, max(t_star - eps, 0.0)], [t_star, min(t_star + eps, 1.0)]])
    M, R, count = _curve_pair_sums(obs, st.h_G, st.kernel, st.d_cov, *cells)
    parts = [mean_M, mean_R, M, R, count[0, 0]]
    table = np.concatenate([p.reshape(-1, n) for p in parts]).T.copy()

    active = np.flatnonzero(ind[0, 0])
    curve = np.repeat(np.arange(n), np.diff(bounds))[active]
    _, which = np.unique(obs.t[active], return_inverse=True)
    holders = np.bincount(which)[which]
    own = np.bincount(curve[holders == 1], minlength=n)
    multi = holders > 1
    times, col = np.unique(which[multi], return_inverse=True)
    shared = np.zeros((n, times.size), dtype=bool)
    shared[curve[multi], col] = True
    return table, [p.shape[:-1] for p in parts], own, shared


def _resample_sums(table, own, shared, draws):
    """Table sums and distinct mean-window times of the identity and each draw row.

    One draw position at a time keeps the working set at one (B + 1) x k
    slab.  The identity resample, which draws curve j at position j, rides
    along as row 0, so it is reduced in the same order as the others.
    """
    n_rows, n = draws.shape[0] + 1, table.shape[0]
    sums = np.zeros((n_rows, table.shape[1]))
    distinct = np.zeros(n_rows, dtype=int)
    drawn = np.zeros((n_rows, n), dtype=bool)
    rows = np.arange(n_rows)
    for j in range(n):
        c = np.concatenate(([j], draws[:, j]))
        sums += table[c]
        distinct += np.where(drawn[rows, c], 0, own[c])  # a curve's own times count once
        drawn[rows, c] = True
    return sums, distinct + (drawn @ shared).sum(axis=1)


def gathered_estimates(obs, t_star: float, st, thr: float, draws: np.ndarray):
    """Batched estimates of the identity resample (row 0) and each row of draws.

    Returns (est, solved, chain), est being (B + 1, 3).  Solved rows passed
    the checks of `solve_wls` and `fit_mean_at` at h_m and h_G and the drift
    threshold; chain rows failed a check and need the widening of
    `point_estimates`; the rest fell below the threshold.
    """
    table, shapes, own, shared = _curve_statistics(obs, t_star, st)
    sums, distinct = _resample_sums(table, own, shared, draws)
    n_rows = sums.shape[0]
    sizes = [math.prod(shape) for shape in shapes]
    blocks = np.split(sums.T, np.cumsum(sizes)[:-1])
    mean_M, mean_R, M, R, count = (
        b.reshape(shape + (n_rows,)) for b, shape in zip(blocks, shapes)
    )

    beta, mean_ok = _solve_cells(mean_M, mean_R, distinct, [(p, 0) for p in range(st.d_mean + 1)])
    m, dm = beta[:, 0], beta[:, 1] / st.h_m
    above = mean_ok & (np.abs(m) >= thr)
    beta, cell_ok = _solve_cells(M, R, count, _monomial_exponents(st.d_cov))
    D = beta[0, :, 0]
    dD = beta[1, :, 1] / st.h_G + beta[1, :, 2] / st.h_G
    solved = above & cell_ok.all(axis=0)
    est = np.full((n_rows, len(KEYS)), np.nan)
    mu = dm[solved] / m[solved]
    s_val = np.maximum(dD[solved] - 2.0 * mu * D[solved], 0.0)
    sigma2, xi2, _ = separate(np.asarray([t_star]), s_val, st.policy, st.nu_K)
    est[solved] = np.stack((mu, sigma2, xi2), axis=1)
    return est, solved, ~mean_ok | (above & ~solved)
