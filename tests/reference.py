"""Reference routines that tests compare the package against.

No command runs these: each is an independent, slower or per-point route
to a quantity the package computes another way, kept here as an oracle.
"""

import numpy as np

from sparsesde import CovEstimate, MomentSolution, ValidationError, cov_value
from sparsesde.meanfit import _features, _window_runs
from sparsesde.moments import FD_STEP, _fd_first, cumulative_trapezoid
from sparsesde.recover import _tri_node


def noise_sum_at(solution: MomentSolution, t) -> np.ndarray:
    """sigma^2 + nu_K xi^2 evaluated from the stored coefficients."""
    t = np.asarray(t, dtype=float)
    return solution.coeffs.sigma(t) ** 2 + solution.nu_K * solution.coeffs.xi(t) ** 2


def verify_pde_identity(
    solution: MomentSolution,
    s: float,
    t: float,
    fd_step: float = FD_STEP,
) -> tuple[float, float]:
    """Residuals of the two covariance-surface identities at interior (s, t).

    Returns (residual_t, residual_s) where

        residual_t = dG/dt (s,t) - mu(t) G(s,t)
        residual_s = [exp(-int_s^t mu) dG/ds (s,t) - mu(s) D(s)]
                     - [sigma(s)^2 + nu_K xi(s)^2]

    with the partials taken by central differences (step ``fd_step``).  Both
    should vanish to quadrature accuracy for a solution produced by
    solve_moments; corrupting D breaks the second residual.
    """
    s, t, grid = float(s), float(t), solution.grid
    if not (grid[0] + fd_step <= s <= t - 2 * fd_step):
        raise ValidationError("need s in the interior with s < t")
    if t + fd_step > grid[-1]:
        raise ValidationError("t too close to the right endpoint for the stencil")
    mu_t = float(solution.coeffs.mu(np.asarray([t]))[0])
    mu_s = float(solution.coeffs.mu(np.asarray([s]))[0])
    G = float(cov_value(solution, s, t))
    dG_dt = float(
        _fd_first(lambda x: cov_value(solution, s, x), t, fd_step, s, grid[-1], fd_step)
    )
    residual_t = dG_dt - mu_t * G
    dG_ds = float(_fd_first(lambda x: cov_value(solution, x, t), s, fd_step, grid[0], t, fd_step))
    left = np.exp(-float(solution.drift_integral(s, t))) * dG_ds - mu_s * float(
        solution.second_moment_at(s)
    )
    residual_s = left - float(noise_sum_at(solution, s))
    return residual_t, residual_s


def oracle_mean_curve(solution: MomentSolution, eval_grid: np.ndarray):
    """Exact (m, dm) on a grid; dm uses m' = mu m, no differencing."""
    eval_grid = np.asarray(eval_grid, dtype=float)
    m = solution.mean_at(eval_grid)
    dm = solution.coeffs.mu(eval_grid) * m
    return m, dm


def oracle_surface_values(solution: MomentSolution, s, t):
    """Exact (G, dG/ds, dG/dt) from the factorised surface.

    Uses D' = 2 mu D + sigma^2 + nu_K xi^2 to avoid finite differences, so
    the output is exact up to the quadrature already inside the solution.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    E = np.exp(solution.drift_integral(s, t))
    D_s = solution.second_moment_at(s)
    mu_s = solution.coeffs.mu(s)
    mu_t = solution.coeffs.mu(t)
    dD_s = 2.0 * mu_s * D_s + noise_sum_at(solution, s)
    G = E * D_s
    dsG = E * (dD_s - mu_s * D_s)
    dtG = mu_t * G
    return G, dsG, dtG


def estimate_H(
    grid: np.ndarray,
    mu_hat: np.ndarray,
    cov_est: CovEstimate,
    t: float,
    epsilon: float = 0.1,
) -> float:
    """Triangular (averaged-identity) estimate of s(t).

    Quadrature runs over the unflagged grid nodes tau in (t, 1]; the node
    at tau = t itself is excluded (the partial there comes from the
    diagonal fit and answers a different question).  Flagged nodes drop
    out and the average renormalises over the span actually covered.
    Requires t <= 1 - epsilon and at least two usable nodes.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.array_equal(grid, cov_est.eval_times):
        raise ValidationError("drift grid and surface grid must coincide")
    t = float(t)
    if t > 1.0 - epsilon + 1e-12:
        raise ValidationError(f"t={t} violates t <= 1 - epsilon = {1 - epsilon}")
    near = np.flatnonzero(np.isclose(grid, t, atol=1e-10))
    if near.size == 0:
        raise ValidationError(f"t={t} is not a grid node")
    return _tri_node(grid, cumulative_trapezoid(mu_hat, grid), mu_hat, cov_est, int(near[0]), t)


def centre_major_curve_sums(obs, starts, centres, h, kernel, d):
    """`covfit._curve_sums` with its bins keyed centre-major, as it was first
    written: each row's band of centres is summed by `np.bincount` into bins
    centre * nb + curve, so the flat sums already lie (power, centre, curve).
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
