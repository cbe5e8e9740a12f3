"""Deterministic moment solver for the linear jump SDE.

The first two moments of dX = mu X dt + sigma dW + xi d(comp. jumps) obey
closed ODEs in the deterministic coefficients:

    m'(t) = mu(t) m(t)
    D'(t) = 2 mu(t) D(t) + sigma(t)^2 + nu_K xi(t)^2

with m = E[X] and D = E[X^2].  The covariance surface factorises on the
triangle s <= t as G(s, t) = exp(int_s^t mu) D(s), which yields a small web
of identities used to cross-check estimators:

    dG/dt (s, t)                                = mu(t) G(s, t)
    exp(-int_s^t mu) dG/ds (s, t) - mu(s) D(s)  = sigma(s)^2 + nu_K xi(s)^2

and the second line is constant in t, so its average over t in (s, 1] is a
third route to the same noise sum.  Everything here is quadrature on a fixed
grid (trapezoid, default step 1e-3) plus central finite differences; no
randomness is involved, which is what makes this module usable as an oracle
for the statistical code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import CoefficientSet, LevyConfig

DEFAULT_STEP = 1e-3
FD_STEP = 1e-4


def _uniform_grid(t0: float, t1: float, step: float) -> np.ndarray:
    n = max(int(round((t1 - t0) / step)), 2)
    return np.linspace(t0, t1, n + 1)


@dataclass(frozen=True)
class MomentSolution:
    """First and second moments on a grid, with enough context to re-derive
    the covariance surface.

    ``M`` caches the cumulative drift integral int_{t0}^t mu, so that
    exp(int_s^t mu) = exp(M(t) - M(s)) costs two interpolations.
    """

    grid: np.ndarray
    m: np.ndarray
    D: np.ndarray
    M: np.ndarray
    coeffs: CoefficientSet
    nu_K: float
    m0: float
    D0: float

    @property
    def coeff_id(self) -> str:
        return self.coeffs.coeff_id

    def mean_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid, self.m)

    def second_moment_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid, self.D)

    def drift_integral(self, s, t) -> np.ndarray:
        """int_s^t mu via the cached cumulative integral."""
        return np.interp(t, self.grid, self.M) - np.interp(s, self.grid, self.M)

    def noise_sum_at(self, t) -> np.ndarray:
        """sigma^2 + nu_K xi^2 evaluated from the stored coefficients."""
        t = np.asarray(t, dtype=float)
        return self.coeffs.sigma(t) ** 2 + self.nu_K * self.coeffs.xi(t) ** 2

    def validate(self) -> None:
        if not np.all(np.isfinite(self.m)) or not np.all(np.isfinite(self.D)):
            raise ValidationError("moment solution contains non-finite values")
        # E[X^2] >= (E[X])^2, allow quadrature slack
        if np.any(self.D < self.m**2 - 1e-9):
            raise ValidationError("second moment fell below squared mean")


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y over the nodes x, starting at 0.

    The operations and their order are those of scipy's
    `cumulative_trapezoid(y, x, initial=0)`, so the results agree bitwise.
    """
    y, x = np.asarray(y), np.asarray(x)
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _drift_integral(coeffs: CoefficientSet, grid: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral int_{grid[0]}^t mu on the grid."""
    return cumulative_trapezoid(coeffs.mu(grid), grid)


def solve_mean(coeffs: CoefficientSet, m0: float, grid: np.ndarray) -> np.ndarray:
    """Solve m' = mu m with m(grid[0]) = m0; exact up to quadrature of mu."""
    grid = np.asarray(grid, dtype=float)
    return m0 * np.exp(_drift_integral(coeffs, grid))


def solve_second_moment(
    coeffs: CoefficientSet, nu_K: float, D0: float, grid: np.ndarray
) -> np.ndarray:
    """Solve D' = 2 mu D + sigma^2 + nu_K xi^2 by integrating factor."""
    grid = np.asarray(grid, dtype=float)
    M = _drift_integral(coeffs, grid)
    forcing = coeffs.sigma(grid) ** 2 + nu_K * coeffs.xi(grid) ** 2
    inner = cumulative_trapezoid(np.exp(-2.0 * M) * forcing, grid)
    return np.exp(2.0 * M) * (D0 + inner)


def solve_moments(
    coeffs: CoefficientSet,
    levy: LevyConfig | float,
    m0: float,
    D0: float,
    grid: np.ndarray | None = None,
    step: float = DEFAULT_STEP,
) -> MomentSolution:
    """Bundle mean, second moment and the cumulative drift integral."""
    nu_K = levy.nu_K if isinstance(levy, LevyConfig) else float(levy)
    if D0 < m0**2:
        raise ValidationError("D0 must be >= m0^2")
    if grid is None:
        grid = _uniform_grid(coeffs.span[0], coeffs.span[1], step)
    grid = np.asarray(grid, dtype=float)
    # an overflowing solution is caught by validate() below, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        m = solve_mean(coeffs, m0, grid)
        D = solve_second_moment(coeffs, nu_K, D0, grid)
        M = _drift_integral(coeffs, grid)
    sol = MomentSolution(
        grid=grid, m=m, D=D, M=M, coeffs=coeffs, nu_K=nu_K, m0=m0, D0=D0
    )
    sol.validate()
    return sol


def cov_value(solution: MomentSolution, s, t) -> np.ndarray:
    """Covariance surface E[X(s)X(t)] = exp(int_s^t mu) D(s) for s <= t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t - s < -1e-12):
        raise ValidationError("cov_value requires s <= t")
    return np.exp(solution.drift_integral(s, t)) * solution.second_moment_at(s)


def _ds_cov(solution: MomentSolution, s, t, fd_step: float) -> np.ndarray:
    # central difference in the first argument; stays inside s <= t
    return (
        cov_value(solution, s + fd_step, t) - cov_value(solution, s - fd_step, t)
    ) / (2.0 * fd_step)


def _ds_cov_forward(solution: MomentSolution, s, t, h: float) -> np.ndarray:
    # second-order forward stencil for s at the left boundary; h should be
    # a multiple of the solution grid cell so the stencil lands on nodes
    # rather than inside one linear interpolation segment
    return (
        -3.0 * cov_value(solution, s, t)
        + 4.0 * cov_value(solution, s + h, t)
        - cov_value(solution, s + 2.0 * h, t)
    ) / (2.0 * h)


def H_value(
    solution: MomentSolution,
    t: float,
    fd_step: float = FD_STEP,
) -> float:
    """Averaged-identity value of the noise sum at t.

    Averages exp(-int_t^tau mu) dG/ds(t, tau) over tau in (t, 1], then
    subtracts mu(t) D(t).  The integrand is constant in tau when G is exact,
    so the average reproduces sigma(t)^2 + nu_K xi(t)^2; computing it by
    finite differences plus trapezoid keeps this routine an independent
    check rather than a restatement of the coefficient functions.

    The tau range starts at t + 2*fd_step so the difference stencil never
    crosses the diagonal; near t = 1 the shrinking interval is still
    averaged over at least two nodes.
    """
    grid = solution.grid
    t = float(t)
    t1 = grid[-1]
    if not grid[0] <= t < t1:
        raise ValidationError(f"t={t} outside [{grid[0]}, {t1})")
    cell = grid[1] - grid[0]
    at_left_edge = t - fd_step < grid[0]
    # one-sided stencils must span whole interpolation cells to see the
    # solution's curvature rather than one linear segment
    h = max(fd_step, 2.0 * cell) if at_left_edge else fd_step
    lo = t + 2.0 * h + 1e-12
    if lo >= t1:
        raise ValidationError(f"t={t} too close to {t1} for the averaging stencil")
    taus = grid[(grid > lo) & (grid <= t1)]
    taus = np.concatenate(([lo], taus)) if taus.size else np.array([lo, t1])
    if taus.size < 2:
        taus = np.array([lo, 0.5 * (lo + t1), t1])
    if at_left_edge:
        ds = _ds_cov_forward(solution, t, taus, h)
    else:
        ds = _ds_cov(solution, t, taus, h)
    integrand = np.exp(-solution.drift_integral(t, taus)) * ds
    avg = np.trapezoid(integrand, taus) / (taus[-1] - taus[0])
    mu_t = float(solution.coeffs.mu(np.asarray([t]))[0])
    return float(avg - mu_t * solution.second_moment_at(t))


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
    s, t = float(s), float(t)
    if not (solution.grid[0] + fd_step <= s <= t - 2 * fd_step):
        raise ValidationError("need s in the interior with s < t")
    if t + fd_step > solution.grid[-1]:
        raise ValidationError("t too close to the right endpoint for the stencil")
    mu_t = float(solution.coeffs.mu(np.asarray([t]))[0])
    mu_s = float(solution.coeffs.mu(np.asarray([s]))[0])
    G = float(cov_value(solution, s, t))
    dG_dt = float(
        (cov_value(solution, s, t + fd_step) - cov_value(solution, s, t - fd_step))
        / (2.0 * fd_step)
    )
    residual_t = dG_dt - mu_t * G
    dG_ds = float(_ds_cov(solution, s, t, fd_step))
    left = np.exp(-float(solution.drift_integral(s, t))) * dG_ds - mu_s * float(
        solution.second_moment_at(s)
    )
    residual_s = left - float(solution.noise_sum_at(s))
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
    dD_s = 2.0 * mu_s * D_s + solution.noise_sum_at(s)
    G = E * D_s
    dsG = E * (dD_s - mu_s * D_s)
    dtG = mu_t * G
    return G, dsG, dtG
