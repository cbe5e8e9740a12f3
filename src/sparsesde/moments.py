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

    def mean_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid, self.m)

    def second_moment_at(self, t) -> np.ndarray:
        return np.interp(t, self.grid, self.D)

    def drift_integral(self, s, t) -> np.ndarray:
        """int_s^t mu via the cached cumulative integral."""
        return np.interp(t, self.grid, self.M) - np.interp(s, self.grid, self.M)

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


def solve_moments(
    coeffs: CoefficientSet,
    levy: LevyConfig | float,
    m0: float,
    D0: float,
    grid: np.ndarray | None = None,
) -> MomentSolution:
    """Mean, second moment and cumulative drift integral on grid (default: span, step 1e-3)."""
    nu_K = (levy if isinstance(levy, LevyConfig) else LevyConfig(float(levy))).nu_K
    if D0 < m0**2:
        raise ValidationError("D0 must be >= m0^2")
    if grid is None:
        grid = _uniform_grid(coeffs.span[0], coeffs.span[1], DEFAULT_STEP)
    grid = np.asarray(grid, dtype=float)
    # an overflowing solution is caught by validate() below, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        M = cumulative_trapezoid(coeffs.mu(grid), grid)  # int_{grid[0]}^t mu
        m = m0 * np.exp(M)  # m' = mu m, exact up to quadrature of mu
        # D' = 2 mu D + sigma^2 + nu_K xi^2 by integrating factor
        forcing = coeffs.sigma(grid) ** 2 + nu_K * coeffs.xi(grid) ** 2
        D = np.exp(2.0 * M) * (D0 + cumulative_trapezoid(np.exp(-2.0 * M) * forcing, grid))
    sol = MomentSolution(grid=grid, m=m, D=D, M=M, coeffs=coeffs, nu_K=nu_K)
    sol.validate()
    return sol


def cov_value(solution: MomentSolution, s, t) -> np.ndarray:
    """Covariance surface E[X(s)X(t)] = exp(int_s^t mu) D(s) for s <= t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t - s < -1e-12):
        raise ValidationError("cov_value requires s <= t")
    return np.exp(solution.drift_integral(s, t)) * solution.second_moment_at(s)


def _fd_first(f, x: float, h: float, lo: float, hi: float, h_edge: float):
    """Second-order first derivative of f at x, one-sided at the domain edges.

    One-sided stencils use step ``h_edge``; callers working on a
    piecewise-linear interpolant should pass a multiple of its cell width
    so the stencil sees curvature rather than a single linear segment.
    f may return an array, which is differenced elementwise.
    """
    if x - h < lo:
        return (-3.0 * f(x) + 4.0 * f(x + h_edge) - f(x + 2 * h_edge)) / (2.0 * h_edge)
    if x + h > hi:
        return (3.0 * f(x) - 4.0 * f(x - h_edge) + f(x - 2 * h_edge)) / (2.0 * h_edge)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def H_value(solution: MomentSolution, t: float) -> float:
    """Averaged-identity value of the noise sum at t.

    Averages exp(-int_t^tau mu) dG/ds(t, tau) over tau in (t, 1], then
    subtracts mu(t) D(t).  The integrand is constant in tau when G is exact,
    so the average reproduces sigma(t)^2 + nu_K xi(t)^2; computing it by
    finite differences plus trapezoid keeps this routine an independent
    check rather than a restatement of the coefficient functions.

    The difference stencil has step FD_STEP; the tau range starts at
    t + 2*FD_STEP so it never crosses the diagonal; near t = 1 the
    shrinking interval is still averaged over at least two nodes.
    """
    grid = solution.grid
    t = float(t)
    t1 = grid[-1]
    if not grid[0] <= t < t1:
        raise ValidationError(f"t={t} outside [{grid[0]}, {t1})")
    # one-sided stencils must span whole interpolation cells to see the
    # solution's curvature rather than one linear segment
    h_edge = max(FD_STEP, 2.0 * (grid[1] - grid[0]))
    h = h_edge if t - FD_STEP < grid[0] else FD_STEP
    lo = t + 2.0 * h + 1e-12
    if lo >= t1:
        raise ValidationError(f"t={t} too close to {t1} for the averaging stencil")
    taus = grid[(grid > lo) & (grid <= t1)]
    taus = np.concatenate(([lo], taus)) if taus.size else np.array([lo, t1])
    if taus.size < 2:
        taus = np.array([lo, 0.5 * (lo + t1), t1])
    ds = _fd_first(lambda x: cov_value(solution, x, taus), t, FD_STEP, grid[0], t1, h_edge)
    integrand = np.exp(-solution.drift_integral(t, taus)) * ds
    avg = np.trapezoid(integrand, taus) / (taus[-1] - taus[0])
    mu_t = float(solution.coeffs.mu(np.asarray([t]))[0])
    return float(avg - mu_t * solution.second_moment_at(t))
