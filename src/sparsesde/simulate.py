"""Euler scheme for the linear SDE with compensated small jumps.

One step over [t_k, t_k + dt]:

    X_{k+1} = X_k + mu(t_k) X_k dt + sigma(t_k) sqrt(dt) Z_k
              + xi(t_k) (N_k - nu_K dt)

with Z_k standard normal and N_k Poisson(nu_K dt).  Because the jump
coefficient does not depend on the jump size, only the per-step jump count
matters and the Poisson counts are an exact representation of the small-jump
integral increment.

Reproducibility: an ensemble derives one uint64 seed per path from the
master seed via SeedSequence, plus a separate stream for initial values, so
any single path can be regenerated bit-for-bit in isolation and workers in a
parallel setting may own disjoint blocks of paths without sharing generator
state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SimulationDivergedError, ValidationError
from .model import CoefficientSet, LevyConfig

# child-stream tags under the master seed
_STREAM_PATHS = 0
_STREAM_X0 = 1


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid with steps+1 points on [t0, t1]."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValidationError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValidationError("need at least one step")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.steps + 1)


@dataclass
class SamplePathSet:
    """Ensemble of simulated paths, one row per path."""

    grid: PathGrid
    values: np.ndarray  # shape (n, steps+1)
    seeds: np.ndarray  # uint64 per path
    coeff_id: str

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def path_at(self, i: int, times: np.ndarray) -> np.ndarray:
        """Linear interpolation of path i at arbitrary times inside the grid."""
        return np.interp(times, self.grid.points, self.values[i])


def _euler_core(
    coeffs: CoefficientSet,
    levy: LevyConfig,
    grid: PathGrid,
    x0: np.ndarray,
    Z: np.ndarray,
    N: np.ndarray,
) -> np.ndarray:
    """Shared recursion; Z, N have shape (steps, m), x0 shape (m,).

    Returns values with shape (m, steps+1).  The loop is over time, with all
    paths advanced at once: per-element arithmetic is identical whether m is
    1 or 10^4, so single-path and ensemble runs agree bitwise.
    """
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    tk = grid.points[:-1]
    mu_k = coeffs.mu(tk)
    sig_k = coeffs.sigma(tk)
    xi_k = coeffs.xi(tk)
    comp = levy.nu_K * dt

    m = x0.shape[0]
    out = np.empty((grid.steps + 1, m))
    out[0] = x0
    x = x0.astype(float, copy=True)
    for k in range(grid.steps):
        x = x + mu_k[k] * x * dt + sig_k[k] * sqrt_dt * Z[k] + xi_k[k] * (N[k] - comp)
        out[k + 1] = x

    if not np.isfinite(x).all():
        ok = np.isfinite(out).all(axis=1)
        step = int(np.argmin(ok))
        path = int(np.argmin(np.isfinite(out[step])))
        raise SimulationDivergedError(step=step, path=path)
    return np.ascontiguousarray(out.T)


def simulate_path(
    coeffs: CoefficientSet,
    levy: LevyConfig,
    grid: PathGrid,
    x0: float,
    seed: int,
) -> np.ndarray:
    """One path on the grid; returns steps+1 values starting at x0."""
    _check_span(coeffs, grid)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((grid.steps, 1))
    N = rng.poisson(levy.nu_K * grid.dt, (grid.steps, 1)).astype(float)
    return _euler_core(coeffs, levy, grid, np.array([float(x0)]), Z, N)[0]


def simulate_ensemble(
    coeffs: CoefficientSet,
    levy: LevyConfig,
    grid: PathGrid,
    x0_law,
    n: int,
    master_seed: int,
) -> SamplePathSet:
    """n independent paths with per-path child seeds.

    Path i uses the i-th word of SeedSequence([master_seed, 0]); initial
    values come from SeedSequence([master_seed, 1]) so that swapping the
    initial law never disturbs the driving noise.
    """
    if n < 1:
        raise ValidationError("need n >= 1 paths")
    _check_span(coeffs, grid)
    seeds = np.random.SeedSequence([master_seed, _STREAM_PATHS]).generate_state(
        n, dtype=np.uint64
    )
    x0_rng = np.random.default_rng(np.random.SeedSequence([master_seed, _STREAM_X0]))
    x0 = np.asarray(x0_law.sample(x0_rng, n), dtype=float)

    lam = levy.nu_K * grid.dt
    Z = np.empty((grid.steps, n))
    N = np.empty((grid.steps, n))
    for i in range(n):
        rng = np.random.default_rng(int(seeds[i]))
        Z[:, i] = rng.standard_normal(grid.steps)
        N[:, i] = rng.poisson(lam, grid.steps)
    values = _euler_core(coeffs, levy, grid, x0, Z, N)
    return SamplePathSet(grid=grid, values=values, seeds=seeds, coeff_id=coeffs.coeff_id)


def _check_span(coeffs: CoefficientSet, grid: PathGrid) -> None:
    lo, hi = coeffs.span
    if grid.t0 < lo - 1e-12 or grid.t1 > hi + 1e-12:
        raise ValidationError(
            f"grid [{grid.t0}, {grid.t1}] outside coefficient span [{lo}, {hi}]"
        )


def export_paths_csv(paths: SamplePathSet, dest) -> None:
    """Write the ensemble in long format: path_id,t,x."""
    points = paths.grid.points
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "x"])
        for i in range(paths.n):
            row_vals = paths.values[i]
            for t, x in zip(points, row_vals):
                writer.writerow([i, repr(float(t)), repr(float(x))])
