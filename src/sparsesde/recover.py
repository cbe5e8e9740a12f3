"""Coefficient recovery from fitted mean and second-moment surfaces.

The drift comes from the log-derivative of the mean, mu = m'/m, wherever
the mean is large enough to divide by.  The combined noise level

    s(t) = sigma(t)^2 + nu_K xi(t)^2

is recovered along two routes that must agree:

  diagonal    s_diag(t) = dD_hat(t) - 2 mu_hat(t) D_hat(t)
  triangular  s_tri(t)  = avg_tau exp(-int_t^tau mu_hat) dsG_hat(t, tau)
                          - mu_hat(t) D_hat(t)

The triangular average runs over tau in (t, 1]; its integrand is constant
in tau when the inputs are exact, which is what makes the average a
legitimate estimator and the diagonal/triangular gap a useful diagnostic.
sigma^2 and xi^2 are not separately identified by s alone; `separate`
splits s under an explicit side assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covfit import CovEstimate
from .errors import (
    NoIdentifiableRegionError,
    PolicyError,
    SparseQuadratureError,
    ValidationError,
)
from .meanfit import MeanEstimate
from .moments import cumulative_trapezoid

# drift threshold as a fraction of the largest fitted |m|
DRIFT_THRESHOLD_FACTOR = 1e-3

_POLICY_KINDS = ("known-sigma", "known-xi", "known-fraction")


@dataclass(frozen=True)
class SeparationPolicy:
    """Side assumption that splits s = sigma^2 + nu_K xi^2.

    kind 'known-sigma':   value(t) is sigma^2(t); xi^2 = (s - sigma^2)/nu_K
    kind 'known-xi':      value(t) is xi^2(t);    sigma^2 = s - nu_K xi^2
    kind 'known-fraction':value(t) is the jump share rho(t) in [0, 1];
                          sigma^2 = (1-rho) s, xi^2 = rho s / nu_K
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise PolicyError(f"unknown separation policy {self.kind!r}")


@dataclass
class CoefficientEstimate:
    """Recovered coefficients on an evaluation grid.

    mu_hat is zero (and flagged 'excluded') outside region A, where the
    fitted mean is below threshold.  Triangular quantities are NaN beyond
    1 - epsilon.  Flag arrays record floored values and trimmed grid points.
    """

    eval_grid: np.ndarray
    mu_hat: np.ndarray
    s_diag: np.ndarray
    s_tri: np.ndarray
    sigma2_hat: np.ndarray | None
    xi2_hat: np.ndarray | None
    flags: dict[str, np.ndarray]
    mu_threshold: float = float("nan")


def estimate_drift(
    mean_est: MeanEstimate, threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Drift mu_hat = dm_hat / m_hat on the identifiable region.

    :param threshold: minimum |m_hat|; defaults to 1e-3 * max |m_hat|
    :return: (mu_hat, region_A mask, threshold used)

    Points outside region A (below threshold, or flagged in the mean fit)
    report mu_hat = 0.  An empty region raises NoIdentifiableRegionError.
    """
    m = mean_est.m_hat
    dm = mean_est.dm_hat
    usable = ~mean_est.flags & np.isfinite(m)
    if threshold is None:
        if not usable.any():
            raise NoIdentifiableRegionError("mean fit produced no usable points")
        threshold = DRIFT_THRESHOLD_FACTOR * float(np.max(np.abs(m[usable])))
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    A = usable & (np.abs(m) >= threshold)
    if not A.any():
        raise NoIdentifiableRegionError(
            f"|m_hat| never reaches threshold {threshold:.3g}"
        )
    mu = np.zeros(mean_est.eval_grid.size)
    mu[A] = dm[A] / m[A]
    return mu, A, float(threshold)


def _tri_node(grid, C, mu_hat, cov_est, i, t) -> float:
    """Triangular estimate of s at grid node i, from the cumulative drift C.

    Raises SparseQuadratureError, reported at time t, when the node's
    diagonal fit failed or fewer than two usable nodes tau > t remain.
    """
    if cov_est.diag_flags[i]:
        raise SparseQuadratureError(t, 0)
    later = slice(i + 1, None)
    j = i + 1 + np.flatnonzero(~cov_est.pair_flags[i, later] & np.isfinite(cov_est.ds2[i, later]))
    if j.size < 2:
        raise SparseQuadratureError(t, j.size)
    taus = grid[j]
    vals = np.exp(-(C[j] - C[i])) * cov_est.ds2[i, j]
    avg = float(np.trapezoid(vals, taus) / (taus[-1] - taus[0]))
    return avg - float(mu_hat[i]) * float(cov_est.D_hat[i])


def estimate_total_noise(
    grid: np.ndarray,
    mu_hat: np.ndarray,
    cov_est: CovEstimate,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Both routes to s(t) on the grid, floored at zero.

    Returns (s_diag, s_tri, flags).  s_diag covers the full grid; s_tri is
    NaN beyond 1 - epsilon (flagged 'trimmed') and at nodes whose
    quadrature failed.  Each node's s_tri is one `_tri_node` quadrature,
    all from one cumulative drift integral.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.array_equal(grid, cov_est.eval_times):
        raise ValidationError("drift grid and surface grid must coincide")
    nt = grid.size
    s_diag = np.full(nt, np.nan)
    s_tri = np.full(nt, np.nan)
    floored_tri = np.zeros(nt, dtype=bool)
    trimmed = grid > 1.0 - epsilon + 1e-12
    failed_tri = np.zeros(nt, dtype=bool)

    ok_diag = ~cov_est.diag_flags
    raw = cov_est.dD_hat - 2.0 * mu_hat * cov_est.D_hat
    s_diag[ok_diag] = raw[ok_diag]
    floored_diag = ok_diag & (s_diag < 0)
    s_diag[floored_diag] = 0.0

    C = cumulative_trapezoid(mu_hat, grid)
    for i in np.flatnonzero(~trimmed):
        try:
            val = _tri_node(grid, C, mu_hat, cov_est, i, float(grid[i]))
        except SparseQuadratureError:
            failed_tri[i] = True
            continue
        s_tri[i] = max(val, 0.0)  # NaN and -0.0 stay as they are
        floored_tri[i] = val < 0
    flags = {
        "floored_diag": floored_diag,
        "floored_tri": floored_tri,
        "trimmed": trimmed,
        "failed_tri": failed_tri,
        "failed_diag": cov_est.diag_flags.copy(),
    }
    return s_diag, s_tri, flags


def separate(
    grid: np.ndarray,
    s_hat: np.ndarray,
    policy: SeparationPolicy,
    nu_K: float,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Split the combined noise under a separation policy.

    Negative components are floored at zero and flagged; NaN entries of
    s_hat (trimmed or failed nodes) propagate.
    """
    if not nu_K > 0:
        raise ValidationError("nu_K must be positive")
    grid = np.asarray(grid, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    known = np.asarray(policy.value(grid), dtype=float)
    if policy.kind == "known-sigma":
        if np.any(known < 0):
            raise PolicyError("known sigma^2 must be nonnegative")
        xi2 = (s_hat - known) / nu_K
        sigma2 = np.where(np.isnan(s_hat), np.nan, known)
    elif policy.kind == "known-xi":
        if np.any(known < 0):
            raise PolicyError("known xi^2 must be nonnegative")
        sigma2 = s_hat - nu_K * known
        xi2 = np.where(np.isnan(s_hat), np.nan, known)
    else:  # known-fraction
        if np.any((known < 0) | (known > 1)):
            raise PolicyError("jump fraction must lie in [0, 1]")
        sigma2 = (1.0 - known) * s_hat
        xi2 = known * s_hat / nu_K
    floored_sigma2 = np.isfinite(sigma2) & (sigma2 < 0)
    floored_xi2 = np.isfinite(xi2) & (xi2 < 0)
    sigma2 = np.where(floored_sigma2, 0.0, sigma2)
    xi2 = np.where(floored_xi2, 0.0, xi2)
    return sigma2, xi2, {"floored_sigma2": floored_sigma2, "floored_xi2": floored_xi2}
