"""Moment solver: closed forms, the three-route identity web, and its
sensitivity to deliberate corruption."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    H_value,
    LevyConfig,
    ValidationError,
    constant_model,
    cov_value,
    solve_moments,
)
from sparsesde.harness import _fd_first  # edge-aware stencil reused below
from sparsesde.moments import cumulative_trapezoid

from reference import oracle_mean_curve, oracle_surface_values, verify_pde_identity

GRID = np.linspace(0.0, 1.0, 1001)

# constant-coefficient reference model used throughout: s = 0.04 + 2*0.09 = 0.22
REF = constant_model(-1.0, 0.04, 0.09)
REF_NU = 2.0
REF_S = 0.04 + REF_NU * 0.09


def ref_solution():
    return solve_moments(REF, REF_NU, m0=1.0, D0=1.0)


def test_solve_mean_exponential_decay():
    m = solve_moments(constant_model(-1.0, 0.0, 0.0), 1.0, 1.0, 1.0, GRID).m
    assert abs(m[-1] - math.exp(-1.0)) < 1e-6


def test_solve_mean_zero_drift_and_zero_start():
    c0 = constant_model(0.0, 0.04, 0.0)
    npt.assert_allclose(solve_moments(c0, 1.0, 2.5, 6.25, GRID).m, 2.5)
    npt.assert_allclose(solve_moments(REF, REF_NU, 0.0, 1.0, GRID).m, 0.0)


def test_second_moment_closed_form():
    # D' = -2D + s with D(0)=1 integrates to (1 - s/2) e^{-2t} + s/2
    D = solve_moments(REF, REF_NU, 0.0, 1.0, GRID).D
    exact = (1.0 - REF_S / 2.0) * np.exp(-2.0 * GRID) + REF_S / 2.0
    npt.assert_allclose(D, exact, atol=1e-6)


def test_second_moment_homogeneous_case():
    c = constant_model(-1.0, 0.0, 0.0)
    D = solve_moments(c, 1.0, 0.0, 0.7, GRID).D
    npt.assert_allclose(D, 0.7 * np.exp(-2.0 * GRID), atol=1e-6)


def test_noise_channels_interchangeable():
    # sigma^2 = a and nu_K xi^2 = a force the same D
    a = 0.2
    D_sigma = solve_moments(constant_model(-1.0, a, 0.0), 1.0, 0.0, 1.0, GRID).D
    D_jump = solve_moments(constant_model(-1.0, 0.0, a), 1.0, 0.0, 1.0, GRID).D
    npt.assert_allclose(D_sigma, D_jump, rtol=1e-12)


def test_solve_moments_rejects_cauchy_schwarz_violation():
    with pytest.raises(ValidationError):
        solve_moments(REF, REF_NU, m0=1.0, D0=0.5)


@pytest.mark.parametrize("nu_K", [0.0, -0.05, -1.0])
def test_scalar_jump_activity_gets_the_levy_config_check(nu_K):
    with pytest.raises(ValidationError, match="nu_K must be finite and > 0"):
        solve_moments(REF, nu_K, 1.0, 1.0)


def test_levy_config_accepted_in_place_of_scalar():
    sol_a = solve_moments(REF, LevyConfig(nu_K=REF_NU), 1.0, 1.0)
    sol_b = ref_solution()
    npt.assert_array_equal(sol_a.D, sol_b.D)


def test_cov_diagonal_consistency():
    sol = ref_solution()
    for t in (0.0, 0.3, 0.77, 1.0):
        assert float(cov_value(sol, t, t)) == float(sol.second_moment_at(t))


def test_cov_zero_drift_is_constant_in_t():
    sol = solve_moments(constant_model(0.0, 0.04, 0.0), 1.0, 1.0, 1.0)
    vals = cov_value(sol, 0.3, np.array([0.3, 0.6, 1.0]))
    npt.assert_allclose(vals, float(sol.second_moment_at(0.3)), rtol=1e-12)


def test_cov_rejects_wrong_ordering():
    sol = ref_solution()
    with pytest.raises(ValidationError):
        cov_value(sol, 0.8, 0.3)


def test_identity_web_three_routes_agree():
    """Diagonal D'-2muD, triangular exp(-int mu) dG/ds - muD, and the
    averaged route all reproduce s(t) within 1e-4 on [0, 0.9]."""
    sol = ref_solution()
    fd = 1e-4
    edge = 2.0 * float(sol.grid[1] - sol.grid[0])
    for t in np.arange(0.0, 0.901, 0.05):
        t = float(t)
        diag = _fd_first(
            lambda x: float(sol.second_moment_at(x)), t, fd, 0.0, 1.0, edge
        ) - 2.0 * (-1.0) * float(sol.second_moment_at(t))
        tau = t + 0.05
        dsG = _fd_first(lambda x: float(cov_value(sol, x, tau)), t, fd, 0.0, tau, edge)
        tri = math.exp(-float(sol.drift_integral(t, tau))) * dsG - (-1.0) * float(
            sol.second_moment_at(t)
        )
        avg = H_value(sol, t)
        assert abs(diag - tri) <= 1e-4, f"t={t}"
        assert abs(diag - avg) <= 1e-4, f"t={t}"
        assert abs(tri - avg) <= 1e-4, f"t={t}"


def test_H_value_matches_noise_sum():
    sol = ref_solution()
    for t in np.arange(0.0, 0.901, 0.1):
        assert abs(H_value(sol, float(t)) - REF_S) <= 1e-5


def test_H_value_zero_noise():
    sol = solve_moments(constant_model(-1.0, 0.0, 0.0), 1.0, 1.0, 1.0)
    assert abs(H_value(sol, 0.4)) <= 1e-6


def test_H_value_near_right_endpoint():
    # the average over the shrinking interval stays finite and close to s
    sol = ref_solution()
    assert abs(H_value(sol, 0.99) - REF_S) <= 1e-3
    with pytest.raises(ValidationError):
        H_value(sol, 1.0)


def test_pde_identity_residuals_small():
    sol = ref_solution()
    for s, t in [(0.2, 0.5), (0.4, 0.9), (0.1, 0.3)]:
        res_t, res_s = verify_pde_identity(sol, s, t)
        assert abs(res_t) < 1e-4
        assert abs(res_s) < 1e-4


def test_pde_identity_zero_drift_t_residual_exact():
    sol = solve_moments(constant_model(0.0, 0.04, 0.0), 1.0, 1.0, 1.0)
    res_t, _ = verify_pde_identity(sol, 0.3, 0.6)
    assert abs(res_t) < 1e-12


def test_pde_identity_detects_corrupted_second_moment():
    sol = ref_solution()
    bad = dataclasses.replace(sol, D=sol.D + 0.1)
    _, res_s_good = verify_pde_identity(sol, 0.3, 0.6)
    _, res_s_bad = verify_pde_identity(bad, 0.3, 0.6)
    assert abs(res_s_bad) > 100 * abs(res_s_good)
    assert abs(res_s_bad) > 1e-2


def test_oracle_mean_curve_uses_ode_not_differencing():
    sol = ref_solution()
    g = np.linspace(0.0, 1.0, 11)
    m, dm = oracle_mean_curve(sol, g)
    npt.assert_allclose(m, np.exp(-g), atol=1e-6)
    npt.assert_allclose(dm, -m, rtol=1e-12)


def test_oracle_surface_values_consistent_with_fd():
    sol = ref_solution()
    G, dsG, dtG = oracle_surface_values(sol, 0.3, 0.7)
    npt.assert_allclose(G, cov_value(sol, 0.3, 0.7), rtol=1e-12)
    fd = 1e-5
    fd_ds = (cov_value(sol, 0.3 + fd, 0.7) - cov_value(sol, 0.3 - fd, 0.7)) / (2 * fd)
    fd_dt = (cov_value(sol, 0.3, 0.7 + fd) - cov_value(sol, 0.3, 0.7 - fd)) / (2 * fd)
    assert abs(float(dsG) - float(fd_ds)) < 1e-4
    assert abs(float(dtG) - float(fd_dt)) < 1e-4


_UNEVEN = np.cumsum(np.random.default_rng(5).exponential(0.01, 200))


@pytest.mark.parametrize(
    "y, x",
    [
        (np.sin(7.0 * _UNEVEN), _UNEVEN),
        (np.exp(-_UNEVEN) / 3.0, _UNEVEN - 1.0),
        (np.array([2.5]), np.array([0.3])),
        (np.array([2.5, -1.0 / 3.0]), np.array([0.1, 0.7])),
        (np.array([1.0, np.inf, 2.0, 3.0]), np.array([0.0, 0.2, 0.5, 1.0])),
        (np.array([1.0, np.inf, -np.inf, 3.0]), np.array([0.0, 0.2, 0.5, 1.0])),
        (np.array([1.0, 2.0, np.nan, 3.0, 4.0]), np.linspace(0.0, 1.0, 5)),
        (np.array([1.0, 2.0, 3.0]), np.array([0.0, np.nan, 1.0])),
        (np.array([1e308, 1e308, 1.0]), np.array([0.0, 0.5, 1.0])),  # the sum overflows
    ],
)
def test_cumulative_trapezoid_matches_scipy_bitwise(y, x):
    from scipy.integrate import cumulative_trapezoid as reference  # never imported by the package

    with np.errstate(over="ignore", invalid="ignore"):
        got, want = cumulative_trapezoid(y, x), reference(y, x, initial=0.0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
