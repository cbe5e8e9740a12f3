"""Coefficient recovery: drift ratio, both noise routes, separation."""

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    CovEstimate,
    DesignConfig,
    LevyConfig,
    MeanEstimate,
    NoIdentifiableRegionError,
    PathGrid,
    PointMass,
    PolicyError,
    SeparationPolicy,
    SparseQuadratureError,
    UniformDesign,
    ValidationError,
    constant_model,
    default_bandwidth_cov,
    default_bandwidth_mean,
    estimate_drift,
    estimate_total_noise,
    fit_cov_grid,
    fit_mean_curve,
    observe,
    separate,
    simulate_ensemble,
    solve_moments,
    sinusoid_model,
)

from reference import estimate_H, oracle_mean_curve, oracle_surface_values

REF = constant_model(-1.0, 0.04, 0.09)
REF_NU = 2.0
REF_S = 0.04 + REF_NU * 0.09  # 0.22
GRID = np.linspace(0.0, 1.0, 21)


def mean_from_oracle(sol, grid):
    m, dm = oracle_mean_curve(sol, grid)
    return MeanEstimate(
        eval_grid=grid,
        m_hat=m,
        dm_hat=dm,
        flags=np.zeros(grid.size, dtype=bool),
        bandwidth=0.1,
    )


def cov_from_oracle(sol, grid, noise_sum):
    """Exact surface arrays shaped like a fit, for closure tests."""
    nt = grid.size
    G2 = np.full((nt, nt), np.nan)
    ds2 = np.full((nt, nt), np.nan)
    dt2 = np.full((nt, nt), np.nan)
    for i in range(nt):
        for j in range(i, nt):
            G2[i, j], ds2[i, j], dt2[i, j] = oracle_surface_values(
                sol, float(grid[i]), float(grid[j])
            )
    D = np.array([float(sol.second_moment_at(t)) for t in grid])
    mu = np.array([float(sol.coeffs.mu(t)) for t in grid])
    dD = 2.0 * mu * D + noise_sum
    return CovEstimate(
        eval_times=grid,
        G2=G2,
        ds2=ds2,
        dt2=dt2,
        pair_flags=np.zeros((nt, nt), dtype=bool),
        D_hat=D,
        dD_hat=dD,
        diag_flags=np.zeros(nt, dtype=bool),
        bandwidth=0.1,
    )


def ref_solution():
    return solve_moments(REF, REF_NU, 1.0, 1.0)


def flat_mean_estimate(m, dm=None, flags=None):
    m = np.asarray(m, dtype=float)
    return MeanEstimate(
        eval_grid=np.linspace(0, 1, m.size),
        m_hat=m,
        dm_hat=np.zeros(m.size) if dm is None else np.asarray(dm, dtype=float),
        flags=np.zeros(m.size, dtype=bool) if flags is None else flags,
        bandwidth=0.1,
    )


def test_drift_is_exact_log_derivative_ratio():
    est = mean_from_oracle(ref_solution(), GRID)
    mu, A, thr = estimate_drift(est)
    assert np.all(mu == -1.0)  # dm = -m makes the ratio exact
    assert A.all()
    assert thr == pytest.approx(1e-3)


def test_drift_threshold_excludes_small_mean_and_flagged():
    m = np.array([1.0, 0.5, 1e-6, 0.5, 1.0])
    flags = np.array([False, False, False, True, False])
    est = flat_mean_estimate(m, dm=np.ones(5), flags=flags)
    mu, A, thr = estimate_drift(est)
    npt.assert_array_equal(A, [True, True, False, False, True])
    assert mu[2] == 0.0 and mu[3] == 0.0
    assert mu[0] == 1.0


def test_drift_custom_threshold():
    m = np.array([1.0, 0.4, 0.2, 1.0])
    est = flat_mean_estimate(m, dm=m.copy())
    mu, A, _ = estimate_drift(est, threshold=0.5)
    npt.assert_array_equal(A, [True, False, False, True])


def test_drift_no_identifiable_region():
    est = flat_mean_estimate(np.full(5, 0.1))
    with pytest.raises(NoIdentifiableRegionError):
        estimate_drift(est, threshold=0.5)
    all_flagged = flat_mean_estimate(np.ones(5), flags=np.ones(5, dtype=bool))
    with pytest.raises(NoIdentifiableRegionError):
        estimate_drift(all_flagged)


def test_drift_threshold_validation():
    est = flat_mean_estimate(np.ones(5))
    with pytest.raises(ValidationError):
        estimate_drift(est, threshold=0.0)
    with pytest.raises(ValidationError):
        estimate_drift(est, threshold=-0.3)


def test_drift_invariant_under_mean_rescaling(rng):
    m = rng.random(15) + 0.5
    dm = rng.standard_normal(15)
    a = estimate_drift(flat_mean_estimate(m, dm), threshold=0.1)[0]
    b = estimate_drift(flat_mean_estimate(7.0 * m, 7.0 * dm), threshold=0.7)[0]
    npt.assert_allclose(a, b, rtol=1e-12)


def test_oracle_closure_both_routes_recover_noise_sum():
    """Fed exact surfaces, the diagonal and triangular routes both return
    sigma^2 + nu_K xi^2 up to quadrature roundoff."""
    sol = ref_solution()
    mean_est = mean_from_oracle(sol, GRID)
    cov_est = cov_from_oracle(sol, GRID, REF_S)
    mu, A, _ = estimate_drift(mean_est)
    s_diag, s_tri, flags = estimate_total_noise(GRID, mu, cov_est, 0.1)
    npt.assert_allclose(s_diag, REF_S, atol=1e-10)
    trimmed = GRID > 0.9 + 1e-12
    npt.assert_array_equal(flags["trimmed"], trimmed)
    assert np.all(np.isnan(s_tri[trimmed]))
    npt.assert_allclose(s_tri[~trimmed], REF_S, atol=1e-8)
    for key in ("floored_diag", "floored_tri", "failed_tri", "failed_diag"):
        assert not flags[key].any()


def test_estimate_H_zero_noise_is_zero():
    quiet = constant_model(-1.0, 0.0, 0.0)
    sol = solve_moments(quiet, 1.0, 1.0, 1.0)
    mean_est = mean_from_oracle(sol, GRID)
    cov_est = cov_from_oracle(sol, GRID, 0.0)
    mu, _, _ = estimate_drift(mean_est)
    assert abs(estimate_H(GRID, mu, cov_est, 0.5)) < 1e-8


def test_estimate_H_domain_checks():
    sol = ref_solution()
    cov_est = cov_from_oracle(sol, GRID, REF_S)
    mu = np.full(21, -1.0)
    with pytest.raises(ValidationError):
        estimate_H(GRID, mu, cov_est, 0.95)  # beyond 1 - epsilon
    with pytest.raises(ValidationError):
        estimate_H(GRID, mu, cov_est, 0.513)  # not a grid node
    with pytest.raises(ValidationError):
        estimate_H(GRID[:-1], mu[:-1], cov_from_oracle(sol, GRID, REF_S), 0.5)


def test_estimate_H_quadrature_failures():
    sol = ref_solution()
    cov_est = cov_from_oracle(sol, GRID, REF_S)
    mu = np.full(21, -1.0)
    cov_est.diag_flags[10] = True
    with pytest.raises(SparseQuadratureError):
        estimate_H(GRID, mu, cov_est, 0.5)
    cov_est.diag_flags[10] = False
    cov_est.pair_flags[10, 11:] = True  # leaves no usable tau nodes
    with pytest.raises(SparseQuadratureError) as exc:
        estimate_H(GRID, mu, cov_est, 0.5)
    assert exc.value.where == 0.5


def test_estimate_H_skips_flagged_nodes():
    sol = ref_solution()
    mu = np.full(21, -1.0)
    clean = estimate_H(GRID, mu, cov_from_oracle(sol, GRID, REF_S), 0.5)
    holey = cov_from_oracle(sol, GRID, REF_S)
    holey.pair_flags[10, 12] = True
    holey.ds2[10, 15] = np.nan
    poked = estimate_H(GRID, mu, holey, 0.5)
    # the integrand is constant in tau, so dropping nodes changes nothing
    assert poked == pytest.approx(clean, abs=1e-8)


def test_total_noise_grid_must_match_surface_grid():
    cov_est = cov_from_oracle(ref_solution(), GRID, REF_S)
    mu = np.full(21, -1.0)
    with pytest.raises(ValidationError, match="must coincide"):
        estimate_total_noise(GRID[:-1], mu[:-1], cov_est, 0.1)
    with pytest.raises(ValidationError, match="must coincide"):
        estimate_total_noise(0.99 * GRID, mu, cov_est, 0.1)


def test_total_noise_floor_and_failure_flags():
    sol = ref_solution()
    mean_est = mean_from_oracle(sol, GRID)
    mu, _, _ = estimate_drift(mean_est)
    cov_est = cov_from_oracle(sol, GRID, REF_S)
    cov_est.dD_hat[3] -= 10.0  # push the diagonal route negative
    cov_est.diag_flags[5] = True
    s_diag, s_tri, flags = estimate_total_noise(GRID, mu, cov_est, 0.1)
    assert s_diag[3] == 0.0 and flags["floored_diag"][3]
    assert np.isnan(s_diag[5]) and flags["failed_diag"][5]
    assert flags["failed_tri"][5] and np.isnan(s_tri[5])


def test_separate_known_sigma_and_known_xi():
    grid = np.linspace(0, 1, 5)
    s_hat = np.full(5, REF_S)
    sig, xi, flags = separate(
        grid, s_hat, SeparationPolicy("known-sigma", lambda t: np.full(t.size, 0.04)), REF_NU
    )
    npt.assert_allclose(sig, 0.04, rtol=1e-12)
    npt.assert_allclose(xi, 0.09, rtol=1e-12)
    sig2, xi2, _ = separate(
        grid, s_hat, SeparationPolicy("known-xi", lambda t: np.full(t.size, 0.09)), REF_NU
    )
    npt.assert_allclose(sig2, 0.04, rtol=1e-12)
    npt.assert_allclose(xi2, 0.09, rtol=1e-12)
    assert not flags["floored_sigma2"].any() and not flags["floored_xi2"].any()


def test_separate_known_fraction():
    grid = np.linspace(0, 1, 5)
    rho = 0.18 / REF_S  # jump share of the total
    sig, xi, _ = separate(
        grid,
        np.full(5, REF_S),
        SeparationPolicy("known-fraction", lambda t: np.full(t.size, rho)),
        REF_NU,
    )
    npt.assert_allclose(sig, 0.04, rtol=1e-12)
    npt.assert_allclose(xi, 0.09, rtol=1e-12)


def test_separate_floors_negative_components():
    grid = np.linspace(0, 1, 3)
    s_hat = np.array([0.02, np.nan, 0.3])
    sig, xi, flags = separate(
        grid, s_hat, SeparationPolicy("known-sigma", lambda t: np.full(t.size, 0.04)), 2.0
    )
    assert xi[0] == 0.0 and flags["floored_xi2"][0]
    assert np.isnan(sig[1]) and np.isnan(xi[1])
    assert not flags["floored_xi2"][1]  # NaN is propagation, not flooring
    assert xi[2] == pytest.approx((0.3 - 0.04) / 2.0)
    sig2, _, flags2 = separate(
        grid, s_hat, SeparationPolicy("known-xi", lambda t: np.full(t.size, 0.09)), 2.0
    )
    assert sig2[0] == 0.0 and flags2["floored_sigma2"][0]


def test_separate_zero_total_under_fraction_policy():
    grid = np.linspace(0, 1, 4)
    sig, xi, _ = separate(
        grid,
        np.zeros(4),
        SeparationPolicy("known-fraction", lambda t: np.full(t.size, 0.5)),
        1.0,
    )
    npt.assert_array_equal(sig, 0.0)
    npt.assert_array_equal(xi, 0.0)


def test_separate_policy_validation():
    grid = np.linspace(0, 1, 3)
    s_hat = np.full(3, 0.2)
    with pytest.raises(PolicyError):
        SeparationPolicy("magic", lambda t: t)
    with pytest.raises(PolicyError):
        separate(
            grid, s_hat, SeparationPolicy("known-fraction", lambda t: np.full(t.size, 1.5)), 1.0
        )
    with pytest.raises(PolicyError):
        separate(
            grid, s_hat, SeparationPolicy("known-sigma", lambda t: np.full(t.size, -0.1)), 1.0
        )
    with pytest.raises(PolicyError, match="xi"):
        separate(grid, s_hat, SeparationPolicy("known-xi", lambda t: np.full(t.size, -0.1)), 1.0)
    with pytest.raises(ValidationError):
        separate(
            grid, s_hat, SeparationPolicy("known-sigma", lambda t: np.zeros(t.size)), 0.0
        )


def test_route_gap_shrinks_with_sample_size():
    coeffs = sinusoid_model()
    grid = np.linspace(0.0, 1.0, 21)

    def gap(n, seed):
        paths = simulate_ensemble(
            coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 500), PointMass(1.0), n, seed
        )
        scheme = DesignConfig(r=10, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
        obs = observe(paths, scheme, seed=seed)
        mean_est = fit_mean_curve(obs, grid, 2, default_bandwidth_mean(obs, 2))
        mu, _, _ = estimate_drift(mean_est, threshold=0.05)
        cov = fit_cov_grid(obs, grid, 1, default_bandwidth_cov(obs, 1))
        s_diag, s_tri, _ = estimate_total_noise(grid, mu, cov, 0.1)
        keep = (grid <= 0.8) & np.isfinite(s_diag) & np.isfinite(s_tri)
        return float(np.max(np.abs(s_diag[keep] - s_tri[keep])))

    med_small = np.median([gap(100, s) for s in range(1000, 1010)])
    med_big = np.median([gap(400, s) for s in range(1000, 1010)])
    assert med_big < med_small
    assert med_big < 1.5


def test_drift_sup_error_shrinks_with_n():
    coeffs = sinusoid_model()
    grid = np.linspace(0.0, 1.0, 21)
    mu_true = coeffs.mu(grid)

    def sup_err(n, seed):
        paths = simulate_ensemble(
            coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 500), PointMass(1.0), n, seed
        )
        scheme = DesignConfig(r=10, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
        obs = observe(paths, scheme, seed=seed)
        mean_est = fit_mean_curve(obs, grid, 2, default_bandwidth_mean(obs, 2))
        mu, region, _ = estimate_drift(mean_est, threshold=0.05)
        return float(np.max(np.abs(mu[region] - mu_true[region])))

    med_small = np.median([sup_err(100, s) for s in range(1100, 1120)])
    med_big = np.median([sup_err(400, s) for s in range(1100, 1120)])
    assert med_big < med_small


def _per_node_total_noise(grid, mu, cov_est, epsilon=0.1):
    """Oracle: s_tri and its flags from one `estimate_H` call per grid node."""
    s_tri = np.full(grid.size, np.nan)
    floored = np.zeros(grid.size, dtype=bool)
    failed = np.zeros(grid.size, dtype=bool)
    for i in np.flatnonzero(grid <= 1.0 - epsilon + 1e-12):
        try:
            val = estimate_H(grid, mu, cov_est, float(grid[i]), epsilon)
        except SparseQuadratureError:
            failed[i] = True
            continue
        floored[i] = val < 0
        s_tri[i] = max(val, 0.0)
    return s_tri, floored, failed


def _holey_surface():
    """Oracle surface with flagged cells, NaN partials, a failed diagonal fit,
    a row left with one usable node and a row pushed negative."""
    sol = ref_solution()
    cov_est = cov_from_oracle(sol, GRID, REF_S)
    rng = np.random.default_rng(4)
    iu = np.triu_indices(GRID.size, 1)
    poke = rng.random(iu[0].size)
    cov_est.pair_flags[iu[0][poke < 0.15], iu[1][poke < 0.15]] = True
    cov_est.ds2[iu[0][poke > 0.9], iu[1][poke > 0.9]] = np.nan
    cov_est.diag_flags[4] = True
    cov_est.pair_flags[7, 9:] = True
    cov_est.ds2[12, 13:] -= 5.0
    return cov_est


def _half_covered_fit():
    # curves on [0, 0.55] only: cells past it widen or fail, whole rows among them
    from conftest import make_obs

    rng = np.random.default_rng(31)
    obs = make_obs(
        [(np.sort(rng.uniform(0.0, 0.55, 6)), rng.standard_normal(6) + 1.0) for _ in range(40)]
    )
    return fit_cov_grid(obs, GRID, 1, 0.05)


@pytest.mark.parametrize("surface", ["holey-oracle", "half-covered-fit"])
def test_total_noise_matches_per_node_estimate_H(surface):
    cov_est = _holey_surface() if surface == "holey-oracle" else _half_covered_fit()
    mu = np.sin(3.0 * GRID) - 0.5
    s_diag, s_tri, flags = estimate_total_noise(GRID, mu, cov_est, 0.1)
    ref, floored, failed = _per_node_total_noise(GRID, mu, cov_est)
    npt.assert_array_equal(s_tri.view(np.int64), ref.view(np.int64))
    npt.assert_array_equal(flags["floored_tri"], floored)
    npt.assert_array_equal(flags["failed_tri"], failed)
    npt.assert_array_equal(flags["trimmed"], GRID > 0.9 + 1e-12)
    npt.assert_array_equal(flags["failed_diag"], cov_est.diag_flags)
    assert failed.any() and (~failed & ~flags["trimmed"]).any()
    if surface == "holey-oracle":
        assert failed[4] and failed[7] and floored[12]
