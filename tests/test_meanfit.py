"""Local polynomial mean fit: WLS core, reproduction, windows, bandwidth."""

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    EPANECHNIKOV,
    GAUSSIAN_TRUNCATED,
    DesignConfig,
    EstimationFailedError,
    KernelSpec,
    LevyConfig,
    PathGrid,
    PointMass,
    SingularFitError,
    SparseObservations,
    SparseWindowError,
    UniformDesign,
    ValidationError,
    default_bandwidth_mean,
    fit_mean_at,
    fit_mean_curve,
    kernel_by_name,
    observe,
    simulate_ensemble,
    solve_moments,
    solve_wls,
    sinusoid_model,
)
from sparsesde import meanfit
from sparsesde.meanfit import (
    _COND_LIMIT,
    _COND_SCREEN,
    _SCREEN_ROUNDING,
    _cond_screen,
    fit_mean_points,
)

from conftest import common_grid_panel, make_obs


def test_kernel_mass_both_families():
    u = np.linspace(-1.0, 1.0, 20001)
    assert np.trapezoid(EPANECHNIKOV.values(u), u) == pytest.approx(1.0, abs=1e-6)
    assert np.trapezoid(GAUSSIAN_TRUNCATED.values(u), u) == pytest.approx(1.0, abs=1e-6)


def test_kernel_compact_support_and_shape():
    u = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    k = EPANECHNIKOV.values(u)
    npt.assert_allclose(k, [0.0, 0.0, 0.75, 0.75 * 0.75, 0.0, 0.0])
    assert np.all(GAUSSIAN_TRUNCATED.values(np.array([1.01, -3.0])) == 0.0)


def test_unknown_kernel_family_rejected():
    with pytest.raises(ValidationError):
        KernelSpec("boxcar").values(np.zeros(3))
    with pytest.raises(ValidationError):
        kernel_by_name("tricube")


def test_solve_wls_weighted_mean():
    beta, cond = solve_wls(np.ones((2, 1)), np.array([1.0, 1.0]), np.array([2.0, 4.0]))
    assert beta[0] == pytest.approx(3.0)
    assert cond == pytest.approx(1.0)


def test_solve_wls_hand_computed_line():
    # normal equations reduce to [[9, 0], [0, 12]] beta = [24, -4]
    t = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    w = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    y = np.array([5.0, 3.0, 1.0, 4.0, 2.0])
    basis = np.column_stack([np.ones(5), t])
    beta, _ = solve_wls(basis, w, y)
    npt.assert_allclose(beta, [8.0 / 3.0, -1.0 / 3.0], rtol=1e-12)


def test_solve_wls_zero_weights_singular():
    with pytest.raises(SingularFitError):
        solve_wls(np.ones((4, 2)), np.zeros(4), np.ones(4))


def test_solve_wls_input_validation():
    with pytest.raises(ValidationError):
        solve_wls(np.ones((3, 1)), np.ones(4), np.ones(3))
    with pytest.raises(ValidationError):
        solve_wls(np.ones((3, 1)), np.array([1.0, -1.0, 1.0]), np.ones(3))


def test_quadratic_reproduction():
    t = np.linspace(0.0, 1.0, 41)
    obs = make_obs([(t, 1.0 + t + t**2)])
    for t0 in (0.1, 0.5, 0.93):
        m, dm = fit_mean_at(obs, t0, d=2, h_m=0.25)
        assert m == pytest.approx(1.0 + t0 + t0**2, abs=1e-10)
        assert dm == pytest.approx(1.0 + 2.0 * t0, abs=1e-10)


def test_linear_reproduction_degree_one():
    t = np.linspace(0.0, 1.0, 31)
    obs = make_obs([(t, 2.0 + 3.0 * t)])
    m, dm = fit_mean_at(obs, 0.4, d=1, h_m=0.2)
    assert m == pytest.approx(2.0 + 3.0 * 0.4, abs=1e-10)
    assert dm == pytest.approx(3.0, abs=1e-10)


def test_affine_equivariance_in_response(rng):
    t = np.sort(rng.random(60))
    y = rng.standard_normal(60)
    base = make_obs([(t, y)])
    shifted = make_obs([(t, 2.5 - 4.0 * y)])
    m0, dm0 = fit_mean_at(base, 0.5, 2, 0.3)
    m1, dm1 = fit_mean_at(shifted, 0.5, 2, 0.3)
    assert m1 == pytest.approx(2.5 - 4.0 * m0, rel=1e-10)
    assert dm1 == pytest.approx(-4.0 * dm0, rel=1e-10)


def test_kernel_weights_are_local(rng):
    t = np.sort(rng.random(200))
    y = np.sin(6.0 * t) + 0.1 * rng.standard_normal(200)
    full = make_obs([(t, y)])
    keep = np.abs(t - 0.5) < 0.2  # strictly inside the support of the window
    trimmed = make_obs([(t[keep], y[keep])])
    assert fit_mean_at(full, 0.5, 2, 0.2) == fit_mean_at(trimmed, 0.5, 2, 0.2)


def test_bandwidth_widening_recovers_sparse_gap():
    t = np.array([0.0, 0.01, 0.02, 0.98, 0.99, 1.0])
    obs = make_obs([(t, t**2)])
    # initial window at 0.5 is empty; four widenings reach every point
    got = fit_mean_at(obs, 0.5, d=2, h_m=0.1)
    direct = fit_mean_at(obs, 0.5, d=2, h_m=0.1 * 1.5**4)
    npt.assert_allclose(got, direct, rtol=1e-12)


def test_sparse_window_error_reports_location():
    obs = make_obs([(np.array([0.4, 0.6]), np.array([1.0, 2.0]))])
    with pytest.raises(SparseWindowError) as exc:
        fit_mean_at(obs, 0.5, d=2, h_m=0.1)
    assert exc.value.where == 0.5


def test_fit_mean_at_argument_validation():
    obs = make_obs([(np.linspace(0, 1, 10), np.zeros(10))])
    with pytest.raises(ValidationError):
        fit_mean_at(obs, 0.5, d=0, h_m=0.1)
    with pytest.raises(ValidationError):
        fit_mean_at(obs, 0.5, d=2, h_m=-0.1)


@pytest.mark.parametrize("d, h_m", [(0, 0.1), (1, 0.0), (1, -0.1)])
def test_fit_mean_points_argument_validation(d, h_m):
    obs = make_obs([(np.linspace(0, 1, 10), np.zeros(10))])
    with pytest.raises(ValidationError):
        fit_mean_points(obs, np.array([0.5]), d=d, h_m=h_m)


def test_fit_mean_curve_flags_unreachable_points():
    t = np.linspace(0.0, 0.7, 36)
    obs = make_obs([(t, t)])
    est = fit_mean_curve(obs, np.linspace(0, 1, 11), 2, 0.02)
    npt.assert_array_equal(est.flags, np.arange(11) >= 9)
    assert np.all(np.isnan(est.m_hat[est.flags]))
    assert np.all(np.isfinite(est.m_hat[~est.flags]))


def test_fit_mean_curve_too_many_failures():
    t = np.linspace(0.0, 0.1, 12)
    obs = make_obs([(t, t)])
    with pytest.raises(EstimationFailedError):
        fit_mean_curve(obs, np.linspace(0, 1, 11), 2, 0.02)


def test_default_bandwidth_formula_and_clamps():
    obs = make_obs([(np.linspace(0.0, 1.0, 1000), np.zeros(1000))])
    assert default_bandwidth_mean(obs, d=2) == 0.6 * 1000.0 ** (-1.0 / 7.0)
    # median pooled gap 0.45 pushes the floor past the hard cap of 0.5
    wide = make_obs(
        [(np.array([0.0, 1.0]), np.zeros(2)), (np.array([0.45, 0.55]), np.zeros(2))]
    )
    assert default_bandwidth_mean(wide, 2) == 0.5
    # 13 copies of an 11-point grid: floor 3 * 0.1 binds from below
    coarse = make_obs([(np.linspace(0, 1, 11), np.zeros(11))] * 13)
    assert default_bandwidth_mean(coarse, 2) == pytest.approx(0.3)


def test_default_bandwidth_shrinks_with_sample_size():
    small = make_obs([(np.linspace(0.0, 1.0, 100), np.zeros(100))])
    big = make_obs([(np.linspace(0.0, 1.0, 10000), np.zeros(10000))])
    assert default_bandwidth_mean(small, 2) > default_bandwidth_mean(big, 2)


def test_default_bandwidth_zero_range():
    obs = SparseObservations(
        curve_id=np.array([0, 1]), t=np.array([0.5, 0.5]), y=np.array([1.0, 2.0])
    )
    with pytest.raises(ValidationError):
        default_bandwidth_mean(obs, 2)


def test_smoke_grid_fit_fully_resolved():
    coeffs = sinusoid_model()
    paths = simulate_ensemble(
        coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 200), PointMass(1.0), 100, 31
    )
    scheme = DesignConfig(r=5, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=31)
    est = fit_mean_curve(obs, np.linspace(0, 1, 101), 2, default_bandwidth_mean(obs, 2))
    assert not est.flags.any()
    assert np.all(np.isfinite(est.m_hat)) and np.all(np.isfinite(est.dm_hat))


def test_fit_mean_curve_deterministic():
    coeffs = sinusoid_model()
    paths = simulate_ensemble(
        coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 100), PointMass(1.0), 40, 5
    )
    scheme = DesignConfig(r=6, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=5)
    grid = np.linspace(0, 1, 31)
    a = fit_mean_curve(obs, grid, 2, 0.15)
    b = fit_mean_curve(obs, grid, 2, 0.15)
    assert np.array_equal(a.m_hat, b.m_hat)
    assert np.array_equal(a.dm_hat, b.dm_hat)
    assert np.array_equal(a.flags, b.flags)


def test_mean_fit_error_shrinks_with_n():
    coeffs = sinusoid_model()
    grid = np.linspace(0.0, 1.0, 201)
    truth = solve_moments(coeffs, 1.0, 1.0, 1.0, grid).m
    eval_pts = np.linspace(0.05, 0.95, 21)
    m_true = np.interp(eval_pts, grid, truth)

    def sup_err(n: int, seed: int) -> float:
        paths = simulate_ensemble(
            coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 200), PointMass(1.0), n, seed
        )
        scheme = DesignConfig(r=10, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
        obs = observe(paths, scheme, seed=seed)
        est = fit_mean_curve(obs, eval_pts, 2, 0.1)
        return float(np.max(np.abs(est.m_hat - m_true)))

    errs_small = np.median([sup_err(50, s) for s in range(7000, 7020)])
    errs_big = np.median([sup_err(200, s) for s in range(7000, 7020)])
    assert errs_big < errs_small
    assert errs_big < 0.12


def _half_covered_panel():
    # curves live on [0, 0.7]: windows past 0.7 widen, those past ~0.93 stay empty
    rng = np.random.default_rng(12)
    return make_obs(
        [(np.sort(rng.random(6)) * 0.7, 1.0 + rng.standard_normal(6)) for _ in range(30)]
    )


def _simulated_panel():
    paths = simulate_ensemble(
        sinusoid_model(), LevyConfig(1.0), PathGrid(0.0, 1.0, 200), PointMass(1.0), 150, 8
    )
    scheme = DesignConfig(r=6, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    return observe(paths, scheme, seed=8)


def _cond_at(obs, t, d, h, kernel):
    """Condition number of the normal matrix of `fit_mean_at` at t and bandwidth h."""
    u = (obs.t - t) / h
    w = kernel.values(u)
    if np.unique(obs.t[w > 0]).size < d + 1:
        return np.inf
    basis = np.vander(u[w > 0], d + 1, increasing=True)
    return np.linalg.cond((basis * w[w > 0, None]).T @ basis)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN_TRUNCATED])
@pytest.mark.parametrize("panel", ["simulated", "half-covered", "common-grid"])
def test_mean_curve_matches_per_point_fits(panel, kernel, d):
    obs = {
        "simulated": _simulated_panel,
        "half-covered": _half_covered_panel,
        "common-grid": common_grid_panel,
    }[panel]()
    h = default_bandwidth_mean(obs, d) if panel == "simulated" else 0.03
    grid = np.linspace(0.0, 1.0, 51)
    est = fit_mean_curve(obs, grid, d, h, kernel)
    ref = np.full((grid.size, 2), np.nan)
    for i, t in enumerate(grid):
        try:
            ref[i] = fit_mean_at(obs, float(t), d, est.bandwidth, kernel)
        except SparseWindowError:
            pass
    npt.assert_array_equal(est.flags, np.isnan(ref[:, 0]))
    # the two routes form the normal matrix in different orders, and a solve
    # amplifies that rounding by the matrix's condition; windows that fail at
    # h go to fit_mean_at in both and agree exactly
    cond = np.array([_cond_at(obs, t, d, est.bandwidth, kernel) for t in grid])
    rtol = np.where(cond <= 1e12, np.maximum(1e-10, 1e-15 * cond), 0.0)
    for got, want in ((est.m_hat, ref[:, 0]), (est.dm_hat, ref[:, 1])):
        dev = np.abs(got - want) / np.abs(want)
        assert np.all((dev <= rtol) | (np.isnan(got) & np.isnan(want))), np.nanmax(dev / rtol)
    # the sparse panels have windows that widen, the half-covered one points
    # that stay flagged; the common grid's windows hold d + 1 rows or more
    # but fewer distinct times, which only the condition check rejects
    window = [np.abs(obs.t - t) < est.bandwidth for t in grid]
    distinct = np.array([np.unique(obs.t[w]).size for w in window])
    assert (min(distinct) < d + 1) == (panel != "simulated")
    assert est.flags.any() == (panel == "half-covered")
    if panel == "common-grid":
        rows = np.array([np.count_nonzero(w) for w in window])
        assert np.any((rows >= d + 1) & (distinct < d + 1))


def test_mean_points_do_not_depend_on_other_centres():
    obs = _simulated_panel()
    grid = np.linspace(0.0, 1.0, 51)
    m, dm, _ = fit_mean_points(obs, grid, 2, 0.1)
    for i in (0, 20, 50):
        one = fit_mean_points(obs, grid[i : i + 1], 2, 0.1)
        assert (one[0][0], one[1][0]) == (m[i], dm[i])


def _psd_batch(rng, p, kappa):
    """Symmetric PSD p x p matrices of condition kappa, random eigenvectors and scale."""
    Q, _ = np.linalg.qr(rng.standard_normal((kappa.size, p, p)))
    lam = np.exp(rng.uniform(-np.log(kappa)[:, None], 0.0, (kappa.size, p)))
    lam[:, 0], lam[:, -1] = 1.0, 1.0 / kappa
    lam *= 10.0 ** rng.uniform(-4, 6, (kappa.size, 1))
    A = np.einsum("nij,nj,nkj->nik", Q, lam, Q)
    return (A + np.swapaxes(A, -1, -2)) / 2


@pytest.mark.parametrize("h", [0.025, 0.25])  # windows of about 500 and 5,000 rows
def test_mean_points_do_not_depend_on_the_pair_block(monkeypatch, h):
    rng = np.random.default_rng(12)
    curves = []
    for _ in range(1000):
        t = np.sort(rng.uniform(0.0, 1.0, 10))
        curves.append((t, np.sin(3.0 * t) + 0.3 * rng.standard_normal(10)))
    obs = make_obs(curves)
    centres = np.linspace(0.0, 1.0, 51)
    fits = []
    for block in (1, 2048, 8192, 1 << 20):
        monkeypatch.setattr(meanfit, "_PAIR_BLOCK", block)
        fits.append([a.tobytes() for a in fit_mean_points(obs, centres, 2, h)])
    assert all(f == fits[0] for f in fits[1:])


@pytest.mark.parametrize("p", [2, 3, 6])
def test_cond_screen_decides_as_exact_cond(rng, p):
    kappa = np.concatenate([10.0 ** rng.uniform(0, 14, 300), 10.0 ** rng.uniform(9, 15, 300)])
    B = rng.standard_normal((100, p, p - 1))
    infinite = _psd_batch(rng, p, np.full(2, 10.0))
    infinite[0, 0, 1 % p] = infinite[0, 1 % p, 0] = np.inf
    infinite[1, 0, 0] = -np.inf
    gram = B @ np.swapaxes(B, -1, -2)  # rank p - 1, so rounding decides the sign of det
    A = np.concatenate([
        _psd_batch(rng, p, kappa),
        np.zeros((1, p, p)),
        np.ones((1, p, p)),
        np.diag(np.r_[1.0, np.zeros(p - 1)])[None],
        gram,
        infinite,
    ])
    c = np.linalg.cond(A)
    got = _cond_screen(A)
    npt.assert_array_equal(
        np.isfinite(got) & (got <= _COND_LIMIT), np.isfinite(c) & (c <= _COND_LIMIT)
    )
    assert np.all(got >= c)
    # a value above what the screen can clear is the exact cond
    above = got > _COND_SCREEN * _SCREEN_ROUNDING
    npt.assert_array_equal(got[above], c[above])
    # every kind of matrix is present: cleared by the bound, exact on both
    # sides of the limit, and rounded to a negative det
    assert (got != c).sum() > 50 and (np.linalg.det(gram) < 0).any()
    near = (c > 1e-3 * _COND_LIMIT) & (c < 1e3 * _COND_LIMIT)
    assert (near & (c <= _COND_LIMIT)).sum() > 50 and (near & (c > _COND_LIMIT)).sum() > 50


def test_cond_screen_raises_on_nan_entry_as_exact_cond(rng):
    A = _psd_batch(rng, 3, np.full(3, 10.0))
    A[1, 0, 2] = A[1, 2, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cond(A)
    with pytest.raises(np.linalg.LinAlgError):
        _cond_screen(A)
