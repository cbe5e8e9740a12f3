"""Second-moment surface fit from within-curve pair products."""

import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    EPANECHNIKOV,
    GAUSSIAN_TRUNCATED,
    DesignConfig,
    EstimationFailedError,
    LevyConfig,
    PairScatter,
    PathGrid,
    PointMass,
    SparseWindowError,
    UniformDesign,
    ValidationError,
    constant_model,
    cov_value,
    default_bandwidth_cov,
    default_bandwidth_mean,
    fit_cov_at,
    fit_cov_grid,
    fit_diag,
    fit_diagonal_inclusive,
    fit_mean_at,
    noise_variance_estimate,
    observe,
    pair_scatter,
    simulate_ensemble,
    solve_moments,
    sinusoid_model,
)
from sparsesde import lanes
from sparsesde.bootstrap import _curve_pair_sums
from sparsesde.covfit import (
    _CURVE_BLOCK,
    _ROW_CHUNK,
    _curve_sums,
    _offset_cells,
    _pair_sums,
    replace_responses,
)
from sparsesde.meanfit import _features, _kinds

from conftest import common_grid_panel, curve_slices, make_obs
from reference import centre_major_curve_sums


def plane_scatter(rng, npts=300, coef=(1.0, 2.0, 3.0)):
    u = rng.random(npts)
    v = rng.random(npts)
    a, b, c = coef
    return PairScatter(u=u, v=v, p=a + b * u + c * v)


def test_pair_scatter_counts_and_values():
    obs = make_obs([(np.array([0.2, 0.8]), np.array([2.0, 3.0]))])
    sc = pair_scatter(obs)
    assert sc.size == 2  # both orientations of the single off-diagonal pair
    npt.assert_array_equal(np.sort(sc.u), [0.2, 0.8])
    npt.assert_array_equal(sc.p, [6.0, 6.0])


def _loop_pair_scatter(obs):
    """Curve-by-curve reference for pair_scatter: (u, v, p) arrays."""
    us, vs, ps = [], [], []
    for sl in curve_slices(obs):
        T, Y = obs.t[sl], obs.y[sl]
        r = T.size
        for j in range(r):
            for k in range(r):
                if j != k:
                    us.append(T[j])
                    vs.append(T[k])
                    ps.append(Y[j] * Y[k])
    return np.array(us), np.array(vs), np.array(ps)


def test_pair_scatter_matches_loop_reference(rng):
    sizes = [2, 7, 3, 2, 11, 5]
    obs = make_obs([(np.sort(rng.random(r)), rng.standard_normal(r)) for r in sizes])
    sc = pair_scatter(obs)
    u, v, p = _loop_pair_scatter(obs)
    # same elements in the same order, bit for bit
    npt.assert_array_equal(sc.u, u)
    npt.assert_array_equal(sc.v, v)
    npt.assert_array_equal(sc.p, p)
    assert sc.size == sum(r * (r - 1) for r in sizes)


def test_pair_scatter_stays_within_curve():
    obs = make_obs(
        [(np.array([0.1, 0.2]), np.array([1.0, 1.0])), (np.array([0.7, 0.9]), np.array([5.0, 5.0]))]
    )
    sc = pair_scatter(obs)
    # cross-curve pair (0.1, 0.9) must not appear
    assert sc.size == 4
    assert not np.any((sc.u < 0.5) & (sc.v > 0.5))


def test_plane_reproduction(rng):
    sc = plane_scatter(rng)
    for s, t in ((0.3, 0.7), (0.5, 0.5), (0.9, 0.1)):
        G, dsG, dtG = fit_cov_at(sc, s, t, d=1, h_G=0.4)
        assert G == pytest.approx(1.0 + 2.0 * s + 3.0 * t, abs=1e-10)
        assert dsG == pytest.approx(2.0, abs=1e-10)
        assert dtG == pytest.approx(3.0, abs=1e-10)


def test_quadratic_surface_reproduction(rng):
    u = rng.random(400)
    v = rng.random(400)
    sc = PairScatter(u=u, v=v, p=(1.0 + u) * (1.0 + v))
    s, t = 0.4, 0.6
    G, dsG, dtG = fit_cov_at(sc, s, t, d=2, h_G=0.4)
    assert G == pytest.approx((1.0 + s) * (1.0 + t), abs=1e-10)
    assert dsG == pytest.approx(1.0 + t, abs=1e-10)
    assert dtG == pytest.approx(1.0 + s, abs=1e-10)


def test_fit_is_symmetric_under_argument_swap(rng):
    t = np.sort(rng.random(8))
    obs = make_obs([(t, rng.standard_normal(8) + 2.0) for _ in range(40)])
    sc = pair_scatter(obs)
    G1, ds1, dt1 = fit_cov_at(sc, 0.3, 0.6, 1, 0.25)
    G2, ds2, dt2 = fit_cov_at(sc, 0.6, 0.3, 1, 0.25)
    assert G1 == pytest.approx(G2, rel=1e-9)
    assert ds1 == pytest.approx(dt2, rel=1e-9)
    assert dt1 == pytest.approx(ds2, rel=1e-9)


def test_constant_curves_give_flat_surface(rng):
    curves = []
    for _ in range(30):
        t = np.sort(rng.random(4))
        curves.append((t, np.full(4, 2.0)))
    obs = make_obs(curves)
    grid = np.linspace(0.1, 0.9, 5)
    est = fit_cov_grid(obs, grid, 1, 0.3)
    iu = np.triu_indices(5)
    npt.assert_allclose(est.G2[iu], 4.0, atol=1e-8)
    npt.assert_allclose(est.D_hat, 4.0, atol=1e-8)
    npt.assert_allclose(est.dD_hat, 0.0, atol=1e-6)
    # lower triangle is never filled
    assert np.all(np.isnan(est.G2[np.tril_indices(5, k=-1)]))
    # diagonal cell reuses the diagonal fit
    npt.assert_array_equal(np.diag(est.G2), est.D_hat)


def test_surface_scale_equivariance(rng):
    t = np.sort(rng.random(6))
    ys = [rng.standard_normal(6) + 1.5 for _ in range(25)]
    obs1 = make_obs([(t, y) for y in ys])
    obs3 = make_obs([(t, 3.0 * y) for y in ys])
    a = fit_cov_at(pair_scatter(obs1), 0.4, 0.7, 1, 0.3)
    b = fit_cov_at(pair_scatter(obs3), 0.4, 0.7, 1, 0.3)
    npt.assert_allclose(b, 9.0 * np.asarray(a), rtol=1e-9)


def test_fit_linear_in_single_observation(rng):
    """Perturbing one Y enters every retained product linearly, so the
    second difference of the fit in the perturbation vanishes; same-index
    products, which the scatter leaves out, would add a quadratic term."""
    t = np.sort(rng.random(5))
    ys = [rng.standard_normal(5) + 2.0 for _ in range(20)]

    def fit(delta):
        curves = [(t, y.copy()) for y in ys]
        curves[0][1][2] += delta
        sc = pair_scatter(make_obs(curves))
        return fit_cov_at(sc, float(t[2]), float(t[3]), 1, 0.5)[0]

    second_diff = fit(0.0) - 2.0 * fit(1.0) + fit(2.0)
    assert abs(second_diff) < 1e-8


def test_diag_derivative_error_shrinks_with_n():
    coeffs = constant_model(-1.0, 0.0, 0.0)  # D(t) = exp(-2t), dD(0.5) = -2/e

    def err(n, seed):
        paths = simulate_ensemble(
            coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 400), PointMass(1.0), n, seed
        )
        scheme = DesignConfig(r=12, noise_sd=0.0, design_law=UniformDesign(), noise_law="gaussian")
        obs = observe(paths, scheme, seed=seed)
        sc = pair_scatter(obs)
        _, dD = fit_diag(sc, 0.5, 1, default_bandwidth_cov(obs, 1))
        return abs(dD + 2.0 * np.exp(-1.0))

    med_small = np.median([err(100, s) for s in range(50, 55)])
    med_big = np.median([err(400, s) for s in range(50, 55)])
    assert med_big < med_small
    assert med_big < 0.01


def _noise_variance(obs, grid):
    """The noise variance on the surface and the smooth of Y^2 at the default bandwidths."""
    cov = fit_cov_grid(obs, grid, 1, default_bandwidth_cov(obs, 1))
    h = default_bandwidth_mean(obs, 1)
    return noise_variance_estimate(obs, cov, lambda: fit_diagonal_inclusive(obs, grid, h))


def test_noise_variance_recovered():
    """Median over 20 seeds at n=400, r=10 lands within 20% of the truth."""
    flat = constant_model(0.0, 0.0, 0.0)
    grid = np.linspace(0.0, 1.0, 11)

    def rho2(seed):
        paths = simulate_ensemble(
            flat, LevyConfig(1.0), PathGrid(0.0, 1.0, 50), PointMass(1.0), 400, seed
        )
        scheme = DesignConfig(r=10, noise_sd=0.5, design_law=UniformDesign(), noise_law="gaussian")
        obs = observe(paths, scheme, seed=seed)
        val, floored = _noise_variance(obs, grid)
        assert not floored
        return val

    med = np.median([rho2(s) for s in range(60, 80)])
    assert med == pytest.approx(0.25, rel=0.2)


def test_surface_fit_error_shrinks_with_n():
    coeffs = sinusoid_model()
    sol = solve_moments(coeffs, 1.0, 1.0, 1.0)
    target = float(cov_value(sol, 0.3, 0.6))

    def err(n, seed):
        # 10^3 steps keeps the shared discretisation floor well under the
        # sampling error being compared
        paths = simulate_ensemble(
            coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 1000), PointMass(1.0), n, seed
        )
        scheme = DesignConfig(r=10, noise_sd=0.0, design_law=UniformDesign(), noise_law="gaussian")
        obs = observe(paths, scheme, seed=seed)
        sc = pair_scatter(obs)
        G, _, _ = fit_cov_at(sc, 0.3, 0.6, 1, default_bandwidth_cov(obs, 1))
        return abs(G - target)

    med_small = np.median([err(50, s) for s in range(90, 105)])
    med_big = np.median([err(400, s) for s in range(90, 105)])
    assert med_big < med_small
    assert med_big < 0.02


def test_noise_variance_floored_when_noiseless():
    flat = constant_model(0.0, 0.0, 0.0)
    grid = np.linspace(0.0, 1.0, 21)
    paths = simulate_ensemble(
        flat, LevyConfig(1.0), PathGrid(0.0, 1.0, 50), PointMass(1.0), 400, 60
    )
    scheme = DesignConfig(r=10, noise_sd=0.0, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=60)
    rho2, floored = _noise_variance(obs, grid)
    assert floored
    assert rho2 == 0.0


def test_diagonal_inclusive_targets_level_plus_noise(rng):
    curves = [(np.sort(rng.random(5)), np.full(5, 2.0)) for _ in range(20)]
    obs = make_obs(curves)
    vals = fit_diagonal_inclusive(obs, np.linspace(0.2, 0.8, 5), 0.3)
    npt.assert_allclose(vals, 4.0, atol=1e-8)


@pytest.mark.parametrize(
    "panel, h",
    [("simulated", None), ("half-covered", 0.05), ("common-grid", 0.04)],
)
def test_diagonal_inclusive_matches_per_point_fits(panel, h):
    obs = {
        "simulated": _simulated_panel,
        "half-covered": _half_covered_panel,
        "common-grid": common_grid_panel,
    }[panel]()
    grid = np.linspace(0.0, 0.7, 36)
    h = default_bandwidth_mean(obs, 1) if h is None else h  # None: the rule `run_estimate` uses
    got = fit_diagonal_inclusive(obs, grid, h)
    sq = replace_responses(obs, obs.y**2)
    ref = np.array([fit_mean_at(sq, float(t), d=1, h_m=h)[0] for t in grid])
    npt.assert_allclose(got, ref, rtol=1e-10, atol=0.0)
    # the sparse panels hold windows with < 2 distinct times at h, which widen
    distinct = [np.unique(obs.t[np.abs(obs.t - t) < h]).size for t in grid]
    assert (min(distinct) < 2) == (panel != "simulated")


def test_diagonal_inclusive_raises_at_the_first_time_past_the_edge_gap():
    # every curve ends by 0.55, so at h = 0.03 no widening reaches 0.8 and beyond
    obs = _half_covered_panel()
    grid = np.linspace(0.0, 1.0, 21)
    with pytest.raises(SparseWindowError) as excinfo:
        fit_diagonal_inclusive(obs, grid, 0.03)
    assert excinfo.value.where == grid[16] == 0.8
    assert np.isfinite(fit_diagonal_inclusive(obs, grid[:16], 0.03)).all()


def test_noise_variance_needs_two_unflagged_diagonal_values():
    obs = _simulated_panel()
    grid = np.linspace(0.0, 1.0, 11)
    cov = fit_cov_grid(obs, grid, 1, default_bandwidth_cov(obs, 1))
    flags = np.ones(grid.size, dtype=bool)
    flags[5] = False
    with pytest.raises(EstimationFailedError, match="too few diagonal values"):
        noise_variance_estimate(obs, replace(cov, diag_flags=flags), lambda: pytest.fail("smooth"))


def test_single_sparse_curve_runs_out_of_pairs():
    obs = make_obs([(np.array([0.45, 0.55]), np.array([1.0, 2.0]))])
    sc = pair_scatter(obs)
    with pytest.raises(SparseWindowError):
        fit_cov_at(sc, 0.5, 0.5, d=1, h_G=0.2)


def test_grid_fit_fails_when_most_cells_unreachable(rng):
    curves = [(np.sort(rng.random(4)) * 0.2, np.ones(4)) for _ in range(15)]
    obs = make_obs(curves)
    with pytest.raises(EstimationFailedError):
        fit_cov_grid(obs, np.linspace(0, 1, 6), 1, 0.01)


def test_grid_smoke_dense_design(rng):
    coeffs = constant_model(-1.0, 0.04, 0.0)
    paths = simulate_ensemble(
        coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, 200), PointMass(1.0), 100, 77
    )
    scheme = DesignConfig(r=8, noise_sd=0.05, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=77)
    grid = np.linspace(0.0, 1.0, 21)
    est = fit_cov_grid(obs, grid, 1, default_bandwidth_cov(obs, 1))
    iu = np.triu_indices(21)
    assert not est.pair_flags[iu].any()
    assert not est.diag_flags.any()
    assert np.all(np.isfinite(est.G2[iu]))
    assert np.all(np.isfinite(est.D_hat))


def test_default_bandwidth_cov_formula_and_clamp():
    obs = make_obs([(np.linspace(0.0, 1.0, 21), np.zeros(21))])
    assert default_bandwidth_cov(obs, d=1) == 0.5 * (1 * 21.0**2) ** (-1.0 / 6.0)
    wide = make_obs(
        [(np.array([0.0, 1.0]), np.zeros(2)), (np.array([0.45, 0.55]), np.zeros(2))]
    )
    assert default_bandwidth_cov(wide, 1) == 0.5


def test_surface_argument_validation(rng):
    sc = plane_scatter(rng, npts=50)
    with pytest.raises(ValidationError):
        fit_cov_at(sc, 0.5, 0.5, d=0, h_G=0.3)
    with pytest.raises(ValidationError):
        fit_cov_at(sc, 0.5, 0.5, d=1, h_G=-0.2)
    with pytest.raises(ValidationError):
        fit_diag(sc, 0.5, 1, -0.2)


@pytest.mark.parametrize("d, h_G", [(0, 0.3), (1, 0.0), (1, -0.2)])
def test_surface_grid_argument_validation(rng, d, h_G):
    obs = make_obs([(np.sort(rng.random(5)), rng.standard_normal(5)) for _ in range(20)])
    with pytest.raises(ValidationError):
        fit_cov_grid(obs, np.linspace(0, 1, 6), d=d, h_G=h_G)


def test_replace_responses_keeps_design():
    obs = make_obs([(np.array([0.1, 0.9]), np.array([1.0, 2.0]))])
    swapped = replace_responses(obs, np.array([5.0, 6.0]))
    npt.assert_array_equal(swapped.t, obs.t)
    npt.assert_array_equal(swapped.curve_id, obs.curve_id)
    npt.assert_array_equal(swapped.y, [5.0, 6.0])
    npt.assert_array_equal(obs.y, [1.0, 2.0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_curve_pair_sums_add_up_to_pair_sums(d):
    obs = _simulated_panel()
    s_pts, t_pts = np.array([0.2, 0.5, 0.7]), np.array([0.4, 0.5, 0.9])
    per_curve = _curve_pair_sums(obs, 0.2, EPANECHNIKOV, d, s_pts, t_pts)
    total = _pair_sums(obs, 0.2, EPANECHNIKOV, d, s_pts, t_pts)
    for got, ref in zip(per_curve, total):
        npt.assert_allclose(got.sum(axis=-1).squeeze(), ref, rtol=1e-12, atol=1e-12)


def _grid_reference(obs, grid, d, h, kernel):
    """Per-cell fits of every grid quantity: (cells, diag) dicts keyed by index,
    holding the fitted tuple or None where the window never fills."""
    sc = pair_scatter(obs)
    eps = 1e-3 * h
    cells, diag = {}, {}
    for i, s in enumerate(grid):
        for j in range(i + 1, grid.size):
            try:
                cells[i, j] = fit_cov_at(sc, s, grid[j], d, h, kernel)
            except SparseWindowError:
                cells[i, j] = None
        try:
            D, dD = fit_diag(sc, s, d, h, kernel)
            _, dsG, dtG = fit_cov_at(sc, max(s - eps, 0.0), min(s + eps, 1.0), d, h, kernel)
            diag[i] = (D, dD, dsG, dtG)
        except SparseWindowError:
            diag[i] = None
    return cells, diag


def _rel_dev(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _simulated_panel():
    paths = simulate_ensemble(
        sinusoid_model(), LevyConfig(1.0), PathGrid(0.0, 1.0, 200), PointMass(1.0), 60, 31
    )
    scheme = DesignConfig(r=6, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    return observe(paths, scheme, seed=31)


def _half_covered_panel():
    # every curve lives on [0, 0.55]: cells there fit at h, cells reaching
    # past it widen, and cells near (1, 1) never fill
    rng = np.random.default_rng(31)
    return make_obs(
        [(np.sort(rng.uniform(0.0, 0.55, 6)), rng.standard_normal(6) + 1.0) for _ in range(40)]
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN_TRUNCATED])
@pytest.mark.parametrize("panel", ["simulated", "half-covered"])
def test_grid_fit_matches_per_cell_fits(d, kernel, panel):
    if panel == "simulated":
        obs = _simulated_panel()
        h = default_bandwidth_cov(obs, d)
    else:
        obs = _half_covered_panel()
        h = 0.05
    grid = np.linspace(0.0, 1.0, 11)
    cells, diag = _grid_reference(obs, grid, d, h, kernel)
    refs = [*cells.values(), *diag.values()]
    n_bad = sum(ref is None for ref in refs)
    if n_bad > 0.2 * len(refs):
        # the half-covered panel at d = 3 (21 of 66 cells): the grid fails as the cells say
        with pytest.raises(EstimationFailedError, match=f"^{n_bad}/{len(refs)} surface cells"):
            fit_cov_grid(obs, grid, d, h, kernel)
        assert (panel, d) == ("half-covered", 3)
        return
    est = fit_cov_grid(obs, grid, d, h, kernel)

    for (i, j), ref in cells.items():
        assert est.pair_flags[i, j] == (ref is None)
        if ref is not None:
            got = (est.G2[i, j], est.ds2[i, j], est.dt2[i, j])
            assert _rel_dev(got, ref) <= 1e-10, (i, j)
    for i, ref in diag.items():
        assert est.diag_flags[i] == (ref is None)
        assert est.pair_flags[i, i] == (ref is None)
        if ref is None:
            assert np.isnan([est.D_hat[i], est.dD_hat[i], est.G2[i, i]]).all()
        else:
            got = (est.D_hat[i], est.dD_hat[i], est.ds2[i, i], est.dt2[i, i])
            assert _rel_dev(got, ref) <= 1e-10, i
            assert est.G2[i, i] == est.D_hat[i]
    n_cells = len(cells) + 2 * len(diag)  # off-diagonal, (t, t) and offset cells
    if panel == "simulated":
        assert est.fallback_cells == 0
        assert not est.pair_flags.any()
    else:
        assert 0 < est.fallback_cells < n_cells
        assert est.pair_flags.any()


def _dense_pair_sums(obs, h, kernel, d, s_pts, t_pts=None, block=64):
    """Oracle: the dense block sums the windowed `_pair_sums` replaced.

    Features at every (centre, observation) pair of a block of curves;
    per-curve sums by `reduceat` and the j = k terms as a dense product.
    """
    if t_pts is None:
        def contract(x, y):
            xy = x.reshape(-1, x.shape[-1]) @ y.reshape(-1, y.shape[-1]).T
            return xy.reshape(x.shape[:2] + y.shape[:2]).swapaxes(1, 2)
    else:
        def contract(x, y):
            return np.einsum("pcn,qcn->pqc", x, y)

    def features(lo, hi, centres):
        F = _features((obs.t[None, lo:hi] - centres[:, None]) / h, obs.y[lo:hi], kernel, d)
        return [F[k] for k in _kinds(d)]

    bounds = obs.curve_bounds()
    sums = [0.0, 0.0, 0.0]
    for c0 in range(0, bounds.size - 1, block):
        starts = bounds[c0 : c0 + block + 1]
        lo, hi = int(starts[0]), int(starts[-1])
        left = features(lo, hi, s_pts)
        right = left if t_pts is None else features(lo, hi, t_pts)
        for k, (x, y) in enumerate(zip(left, right)):
            cx = np.add.reduceat(x, starts[:-1] - lo, axis=-1)
            cy = cx if y is x else np.add.reduceat(y, starts[:-1] - lo, axis=-1)
            sums[k] = sums[k] + contract(cx, cy) - contract(x, y)
    M, R, count = sums
    return M, R, count[0, 0]


def _multi_block_panel():
    # more curves than one block of `_CURVE_BLOCK` and rows for several `_ROW_CHUNK`s
    n = _CURVE_BLOCK + 44
    r = 2 * _ROW_CHUNK // n + 2
    paths = simulate_ensemble(
        sinusoid_model(), LevyConfig(1.0), PathGrid(0.0, 1.0, 100), PointMass(1.0), n, 12
    )
    scheme = DesignConfig(r=r, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    return observe(paths, scheme, seed=12)


_WINDOWED_PANELS = {
    # panel -> (observations, bandwidth, centres); the common grid's times sit
    # on the centres and at exactly one bandwidth from them, the half-covered
    # panel and the centres outside [0, 1] leave windows empty, and the
    # multi-block centres are unsorted with a repeat
    "simulated": (_simulated_panel, None, np.linspace(0.0, 1.0, 11)),
    "multi-block": (_multi_block_panel, None, np.array([0.5, 0.1, 0.9, 0.0, 0.5, 1.0, 0.3])),
    "half-covered": (_half_covered_panel, 0.05, np.linspace(0.0, 1.0, 11)),
    "common-grid": (common_grid_panel, 0.1, np.linspace(0.0, 1.0, 21)),
    "empty-windows": (_half_covered_panel, 0.05, np.array([-0.4, 0.2, 0.8, 0.95, 1.6])),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN_TRUNCATED])
@pytest.mark.parametrize("panel", list(_WINDOWED_PANELS))
def test_windowed_pair_sums_match_dense_oracle(d, kernel, panel):
    make, h, centres = _WINDOWED_PANELS[panel]
    obs = make()
    h = default_bandwidth_cov(obs, d) if h is None else h
    eps = 1e-3 * h
    forms = [
        (centres,),
        (np.maximum(centres - eps, 0.0), np.minimum(centres + eps, 1.0)),  # fit_cov_grid's offsets
        (centres, centres[::-1] + 0.5 * h),  # unrelated s and t
    ]
    for form in forms:
        got = _pair_sums(obs, h, kernel, d, *form)
        ref = _dense_pair_sums(obs, h, kernel, d, *form)
        for g, r in zip(got[:2], ref[:2]):
            assert g.shape == r.shape
            npt.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.max(np.abs(r), initial=1.0))
        npt.assert_array_equal(got[2], ref[2])
    if panel == "empty-windows":
        assert (got[2] == 0).any() and (ref[0][0, 0] == 0).any()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, GAUSSIAN_TRUNCATED])
@pytest.mark.parametrize("panel", ["multi-block", "empty-windows"])
def test_curve_sums_match_centre_major_oracle_bitwise(d, kernel, panel):
    # the curve-major bins must hand `_pair_sums` the very bytes, in the very
    # layout, that centre-major bins did: its matmuls and einsums read them as is
    make, h, centres = _WINDOWED_PANELS[panel]
    obs = make()
    h = default_bandwidth_cov(obs, d) if h is None else h
    bounds = obs.curve_bounds()
    blocks = [bounds[c0 : c0 + _CURVE_BLOCK + 1] for c0 in range(0, bounds.size - 1, _CURVE_BLOCK)]
    if panel == "multi-block":
        assert [b.size - 1 for b in blocks] == [_CURVE_BLOCK, 44]  # one full, one partial block
    grid = np.linspace(0.0, 1.0, 51)
    empty = False  # some centre's window holds no row of a block
    for pts in (centres, grid, *_offset_cells(centres, h), *_offset_cells(grid, h)):
        for starts in blocks:
            got = _curve_sums(obs, starts, pts, h, kernel, d)
            ref = centre_major_curve_sums(obs, starts, pts, h, kernel, d)
            assert got.shape == (3 * d + 3, pts.size, starts.size - 1)
            assert got.flags.c_contiguous
            npt.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
            empty |= bool((ref[-1] == 0).all(axis=-1).any())
    assert empty or panel != "empty-windows"


# tracemalloc peaks of fit_cov_grid on `_peak_panel` with the dense block sums
# `_dense_pair_sums` (numpy 2.4, Python 3.11)
_DENSE_PEAK_BYTES = {1: 7_501_156, 2: 11_341_252}


def _peak_panel():
    paths = simulate_ensemble(
        sinusoid_model(), LevyConfig(1.0), PathGrid(0.0, 1.0, 100), PointMass(1.0), 1600, 7
    )
    scheme = DesignConfig(r=10, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    return observe(paths, scheme, seed=7)


@pytest.mark.parametrize("d", [1, 2])
def test_grid_fit_peak_memory_within_dense_peak(d):
    obs = _peak_panel()
    grid = np.linspace(0.0, 1.0, 51)
    h = default_bandwidth_cov(obs, d)
    fit_cov_grid(obs, grid, d, h)
    tracemalloc.start()
    try:
        fit_cov_grid(obs, grid, d, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _DENSE_PEAK_BYTES[d]


def test_squared_response_panel_shares_the_time_order():
    obs = _simulated_panel()
    sq = replace_responses(obs, obs.y**2)
    assert sq.t is obs.t and sq.time_order is obs.time_order
    npt.assert_array_equal(sq.time_order, np.argsort(obs.t, kind="stable"))


def test_grid_fit_bytes_do_not_depend_on_blas_threads():
    """The surface fit writes the same bytes at one BLAS thread and at one per
    CPU, also when called as a library, outside the CLI's one-thread hold.
    On one CPU both runs use one thread, so the test passes vacuously there."""
    paths = simulate_ensemble(
        sinusoid_model(), LevyConfig(1.0), PathGrid(0.0, 1.0, 100), PointMass(1.0), 100, 1
    )
    scheme = DesignConfig(r=10, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=1)
    grid = np.linspace(0.0, 1.0, 51)
    controls = lanes._blas_thread_controls()
    saved = [get() for get, _ in controls]
    fits = []
    try:
        for threads in (1, lanes._cpu_count()):
            for _, put in controls:
                put(threads)
            est = fit_cov_grid(obs, grid, 1, default_bandwidth_cov(obs, 1))
            fits.append([a.tobytes() for a in (est.G2, est.ds2, est.dt2, est.D_hat, est.dD_hat)])
    finally:
        for (_, put), threads in zip(controls, saved):
            put(threads)
    assert [get() for get, _ in controls] == saved
    assert fits[0] == fits[1]
