"""Euler scheme: noiseless ODE limit, compensated-jump moments, and the
bitwise reproducibility contract."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    GaussianInitial,
    LevyConfig,
    PathGrid,
    PointMass,
    SimulationDivergedError,
    ValidationError,
    constant_model,
    simulate_ensemble,
    sinusoid_model,
)
from sparsesde import harness, simulate
from sparsesde.harness import write_table
from sparsesde.simulate import _path_states, export_paths_csv

LEVY1 = LevyConfig(nu_K=1.0)


def _reference_rows(coeffs, levy, grid, x0, seeds):
    """Column-layout scheme kept as an oracle: path i's draws from
    default_rng(seeds[i]) fill column i of (steps, n) arrays, then one
    recursion over time builds the states.

    Returns (rows, counts); rows is (steps+1, n), the transpose of the
    ensemble's layout, exactly as the recursion produced it.
    """
    n = len(seeds)
    lam = levy.nu_K * grid.dt
    Z = np.empty((grid.steps, n))
    N = np.empty((grid.steps, n))
    for i in range(n):
        rng = np.random.default_rng(int(seeds[i]))
        Z[:, i] = rng.standard_normal(grid.steps)
        N[:, i] = rng.poisson(lam, grid.steps)

    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    tk = grid.points[:-1]
    mu_k, sig_k, xi_k = coeffs.mu(tk), coeffs.sigma(tk), coeffs.xi(tk)
    comp = levy.nu_K * dt
    rows = np.empty((grid.steps + 1, n))
    rows[0] = x0
    x = np.asarray(x0, dtype=float).copy()
    for k in range(grid.steps):
        x = x + mu_k[k] * x * dt + sig_k[k] * sqrt_dt * Z[k] + xi_k[k] * (N[k] - comp)
        rows[k + 1] = x
    return rows, N


def _path(coeffs, levy, grid, x0, seed):
    """The path of seed word `seed` from x0, regenerated alone as a one-path ensemble."""
    draws = (np.array([seed], dtype=np.uint64), np.array([x0], dtype=float))
    return simulate_ensemble(coeffs, levy, grid, PointMass(x0), 1, 0, draws=draws).values[0]


def _reference_ensemble(coeffs, levy, grid, x0_law, n, master_seed):
    """The ensemble's seed contract over the oracle: returns (rows, seeds, counts)."""
    seeds = np.random.SeedSequence([master_seed, 0]).generate_state(n, dtype=np.uint64)
    x0_rng = np.random.default_rng(np.random.SeedSequence([master_seed, 1]))
    x0 = np.asarray(x0_law.sample(x0_rng, n), dtype=float)
    rows, counts = _reference_rows(coeffs, levy, grid, x0, seeds)
    return rows, seeds, counts


@pytest.mark.parametrize("n", [1, 400])
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 1000])
@pytest.mark.parametrize("law", [PointMass(1.0), GaussianInitial(0.5, 0.3)], ids=["point", "gauss"])
@pytest.mark.parametrize("nu_K", [1.0, 500.0], ids=["sparse", "jumpy"])
def test_ensemble_matches_column_layout_oracle(n, steps, law, nu_K):
    # partial, single and many blocks; at nu_K = 500 counts >= 2 occur and
    # most steps of a 400-path ensemble carry a jump
    c = sinusoid_model()
    levy = LevyConfig(nu_K)
    grid = PathGrid(0.0, 1.0, steps)
    ens = simulate_ensemble(c, levy, grid, law, n, master_seed=41)
    rows, seeds, counts = _reference_ensemble(c, levy, grid, law, n, 41)
    assert np.array_equal(ens.values, rows.T)
    assert np.array_equal(simulate.ensemble_draws(law, n, 41)[0], seeds)
    if nu_K == 500.0 and n == 400:
        assert counts.max() >= 2
        assert np.mean(counts.any(axis=1)) > 0.9
    x = _path(c, levy, grid, float(rows[0, 0]), seed=int(seeds[0]))
    assert np.array_equal(x, rows[:, 0])


def test_path_states_match_default_rng():
    # word-boundary seeds, then the words an ensemble actually hands its paths
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = np.random.SeedSequence([97, 0]).generate_state(2000, np.uint64)
    seeds = edges + words.tolist()
    for seed, (state, inc) in zip(seeds, _path_states(seeds)):
        ref = np.random.default_rng(seed).bit_generator.state["state"]
        assert (state, inc) == (ref["state"], ref["inc"]), seed
    rng = np.random.Generator(np.random.PCG64(0))
    for seed, (state, inc) in zip(seeds[:8], _path_states(seeds[:8])):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        ref = np.random.default_rng(seed)
        assert np.array_equal(rng.standard_normal(300), ref.standard_normal(300))
        assert np.array_equal(rng.poisson(0.7, 300), ref.poisson(0.7, 300))
        assert np.array_equal(rng.random(300), ref.random(300))


def _numpy_jumps(seed, lam, size, normals=0):
    rng = np.random.default_rng(seed)
    rng.standard_normal(normals)  # a path's normals come before its counts
    N = rng.poisson(lam, size)
    at = np.flatnonzero(N)
    return at.tolist(), N[at].tolist()


@pytest.fixture
def replay_calls(monkeypatch):
    """One entry per path sent to the bulk replay `_replay_jumps`; the replay still runs."""
    calls, replay = [], simulate._replay_jumps
    monkeypatch.setattr(
        simulate, "_replay_jumps", lambda s, *a: calls.extend(s.states) or replay(s, *a)
    )
    return calls


_CUTOFF = simulate._REPLAY_JUMPS
_CHUNK_BYTES = simulate._REPLAY_CHUNK_BYTES
# lam = 0 is an underflowed nu_K * dt, for which numpy draws nothing
_RATES = [0.0, 1e-12, 1e-3, 0.05, 0.5, 2.0, 8.0]
_REPLAYED = [
    (lam, size)
    for lam in _RATES
    for size in (1, 16, 63, 1000)
    if lam * size < _CUTOFF
]


def _replay(seeds, lam, size):
    """Each path's (steps, counts) from `_replay_jumps`, checking its normals too."""
    values = np.empty((len(seeds), size + 1))
    path, step, count = simulate._replay_jumps(simulate._PathStreams(seeds, values), lam, size)
    for i, seed in enumerate(seeds):
        normals = np.random.default_rng(seed).standard_normal(size)
        assert np.array_equal(values[i, 1:], normals), (lam, size, i)
    return [(step[path == i].tolist(), count[path == i].tolist()) for i in range(len(seeds))]


@pytest.fixture
def redrawn(monkeypatch):
    """The path of every `_poisson_jumps` call; the calls still run."""
    paths, draw = [], simulate._poisson_jumps
    monkeypatch.setattr(simulate, "_poisson_jumps", lambda *a: paths.append(a[1]) or draw(*a))
    return paths


@pytest.mark.parametrize("lam, size", _REPLAYED)
def test_poisson_replay_matches_generator_poisson(lam, size, monkeypatch):
    # ensembles of chunk - 1, chunk and chunk + 1 paths (a short chunk, one
    # full chunk, and a full one followed by a single path), then 300 paths.
    # The default budget holds 15 paths of 1,000 steps; shorter paths get a
    # 25-path chunk here to keep the ensembles small.
    width = 8 * (size + simulate._REPLAY_PAD)
    budget = min(_CHUNK_BYTES, 25 * width)
    monkeypatch.setattr(simulate, "_REPLAY_CHUNK_BYTES", budget)
    chunk = budget // width
    for m in (chunk - 1, chunk, chunk + 1, 300):
        seeds = np.random.SeedSequence([m, size]).generate_state(m, np.uint64).tolist()
        for i, (seed, got) in enumerate(zip(seeds, _replay(seeds, lam, size))):
            assert got == _numpy_jumps(seed, lam, size, normals=size), (m, i)


@pytest.mark.parametrize("pad", [1, 2, None], ids=["pad1", "pad2", "default"])
def test_poisson_replay_walks_past_its_pad(pad, monkeypatch, redrawn):
    # a path that reads past its pad, or holds a count above 1, is drawn
    # again through `_poisson_jumps`; every other path is taken from the scan
    if pad is not None:
        monkeypatch.setattr(simulate, "_REPLAY_PAD", pad)
    pad = simulate._REPLAY_PAD
    grown, top, scanned = 0, 0, 0
    for lam, size in [(8.0, 1), (2.0, 4), (0.5, 16), (0.05, 63)]:
        redrawn.clear()
        seeds = list(range(500))
        got = _replay(seeds, lam, size)
        must = set()
        for seed, (steps, counts) in zip(seeds, got):
            assert (steps, counts) == _numpy_jumps(seed, lam, size, normals=size), (lam, seed)
            grown += sum(counts) >= pad
            top = max(top, *counts, 0)
            if len(counts) > pad or max(counts, default=0) > 1:
                must.add(seed)
        assert must <= set(redrawn), (lam, size)
        scanned += len(seeds) - len(redrawn)
    assert grown > 0 and top >= 3 and scanned > 0


@pytest.mark.parametrize("steps", [50, 1000])
@pytest.mark.parametrize(
    "nu_K",
    [math.nextafter(_CUTOFF, 0.0), _CUTOFF, math.nextafter(_CUTOFF, math.inf)],
    ids=["below", "at", "above"],
)
def test_ensemble_at_the_replay_cutoff_matches_oracle(steps, nu_K, replay_calls):
    # on the unit span lam * steps is nu_K, up to rounding
    grid, levy, law = PathGrid(0.0, 1.0, steps), LevyConfig(nu_K), GaussianInitial(0.5, 0.3)
    ens = simulate_ensemble(sinusoid_model(), levy, grid, law, 60, master_seed=17)
    rows, _, counts = _reference_ensemble(sinusoid_model(), levy, grid, law, 60, 17)
    assert np.array_equal(ens.values, rows.T)
    replayed = levy.nu_K * grid.dt * steps < _CUTOFF
    assert len(replay_calls) == (60 if replayed else 0)
    assert replayed == (nu_K < _CUTOFF)
    assert counts.max() >= 2


@pytest.mark.parametrize("nu_K, replayed", [(1.0, True), (500.0, False)], ids=["sparse", "jumpy"])
def test_oracle_ensembles_take_both_sampler_routes(nu_K, replayed, replay_calls):
    # the rates of test_ensemble_matches_column_layout_oracle
    grid = PathGrid(0.0, 1.0, 63)
    simulate_ensemble(sinusoid_model(), LevyConfig(nu_K), grid, PointMass(1.0), 4, master_seed=41)
    assert len(replay_calls) == (4 if replayed else 0)


def test_path_seed_range_ends_accepted():
    grid = PathGrid(0.0, 1.0, 10)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        x = _path(sinusoid_model(), LEVY1, grid, 1.0, seed=seed)
        ref, _ = _reference_rows(sinusoid_model(), LEVY1, grid, np.array([1.0]), [seed])
        assert np.array_equal(x, ref[:, 0])


def test_ensemble_peak_memory_is_near_result_size():
    # below 10 expected jumps a path the result is the only (n, steps)-sized
    # array an ensemble allocates.  On the long paths the recursion's per-step
    # coefficients add ~0.2x, and a replay chunk of 15 paths (the budget's count
    # at 1,000 steps) would add 0.3x.  At 1,000 jumps a path the dense int32
    # counts add 0.5x, where one int64 triple per nonzero count added ~7x
    # numpy loads numpy.random (~0.75 MB) on first use: load it before tracing
    import numpy.random  # noqa: F401

    c = sinusoid_model()
    for levy, n, steps, bound in [
        (LEVY1, 400, 1000, 1.5), (LEVY1, 50, 20_000, 1.25), (LevyConfig(1000.0), 400, 1000, 2.0)
    ]:
        tracemalloc.start()
        try:
            ens = simulate_ensemble(c, levy, PathGrid(0.0, 1.0, steps), PointMass(1.0), n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * ens.values.nbytes, (levy.nu_K, n, steps)
        del ens


def _three_blocks(monkeypatch, steps: int, n: int) -> int:
    """Size `simulate_blocks`' blocks so that n paths make three; returns the largest."""
    rows = -(-n // 3)
    monkeypatch.setattr(simulate, "_PATH_BLOCK_BYTES", rows * 8 * (steps + 1))
    assert len(simulate.block_bounds(n, steps)) == 3
    return rows


@pytest.mark.parametrize("n", [9, 10, 11])
def test_blocks_into_a_buffer_equal_blocks_of_their_own(monkeypatch, n):
    steps = 40
    rows = _three_blocks(monkeypatch, steps, n)
    model = (sinusoid_model(), LEVY1, PathGrid(0.0, 1.0, steps), GaussianInitial(0.5, 0.3))
    own = [(r, p.values.copy()) for r, p in simulate.simulate_blocks(*model, n, 9)]
    out = np.full(rows * (steps + 1) + 5, np.nan)
    got = []
    for r, p in simulate.simulate_blocks(*model, n, 9, out):
        assert np.shares_memory(p.values, out) and p.values.shape == (r.stop - r.start, steps + 1)
        got.append((r, p.values.copy()))
    assert len(got) == len(own) == 3
    for (r1, v1), (r2, v2) in zip(own, got):
        assert r1 == r2
        assert v1.tobytes() == v2.tobytes()
    assert np.isnan(out[rows * (steps + 1) :]).all()  # nothing past the largest block


def test_buffer_shorter_than_a_block_is_rejected(monkeypatch):
    steps, n = 40, 10
    rows = _three_blocks(monkeypatch, steps, n)
    model = (sinusoid_model(), LEVY1, PathGrid(0.0, 1.0, steps), PointMass(1.0))
    with pytest.raises(ValidationError, match="out holds"):
        simulate.simulate_blocks(*model, n, 9, np.empty(rows * (steps + 1) - 1))
    for bad in (np.empty(rows * (steps + 1), np.float32), np.empty((rows, steps + 1)), [0.0] * 999):
        with pytest.raises(ValidationError, match="out must be"):
            simulate.simulate_blocks(*model, n, 9, bad)
    with pytest.raises(ValidationError, match="out holds"):
        simulate_ensemble(*model, n, 9, out=np.empty(n * (steps + 1) - 1))


def test_noiseless_ode_limit():
    c = constant_model(-1.0, 0.0, 0.0)
    x = _path(c, LEVY1, PathGrid(0.0, 1.0, 10_000), 1.0, seed=1)
    assert abs(x[-1] - math.exp(-1.0)) < 1e-3


def test_zero_dynamics_constant_path():
    c = constant_model(0.0, 0.0, 0.0)
    x = _path(c, LEVY1, PathGrid(0.0, 1.0, 100), 3.25, seed=2)
    npt.assert_array_equal(x, 3.25)


def test_euler_error_halves_with_step():
    # global error of the noiseless scheme is O(dt): halving dt halves it
    c = constant_model(-1.0, 0.0, 0.0)
    errs = []
    for steps in (2000, 4000):
        x = _path(c, LEVY1, PathGrid(0.0, 1.0, steps), 1.0, seed=3)
        errs.append(abs(x[-1] - math.exp(-1.0)))
    ratio = errs[1] / errs[0]
    assert 0.45 < ratio < 0.55


def test_ensemble_bitwise_reproducible():
    c = sinusoid_model()
    grid = PathGrid(0.0, 1.0, 200)
    a = simulate_ensemble(c, LEVY1, grid, PointMass(1.0), 3, master_seed=7)
    b = simulate_ensemble(c, LEVY1, grid, PointMass(1.0), 3, master_seed=7)
    npt.assert_array_equal(a.values, b.values)


def test_ensemble_row_equals_single_path():
    # per-path child seeds mean row i is reproducible in isolation
    c = sinusoid_model()
    grid = PathGrid(0.0, 1.0, 150)
    ens = simulate_ensemble(c, LEVY1, grid, PointMass(1.0), 5, master_seed=11)
    seeds, _ = simulate.ensemble_draws(PointMass(1.0), 5, 11)
    for i in (0, 2, 4):
        x = _path(c, LEVY1, grid, 1.0, seed=int(seeds[i]))
        npt.assert_array_equal(ens.values[i], x)


def test_initial_law_swap_leaves_driving_noise_alone():
    """The SDE is linear with additive noise, so two ensembles sharing a
    master seed but differing in x0 law differ exactly by the propagated
    initial gap prod_k (1 + mu(t_k) dt)."""
    c = constant_model(-2.0, 0.09, 0.04)
    grid = PathGrid(0.0, 1.0, 100)
    a = simulate_ensemble(c, LEVY1, grid, PointMass(1.0), 4, master_seed=13)
    b = simulate_ensemble(c, LEVY1, grid, PointMass(1.5), 4, master_seed=13)
    growth = np.cumprod(np.concatenate(([1.0], 1.0 - 2.0 * np.full(100, grid.dt))))
    npt.assert_allclose(b.values - a.values, np.tile(0.5 * growth, (4, 1)), rtol=1e-10)


def test_compensated_jump_increments_are_centered():
    # mu=0, sigma=0, xi=1: X(1) is a sum of compensated Poisson increments
    c = constant_model(0.0, 0.0, 1.0)
    ens = simulate_ensemble(c, LEVY1, PathGrid(0.0, 1.0, 50), PointMass(0.0), 10_000, 17)
    final = ens.values[:, -1]
    se = final.std(ddof=1) / math.sqrt(final.size)
    assert abs(final.mean()) < 4.0 * se


def test_jump_increment_variance():
    # per-step variance of xi (N - nu dt) is nu dt; 1e5 draws, 5% tolerance
    c = constant_model(0.0, 0.0, 1.0)
    ens = simulate_ensemble(c, LEVY1, PathGrid(0.0, 1.0, 4), PointMass(0.0), 25_000, 19)
    inc = np.diff(ens.values, axis=1).ravel()
    assert abs(inc.var() / 0.25 - 1.0) < 0.05


def test_ensemble_moments_match_ode():
    from sparsesde import solve_moments

    c = sinusoid_model()
    ens = simulate_ensemble(c, LEVY1, PathGrid(0.0, 1.0, 1000), PointMass(1.0), 20_000, 23)
    sol = solve_moments(c, LEVY1, 1.0, 1.0)
    pts = ens.grid.points
    for u in (0.2, 0.5, 0.9):
        col = ens.values[:, int(round(u * 1000))]
        se_m = col.std(ddof=1) / math.sqrt(col.size)
        se_D = (col**2).std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - float(sol.mean_at(u))) < 4 * se_m
        assert abs(np.mean(col**2) - float(sol.second_moment_at(u))) < 4 * se_D
    # two-time product E[X(0.3) X(0.8)] against the factorised surface
    from sparsesde import cov_value

    prod = ens.values[:, 300] * ens.values[:, 800]
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(prod.mean() - float(cov_value(sol, 0.3, 0.8))) < 4 * se
    assert pts[300] == pytest.approx(0.3)


def _first_nonfinite(rows):
    bad = ~np.isfinite(rows)
    step = int(np.argmax(bad.any(axis=1)))
    return step, int(np.argmax(bad[step]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_reports_step():
    c = constant_model(1e4, 0.0, 0.0)
    with pytest.raises(SimulationDivergedError) as exc:
        _path(c, LEVY1, PathGrid(0.0, 1.0, 1000), 1.0, seed=29)
    rows, _ = _reference_rows(c, LEVY1, PathGrid(0.0, 1.0, 1000), np.array([1.0]), [29])
    assert (exc.value.step, exc.value.path) == _first_nonfinite(rows)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_first_step_and_path_of_ensemble():
    # x0 ~ N(0, 1) under mu = 1e4 grows ~11x per step, so paths overflow
    # near step 300 (past the first block), each at a step set by its |x0|
    c = constant_model(1e4, 1.0, 1.0)
    grid = PathGrid(0.0, 1.0, 1000)
    law = GaussianInitial(0.0, 1.0)
    rows, _, _ = _reference_ensemble(c, LEVY1, grid, law, 50, 31)
    bad = ~np.isfinite(rows)
    assert len(set(np.argmax(bad, axis=0))) > 1
    step, path = _first_nonfinite(rows)
    assert step > 64 and path > 0
    with pytest.raises(SimulationDivergedError) as exc:
        simulate_ensemble(c, LEVY1, grid, law, 50, 31)
    assert (exc.value.step, exc.value.path) == (step, path)


def test_divergence_raises_without_a_warning():
    # the state that leaves float range is the error reported, with no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationDivergedError):
            _path(constant_model(1e4, 0.0, 0.0), LEVY1, PathGrid(0.0, 1.0, 1000), 1.0, 29)


def test_span_mismatch_rejected():
    c = constant_model(-1.0, 0.0, 0.0, span=(0.0, 0.5))
    with pytest.raises(ValidationError):
        _path(c, LEVY1, PathGrid(0.0, 1.0, 10), 1.0, seed=1)
    with pytest.raises(ValidationError):
        simulate_ensemble(c, LEVY1, PathGrid(0.0, 1.0, 10), PointMass(1.0), 0, 1)


def test_gaussian_initial_law_seeded():
    law = GaussianInitial(2.0, 0.5)
    a = law.sample(np.random.default_rng(4), 1000)
    b = law.sample(np.random.default_rng(4), 1000)
    npt.assert_array_equal(a, b)
    assert abs(a.mean() - 2.0) < 0.1


def test_export_paths_csv(tmp_path):
    c = constant_model(0.0, 0.0, 0.0)
    ens = simulate_ensemble(c, LEVY1, PathGrid(0.0, 1.0, 3), PointMass(1.0), 2, 5)
    dest = tmp_path / "paths.csv"
    export_paths_csv(ens, dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "path_id,t,x"
    assert len(lines) == 1 + 2 * 4


def test_export_paths_csv_blocks_match_one_table(tmp_path, monkeypatch):
    # row blocks of 100 straddle the 151-row paths
    monkeypatch.setattr(harness, "_TABLE_BLOCK", 100)
    ens = simulate_ensemble(sinusoid_model(), LEVY1, PathGrid(0.0, 1.0, 150), PointMass(1.0), 7, 5)
    export_paths_csv(ens, tmp_path / "got.csv")
    t = ens.grid.points
    cols = (np.repeat(np.arange(ens.n), t.size), np.tile(t, ens.n), ens.values.ravel())
    write_table(tmp_path / "want.csv", ["path_id", "t", "x"], cols)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_export_paths_csv_holds_one_row_block(monkeypatch):
    # the text of one default block of rows is ~0.4 MB, so the block is
    # shrunk for the bound to show on a 0.8 MB ensemble
    monkeypatch.setattr(harness, "_TABLE_BLOCK", 64)
    grid = PathGrid(0.0, 1.0, 1000)
    ens = simulate_ensemble(sinusoid_model(), LEVY1, grid, PointMass(1.0), 100, 5)
    export_paths_csv(ens, os.devnull)  # numpy's small-buffer caches fill on a first run
    tracemalloc.start()
    try:
        export_paths_csv(ens, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * ens.values.nbytes


@pytest.mark.parametrize(
    "build",
    [
        lambda: PathGrid(0.0, 1.0, 10.0),
        lambda: PathGrid(0.0, 1.0, True),
        lambda: PathGrid(0.0, math.inf, 10),
        lambda: PathGrid(math.nan, 1.0, 10),
        lambda: PathGrid(0.0, "1", 10),
    ],
    ids=["float-steps", "bool-steps", "inf-end", "nan-start", "str-end"],
)
def test_malformed_grid_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("n", [5.0, True, "5", 0])
def test_malformed_path_count_rejected(n):
    with pytest.raises(ValidationError):
        simulate_ensemble(sinusoid_model(), LEVY1, PathGrid(0.0, 1.0, 10), PointMass(1.0), n, 1)


def test_numpy_integer_counts_accepted():
    grid = PathGrid(np.float64(0.0), 1, np.int64(10))
    ens = simulate_ensemble(sinusoid_model(), LEVY1, grid, PointMass(1.0), np.int64(3), 1)
    assert ens.values.shape == (3, 11)
