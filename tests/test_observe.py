"""Observation scheme: design laws, noise bookkeeping, CSV round trips."""

import importlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    ClippedLinearDesign,
    CsvParseError,
    DesignConfig,
    GaussianInitial,
    LevyConfig,
    PathGrid,
    PointMass,
    SimulationDivergedError,
    SparseObservations,
    UniformDesign,
    ValidationError,
    constant_model,
    draw_design,
    export_observations_csv,
    ingest_csv,
    ingest_wide_csv,
    observe,
    observe_ensemble,
    simulate_blocks,
    simulate_ensemble,
    sinusoid_model,
)
from sparsesde.errors import DesignRangeError
from sparsesde.observe import _CURVE_BLOCK, _STREAM_DESIGN, _STREAM_NOISE

from conftest import curve_slices, make_obs

# the modules; the package's `observe` name is the function
simulate_module = importlib.import_module("sparsesde.simulate")
observe_module = importlib.import_module("sparsesde.observe")


def make_paths(n=5, steps=100, seed=1, coeffs=None):
    coeffs = coeffs or sinusoid_model()
    return simulate_ensemble(
        coeffs, LevyConfig(1.0), PathGrid(0.0, 1.0, steps), PointMass(1.0), n, seed
    )


def test_draw_design_sorted_and_bounded(rng):
    pts = draw_design(UniformDesign(), 2, rng)
    assert pts.size == 2
    assert 0.0 <= pts[0] < pts[1] <= 1.0


def test_pooled_uniform_design_ks_distance(rng):
    draws = np.concatenate([draw_design(UniformDesign(), 10, rng) for _ in range(10_000)])
    xs = np.sort(draws)
    ecdf = np.arange(1, xs.size + 1) / xs.size
    assert np.max(np.abs(ecdf - xs)) < 0.01


def test_clipped_linear_density_bound():
    """Design density max(2t, 0.1)/Z keeps interval mass below 2.1 * length
    on every dyadic interval, the evenness condition the theory needs."""
    Z = 1.0 + 0.1**2 / 4.0
    worst = 0.0
    for m in range(1, 7):
        for k in range(2**m):
            a, b = k / 2**m, (k + 1) / 2**m
            g = np.linspace(a, b, 201)
            mass = np.trapezoid(np.maximum(2.0 * g, 0.1) / Z, g)
            worst = max(worst, mass / (b - a))
    assert worst <= 2.1


def test_clipped_linear_sampler_matches_cdf(rng):
    law = ClippedLinearDesign(0.1)
    Z = 1.0 + 0.1**2 / 4.0
    xs = np.sort(law.sample(rng, 100_000))
    cdf = np.where(xs < 0.05, 0.1 * xs / Z, (xs**2 + 0.1**2 / 4.0) / Z)
    ks = np.max(np.abs(cdf - (np.arange(1, xs.size + 1) - 0.5) / xs.size))
    assert ks < 0.01


def test_degenerate_design_law_staggered():
    class AlwaysHalf:
        def sample(self, rng, r):
            return np.full(r, 0.5)

    pts = draw_design(AlwaysHalf(), 4, np.random.default_rng(0))
    assert np.all(np.diff(pts) > 0)


def test_observe_zero_noise_interpolates_paths():
    paths = make_paths(n=3)
    scheme = DesignConfig(r=4, noise_sd=0.0, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=2)
    for i, sl in enumerate(curve_slices(obs)):
        latent = np.interp(obs.t[sl], paths.grid.points, paths.values[i])
        npt.assert_array_equal(obs.y[sl], latent)


def test_observe_counts_and_ordering():
    paths = make_paths(n=2)
    scheme = DesignConfig(r=5, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=3)
    assert obs.total == 10
    assert obs.n == 2
    for sl in curve_slices(obs):
        assert np.all(np.diff(obs.t[sl]) > 0)


def test_observe_noise_moments():
    # residuals against the interpolated latent paths are the U draws
    paths = make_paths(n=10_000, steps=50, coeffs=constant_model(0.0, 0.0, 0.0))
    scheme = DesignConfig(r=10, noise_sd=0.3, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=5)
    resid = obs.y - 1.0  # latent paths are constant 1
    se = resid.std(ddof=1) / math.sqrt(resid.size)
    assert abs(resid.mean()) < 4.0 * se
    assert abs(resid.var() / 0.09 - 1.0) < 0.05


def test_uniform_noise_law_supported():
    paths = make_paths(n=200, coeffs=constant_model(0.0, 0.0, 0.0))
    scheme = DesignConfig(r=10, noise_sd=0.5, design_law=UniformDesign(), noise_law="uniform")
    obs = observe(paths, scheme, seed=11)
    resid = obs.y - 1.0
    assert abs(resid.var() / 0.25 - 1.0) < 0.1
    assert np.max(np.abs(resid)) <= 0.5 * math.sqrt(3.0) + 1e-12


def test_design_config_validation():
    with pytest.raises(ValidationError):
        DesignConfig(r=1, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    with pytest.raises(ValidationError):
        DesignConfig(r=5, noise_sd=-0.5, design_law=UniformDesign(), noise_law="gaussian")
    with pytest.raises(ValidationError):
        DesignConfig(r=5, noise_sd=0.1, design_law=UniformDesign(), noise_law="cauchy")


def test_csv_round_trip(tmp_path):
    paths = make_paths(n=3)
    scheme = DesignConfig(r=4, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=13)
    dest = tmp_path / "obs.csv"
    export_observations_csv(obs, dest)
    back = ingest_csv(dest)
    npt.assert_array_equal(back.curve_id, obs.curve_id)
    npt.assert_array_equal(back.t, obs.t)  # repr round trip is exact
    npt.assert_array_equal(back.y, obs.y)


def test_ingest_rejects_bad_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b,c\n0,0.1,1.0\n")
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(f)
    assert exc.value.line == 1


def test_ingest_reports_malformed_row_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("curve_id,t,y\n0,0.1,1.0\n0,not-a-number,2.0\n")
    with pytest.raises(CsvParseError) as exc:
        ingest_csv(f)
    assert exc.value.line == 3


def test_ingest_rejects_duplicate_times(tmp_path):
    f = tmp_path / "dup.csv"
    f.write_text("curve_id,t,y\n0,0.1,1.0\n0,0.1,2.0\n")
    with pytest.raises(ValidationError):
        ingest_csv(f)


def test_ingest_rejects_single_point_curve(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("curve_id,t,y\n0,0.1,1.0\n0,0.2,1.5\n1,0.4,2.0\n")
    with pytest.raises(ValidationError) as exc:
        ingest_csv(f)
    assert "curve 1" in str(exc.value)


def test_ingest_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(CsvParseError):
        ingest_csv(f)


def test_ingest_sorts_within_curve_and_renumbers(tmp_path):
    f = tmp_path / "messy.csv"
    f.write_text("curve_id,t,y\n7,0.9,1.0\n7,0.2,2.0\n3,0.5,3.0\n3,0.6,4.0\n")
    obs = ingest_csv(f)
    npt.assert_array_equal(obs.curve_id, [0, 0, 1, 1])
    npt.assert_array_equal(obs.t, [0.5, 0.6, 0.2, 0.9])


def test_ingest_rescales_times_from_given_span(tmp_path):
    f = tmp_path / "days.csv"
    f.write_text("curve_id,t,y\n0,36.5,1.0\n0,182.5,2.0\n1,0.0,3.0\n1,365.0,4.0\n")
    with pytest.raises(ValidationError):
        ingest_csv(f)  # raw times exceed [0, 1]
    obs = ingest_csv(f, time_span=(0.0, 365.0))
    npt.assert_allclose(obs.t, [0.1, 0.5, 0.0, 1.0])
    npt.assert_array_equal(obs.y, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValidationError):
        ingest_csv(f, time_span=(365.0, 0.0))


def test_wide_ingest_midpoint_times(tmp_path):
    f = tmp_path / "wide.csv"
    f.write_text("id,c1,c2,c3,c4\nstn_a,1.0,2.0,3.0,4.0\nstn_b,5.0,,7.0,8.0\n")
    obs = ingest_wide_csv(f)
    npt.assert_allclose(obs.t[:4], (np.arange(4) + 0.5) / 4)
    assert obs.counts()[1] == 3  # empty cell skipped
    npt.assert_array_equal(obs.y[:4], [1.0, 2.0, 3.0, 4.0])


def test_wide_ingest_365_columns(tmp_path):
    header = "id," + ",".join(f"d{j}" for j in range(1, 366))
    row = "x," + ",".join(str(float(j)) for j in range(365))
    (tmp_path / "w.csv").write_text(header + "\n" + row + "\n" + row.replace("x,", "y,") + "\n")
    obs = ingest_wide_csv(tmp_path / "w.csv")
    assert obs.n == 2
    assert obs.t[0] == pytest.approx(0.5 / 365)
    assert obs.t[364] == pytest.approx(364.5 / 365)


def test_wide_ingest_id_rule_skips_empty_first_cells(tmp_path):
    # an empty first cell is a missing value, not an id
    f = tmp_path / "wide.csv"
    f.write_text("d1,d2,d3,d4\n,1.0,2.0,3.0\n4.0,5.0,6.0,7.0\n")
    obs = ingest_wide_csv(f)
    npt.assert_array_equal(obs.curve_id, [0, 0, 0, 1, 1, 1, 1])
    npt.assert_allclose(obs.t, np.array([3, 5, 7, 1, 3, 5, 7]) / 8)
    npt.assert_array_equal(obs.y, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    f.write_text("id,d1,d2\n,1.0,2.0\nstn,3.0,4.0\n")
    npt.assert_allclose(ingest_wide_csv(f).t, [0.25, 0.75, 0.25, 0.75])


def test_subset_renumbers_with_repeats():
    obs = make_obs([([0.1, 0.2], [1.0, 2.0]), ([0.3, 0.4], [3.0, 4.0])])
    sub = obs.subset([1, 1, 0])
    assert sub.n == 3
    npt.assert_array_equal(sub.t, [0.3, 0.4, 0.3, 0.4, 0.1, 0.2])


def test_subset_matches_loop_reference(rng):
    sizes = [3, 2, 8, 5, 2]
    obs = make_obs([(np.sort(rng.random(r)), rng.standard_normal(r)) for r in sizes])
    ids = [4, 2, 2, 0, 4, 3, 1, 2]
    sub = obs.subset(ids)
    slices = curve_slices(obs)
    ref_t = np.concatenate([obs.t[slices[i]] for i in ids])
    ref_y = np.concatenate([obs.y[slices[i]] for i in ids])
    ref_id = np.concatenate([np.full(sizes[i], k) for k, i in enumerate(ids)])
    npt.assert_array_equal(sub.t, ref_t)
    npt.assert_array_equal(sub.y, ref_y)
    npt.assert_array_equal(sub.curve_id, ref_id)
    assert sub.curve_id.dtype == ref_id.dtype
    sub.validate()


def test_validate_catches_unordered_and_out_of_range():
    with pytest.raises(ValidationError):
        make_obs([([0.2, 0.1], [1.0, 2.0])])
    with pytest.raises(ValidationError):
        make_obs([([0.5, 1.2], [1.0, 2.0])])
    with pytest.raises(ValidationError):
        SparseObservations(
            curve_id=np.array([0, 0]), t=np.array([0.1, 0.2]), y=np.array([np.nan, 1.0])
        ).validate()


def test_ingest_rejects_nan_time(tmp_path):
    f = tmp_path / "nan.csv"
    f.write_text("curve_id,t,y\n0,0.1,1.0\n0,nan,2.0\n0,0.5,1.5\n")
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        ingest_csv(f)


@pytest.mark.parametrize(
    "cid, t, message",
    [
        ([], [], "no observations"),
        ([0, 0, 0], [0.1, 0.2], "column lengths differ"),
        ([1, 1, 0, 0], [0.1, 0.2, 0.1, 0.2], "grouped in ascending order"),
    ],
)
def test_validate_rejects_malformed_columns(cid, t, message):
    obs = SparseObservations(np.array(cid, dtype=int), np.array(t), np.ones(len(t)))
    with pytest.raises(ValidationError, match=message):
        obs.validate()


def test_validate_names_lowest_failing_curve():
    ok = ([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    short = ([0.4], [1.0])
    unsorted = ([0.1, 0.3, 0.2], [1.0, 2.0, 3.0])

    def message(curves, ids=None):
        cid = np.concatenate([np.full(len(t), i) for i, (t, _) in enumerate(curves)])
        obs = SparseObservations(
            curve_id=cid if ids is None else np.asarray(ids)[cid],
            t=np.concatenate([t for t, _ in curves]),
            y=np.concatenate([y for _, y in curves]),
        )
        with pytest.raises(ValidationError) as exc:
            obs.validate()
        return str(exc.value)

    assert message([ok, short, unsorted]) == "curve 1 has fewer than 2 observations"
    assert message([ok, unsorted, short]) == "curve 1 times are not strictly increasing"
    assert message([ok, ok, unsorted, ok, short]) == "curve 2 times are not strictly increasing"
    assert message([ok, ok, ok, short, unsorted]) == "curve 3 has fewer than 2 observations"
    # the index counts curve groups, not curve ids
    assert message([ok, short, unsorted], ids=[3, 8, 9]) == "curve 1 has fewer than 2 observations"
    # equal times inside one curve are out of order too
    assert message([ok, ([0.2, 0.2], [1.0, 1.0])]) == "curve 1 times are not strictly increasing"


class _LatticeDesign:
    """Uniform draws rounded to a 1/32 lattice, so some curves draw tied times."""

    def sample(self, rng, r):
        return np.round(rng.random(r) * 32.0) / 32.0


def _observe_per_curve(paths, cfg, seed):
    """Reference observation scheme: one curve at a time, each path through np.interp."""
    design_rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_DESIGN]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_NOISE]))
    g = paths.grid
    tt, yy = [], []
    for i in range(paths.n):
        T = draw_design(cfg.design_law, cfg.r, design_rng)
        if cfg.noise_sd == 0:
            U = np.zeros(cfg.r)
        elif cfg.noise_law == "gaussian":
            U = cfg.noise_sd * noise_rng.standard_normal(cfg.r)
        else:
            U = cfg.noise_sd * noise_rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), cfg.r)
        tt.append(T)
        yy.append(np.interp(g.t0 + (g.t1 - g.t0) * T, g.points, paths.values[i]) + U)
    return np.repeat(np.arange(paths.n), cfg.r), np.concatenate(tt), np.concatenate(yy)


@pytest.mark.parametrize(
    "law, noise_law, noise_sd, span",
    [
        (UniformDesign(), "gaussian", 0.2, (0.0, 1.0)),
        (UniformDesign(), "uniform", 0.2, (0.0, 2.0)),
        (ClippedLinearDesign(0.3), "gaussian", 0.0, (0.0, 1.0)),
        (ClippedLinearDesign(0.1), "uniform", 0.5, (0.0, 2.0)),
        (_LatticeDesign(), "gaussian", 0.2, (0.0, 1.0)),
    ],
)
def test_observe_matches_per_curve_reference(law, noise_law, noise_sd, span):
    n, r, seed = _CURVE_BLOCK + 44, 3, 4  # more curves than one interpolation block
    paths = simulate_ensemble(
        sinusoid_model(span), LevyConfig(1.0), PathGrid(*span, 60), PointMass(1.0), n, 9
    )
    cfg = DesignConfig(r=r, noise_sd=noise_sd, design_law=law, noise_law=noise_law)
    obs = observe(paths, cfg, seed)
    cid, t, y = _observe_per_curve(paths, cfg, seed)
    for got, ref in ((obs.curve_id, cid), (obs.t, t), (obs.y, y)):
        assert got.dtype == ref.dtype
        npt.assert_array_equal(got, ref)
    if isinstance(law, _LatticeDesign):
        # the one-shot draw ties on a later curve, so observe re-draws curve by curve
        rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_DESIGN]))
        rows = np.sort(law.sample(rng, n * r).reshape(n, r), axis=1)
        tied = np.any(np.diff(rows, axis=1) <= 0, axis=1)
        assert not tied[0] and tied.any()
        # quarter points are path grid knots, where np.interp returns the knot value
        assert np.isin(obs.t, [0.25, 0.5, 0.75]).any() and (obs.t == 1.0).any()


def _record_ingest(source, time_span=None) -> SparseObservations:
    """Oracle: `ingest_csv` as it read one `csv` record at a time."""
    import csv

    rows = []
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(1, "empty file") from None
        if [h.strip() for h in header] != ["curve_id", "t", "y"]:
            raise CsvParseError(1, f"expected header curve_id,t,y got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise CsvParseError(lineno, f"expected 3 columns, got {len(row)}")
            try:
                rows.append((int(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise CsvParseError(lineno, str(exc)) from None
    if not rows:
        raise CsvParseError(2, "no data rows")
    raw_ids = sorted({r[0] for r in rows})
    remap = {old: new for new, old in enumerate(raw_ids)}
    rows.sort(key=lambda r: (remap[r[0]], r[1]))
    cid = np.array([remap[r[0]] for r in rows], dtype=int)
    tt = np.array([r[1] for r in rows])
    yy = np.array([r[2] for r in rows])
    if time_span is not None:
        t0, t1 = float(time_span[0]), float(time_span[1])
        if not t1 > t0:
            raise ValidationError(f"time span needs t1 > t0, got [{t0}, {t1}]")
        tt = (tt - t0) / (t1 - t0)
    obs = SparseObservations(curve_id=cid, t=tt, y=yy)
    obs.validate()
    return obs


def _long_csv(style: str) -> tuple[str, tuple | None]:
    """A simulated panel as long-format CSV text in the given style."""
    scheme = DesignConfig(r=5, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(make_paths(n=30), scheme, seed=21)
    rng = np.random.default_rng(8)
    ids = rng.permutation([-12, -3, 0, 1, 4, 9, 17, 250, 1001, 65536] + list(range(30, 50)))
    span = (10.0, 375.0) if style in ("time-span", "all") else None
    t = obs.t * (span[1] - span[0]) + span[0] if span else obs.t
    cells = [
        [str(ids[c]), repr(float(tv)), repr(float(yv))] for c, tv, yv in zip(obs.curve_id, t, obs.y)
    ]
    if style != "sorted":
        cells = [cells[i] for i in rng.permutation(len(cells))]
    if style in ("zero-padded", "all"):
        for row in cells:
            row[0] = f"{int(row[0]):06d}"
    if style in ("spaces", "all"):
        cells = [[f"  {v} " for v in row] for row in cells]
    if style == "quoted":
        cells = [[f'"{v}"' for v in row] for row in cells]
    lines = ["curve_id,t,y"] + [",".join(row) for row in cells]
    if style in ("blank-lines", "all"):
        lines = [part for i, line in enumerate(lines) for part in [line] + [""] * (i % 7 == 3)]
    end = "\r\n" if style in ("crlf", "all") else "\n"
    return end.join(lines) + end, span


@pytest.mark.parametrize(
    "style",
    ["sorted", "shuffled", "zero-padded", "spaces", "blank-lines", "crlf", "time-span", "quoted", "all"],
)
def test_ingest_matches_record_parser_bitwise(tmp_path, style):
    text, span = _long_csv(style)
    f = tmp_path / "panel.csv"
    f.write_bytes(text.encode())
    got, ref = ingest_csv(f, time_span=span), _record_ingest(f, time_span=span)
    for name in ("curve_id", "t", "y"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        npt.assert_array_equal(a.view(np.int64), b.view(np.int64), err_msg=name)


@pytest.mark.parametrize(
    "body",
    [
        "0,0.1,1.0\n0,0.2\n0,0.3,1.0\n",  # ragged row
        "0,0.1,1.0\n3.0,0.2,1.0\n",  # float id
        "0,0.1,1.0\n0,0.2,abc\n",  # bad value
        "0,0.1,1.0\n# comment\n0,0.2,1.0\n",  # comment line
        "0,0.1,1.0\n   \n0,0.2,1.0\n",  # whitespace-only line
        "0,0.1,1.0\n\n0,0.2,1.0,\n",  # trailing cell after a blank line
        "",  # header only
        "\n\n",  # blank lines only
        "0,0.1,1.0\n0,0.1,2.0\n",  # duplicate time
    ],
)
def test_ingest_malformed_rows_keep_error_and_line(tmp_path, body):
    f = tmp_path / "bad.csv"
    f.write_text("curve_id,t,y\n" + body)
    with pytest.raises(Exception) as ref:
        _record_ingest(f)
    with pytest.raises(type(ref.value)) as got:
        ingest_csv(f)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    assert getattr(got.value, "line", None) == getattr(ref.value, "line", None)


def _ordered_panel(tied) -> SparseObservations:
    """A panel for the time order: 30 small curves, or 1,600 curves of 10 rows.

    `tied` names its ties: none (False), a design shared by every curve
    (True), "one-tie", "signed-zero" or "nan".
    """
    rng = np.random.default_rng(5)
    if tied in (False, True):
        shared = np.sort(rng.choice(np.linspace(0.05, 0.95, 7), size=4, replace=False))
        return make_obs([(shared if tied else np.sort(rng.random(4)), rng.standard_normal(4))
                         for _ in range(30)])
    if tied == "signed-zero":  # curves start at 0.0 and -0.0 in turn
        return make_obs([(np.r_[-0.0 if i % 2 else 0.0, np.sort(rng.random(3))],
                          rng.standard_normal(4)) for i in range(30)])
    times = [np.sort(rng.random(10)) for _ in range(1600)]
    if tied == "one-tie":  # curve 1 shares its first time with curve 0
        times[1] = np.sort(np.r_[times[0][0], rng.random(9)])
        return make_obs([(t, rng.standard_normal(10)) for t in times])
    t = np.concatenate(times)  # "nan": unvalidated, 40 NaN times
    t[rng.choice(t.size, 40, replace=False)] = np.nan
    return SparseObservations(np.repeat(np.arange(1600), 10), t, rng.standard_normal(t.size))


@pytest.mark.parametrize("tied", [False, True, "one-tie", "signed-zero", "nan"])
def test_time_order_is_the_stable_argsort(tied):
    # with ties (0.0 and -0.0 are equal) the stable order keeps row order
    # among equal times, and among NaNs; numpy's default sort need not
    obs = _ordered_panel(tied)
    assert (np.unique(obs.t).size < obs.total) == (tied is not False)
    order = obs.time_order
    npt.assert_array_equal(order, np.argsort(obs.t, kind="stable"))
    assert obs.time_order is order  # computed once
    sub = obs.subset([3, 1, 3, 0])
    assert "time_order" not in vars(sub)  # a subset builds its own
    npt.assert_array_equal(sub.time_order, np.argsort(sub.t, kind="stable"))


def test_ingest_keeps_ordered_rows_and_sorts_shuffled_ones(tmp_path):
    obs = make_obs(
        [(np.sort(np.random.default_rng(i).random(5)), np.arange(5.0) + i) for i in range(40)]
    )
    ordered = tmp_path / "ordered.csv"
    export_observations_csv(obs, ordered)
    header, *rows = ordered.read_text().splitlines()
    rows = [rows[k] for k in np.random.default_rng(9).permutation(len(rows))]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *rows]) + "\n")
    for path in (ordered, shuffled):
        got = ingest_csv(path)
        for col in ("curve_id", "t", "y"):
            npt.assert_array_equal(getattr(got, col), getattr(obs, col))
            assert getattr(got, col).flags.c_contiguous


def _paths_per_block(monkeypatch, paths: int, steps: int) -> None:
    """Size the blocks of `simulate_blocks` to `paths` paths of `steps` steps."""
    monkeypatch.setattr(simulate_module, "_PATH_BLOCK_BYTES", paths * 8 * (steps + 1))


PER_BLOCK = 7


@pytest.mark.parametrize("n", [1, PER_BLOCK - 1, PER_BLOCK, PER_BLOCK + 1, 2 * PER_BLOCK + 3])
@pytest.mark.parametrize("law", [PointMass(1.0), GaussianInitial(0.5, 0.3)], ids=["point", "gauss"])
@pytest.mark.parametrize("nu_K", [1.0, 500.0], ids=["sparse", "jumpy"])
def test_streamed_observations_equal_one_shot(monkeypatch, n, law, nu_K):
    steps = 65
    _paths_per_block(monkeypatch, PER_BLOCK, steps)
    c, levy, grid = sinusoid_model(), LevyConfig(nu_K), PathGrid(0.0, 1.0, steps)
    cfg = DesignConfig(r=4, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian")
    ens = simulate_ensemble(c, levy, grid, law, n, 41)
    # each block is a view of one path buffer that the next overwrites: copy it
    stream = simulate_blocks(c, levy, grid, law, n, 41)
    blocks = [(rows, p.values.copy()) for rows, p in stream]
    sizes = [rows.stop - rows.start for rows, _ in blocks]
    assert len(sizes) == -(-n // PER_BLOCK) and max(sizes) - min(sizes) <= 1
    assert [rows.start for rows, _ in blocks] == list(np.cumsum([0] + sizes[:-1]))
    assert np.array_equal(np.vstack([values for _, values in blocks]), ens.values)
    got = observe_ensemble(c, levy, grid, law, n, cfg, 41)
    ref = observe(ens, cfg, 41)
    for col in ("curve_id", "t", "y"):
        assert getattr(got, col).dtype == getattr(ref, col).dtype
        assert np.array_equal(getattr(got, col), getattr(ref, col)), col


def test_stream_draws_once_and_alternates_simulate_and_observe(monkeypatch):
    """Per-ensemble draws run once; then each block is simulated, then
    observed, by the public calls a tracer wraps, never one inside the other."""
    _paths_per_block(monkeypatch, 4, 20)
    calls, depth = [], []

    def record(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append((name, len(depth)))
            depth.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(module, name, wrapped)

    for module, name in [
        (simulate_module, "ensemble_draws"),
        (simulate_module, "simulate_ensemble"),
        (observe_module, "design_draws"),
        (observe_module, "observe"),
    ]:
        record(module, name)
    obs = observe_ensemble(
        sinusoid_model(), LevyConfig(1.0), PathGrid(0.0, 1.0, 20), PointMass(1.0), 10,
        DesignConfig(r=3, noise_sd=0.1, design_law=UniformDesign(), noise_law="gaussian"), 5,
    )
    assert obs.n == 10
    blocks = [("simulate_ensemble", 0), ("observe", 0)] * 3
    assert calls == [("ensemble_draws", 0), ("design_draws", 0), *blocks]


class _LastTimeDesign:
    """Uniform times, except that the last of every draw is `last`."""

    def __init__(self, last: float):
        self.last = last

    def sample(self, rng, r):
        pts = rng.random(r)
        pts[-1] = self.last
        return pts


def _error(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "case",
    [
        "diverges-late-block",
        "diverges-and-out-of-span",
        "overflow-and-out-of-span",
        "overflow-and-past-one",
        "overflow",
    ],
)
def test_streamed_failure_is_the_one_shot_failure(monkeypatch, case):
    n, steps, seed = 40, 1000, 31
    _paths_per_block(monkeypatch, 4, steps)
    grid, levy = PathGrid(0.0, 1.0, steps), LevyConfig(1.0)
    if case.startswith("diverges"):
        # x0 ~ N(0, 1) under mu = 1e4 grows ~11x per step: every block
        # diverges, each at a step set by its largest |x0|
        c, law, noise_sd = constant_model(1e4, 1.0, 1.0), GaussianInitial(0.0, 1.0), 0.1
    else:
        # finite paths at 1e308, whose noisy values overflow
        c, law, noise_sd = constant_model(0.0, 0.0, 0.0), PointMass(1e308), 1e308
    # a last design time past the span, or within its tolerance but past 1,
    # lands in the last block only
    last = {"out-of-span": 1.5, "past-one": 1.0 + 1e-13}.get(case.rsplit("-and-", 1)[-1])
    design = UniformDesign() if last is None else _LastTimeDesign(last)
    cfg = DesignConfig(r=3, noise_sd=noise_sd, design_law=design, noise_law="gaussian")
    ref = _error(lambda: observe(simulate_ensemble(c, levy, grid, law, n, seed), cfg, seed))
    got = _error(lambda: observe_ensemble(c, levy, grid, law, n, cfg, seed))
    assert got == ref
    expected = {
        "diverges-late-block": SimulationDivergedError,
        "diverges-and-out-of-span": SimulationDivergedError,
        "overflow-and-out-of-span": DesignRangeError,
        "overflow-and-past-one": ValidationError,
        "overflow": ValidationError,
    }[case]
    assert got[0] is expected
    if case == "overflow-and-past-one":
        assert got[1] == "observation times must lie in [0, 1]"
    if case == "diverges-late-block":
        with pytest.raises(SimulationDivergedError) as exc:
            list(simulate_blocks(c, levy, grid, law, n, seed))
        step, path = exc.value.step, exc.value.path
        assert str(exc.value) == ref[1] and path >= 4  # not in the first block
        seeds, x0 = simulate_module.ensemble_draws(law, n, seed)
        with pytest.raises(SimulationDivergedError) as first:
            simulate_ensemble(c, levy, grid, law, 4, seed, (seeds[:4], x0[:4]))
        assert first.value.step > step  # the first block diverges later


@pytest.mark.parametrize(
    "ids, missing",
    [([0, 1, 3, 4], 2), ([2, 3, 4], 0), ([1, 2], 0), ([0, 1, 2, 5, 6], 3)],
)
def test_validate_requires_curve_ids_without_gaps(ids, missing):
    t, y = [0.1, 0.5, 0.9], [1.0, 2.0, 3.0]
    obs = SparseObservations(
        curve_id=np.repeat(ids, 3), t=np.tile(t, len(ids)), y=np.tile(y, len(ids))
    )
    with pytest.raises(ValidationError, match=f"id {missing} is missing"):
        obs.validate()
