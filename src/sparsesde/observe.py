"""Sparse, noisy observation scheme on simulated or external curves.

Each curve i is seen at r_i >= 2 random design times T_i1 < ... < T_ir on
the normalised interval [0, 1], contaminated with iid centred noise:

    Y_ij = X_i(T_ij) + U_ij,   Var(U_ij) = rho^2.

Design times, measurement noise and the driving paths all use disjoint
child streams of the one master seed; no seed of their own is taken.
`observe_ensemble` simulates and observes an ensemble a block of paths at
a time, so that it never holds all of them.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CsvParseError, DesignRangeError, SparseSdeError, ValidationError
from .simulate import PathGrid, SamplePathSet, simulate_blocks

_STREAM_DESIGN = 2
_STREAM_NOISE = 3

# bounded re-draw before deterministic tie-breaking in draw_design
_MAX_REDRAW = 100
_TIE_EPS = 1e-12
# curves per block of the interpolation in observe; keeps its temporaries small
_CURVE_BLOCK = 256


class UniformDesign:
    """Uniform design density on [0, 1]; `sample(rng, k * r)` is k `sample(rng, r)` calls."""

    min_density = 1.0

    def sample(self, rng: np.random.Generator, r: int) -> np.ndarray:
        return rng.random(r)


class ClippedLinearDesign:
    """Density proportional to max(2t, floor) on [0, 1].

    The floor keeps the density bounded away from zero, which the theory
    requires; sampling is by the exact piecewise inverse CDF of one uniform
    per point, so `sample(rng, k * r)` is k consecutive `sample(rng, r)` calls.
    """

    def __init__(self, floor: float = 0.1):
        if not 0 < floor <= 2:
            raise ValidationError("floor must lie in (0, 2]")
        self.floor = float(floor)
        self._Z = 1.0 + self.floor**2 / 4.0
        self.min_density = self.floor / self._Z

    def sample(self, rng: np.random.Generator, r: int) -> np.ndarray:
        q = rng.random(r)
        split = (self.floor**2 / 2.0) / self._Z
        out = np.empty(r)
        low = q < split
        out[low] = q[low] * self._Z / self.floor
        out[~low] = np.sqrt(q[~low] * self._Z - self.floor**2 / 4.0)
        return out


_NOISE_KINDS = ("gaussian", "uniform")


@dataclass(frozen=True)
class DesignConfig:
    """Observation scheme: points per curve, design law, noise law."""

    r: int
    noise_sd: float
    design_law: object = field(default_factory=UniformDesign)
    noise_law: str = "gaussian"

    def __post_init__(self):
        if self.r < 2:
            raise ValidationError("need r >= 2 observations per curve")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValidationError("noise_sd must be finite and >= 0")
        if self.noise_law not in _NOISE_KINDS:
            raise ValidationError(f"unknown noise law {self.noise_law!r}")


@dataclass
class SparseObservations:
    """Long-format observations: one (curve, time, value) triple per row.

    Rows are grouped by curve, strictly increasing in time within a curve.
    """

    curve_id: np.ndarray
    t: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return int(self.curve_id[-1]) + 1 if self.curve_id.size else 0

    @property
    def total(self) -> int:
        return self.t.size

    @cached_property
    def time_order(self) -> np.ndarray:
        """Stable argsort of `t`, taken on first use; the fits read rows in this order."""
        return np.argsort(self.t, kind="stable")

    def counts(self) -> np.ndarray:
        return np.bincount(self.curve_id, minlength=self.n)

    def curve_bounds(self) -> np.ndarray:
        """Row offsets: curve c holds rows bounds[c]:bounds[c + 1]."""
        return np.concatenate(([0], np.flatnonzero(np.diff(self.curve_id)) + 1, [self.total]))

    def validate(self) -> None:
        if self.t.size == 0:
            raise ValidationError("no observations")
        if not (self.curve_id.size == self.t.size == self.y.size):
            raise ValidationError("column lengths differ")
        if np.any(np.diff(self.curve_id) < 0):
            raise ValidationError("curve ids must be grouped in ascending order")
        _check_unit_times(self.t)
        if not np.all(np.isfinite(self.y)):
            raise ValidationError("observation values must be finite")
        bounds = self.curve_bounds()
        short = np.flatnonzero(np.diff(bounds) < 2)
        # curves holding a row not above the row before it
        step = np.flatnonzero((np.diff(self.t) <= 0) & (np.diff(self.curve_id) == 0))
        unsorted = np.searchsorted(bounds, step, "right") - 1
        if short.size and not (unsorted.size and unsorted[0] < short[0]):
            raise ValidationError(f"curve {short[0]} has fewer than 2 observations")
        if unsorted.size:
            raise ValidationError(f"curve {unsorted[0]} times are not strictly increasing")
        # n is the last id + 1, so the ids of the curves must run 0..n-1
        missing = np.flatnonzero(self.curve_id[bounds[:-1]] != np.arange(bounds.size - 1))
        if missing.size:
            raise ValidationError(f"curve ids must run 0..n-1, but id {missing[0]} is missing")

    def subset(self, curve_ids) -> "SparseObservations":
        """New observation set from the given curves, renumbered 0..k-1.

        Repeats are allowed (bootstrap resamples duplicate curves).
        """
        bounds = self.curve_bounds()
        ids = np.asarray(curve_ids, dtype=int)
        sizes = bounds[ids + 1] - bounds[ids]
        new_starts = np.cumsum(sizes) - sizes
        rows = np.arange(int(sizes.sum())) + np.repeat(bounds[ids] - new_starts, sizes)
        return SparseObservations(
            curve_id=np.repeat(np.arange(ids.size), sizes), t=self.t[rows], y=self.y[rows]
        )


def draw_design(design_law, r: int, rng: np.random.Generator) -> np.ndarray:
    """r strictly increasing design points in [0, 1].

    Sorted draws are re-taken while exact ties occur (bounded at 100
    attempts, astronomically unlikely to recur for a continuous law); as a
    last resort ties are broken by a deterministic epsilon stagger so the
    routine cannot loop forever on a degenerate law.
    """
    for _ in range(_MAX_REDRAW):
        pts = np.sort(design_law.sample(rng, r))
        if np.all(np.diff(pts) > 0):
            return pts
    pts = np.sort(design_law.sample(rng, r))
    pts = np.minimum(pts + np.arange(r) * _TIE_EPS, 1.0)
    if np.any(np.diff(pts) <= 0):
        raise ValidationError("design law cannot produce distinct points")
    return pts


def _check_unit_times(t: np.ndarray) -> None:
    # both comparisons are False for NaN, so NaN times fail here
    if not np.all((t >= 0) & (t <= 1)):
        raise ValidationError("observation times must lie in [0, 1]")


def _check_design_span(T: np.ndarray, g: PathGrid) -> None:
    """Every design time in T, mapped onto the grid's span, lies on it; an
    affine map with positive slope keeps order, so the extremes decide."""
    ends = g.t0 + (g.t1 - g.t0) * np.array([np.fmin.reduce(T, None), np.fmax.reduce(T, None)])
    if ends[0] < g.t0 - 1e-12 or ends[1] > g.t1 + 1e-12:
        raise DesignRangeError(f"design time outside simulated span [{g.t0}, {g.t1}]")


def design_draws(cfg: DesignConfig, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, U): the (n, r) design times and noise that `observe` gives n curves.

    One `design_law.sample(rng, n * r)` call gives n sorted rows of r times.
    A design law must return what n consecutive `sample(rng, r)` calls
    would, so the rows equal the curve-by-curve draws of `draw_design`; a
    row with a tie rewinds the generator and `draw_design` draws curve by
    curve instead.  The noise is one draw of n * r values.
    """
    design_rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_DESIGN]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_NOISE]))
    r = cfg.r
    state = design_rng.bit_generator.state
    T = np.sort(cfg.design_law.sample(design_rng, n * r).reshape(n, r), axis=1)
    if not np.all(np.diff(T, axis=1) > 0):
        design_rng.bit_generator.state = state
        T = np.array([draw_design(cfg.design_law, r, design_rng) for _ in range(n)])
    with np.errstate(over="ignore"):  # an overflow leaves inf, which validate() rejects
        return T, _draw_noise(noise_rng, cfg, n * r).reshape(n, r)


def observe(
    paths: SamplePathSet,
    cfg: DesignConfig,
    seed: int,
    draws: tuple[np.ndarray, np.ndarray] | None = None,
) -> SparseObservations:
    """Sample the observation scheme on every path of the ensemble.

    The design times and noise come from `design_draws`; given `draws`,
    rows of the (T, U) of a larger ensemble, one for each path, the result
    holds those curves' rows of observing that ensemble, renumbered from 0.
    Design times are mapped affinely onto the path grid's span, where the
    paths are interpolated a block of curves at a time with the arithmetic
    of `np.interp`.
    """
    T, U = design_draws(cfg, paths.n, seed) if draws is None else draws
    g = paths.grid
    _check_design_span(T, g)
    n, r = T.shape
    X = np.empty((n, r))
    for c0 in range(0, n, _CURVE_BLOCK):
        rows = slice(c0, c0 + _CURVE_BLOCK)
        X[rows] = _interp_rows(g.t0 + (g.t1 - g.t0) * T[rows], g.points, paths.values[rows])
    with np.errstate(over="ignore"):  # an overflow leaves inf, which validate() rejects
        X += U
    obs = SparseObservations(curve_id=np.repeat(np.arange(n), r), t=T.ravel(), y=X.ravel())
    obs.validate()
    return obs


def observe_ensemble(coeffs, levy, grid: PathGrid, x0_law, n: int, cfg: DesignConfig, seed: int):
    """`observe(simulate_ensemble(coeffs, levy, grid, x0_law, n, seed), cfg, seed)`,
    bit for bit, holding one block of paths at a time.

    The design times and noise of all n curves are drawn once; each block
    of `simulate_blocks` is then observed with its rows of them and dropped.
    A failure is that of the one-shot call: a simulation error first (every
    block is simulated), then a fault of the design times, then the first
    block whose observations fail.
    """
    blocks = simulate_blocks(coeffs, levy, grid, x0_law, n, seed)
    failure = None
    try:
        T, U = design_draws(cfg, n, seed)
        _check_design_span(T, grid)
        _check_unit_times(T)
    except SparseSdeError as exc:
        failure = exc
    y = np.empty((n, cfg.r))
    for rows, paths in blocks:
        if failure is None:
            try:
                y[rows] = observe(paths, cfg, seed, draws=(T[rows], U[rows])).y.reshape(-1, cfg.r)
            except SparseSdeError as exc:
                failure = exc
        del paths
    if failure is not None:
        raise failure
    return SparseObservations(curve_id=np.repeat(np.arange(n), cfg.r), t=T.ravel(), y=y.ravel())


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[i], xp, fp[i]) for every row i, by the same arithmetic.

    Inside segment j the value is slope * (x - xp[j]) + fp[j]; a point on a
    knot, or beyond either end, takes that knot's value.
    """
    last = xp.size - 1
    j = np.clip(np.searchsorted(xp, x, "right") - 1, 0, last)
    k = np.minimum(j, last - 1)  # the segment of an interior point; unused on knots
    y0 = np.take_along_axis(fp, k, axis=1)
    slope = (np.take_along_axis(fp, k + 1, axis=1) - y0) / (xp[k + 1] - xp[k])
    knot = (x <= xp[j]) | (j == last)
    return np.where(knot, np.take_along_axis(fp, j, axis=1), slope * (x - xp[k]) + y0)


def _draw_noise(rng: np.random.Generator, cfg: DesignConfig, size: int) -> np.ndarray:
    if cfg.noise_sd == 0:
        return np.zeros(size)
    if cfg.noise_law == "gaussian":
        return cfg.noise_sd * rng.standard_normal(size)
    # centred uniform with unit variance, then scaled
    return cfg.noise_sd * rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)


def export_observations_csv(obs: SparseObservations, dest) -> None:
    """Write long format curve_id,t,y; floats via repr so ingest round-trips."""
    from .harness import write_table

    write_table(dest, ["curve_id", "t", "y"], [obs.curve_id, obs.t, obs.y])


# one data row of a long-format file
_CSV_ROW = np.dtype([("curve_id", np.int64), ("t", float), ("y", float)])


def ingest_csv(source, time_span=None) -> SparseObservations:
    """Read long-format curve_id,t,y observations.

    Rows are sorted by time within each curve unless already in that order;
    malformed rows raise CsvParseError with the 1-based line number.  Files
    whose times live on some other interval [t0, t1] are supported by passing
    time_span=(t0, t1); they are mapped affinely onto [0, 1] before validation.

    The rows are parsed in one `np.loadtxt` pass.  If that fails, or finds
    no rows, they are read again one `csv` record at a time, which parses
    what the pass could not (quoted cells, say) or names the bad line.
    """
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(1, "empty file") from None
        if [h.strip() for h in header] != ["curve_id", "t", "y"]:
            raise CsvParseError(1, f"expected header curve_id,t,y got {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # no rows: the record loop reports it
                data = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            data = np.empty(0, dtype=_CSV_ROW)
    if data.size == 0:
        data = _read_records(source)
    ids, tt, yy = (np.ascontiguousarray(data[key]) for key in _CSV_ROW.names)
    # NaN times compare False, so a file holding one is sorted like any other
    if not np.all((ids[1:] > ids[:-1]) | ((ids[1:] == ids[:-1]) & (tt[1:] >= tt[:-1]))):
        order = np.lexsort((tt, ids))
        ids, tt, yy = ids[order], tt[order], yy[order]
    cid = np.concatenate(([0], np.cumsum(ids[1:] != ids[:-1])))  # each row's id rank
    if time_span is not None:
        t0, t1 = float(time_span[0]), float(time_span[1])
        if not t1 > t0:
            raise ValidationError(f"time span needs t1 > t0, got [{t0}, {t1}]")
        tt = (tt - t0) / (t1 - t0)
    obs = SparseObservations(curve_id=cid, t=tt, y=yy)
    obs.validate()
    return obs


def _read_records(source) -> np.ndarray:
    """The data rows of a long-format file, one `csv` record at a time.

    Curve ids are replaced by their ranks, so ids beyond int64 keep their order.
    """
    rows = []
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
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
    rank = {old: new for new, old in enumerate(sorted({r[0] for r in rows}))}
    return np.array([(rank[c], t, y) for c, t, y in rows], dtype=_CSV_ROW)


def ingest_wide_csv(source) -> SparseObservations:
    """Read a wide table: one row per curve, one column per grid point.

    Columns are interpreted as an equally spaced design with midpoint
    convention t_j = (j - 0.5) / ncols (day j of 365 lands on (j-0.5)/365).
    A leading id column is allowed; it is one when its first non-empty cell
    is not a number.  Empty cells mark missing values and are skipped.
    """
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(1, "empty file") from None
        data_rows = [(reader.line_num, row) for row in reader if row]
    if not data_rows:
        raise CsvParseError(2, "no data rows")

    try:  # a first column with no non-empty cell holds (missing) values
        float(next((row[0] for _, row in data_rows if row[0].strip()), "0"))
        has_id = False
    except ValueError:
        has_id = True
    first_col = 1 if has_id else 0
    ncols = len(header) - first_col
    if ncols < 2:
        raise CsvParseError(1, "need at least 2 value columns")
    times = (np.arange(ncols) + 0.5) / ncols

    cid, tt, yy = [], [], []
    for i, (lineno, row) in enumerate(data_rows):
        if len(row) != len(header):
            raise CsvParseError(lineno, f"expected {len(header)} columns, got {len(row)}")
        start = len(yy)
        for j, cell in enumerate(row[first_col:]):
            cell = cell.strip()
            if cell == "":
                continue
            try:
                val = float(cell)
            except ValueError:
                raise CsvParseError(lineno, f"bad value {cell!r}") from None
            cid.append(i)
            tt.append(times[j])
            yy.append(val)
        if len(yy) - start < 2:  # a row of missing values would leave a gap in the curve ids
            raise CsvParseError(lineno, "need at least 2 values in a row")
    obs = SparseObservations(
        curve_id=np.array(cid, dtype=int), t=np.array(tt), y=np.array(yy)
    )
    obs.validate()
    return obs
