"""Euler scheme for the linear SDE with compensated small jumps.

One step over [t_k, t_k + dt]:

    X_{k+1} = X_k + mu(t_k) X_k dt + sigma(t_k) sqrt(dt) Z_k
              + xi(t_k) (N_k - nu_K dt)

with Z_k standard normal and N_k Poisson(nu_K dt).  Because the jump
coefficient does not depend on the jump size, only the per-step jump count
matters and the Poisson counts are an exact representation of the small-jump
integral increment.

Reproducibility: an ensemble derives one uint64 seed per path from the
master seed via SeedSequence, plus a separate stream for initial values.
Path i's normals and counts are exactly what np.random.default_rng(seed_i)
draws, so any path can be regenerated bit-for-bit in isolation, as a
one-path `simulate_ensemble` given its (seed, x0) as `draws`.  All PCG64
states come from one vectorised pass (_path_states), loaded in turn into one
generator (_PathStreams).  Path i draws its normals into row i of the result,
then its Poisson counts, kept below _REPLAY_JUMPS expected jumps a path as
(path, step, count) triples of the nonzero ones and else as one dense int32
row a path (`_dense_jumps`): at no rate do the counts outweigh the paths.

For rates lam < 10 numpy multiplies `Generator.random` values while the
product exceeds exp(-lam), so a step jumps exactly where its first uniform
does (a hit), and a step of count c reads c + 1 uniforms.  Below
_REPLAY_JUMPS expected jumps a path, `_replay_jumps` replays the counts from
steps + _REPLAY_PAD uniforms per path, scanning a chunk of paths at once.
In a path with at most _REPLAY_PAD hits and none right after another, hit h
is a count-1 step (a product of two uniforms is at most the second), the
(h - rank)-th.  Any other path (a count above 1, or more jumps than the pad)
is drawn again and takes `Generator.poisson`'s counts: at the benchmarked
~1 jump a path that is about 1 path in 1,000, but near the cutoff it can be
most of them.  A replay reads past where numpy stops; the state it leaves
means nothing.

A consumer that reads only part of every path need not hold all of them:
`simulate_blocks` yields the ensemble a block of rows at a time, each block
at most _PATH_BLOCK_BYTES of path values, with the rows of the one-shot
`simulate_ensemble` bit for bit.  Every block is simulated into one flat
buffer (`out`), so a run of blocks, or of ensembles, allocates its paths
once; `block_bounds` gives the rows of each block, and `path_buffer` a
buffer for the largest.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SimulationDivergedError, ValidationError
from .model import CoefficientSet, LevyConfig

# child-stream tags under the master seed
_STREAM_PATHS = 0
_STREAM_X0 = 1
_BLOCK = 64  # steps per block of the in-place recursion (see _euler_core)
# path values a block of `simulate_blocks` holds at most: fewer bytes cost one
# more pass of the step loop per extra block
_PATH_BLOCK_BYTES = 8 << 20
_REPLAY_JUMPS, _REPLAY_PAD = 10.0, 16  # see the module doc and `_replay_jumps`
# uniforms one chunk of replayed paths holds at most (or one path's).  The
# chunk's scan costs ~7 us, so it holds ~15 paths of 1,000 steps; it stays
# below glibc's 128 KiB mmap threshold, since at 256 KiB freeing the buffer
# raised that threshold and an emse run's peak RSS grew by ~3.5 MB (x86-64 Linux)
_REPLAY_CHUNK_BYTES = 120 << 10
_POISSON_LAM_MAX = 2.0**63 - 10.0 * 2.0**31.5  # largest rate `Generator.poisson` accepts
# SeedSequence hash constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid with steps+1 points on [t0, t1]."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        ends = (self.t0, self.t1)
        if not all(isinstance(t, numbers.Real) and math.isfinite(t) for t in ends):
            raise ValidationError(f"need finite t0, t1, got [{self.t0}, {self.t1}]")
        if not self.t1 > self.t0:
            raise ValidationError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        _check_count("steps", self.steps)

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

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _hash_round(value, const: int, mult: int):
    """One SeedSequence hashmix round on uint32 words; returns (value, next const)."""
    value = value ^ const
    const = const * mult & 0xFFFFFFFF
    value = value * const
    return value ^ (value >> 16), const


def _path_states(seeds) -> list[tuple[int, int]]:
    """PCG64 (state, inc) pairs exactly as np.random.default_rng(seed) sets them.

    SeedSequence(seed).generate_state(4, uint64) runs for all seeds at once
    in uint32 array arithmetic: a seed below 2**32 pools the same as its
    zero-padded two-word form, so every seed enters as [low, high].  Then
    pcg64_set_seed turns each path's four words into (state, inc).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.size, dtype=np.uint32)
    words = [seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    pool, const = [], _INIT_A
    for word in words:
        word, const = _hash_round(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hash_round(pool[src], const, _MULT_A)
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed
                pool[dst] = mixed ^ (mixed >> 16)
    out, const = [], _INIT_B
    for i in range(8):
        word, const = _hash_round(pool[i % 4], const, _MULT_B)
        out.append(word.astype(np.uint64))
    val = [(out[2 * k] | out[2 * k + 1] << 32).tolist() for k in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*val):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


class _PathStreams:
    """Each path's generator in turn: one PCG64 loaded through one reused state dict."""

    def __init__(self, seeds, values: np.ndarray):
        self.states, self.values = _path_states(seeds), values
        self.rng = np.random.Generator(np.random.PCG64(0))
        self._word = {}
        self._full = dict(bit_generator="PCG64", state=self._word, has_uint32=0, uinteger=0)

    def start(self, i: int) -> np.random.Generator:
        """Path i's generator with the path's normals drawn into row i of `values`."""
        self._word["state"], self._word["inc"] = self.states[i]
        self.rng.bit_generator.state = self._full
        self.rng.standard_normal(out=self.values[i, 1:])
        return self.rng


def _poisson_jumps(rng, i: int, lam: float, steps: int):
    """(path, step, count) arrays of the nonzero counts of rng.poisson(lam, steps), path i's."""
    N = rng.poisson(lam, steps)
    at = N.nonzero()[0]
    return np.full(at.size, i), at, N[at]


def _replay_jumps(streams: _PathStreams, lam: float, steps: int):
    """(path, step, count) arrays of every jump of rng.poisson(lam, steps) per path, lam < 10.

    Draws each path's normals, then its uniforms into a buffer of a chunk of
    paths (see the module doc); a path whose hits are not all isolated
    count-1 steps is drawn again through `_poisson_jumps`.
    """
    m, floor, width = len(streams.states), math.exp(-lam), steps + _REPLAY_PAD
    chunk = max(1, min(m, _REPLAY_CHUNK_BYTES // (8 * width)))
    u = np.empty((chunk, width))
    rows, start, hits, jumps = list(u), streams.start, [], []
    for a in range(0, m, chunk):
        c = min(chunk, m - a)
        for i, row in zip(range(a, a + c), rows):
            start(i).random(out=row)
        flat = np.flatnonzero(u[:c] > floor)  # 10x faster than a 2-D nonzero
        # paths holding two hits side by side, or more hits than the pad, are redrawn
        odd = flat[:-1][np.diff(flat) == 1] // width
        if flat.size > _REPLAY_PAD:
            many = np.bincount(flat // width, minlength=c) > _REPLAY_PAD
            odd = np.concatenate((odd, np.flatnonzero(many)))
        if odd.size:
            odd = np.unique(odd)
            flat = flat[~np.isin(flat // width, odd)]
            jumps += [_poisson_jumps(start(a + j), a + j, lam, steps) for j in odd.tolist()]
        hits.append(flat + a * width)
    # every other hit is a count-1 step, the (column - rank)-th of its path
    path, col = np.divmod(np.concatenate(hits), width)
    step = col - (np.arange(path.size) - np.searchsorted(path, path))
    kept = step < steps
    jumps.append((path[kept], step[kept], np.ones(np.count_nonzero(kept), np.int64)))
    return tuple(map(np.concatenate, zip(*jumps)))


def _sparse_jumps(jumps, xi_k: np.ndarray, lam: float, m: int):
    """(k0, k1) -> the (k1 - k0, m) jump increments xi(t_k) (N_k - lam) of steps
    [k0, k1), from the (path, step, count) arrays `jumps` of the nonzero N_k."""
    paths, steps, counts = jumps
    order = np.argsort(steps, kind="stable")
    jump_step, jump_path = steps[order], paths[order]
    no_jump, jump_inc = xi_k * (0.0 - lam), xi_k[jump_step] * (counts[order] - lam)

    def block(k0: int, k1: int) -> np.ndarray:
        jump = np.repeat(no_jump[k0:k1, None], m, axis=1)
        hit = slice(*np.searchsorted(jump_step, [k0, k1]))
        jump[jump_step[hit] - k0, jump_path[hit]] = jump_inc[hit]
        return jump

    return block


def _dense_jumps(streams: _PathStreams, lam: float, steps: int, xi_k: np.ndarray):
    """`_sparse_jumps` of every path's counts rng.poisson(lam, steps), one dense row a
    path: at 10 or more jumps a path, triples would outweigh the paths.  The rows
    are int32 up to a rate of 2**30, where a count past 2**31 - 1 lies some 2**15
    or more standard deviations above the rate, and int64 above it."""
    counts = np.empty((len(streams.states), steps), np.int32 if lam <= 2.0**30 else np.int64)
    for i, row in enumerate(counts):
        row[:] = streams.start(i).poisson(lam, steps)
    return lambda k0, k1: xi_k[k0:k1, None] * (counts[:, k0:k1].T - lam)


def _path_view(out, rows: int, steps: int) -> np.ndarray:
    """A new (rows, steps+1) array, or, given the flat float64 buffer `out`,
    a view of that shape on its head."""
    if out is None:
        return np.empty((rows, steps + 1))
    if not (isinstance(out, np.ndarray) and out.dtype == float and out.ndim == 1
            and out.flags.c_contiguous):
        raise ValidationError("out must be a contiguous 1-D float64 array")
    size = rows * (steps + 1)
    if out.size < size:
        raise ValidationError(f"out holds {out.size} values; {rows} paths need {size}")
    return out[:size].reshape(rows, steps + 1)


@np.errstate(over="ignore", invalid="ignore")  # a state that left float range raises below
def _euler_core(
    coeffs: CoefficientSet, levy: LevyConfig, grid: PathGrid, x0, seeds, out=None
) -> np.ndarray:
    """Paths drawn as default_rng(seed) would per seed; returns (len(seeds), steps+1),
    a view on the head of `out` if given (see `_path_view`).

    One PCG64 generator is reused: each path loads its state from _path_states,
    draws its normals, then its counts (`_replay_jumps` below _REPLAY_JUMPS).

    Time is walked in blocks of _BLOCK steps: the block's normals are copied
    out transposed and scaled by sigma(t_k) sqrt(dt), its jump increments
    xi(t_k) (N_k - nu_K dt) are built from the counts, all paths step
    ahead, and the states overwrite the normals they used.  Each element sees
    ((x + mu x dt) + sigma sqrt(dt) Z) + xi (N - nu_K dt) in that order for
    any number of paths, so single-path and ensemble runs agree bitwise.
    """
    m, dt = len(seeds), grid.dt
    comp = levy.nu_K * dt
    if not comp <= _POISSON_LAM_MAX:
        raise ValidationError(f"nu_K*dt = {comp:.3g} exceeds the Poisson sampler's limit")
    values = _path_view(out, m, grid.steps)
    values[:, 0] = x0
    streams = _PathStreams(seeds, values)
    tk = grid.points[:-1]
    mu_k, sigma_k, xi_k = coeffs.mu(tk), coeffs.sigma(tk), coeffs.xi(tk)
    if comp * grid.steps < _REPLAY_JUMPS:
        jumps = _sparse_jumps(_replay_jumps(streams, comp, grid.steps), xi_k, comp, m)
    else:
        jumps = _dense_jumps(streams, comp, grid.steps, xi_k)

    scale = sigma_k * np.sqrt(dt)
    x = values[:, 0]
    tmp = np.empty(m)
    mu_k, mul, add = mu_k.tolist(), np.multiply, np.add
    for k0 in range(0, grid.steps, _BLOCK):
        k1 = min(k0 + _BLOCK, grid.steps)
        inc = values[:, k0 + 1 : k1 + 1].T.copy()
        inc *= scale[k0:k1, None]
        # positional outputs and row iteration keep the per-step call cost,
        # paid once per block of `simulate_blocks`, low
        for mu, x_next, jump_j in zip(mu_k[k0:k1], inc, jumps(k0, k1)):
            mul(mu, x, tmp)
            mul(tmp, dt, tmp)
            add(tmp, x, tmp)
            add(tmp, x_next, x_next)
            add(x_next, jump_j, x_next)
            x = x_next
        values[:, k0 + 1 : k1 + 1] = inc.T

    if not np.isfinite(x).all():
        bad = ~np.isfinite(values)
        step = int(np.argmax(bad.any(axis=0)))
        raise SimulationDivergedError(step=step, path=int(np.argmax(bad[:, step])))
    return values


def ensemble_draws(x0_law, n: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(seeds, x0) of the n-path ensemble: each path's seed word and initial value.

    Path i uses the i-th word of SeedSequence([master_seed, 0]); initial
    values come from SeedSequence([master_seed, 1]) so that swapping the
    initial law never disturbs the driving noise.
    """
    seeds = np.random.SeedSequence([master_seed, _STREAM_PATHS]).generate_state(n, np.uint64)
    x0_rng = np.random.default_rng(np.random.SeedSequence([master_seed, _STREAM_X0]))
    return seeds, np.asarray(x0_law.sample(x0_rng, n), dtype=float)


def simulate_ensemble(
    coeffs: CoefficientSet,
    levy: LevyConfig,
    grid: PathGrid,
    x0_law,
    n: int,
    master_seed: int,
    draws: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> SamplePathSet:
    """n independent paths with per-path child seeds from `ensemble_draws`.

    Given `draws`, n rows of the (seeds, x0) of a larger ensemble, the
    paths are those rows of that ensemble, bit for bit.  Given `out`, a
    flat float64 buffer of at least n * (steps + 1) values, the paths are
    written to its head and `values` is a view of it; otherwise they get an
    array of their own.
    """
    _check_count("n", n)
    _check_span(coeffs, grid)
    seeds, x0 = ensemble_draws(x0_law, n, master_seed) if draws is None else draws
    values = _euler_core(coeffs, levy, grid, x0, seeds, out)
    return SamplePathSet(grid=grid, values=values)


def block_bounds(n: int, steps: int) -> list[tuple[int, int]]:
    """(start, stop) rows of the near-equal blocks `simulate_blocks` cuts n
    paths of `steps` steps into: each at most _PATH_BLOCK_BYTES of path
    values, or one path."""
    count = -(-n // max(1, _PATH_BLOCK_BYTES // (8 * (steps + 1))))
    return [(n * k // count, n * (k + 1) // count) for k in range(count)]


def path_buffer(n_values, steps: int) -> np.ndarray:
    """A flat `out` buffer for the largest block of any of the n_values."""
    rows = max(b - a for n in n_values for a, b in block_bounds(n, steps))
    return np.empty(rows * (steps + 1))


def simulate_blocks(
    coeffs: CoefficientSet, levy: LevyConfig, grid: PathGrid, x0_law, n: int, master_seed: int,
    out: np.ndarray | None = None,
):
    """The ensemble of `simulate_ensemble`, one block of paths at a time.

    Checks the arguments and draws every path's seed and initial value now,
    once; returns an iterator of (rows, paths), where `paths` holds the rows
    `rows` of the n-path ensemble.  The blocks are those of `block_bounds`,
    each from its own `simulate_ensemble` call into one flat path buffer:
    `out`, which the caller owns and may reuse across calls (one shorter
    than the largest block raises ValidationError here), or else one that
    the iterator allocates at its first block and drops at its end.  So a
    yielded block is a view of that buffer, which the next one overwrites:
    a consumer copies what it keeps of a block.  A block that diverges
    ends the yields, but the later blocks are still simulated: the
    SimulationDivergedError raised after the last names the step and path
    of the one-shot scan, the earliest step over all blocks, then its
    lowest path.
    """
    _check_count("n", n)
    _check_span(coeffs, grid)
    bounds = block_bounds(n, grid.steps)
    if out is not None:
        _path_view(out, max(b - a for a, b in bounds), grid.steps)
    seeds, x0 = ensemble_draws(x0_law, n, master_seed)

    def blocks(out):
        if out is None:
            out = path_buffer([n], grid.steps)
        diverged = None
        for a, b in bounds:
            try:
                paths = simulate_ensemble(
                    coeffs, levy, grid, x0_law, b - a, master_seed, (seeds[a:b], x0[a:b]), out=out
                )
            except SimulationDivergedError as exc:
                if diverged is None or exc.step < diverged.step:
                    diverged = SimulationDivergedError(step=exc.step, path=a + exc.path)
                continue
            if diverged is None:
                yield slice(a, b), paths
            del paths
        if diverged is not None:
            raise diverged

    return blocks(out)


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


def _check_span(coeffs: CoefficientSet, grid: PathGrid) -> None:
    lo, hi = coeffs.span
    if grid.t0 < lo - 1e-12 or grid.t1 > hi + 1e-12:
        raise ValidationError(
            f"grid [{grid.t0}, {grid.t1}] outside coefficient span [{lo}, {hi}]"
        )


def export_paths_csv(paths: SamplePathSet, dest) -> None:
    """Write the ensemble in long format: path_id,t,x, a block of rows at a time."""
    from .harness import _TABLE_BLOCK, write_blocks

    t, x = paths.grid.points, paths.values.reshape(-1)
    starts = range(0, x.size, _TABLE_BLOCK)
    rows = (np.arange(r0, min(r0 + _TABLE_BLOCK, x.size)) for r0 in starts)
    write_blocks(dest, ["path_id", "t", "x"], ((r // t.size, t[r % t.size], x[r]) for r in rows))
