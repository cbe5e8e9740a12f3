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
draws, so any path can be regenerated bit-for-bit in isolation.  All PCG64
states come from one vectorised pass (_path_states), loaded in turn into one
generator (_PathStreams).  Path i draws its normals into row i of the result,
then its Poisson counts, keeping the nonzero ones.

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
`simulate_ensemble` bit for bit.
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
    seeds: np.ndarray  # uint64 per path

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


@np.errstate(over="ignore", invalid="ignore")  # a state that left float range raises below
def _euler_core(
    coeffs: CoefficientSet, levy: LevyConfig, grid: PathGrid, x0, seeds
) -> np.ndarray:
    """Paths drawn as default_rng(seed) would per seed; returns (len(seeds), steps+1).

    One PCG64 generator is reused: each path loads its state from _path_states,
    draws its normals, then its counts (`_replay_jumps` below _REPLAY_JUMPS).

    Time is walked in blocks of _BLOCK steps: the block's normals are copied
    out transposed and scaled by sigma(t_k) sqrt(dt), its jump increments
    xi(t_k) (N_k - nu_K dt) are built from the sparse counts, all paths step
    ahead, and the states overwrite the normals they used.  Each element sees
    ((x + mu x dt) + sigma sqrt(dt) Z) + xi (N - nu_K dt) in that order for
    any number of paths, so single-path and ensemble runs agree bitwise.
    """
    m, dt = len(seeds), grid.dt
    comp = levy.nu_K * dt
    if not comp <= _POISSON_LAM_MAX:
        raise ValidationError(f"nu_K*dt = {comp:.3g} exceeds the Poisson sampler's limit")
    values = np.empty((m, grid.steps + 1))
    values[:, 0] = x0
    streams = _PathStreams(seeds, values)
    if comp * grid.steps < _REPLAY_JUMPS:
        paths, steps, counts = _replay_jumps(streams, comp, grid.steps)
    else:
        found = [_poisson_jumps(streams.start(i), i, comp, grid.steps) for i in range(m)]
        paths, steps, counts = map(np.concatenate, zip(*found))
    order = np.argsort(steps, kind="stable")
    jump_step, jump_path = steps[order], paths[order]

    tk = grid.points[:-1]
    mu_k, sigma_k, xi_k = coeffs.mu(tk), coeffs.sigma(tk), coeffs.xi(tk)
    scale = sigma_k * np.sqrt(dt)
    no_jump = xi_k * (0.0 - comp)
    jump_inc = xi_k[jump_step] * (counts[order] - comp)
    bounds = np.searchsorted(jump_step, np.arange(0, grid.steps + _BLOCK, _BLOCK))
    x = values[:, 0]
    tmp = np.empty(m)
    mu_k, mul, add = mu_k.tolist(), np.multiply, np.add
    for b, k0 in enumerate(range(0, grid.steps, _BLOCK)):
        k1 = min(k0 + _BLOCK, grid.steps)
        inc = values[:, k0 + 1 : k1 + 1].T.copy()
        inc *= scale[k0:k1, None]
        jump = np.repeat(no_jump[k0:k1, None], m, axis=1)
        hit = slice(bounds[b], bounds[b + 1])
        jump[jump_step[hit] - k0, jump_path[hit]] = jump_inc[hit]
        # positional outputs and row iteration keep the per-step call cost,
        # paid once per block of `simulate_blocks`, low
        for mu, x_next, jump_j in zip(mu_k[k0:k1], inc, jump):
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


def simulate_path(
    coeffs: CoefficientSet, levy: LevyConfig, grid: PathGrid, x0: float, seed: int
) -> np.ndarray:
    """One path on the grid; returns steps+1 values starting at x0.

    seed is an integer in [0, 2**64), the same word an ensemble gives a path.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    _check_span(coeffs, grid)
    return _euler_core(coeffs, levy, grid, float(x0), [seed])[0]


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
) -> SamplePathSet:
    """n independent paths with per-path child seeds from `ensemble_draws`.

    Given `draws`, n rows of the (seeds, x0) of a larger ensemble, the
    paths are those rows of that ensemble, bit for bit.
    """
    _check_count("n", n)
    _check_span(coeffs, grid)
    seeds, x0 = ensemble_draws(x0_law, n, master_seed) if draws is None else draws
    return SamplePathSet(grid=grid, values=_euler_core(coeffs, levy, grid, x0, seeds), seeds=seeds)


def simulate_blocks(
    coeffs: CoefficientSet, levy: LevyConfig, grid: PathGrid, x0_law, n: int, master_seed: int
):
    """The ensemble of `simulate_ensemble`, one block of paths at a time.

    Checks the arguments and draws every path's seed and initial value now,
    once; returns an iterator of (rows, paths), where `paths` holds the rows
    `rows` of the n-path ensemble.  The blocks are near-equal, each holding
    at most _PATH_BLOCK_BYTES of path values (or one path), and each comes
    from its own `simulate_ensemble` call.  A consumer should drop a block
    before taking the next, so that only one is alive.  A block that
    diverges ends the yields, but the later blocks are still simulated: the
    SimulationDivergedError raised after the last names the step and path
    of the one-shot scan, the earliest step over all blocks, then its
    lowest path.
    """
    _check_count("n", n)
    _check_span(coeffs, grid)
    seeds, x0 = ensemble_draws(x0_law, n, master_seed)
    count = -(-n // max(1, _PATH_BLOCK_BYTES // (8 * (grid.steps + 1))))

    def blocks():
        diverged = None
        for k in range(count):
            a, b = n * k // count, n * (k + 1) // count
            try:
                paths = simulate_ensemble(
                    coeffs, levy, grid, x0_law, b - a, master_seed, (seeds[a:b], x0[a:b])
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

    return blocks()


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
