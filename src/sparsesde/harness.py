"""Experiment harness: config file in, reproducible artifacts out.

A single JSON config drives every subcommand.  The schema is versioned and
strict: unknown keys anywhere are rejected so that typos fail loudly rather
than silently running defaults.  `_SCHEMA` holds each key's default and
check; a count key's check caps it, so an oversized run fails at parse
time.  All randomness descends from one master seed through named
SeedSequence children, which makes every artifact byte-reproducible for a
fixed (config, seed) pair.

The estimate, emse and bootstrap runs share one pipeline.
`_resolve_settings` turns the estimation section into concrete settings
for one observation set (kernel, grid, bandwidths, drift threshold,
epsilon, separation policy and source, unit-scale nu_K); `_drift_stage`
runs mean fit -> drift; `_noise_stage` runs surface fit -> total noise ->
separation.  The three runs differ only in what they score.  emse and
bootstrap run the stages serially (emse forks whole replications);
`run_estimate` runs the four fits that read only the panel (the mean fit,
both passes of the surface's pair sums and the smooth of Y^2) in two
forked lanes (`lanes.fan_out`) and assembles the rest in this process.

Models may live on any finite span; estimation always happens on [0, 1].
A model on [t0, t1] is affinely rescaled, which multiplies the drift by the
span length L, the diffusion by sqrt(L) (Brownian scaling) and the jump
activity by L; the manifest records this map whenever it is not the
identity.  A Gaussian driver with covariance c*min(s,t) is simulated as
sqrt(c)-scaled Brownian motion, which has exactly that covariance; the
manifest notes the equivalence when c != 1.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import UnionType
from typing import NamedTuple

import numpy as np

from . import __version__
from .covfit import (
    CovEstimate,
    default_bandwidth_cov,
    fit_cov_grid,
    fit_diagonal_inclusive,
    noise_variance_estimate,
    surface_sums,
)
from .errors import (
    ConfigError,
    EstimationFailedError,
    SparseSdeError,
    ValidationError,
)
from .kernels import KernelSpec, kernel_by_name
from .meanfit import (
    MeanEstimate,
    default_bandwidth_mean,
    fit_mean_curve,
)
from .model import (
    CoefficientSet,
    GaussianInitial,
    LevyConfig,
    PointMass,
    constant_model,
    expression_function,
    rescale_to_unit,
    sinusoid_model,
)
from .moments import (
    H_value,
    MomentSolution,
    _fd_first,
    cov_value,
    solve_moments,
)
from .observe import (
    ClippedLinearDesign,
    DesignConfig,
    SparseObservations,
    UniformDesign,
    observe_ensemble,
)
from .recover import (
    _POLICY_KINDS,
    CoefficientEstimate,
    SeparationPolicy,
    estimate_drift,
    estimate_total_noise,
    separate,
)
from .simulate import PathGrid, SamplePathSet, simulate_blocks, simulate_ensemble

SCHEMA_VERSION = 1

# SeedSequence tags reserved by the harness (simulate/observe use 0..3)
_STREAM_REPLICATION = 10
_STREAM_BOOTSTRAP = 20
_TABLE_BLOCK = 1 << 10  # rows of a CSV artifact turned into text at a time: its text stays small
# characters that make `csv.writer` quote a field
_CSV_SPECIAL = re.compile(r'[,"\r\n]')

# `_walk` default of a key that must be given
_REQUIRED = ...


def _reject_unknown(where: str, given, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _is_int(v) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # an int beyond float range is not one; math.isfinite would raise on it
    return _is_int(v) and abs(v) <= sys.float_info.max or isinstance(v, float) and math.isfinite(v)


def _positive(v) -> bool:
    return _is_real(v) and v > 0


def _nonneg(v) -> bool:
    return _is_real(v) and v >= 0


def _in_unit(v) -> bool:
    return _is_real(v) and 0 < v < 1


def _auto_or_positive(v) -> bool:
    return v == "auto" or _positive(v)


def _is_span(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_real, v)) and v[1] > v[0]


def _is_track(v) -> bool:
    return isinstance(v, list) and all(x in ("mu", "xi2", "s") for x in v)


class _Count(NamedTuple):
    """Check of a count key: an integer in [lo, hi], or with `many` also a
    non-empty list of them.  The cap hi stops an oversized run at parse time,
    before anything of its size is allocated."""

    lo: int
    hi: int
    many: bool = False

    def __call__(self, v) -> bool:
        if self.many and isinstance(v, list):
            return bool(v) and all(map(_Count(self.lo, self.hi), v))
        return _is_int(v) and self.lo <= v <= self.hi


def _count(default: int, lo: int, hi: int, many: bool = False) -> tuple:
    """Table entry of a count key."""
    what = f"an integer from {lo} to {hi}" + (", or a non-empty list of them" if many else "")
    return default, _Count(lo, hi, many), what


def _choice(*options: str) -> tuple:
    """Table entry of a key that takes one of `options`; the first is its default."""
    return options[0], options.__contains__, "|".join(options)


# section -> key -> (default, check, what the value "must be"); a check is a
# predicate, or a type or union of types that the value must be an instance of
_SCHEMA = {
    "model": {
        "kind": _choice("builtin", "expressions"),
        "name": _choice("sinusoid", "constant"),  # of a builtin model
        "params": ({}, dict, "an object"),
        "span": ([0.0, 1.0], _is_span, "[t0, t1] with t1 > t0"),
        "nu_K": (1.0, _positive, "a positive number"),
        "jump_size_law": ("uniform[-1,1]", str, "a string"),
        "driver_variance_scale": (1.0, _positive, "a positive number"),
        "x0": ({"kind": "point", "value": 1.0}, dict, "an object"),
        "mu": (None, str | None, "an expression in t"),
        "sigma": (None, str | None, "an expression in t"),
        "xi": (None, str | None, "an expression in t"),
    },
    "design": {
        "n": _count(100, 1, 10**6, many=True),
        "r": _count(10, 2, 10**6),
        "noise_sd": (0.1, _nonneg, "a number >= 0"),
        "design_law": ({"kind": "uniform"}, dict, "an object"),
        "noise_law": _choice("gaussian", "uniform"),
    },
    "estimation": {
        "d_mean": _count(2, 1, 10),
        "d_cov": _count(1, 1, 10),
        "h_m": ("auto", _auto_or_positive, "'auto' or a positive number"),
        "h_G": ("auto", _auto_or_positive, "'auto' or a positive number"),
        "epsilon": (0.1, _in_unit, "a number in (0, 1)"),
        "kernel": _choice("epanechnikov", "gaussian-truncated"),
        "eval_points": _count(51, 5, 10**4),
        "mu_threshold": ("auto", _auto_or_positive, "'auto' or a positive number"),
        "separation_source": _choice("tri", "diag"),
        "policy": (None, dict | None, "null or an object"),
    },
    "experiment": {
        "master_seed": (20260818, lambda v: _is_int(v) and v >= 0, "a nonnegative integer"),
        "sim_steps": _count(1000, 1, 10**6),
        "replications": _count(20, 1, 10**6),
        "track": (["mu"], _is_track, "a list drawn from mu|xi2|s"),
        "B": _count(1000, 2, 10**6),
        "t_star": (0.5, _in_unit, "a number in (0, 1)"),
        "mc_paths": _count(10000, 2, 10**7),
        "negative_control": (False, bool, "true or false"),
    },
    "output": {"directory": ("out", str, "a string")},
}

_SECTION = ({}, dict, "an object")  # table entry of a section at the top level

# the rules where one key's valid form depends on another: a table per kind
_CONSTANT_PARAMS = {
    "mu": (_REQUIRED, _is_real, "a number"),
    "sigma2": (_REQUIRED, _nonneg, "a number >= 0"),
    "xi2": (_REQUIRED, _nonneg, "a number >= 0"),
}
_X0_LAWS = {
    "point": {"value": (_REQUIRED, _is_real, "a number")},
    "normal": {
        "mean": (_REQUIRED, _is_real, "a number"),
        "sd": (_REQUIRED, _nonneg, "a number >= 0"),
    },
}
_DESIGN_LAWS = {
    "uniform": {},
    "clipped-linear": {"floor": (0.1, lambda v: _is_real(v) and 0 < v <= 2, "a number in (0, 2]")},
}
_POLICIES = {kind: {"expr": (_REQUIRED, str, "an expression in t")} for kind in _POLICY_KINDS}


def _walk(where: str, given: dict, table: dict, label: str = "") -> dict:
    """`given` with copies of the defaults of `table` filled in; a key that is
    unknown, missing without a default, or fails its check raises ConfigError."""
    _reject_unknown(f"'{where}'{label}", given, table)
    missing = [key for key, entry in table.items() if entry[0] is _REQUIRED and key not in given]
    if missing:
        raise ConfigError(f"{where}{label} missing {missing}")
    out = {
        key: given[key] if key in given else copy.deepcopy(default)
        for key, (default, _, _) in table.items()
    }
    for key, (_, check, what) in table.items():
        value = out[key]
        if not (isinstance(value, check) if isinstance(check, (type, UnionType)) else check(value)):
            raise ConfigError(f"{where}.{key} must be {what}")
    return out


def _variant(where: str, given: dict, kinds: dict) -> dict:
    """`given` walked against the table of its "kind", one of `kinds`."""
    kind = given.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"{where}.kind must be {'|'.join(kinds)}")
    rest = {key: v for key, v in given.items() if key != "kind"}
    return {"kind": kind, **_walk(where, rest, kinds[kind], f" ({kind})")}


@dataclass
class ExperimentConfig:
    """Validated configuration with raw dict retained for hashing."""

    model: dict
    design: dict
    estimation: dict
    experiment: dict
    output: dict
    raw: dict = field(repr=False, default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = (_REQUIRED, lambda v: _is_int(v) and v == SCHEMA_VERSION, str(SCHEMA_VERSION))
    top = _walk("config", data, {"schema_version": version, **dict.fromkeys(_SCHEMA, _SECTION)})
    sections = {name: _walk(name, top[name], table) for name, table in _SCHEMA.items()}
    m, e = sections["model"], sections["estimation"]
    constant = m["kind"] == "builtin" and m["name"] == "constant"
    # only the constant model reads params; any other key is a typo
    m["params"] = _walk("model.params", m["params"], _CONSTANT_PARAMS if constant else {})
    for key in ("mu", "sigma", "xi"):
        if m["kind"] == "expressions" and m[key] is None:
            raise ConfigError(f"model.{key} expression required")
    x0 = m["x0"] = _variant("model.x0", m["x0"], _X0_LAWS)
    if x0["kind"] == "point" and not math.isfinite(float(x0["value"]) * x0["value"]):
        raise ConfigError("model.x0 point needs a finite second moment value^2")
    if x0["kind"] == "normal" and not math.isfinite(
        float(x0["mean"]) * x0["mean"] + float(x0["sd"]) * x0["sd"]
    ):
        raise ConfigError("model.x0 normal needs a finite second moment mean^2 + sd^2")
    design = sections["design"]
    design["design_law"] = _variant("design.design_law", design["design_law"], _DESIGN_LAWS)
    if e["policy"] is not None:
        e["policy"] = _variant("estimation.policy", e["policy"], _POLICIES)
    elif "xi2" in sections["experiment"]["track"]:
        raise ConfigError("tracking xi2 requires estimation.policy")
    return ExperimentConfig(**sections, raw=data)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


@dataclass
class ModelBundle:
    """Everything the pipeline needs, on native and unit time scales."""

    coeffs: CoefficientSet        # native span, driver scale folded into sigma
    levy: LevyConfig
    x0_law: object
    unit_coeffs: CoefficientSet   # affinely rescaled to [0, 1]
    unit_levy: LevyConfig
    m0: float
    D0: float
    notes: list[str]


def build_model(cfg: ExperimentConfig) -> ModelBundle:
    m = cfg.model
    span = (float(m["span"][0]), float(m["span"][1]))
    if m["kind"] == "builtin":
        if m["name"] == "sinusoid":
            base = sinusoid_model(span)
        else:
            p = m["params"]
            base = constant_model(p["mu"], p["sigma2"], p["xi2"], span)
    else:
        base = CoefficientSet(
            mu=expression_function(m["mu"]),
            sigma=expression_function(m["sigma"]),
            xi=expression_function(m["xi"]),
            span=span,
        )
    notes: list[str] = []
    scale = float(m["driver_variance_scale"])
    if scale != 1.0:
        root = math.sqrt(scale)
        base = replace(base, sigma=lambda t, _f=base.sigma: root * _f(t))
        notes.append(
            f"gaussian driver with covariance {scale:g}*min(s,t) simulated as "
            f"sqrt({scale:g})-scaled brownian motion (equal in law)"
        )
    base.validate()
    levy = LevyConfig(nu_K=float(m["nu_K"]))
    unit_coeffs, unit_levy = rescale_to_unit(base, levy)
    if base.span != (0.0, 1.0):
        L = base.span[1] - base.span[0]
        notes.append(
            f"model span [{base.span[0]:g}, {base.span[1]:g}] rescaled to [0, 1]: "
            f"drift *{L:g}, diffusion *sqrt({L:g}), jump activity *{L:g}"
        )
    x0 = m["x0"]
    if x0["kind"] == "point":
        law = PointMass(float(x0["value"]))
        m0, D0 = law.value, law.value**2
    else:
        law = GaussianInitial(float(x0["mean"]), float(x0["sd"]))
        m0, D0 = law.mean, law.mean**2 + law.sd**2
    return ModelBundle(
        coeffs=base,
        levy=levy,
        x0_law=law,
        unit_coeffs=unit_coeffs,
        unit_levy=unit_levy,
        m0=m0,
        D0=D0,
        notes=notes,
    )


def build_design(cfg: ExperimentConfig) -> DesignConfig:
    d = cfg.design
    law_cfg = d["design_law"]
    if law_cfg["kind"] == "uniform":
        _reject_unknown("'design.design_law' (uniform)", law_cfg, {"kind"})
        law = UniformDesign()
    else:
        _reject_unknown("'design.design_law' (clipped-linear)", law_cfg, {"kind", "floor"})
        law = ClippedLinearDesign(float(law_cfg.get("floor", 0.1)))
    return DesignConfig(
        r=d["r"], noise_sd=float(d["noise_sd"]), design_law=law, noise_law=d["noise_law"]
    )


def build_policy(cfg: ExperimentConfig) -> SeparationPolicy | None:
    pol = cfg.estimation["policy"]
    if pol is None:
        return None
    return SeparationPolicy(
        kind=pol["kind"], value=expression_function(pol["expr"]), label=pol["expr"]
    )


def _single_n(cfg: ExperimentConfig) -> int:
    n = cfg.design["n"]
    if isinstance(n, list):
        raise ConfigError("this command needs a single design.n, not a list")
    return n


def _ensemble(cfg: ExperimentConfig, bundle: ModelBundle) -> tuple:
    """(coeffs, levy, grid, x0_law): what the config's paths are simulated from."""
    grid = PathGrid(*bundle.coeffs.span, cfg.experiment["sim_steps"])
    return bundle.coeffs, bundle.levy, grid, bundle.x0_law


def simulate_paths(cfg: ExperimentConfig, bundle: ModelBundle, seed: int, n: int) -> SamplePathSet:
    """All n paths at once; only `simulate`, which exports every path, needs them."""
    return simulate_ensemble(*_ensemble(cfg, bundle), n, seed)


def simulate_observations(
    cfg: ExperimentConfig, bundle: ModelBundle, design: DesignConfig, seed: int, n: int
) -> SparseObservations:
    """`observe(simulate_paths(cfg, bundle, seed, n), design, seed)`, simulated
    and observed a block of paths at a time (`observe.observe_ensemble`)."""
    return observe_ensemble(*_ensemble(cfg, bundle), n, design, seed)


class _Settings(NamedTuple):
    """Estimation settings of one run, with the bandwidth rules applied."""

    kernel: KernelSpec
    grid: np.ndarray
    d_mean: int
    d_cov: int
    h_m: float
    h_G: float
    mu_threshold: float | None  # None: the default rule of `estimate_drift`
    epsilon: float
    policy: SeparationPolicy | None
    source: str                 # route that separation reads: "tri" or "diag"
    nu_K: float                 # jump activity on the unit time scale


def _resolve_settings(cfg: ExperimentConfig, obs: SparseObservations) -> _Settings:
    obs.validate()  # a library caller's panel too: the bandwidths read its curve count
    e = cfg.estimation
    return _Settings(
        kernel=kernel_by_name(e["kernel"]),
        grid=np.linspace(0.0, 1.0, e["eval_points"]),
        d_mean=e["d_mean"],
        d_cov=e["d_cov"],
        h_m=default_bandwidth_mean(obs, e["d_mean"]) if e["h_m"] == "auto" else float(e["h_m"]),
        h_G=default_bandwidth_cov(obs, e["d_cov"]) if e["h_G"] == "auto" else float(e["h_G"]),
        mu_threshold=None if e["mu_threshold"] == "auto" else float(e["mu_threshold"]),
        epsilon=float(e["epsilon"]),
        policy=build_policy(cfg),
        source=e["separation_source"],
        nu_K=build_model(cfg).unit_levy.nu_K,
    )


@contextmanager
def _overflow_fails():
    """A numpy overflow inside fails the estimate rather than printing a warning:
    the estimate, emse-score and bootstrap drivers run under it."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise EstimationFailedError(f"estimation overflowed: {exc}") from exc


def _drift_stage(
    obs: SparseObservations, st: _Settings
) -> tuple[MeanEstimate, np.ndarray, np.ndarray, float]:
    """Mean fit on the grid, then the drift: (mean_est, mu_hat, region_A, threshold)."""
    mean_est = fit_mean_curve(obs, st.grid, st.d_mean, st.h_m, st.kernel)
    return (mean_est, *estimate_drift(mean_est, st.mu_threshold))


class _NoiseStage(NamedTuple):
    cov_est: CovEstimate
    s_diag: np.ndarray
    s_tri: np.ndarray
    source: np.ndarray              # s_diag or s_tri, as the settings pick
    sigma2: np.ndarray | None       # None without a separation policy
    xi2: np.ndarray | None
    flags: dict[str, np.ndarray]


def _noise_stage(
    obs: SparseObservations, st: _Settings, mu_hat: np.ndarray, sums: tuple | None = None
) -> _NoiseStage:
    """Surface fit, both routes to s = sigma^2 + nu_K xi^2, then the policy split;
    `sums` are the surface's pair sums where they are taken already."""
    cov_est = fit_cov_grid(obs, st.grid, st.d_cov, st.h_G, st.kernel, sums=sums)
    s_diag, s_tri, flags = estimate_total_noise(st.grid, mu_hat, cov_est, st.epsilon)
    source = s_tri if st.source == "tri" else s_diag
    sigma2 = xi2 = None
    if st.policy is not None:
        sigma2, xi2, sep_flags = separate(st.grid, source, st.policy, st.nu_K)
        flags.update(sep_flags)
    return _NoiseStage(cov_est, s_diag, s_tri, source, sigma2, xi2, flags)


@dataclass
class EstimateResult:
    mean_est: MeanEstimate
    cov_est: CovEstimate
    coeffs: CoefficientEstimate
    rho2_hat: float
    rho2_floored: bool
    h_m: float
    h_G: float


def _outcomes(*steps) -> list:
    """Each step's result, or the exception it raised, with the warnings it gave."""
    out = []
    for step in steps:
        with warnings.catch_warnings(record=True) as seen:
            try:
                found = step()
            except Exception as exc:
                found = exc
        out.append((found, seen))
    return out


def _ready(outcome):
    """A step's result, or raise its exception, once its warnings are shown:
    a step that a serial run would not have reached shows none."""
    found, seen = outcome
    for w in seen:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if isinstance(found, Exception):
        raise found
    return found


@_overflow_fails()
def run_estimate(cfg: ExperimentConfig, obs: SparseObservations) -> EstimateResult:
    """Full pipeline on one observation set: mean, surface, coefficients.

    The four fits that read only the panel run as two tasks of equal cost
    in `lanes.fan_out`: the mean fit with the grid pass of the surface's
    pair sums (in this process), and the offset pass with the smooth of
    Y^2.  The rest is assembled here in pipeline order, and a step's
    exception raises where its result is first needed, so a run fails
    as a serial run would.
    """
    from . import lanes  # the process fan-out, compiled on first use

    st = _resolve_settings(cfg, obs)
    obs.time_order  # taken once here, not once per lane
    tasks = {
        "grid": (
            lambda: fit_mean_curve(obs, st.grid, st.d_mean, st.h_m, st.kernel),
            lambda: surface_sums(obs, st.grid, st.d_cov, st.h_G, st.kernel),
        ),
        "offset": (
            lambda: surface_sums(obs, st.grid, st.d_cov, st.h_G, st.kernel, offset=True),
            lambda: fit_diagonal_inclusive(obs, st.grid, kernel=st.kernel),
        ),
    }
    found = lanes.fan_out(list(tasks), lambda task: 1, lambda task: _outcomes(*tasks[task]))
    (mean_est, grid_sums), (offset_sums, smooth) = found["grid"], found["offset"]
    mean_est = _ready(mean_est)
    mu_hat, region_A, thr_used = estimate_drift(mean_est, st.mu_threshold)
    noise = _noise_stage(obs, st, mu_hat, (_ready(grid_sums), _ready(offset_sums)))
    coeffs = CoefficientEstimate(
        eval_grid=st.grid,
        mu_hat=mu_hat,
        region_A=region_A,
        s_diag=noise.s_diag,
        s_tri=noise.s_tri,
        sigma2_hat=noise.sigma2,
        xi2_hat=noise.xi2,
        flags={"excluded": ~region_A, **noise.flags},
        mu_threshold=thr_used,
    )
    rho2, floored = noise_variance_estimate(obs, noise.cov_est, st.kernel, lambda: _ready(smooth))
    return EstimateResult(
        mean_est=mean_est,
        cov_est=noise.cov_est,
        coeffs=coeffs,
        rho2_hat=rho2,
        rho2_floored=floored,
        h_m=st.h_m,
        h_G=st.h_G,
    )


def unit_truth(bundle: ModelBundle):
    """Truth functions on the unit scale for scoring simulated studies."""
    c = bundle.unit_coeffs
    nu = bundle.unit_levy.nu_K

    def mu(t):
        return c.mu(np.asarray(t, dtype=float))

    def sigma2(t):
        return c.sigma(np.asarray(t, dtype=float)) ** 2

    def xi2(t):
        return c.xi(np.asarray(t, dtype=float)) ** 2

    def s(t):
        return sigma2(t) + nu * xi2(t)

    return mu, sigma2, xi2, s


def replications(cfg: ExperimentConfig, score):
    """The replicated study of `cfg`, one sample size at a time.

    Replication `rep` at the `ni`-th sample size n simulates n paths and
    observes them under its own seed, SeedSequence([master_seed,
    _STREAM_REPLICATION, ni, rep]), a block of paths at a time
    (`simulate_observations`), and returns `score(obs)`.  Yields
    (n, outcomes) for each n in config order, where outcomes holds per
    replication the score or the `SparseSdeError` that failed it.  A
    ConfigError, a PolicyError or an error from outside the package ends
    the study: the first one in (n, replication) order raises when its n is
    reached.  The replications run in forked lanes, one per CPU of this
    process (`lanes.fan_out`); every one of them is run before the first
    yield, and the outcomes are those of running them here in order.
    """
    from . import lanes  # the process fan-out, compiled on first use

    n_cfg = cfg.design["n"]
    n_values = n_cfg if isinstance(n_cfg, list) else [n_cfg]
    reps = cfg.experiment["replications"]
    master = cfg.experiment["master_seed"]
    bundle = build_model(cfg)
    design = build_design(cfg)

    def replicate(task: tuple[int, int]) -> dict:
        ni, rep = task
        seq = np.random.SeedSequence([master, _STREAM_REPLICATION, ni, rep])
        seed = int(seq.generate_state(1)[0])
        return score(simulate_observations(cfg, bundle, design, seed, n_values[ni]))

    tasks = [(ni, rep) for ni in range(len(n_values)) for rep in range(reps)]
    found = lanes.fan_out(tasks, lambda task: n_values[task[0]], replicate)
    for ni, n in enumerate(n_values):
        outcomes = []
        for rep in range(reps):  # a lane stops at its first such error: raise it in order
            out = found[ni, rep]
            if isinstance(out, BaseException) and lanes.ends_run(out):
                raise out
            outcomes.append(out)
        yield n, outcomes


@dataclass
class EmseResult:
    n_values: list[int]
    rows: list[dict]           # one per (n, replication)
    medians: dict[int, dict]   # n -> {metric: median over successful reps}
    failures: dict[int, int]


def run_emse(cfg: ExperimentConfig) -> EmseResult:
    """Replicated simulate/observe/estimate study across sample sizes.

    Each replication scores the drift; the surface stage runs only when
    "s" or "xi2" is tracked.  Per-replication failures are recorded and
    skipped; a sample size whose failure share exceeds one half aborts the
    study.  The replications run through `replications`, so the result
    does not depend on the number of CPUs.
    """
    reps = cfg.experiment["replications"]
    track = cfg.experiment["track"]
    mu_true, _, xi2_true, s_true = unit_truth(build_model(cfg))

    @_overflow_fails()
    def score(obs: SparseObservations) -> dict:
        st = _resolve_settings(cfg, obs)
        grid = st.grid
        _, mu_hat, region_A, _ = _drift_stage(obs, st)
        err2 = np.where(region_A, (mu_hat - mu_true(grid)) ** 2, 0.0)
        out = {
            "emse_mu": float(np.trapezoid(err2, grid)),
            "excluded_points": int((~region_A).sum()),
        }
        if not {"xi2", "s"} & set(track):
            return out
        noise = _noise_stage(obs, st, mu_hat)
        if "s" in track:
            valid = np.isfinite(noise.source)
            err2 = np.where(valid, (np.where(valid, noise.source, 0.0) - s_true(grid)) ** 2, 0.0)
            out["emse_s"] = float(np.trapezoid(err2, grid))
        if "xi2" in track:
            sel = (grid <= 0.8 + 1e-12) & np.isfinite(noise.xi2)
            if not sel.any():
                raise EstimationFailedError("no usable xi2 values on [0, 0.8]")
            out["sup_xi2"] = float(np.max(np.abs(noise.xi2[sel] - xi2_true(grid[sel]))))
        return out

    n_values: list[int] = []
    rows: list[dict] = []
    medians: dict[int, dict] = {}
    failures: dict[int, int] = {}
    for n, outcomes in replications(cfg, score):
        n_values.append(n)
        ok_rows = []
        for rep, out in enumerate(outcomes):
            row = {"n": n, "replication": rep, "status": "ok"}
            if isinstance(out, SparseSdeError):
                row["status"] = f"failed: {type(out).__name__}"
            else:
                row.update(out)
                ok_rows.append(row)
            rows.append(row)
        failures[n] = reps - len(ok_rows)
        if failures[n] > 0.5 * reps:
            raise EstimationFailedError(
                f"{failures[n]}/{reps} replications failed at n={n}"
            )
        medians[n] = {
            key: float(np.median([r[key] for r in ok_rows]))
            for key in ok_rows[0]
            if key not in ("n", "replication", "status")
        }
    return EmseResult(n_values=n_values, rows=rows, medians=medians, failures=failures)


@dataclass
class BootstrapResult:
    t_star: float
    B: int
    n_success: int
    point: dict[str, float]
    bmse: dict[str, float]
    used: np.ndarray        # bool per resample: produced estimates
    fallback: int           # resamples whose windows widened past h_m or h_G


@_overflow_fails()
def run_bootstrap(
    cfg: ExperimentConfig,
    obs: SparseObservations,
    t_star: float | None = None,
    B: int | None = None,
) -> BootstrapResult:
    """Curve-level bootstrap of the pointwise estimators at t_star.

    Resamples whole curves with replacement (same n) and reports
    BMSE(q) = mean (q_b - q_0)^2 over the resamples that produced
    estimates.  Every window sum behind a resample's estimate is a sum over
    its drawn curves, so all resamples come from one per-curve table
    gathered along the draws and batched solves
    (`bootstrap.gathered_estimates`).  A resample whose mean or surface
    window fails a check at h_m or h_G is solved again in the same batch at
    widened bandwidths, as `bootstrap.point_estimates` widens them, or
    fails; one whose |m_hat| falls below the drift threshold is skipped.
    The reported point estimate comes from `point_estimates` on the
    original data.  The centre q_0 is the identity resample (all curves
    once), row 0 of the gathered draws, so equal resamples give exactly
    zero BMSE.  Requires at least 80% of resamples to succeed.
    """
    from . import bootstrap  # the batched route, compiled only when a bootstrap runs

    if t_star is None:
        t_star = float(cfg.experiment["t_star"])
    if B is None:
        B = int(cfg.experiment["B"])
    # bandwidths and drift threshold resolved once on the original data
    st = _resolve_settings(cfg, obs)
    if st.policy is None:
        raise ConfigError("bootstrap needs estimation.policy to report sigma2 and xi2")
    if t_star > 1.0 - st.epsilon + 1e-12:
        raise ValidationError(f"t_star={t_star} must satisfy t <= 1 - epsilon")
    _, _, _, thr_used = _drift_stage(obs, st)
    point = dict(zip(bootstrap.KEYS, bootstrap.point_estimates(obs, t_star, st, thr_used)))

    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.experiment["master_seed"], _STREAM_BOOTSTRAP])
    )
    draws = np.vstack((np.arange(obs.n), rng.integers(0, obs.n, size=(B, obs.n))))
    est, used, fallback = bootstrap.gathered_estimates(obs, t_star, st, thr_used, draws)
    if not used[0]:
        # the identity resample is the original data, which gave the point
        est[0] = [point[key] for key in bootstrap.KEYS]
    n_success = int(used[1:].sum())
    if n_success < 0.8 * B:
        raise EstimationFailedError(
            f"only {n_success}/{B} bootstrap resamples produced estimates"
        )
    reps = est[1:][used[1:]]
    bmse = {key: float(np.mean((reps[:, k] - est[0, k]) ** 2)) for k, key in enumerate(point)}
    return BootstrapResult(
        t_star=t_star,
        B=B,
        n_success=n_success,
        point=point,
        bmse=bmse,
        used=used[1:],
        fallback=int(fallback[1:].sum()),
    )


@dataclass
class OracleReport:
    checks: list[tuple[str, float, float, bool]]  # (name, value, tolerance, passed)
    solution: MomentSolution

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)


def run_oracle_check(cfg: ExperimentConfig, mc: bool = True) -> OracleReport:
    """Identity web on the moment solver, plus a Monte Carlo cross-check.

    Three routes to the noise sum sigma^2 + nu_K xi^2 are compared on
    [0, 0.9]: the diagonal route D' - 2 mu D, the triangular route
    exp(-int mu) dG/ds - mu D at a strictly interior tau, and the averaged
    route.  With the negative-control flag the web is scored against a
    deliberately wrong jump activity and must fail.
    """
    bundle = build_model(cfg)
    nu_K = bundle.unit_levy.nu_K
    sol = solve_moments(bundle.unit_coeffs, bundle.unit_levy, bundle.m0, bundle.D0)
    grid = sol.grid
    _, sigma2_true, xi2_true, _ = unit_truth(bundle)
    nu_for_target = nu_K if not cfg.experiment["negative_control"] else 2.0 * nu_K + 1.0

    def target(t):
        return float(sigma2_true(t) + nu_for_target * xi2_true(t))

    checks: list[tuple[str, float, float, bool]] = []
    fd = 1e-4
    fd_edge = 2.0 * float(grid[1] - grid[0])
    ts = np.round(np.arange(0.0, 0.9 + 1e-9, 0.05), 10)
    tol = 1e-4
    worst = {"diag_vs_tri": 0.0, "diag_vs_avg": 0.0, "tri_vs_avg": 0.0, "web_vs_target": 0.0}
    for t in ts:
        t = float(t)
        diag = _fd_first(
            lambda x: float(sol.second_moment_at(x)), t, fd, grid[0], grid[-1], fd_edge
        )
        diag -= 2.0 * float(sol.coeffs.mu(np.asarray([t]))[0]) * float(sol.second_moment_at(t))
        tau = min(t + 0.05, 1.0)
        dsG = _fd_first(lambda x: float(cov_value(sol, x, tau)), t, fd, grid[0], tau, fd_edge)
        tri = math.exp(-float(sol.drift_integral(t, tau))) * dsG - float(
            sol.coeffs.mu(np.asarray([t]))[0]
        ) * float(sol.second_moment_at(t))
        avg = H_value(sol, t, fd)
        worst["diag_vs_tri"] = max(worst["diag_vs_tri"], abs(diag - tri))
        worst["diag_vs_avg"] = max(worst["diag_vs_avg"], abs(diag - avg))
        worst["tri_vs_avg"] = max(worst["tri_vs_avg"], abs(tri - avg))
        worst["web_vs_target"] = max(worst["web_vs_target"], abs(avg - target(t)))
    for name, val in worst.items():
        checks.append((f"identity web {name} sup on [0,0.9]", val, tol, val <= tol))

    if mc:
        n_mc = int(cfg.experiment["mc_paths"])
        pts = np.linspace(0.0, 1.0, 11)
        model = _ensemble(cfg, bundle)
        g = model[2]
        abs_t = g.t0 + (g.t1 - g.t0) * pts
        idx = np.rint((abs_t - g.t0) / g.dt).astype(int)
        X = np.empty((n_mc, pts.size))  # only these columns of the paths are kept
        for rows, paths in simulate_blocks(*model, n_mc, cfg.experiment["master_seed"]):
            X[rows] = paths.values[:, idx]
            del paths
        worst_m = worst_D = 0.0
        for col, u in enumerate(pts):
            xs = X[:, col]
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                se_m = float(xs.std(ddof=1) / math.sqrt(n_mc))
                se_D = float((xs**2).std(ddof=1) / math.sqrt(n_mc))
                dev_m = abs(float(xs.mean()) - float(sol.mean_at(u)))
                dev_D = abs(float(np.mean(xs**2)) - float(sol.second_moment_at(u)))
            if not all(map(math.isfinite, (se_m, se_D, dev_m, dev_D))):
                raise ValidationError("Monte Carlo moments contain non-finite values")
            if se_m > 0:
                worst_m = max(worst_m, dev_m / (4.0 * se_m))
            if se_D > 0:
                worst_D = max(worst_D, dev_D / (4.0 * se_D))
        checks.append(("monte carlo mean within 4 SE (max ratio)", worst_m, 1.0, worst_m <= 1.0))
        checks.append(
            ("monte carlo second moment within 4 SE (max ratio)", worst_D, 1.0, worst_D <= 1.0)
        )
    return OracleReport(checks=checks, solution=sol)


# ---------------------------------------------------------------- exports


def write_manifest(
    dest_dir: Path,
    command: str,
    cfg: ExperimentConfig,
    seed: int,
    notes: list[str],
    results: dict | None = None,
) -> None:
    import scipy

    manifest = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "config": cfg.raw,
        "config_sha256": cfg.sha256(),
        "master_seed": seed,
        "package": {"name": "sparsesde", "version": __version__},
        "library_versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "notes": notes,
    }
    if results:
        manifest["results"] = results
    with open(dest_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _quoted(cell: str) -> str:
    """`cell` as `csv.writer` writes it: quoted if it holds a delimiter, quote or line break."""
    return f'"{cell.replace(chr(34), 2 * chr(34))}"' if _CSV_SPECIAL.search(cell) else cell


def _cells(col) -> list[str]:
    """CSV text of a column: floats by repr, so they round-trip, ints and bools
    as ints, strings through `_quoted`, also among numbers of one type (empty cells)."""
    if not isinstance(col, np.ndarray):
        nums = [v for v in col if not isinstance(v, str)]
        if len(nums) < len(col):
            text = iter(_cells(np.asarray(nums)))
            return [_quoted(v) if isinstance(v, str) else next(text) for v in col]
        col = np.asarray(col)
    if col.dtype.kind == "f":  # a float repr holds no ", "
        return repr(col.tolist())[1:-1].split(", ") if col.size else []
    return list(map(str, col.astype(int).tolist()))


def write_table(dest, header: list[str], cols) -> None:
    """Write one CSV artifact: the header, then the columns `cols` side by
    side, each turned into text by `_cells` a block of rows at a time.  The
    bytes are those `csv.writer` writes for a table of two or more columns."""
    write_blocks(dest, header, [cols])


def write_blocks(dest, header: list[str], blocks) -> None:
    """`write_table` of a table whose rows `blocks` yields a block at a time,
    each block as its columns, so that no more than one block is held."""
    with open(dest, "w", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + "\r\n")
        for cols in blocks:
            cols = [c if isinstance(c, np.ndarray) else list(c) for c in cols]
            for r0 in range(0, len(cols[0]), _TABLE_BLOCK):
                rows = zip(*(_cells(c[r0 : r0 + _TABLE_BLOCK]) for c in cols))
                fh.write("".join(",".join(row) + "\r\n" for row in rows))


def export_mean_csv(mean_est: MeanEstimate, dest) -> None:
    cols = (mean_est.eval_grid, mean_est.m_hat, mean_est.dm_hat, mean_est.flags)
    write_table(dest, ["t", "m_hat", "dm_hat", "flag"], cols)


def export_surface_csv(cov_est: CovEstimate, dest) -> None:
    iu = np.triu_indices(cov_est.eval_times.size)
    s, t = cov_est.eval_times[iu[0]], cov_est.eval_times[iu[1]]
    cols = (s, t, cov_est.G2[iu], cov_est.ds2[iu], cov_est.dt2[iu], cov_est.pair_flags[iu])
    write_table(dest, ["s", "t", "G_hat", "dsG_hat", "dtG_hat", "flag"], cols)


def export_surface_diag_csv(cov_est: CovEstimate, dest) -> None:
    cols = (cov_est.eval_times, cov_est.D_hat, cov_est.dD_hat)
    write_table(dest, ["t", "D_hat", "dD_hat"], cols)


def export_coefficients_csv(est: CoefficientEstimate, dest) -> None:
    nan = np.full(est.eval_grid.size, np.nan)
    sigma2 = est.sigma2_hat if est.sigma2_hat is not None else nan
    xi2 = est.xi2_hat if est.xi2_hat is not None else nan
    flags = sorted(est.flags.items())
    tokens = ["|".join(name for name, on in flags if on[i]) for i in range(est.eval_grid.size)]
    cols = (est.eval_grid, est.mu_hat, est.s_diag, est.s_tri, sigma2, xi2, tokens)
    write_table(dest, ["t", "mu_hat", "s_diag", "s_tri", "sigma2_hat", "xi2_hat", "flags"], cols)


def export_oracle_csvs(sol: MomentSolution, dest_dir: Path, grid_step: float = 0.05) -> None:
    pts = np.round(np.arange(0.0, 1.0 + 1e-9, grid_step), 10).tolist()
    m, D = [float(sol.mean_at(t)) for t in pts], [float(sol.second_moment_at(t)) for t in pts]
    write_table(dest_dir / "oracle_m_D.csv", ["t", "m", "D"], (pts, m, D))
    cells = [(s, t) for i, s in enumerate(pts) for t in pts[i:]]
    cols = (*zip(*cells), [float(cov_value(sol, s, t)) for s, t in cells])
    write_table(dest_dir / "oracle_G.csv", ["s", "t", "G"], cols)


def export_emse_csv(result: EmseResult, dest_dir: Path) -> None:
    metrics = sorted(
        {k for r in result.rows for k in r if k not in ("n", "replication", "status")}
    )
    cols = [[r.get(k, "") for r in result.rows] for k in ("n", "replication", "status", *metrics)]
    write_table(dest_dir / "emse.csv", ["n", "replication", "status", *metrics], cols)
    cols = [
        result.n_values,
        [result.failures[n] for n in result.n_values],
        *([result.medians[n].get(k, "") for n in result.n_values] for k in metrics),
    ]
    header = ["n", "failures", *[f"median_{k}" for k in metrics]]
    write_table(dest_dir / "emse_summary.csv", header, cols)


def export_bootstrap_csv(result: BootstrapResult, dest_dir: Path) -> None:
    keys = ("mu", "sigma2", "xi2")
    cols = [keys, [result.point[k] for k in keys], [result.bmse[k] for k in keys]]
    cols += [[v] * len(keys) for v in (result.t_star, result.B, result.n_success)]
    header = ["quantity", "point_estimate", "bmse", "t_star", "B", "resamples_used"]
    write_table(dest_dir / "bootstrap_summary.csv", header, cols)


def export_oracle_report(report: OracleReport, dest) -> None:
    with open(dest, "w") as fh:
        for name, value, tol, ok in report.checks:
            fh.write(f"{'PASS' if ok else 'FAIL'} {name}: {value:.6g} (tolerance {tol:g})\n")
        fh.write(f"{'PASS' if report.passed else 'FAIL'} overall\n")
