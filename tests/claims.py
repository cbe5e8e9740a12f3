"""The seed-dependent acceptance studies, each defined once as a function of
its master seed, with its gate beside it.

`test_acceptance.py` runs them at its pinned seeds and adds its timing and
artifact gates; `bench/claims_sweep.py` runs them over many seeds.  pytest
does not collect this module.

Per criterion, `measure(seed)` returns the measured values and
`verdict(measured)` returns (ok, margin, detail): `ok` is the statistical
gate, `margin` the distance of the measured value inside its bound (zero at
the bound, where an inclusive bound passes and a strict one fails), and
`detail` the text of the acceptance record.
"""

import time

import numpy as np

from sparsesde import (
    DesignConfig,
    LevyConfig,
    PathGrid,
    PointMass,
    UniformDesign,
    constant_model,
    default_bandwidth_cov,
    fit_cov_grid,
    fit_diagonal_inclusive,
    observe,
    parse_config,
    run_bootstrap,
    run_emse,
    run_oracle_check,
    simulate_ensemble,
)
from sparsesde import harness

DEFAULT_SEED = parse_config({"schema_version": 1}).experiment["master_seed"]
N_VALUES = (50, 100, 200, 400)


def measure_c2(seed: int) -> dict:
    """Monte Carlo moments of 10^4 paths at step 1e-3 against the moment ODEs."""
    experiment = {"mc_paths": 10000, "sim_steps": 1000, "master_seed": seed}
    cfg = parse_config({"schema_version": 1, "experiment": experiment})
    t0 = time.perf_counter()
    report = run_oracle_check(cfg)
    elapsed = time.perf_counter() - t0
    mc = [c for c in report.checks if c[0].startswith("monte carlo")]
    ratios = {name.split()[2]: val for name, val, _, _ in mc}
    return {"ratios": ratios, "report": report, "elapsed": elapsed}


def verdict_c2(m: dict) -> tuple[bool, float, str]:
    ratios = m["ratios"]
    ok = all(v <= 1.0 for v in ratios.values())
    detail = (
        f"10^4 paths at step 1e-3: worst deviation / (4 SE) = "
        f"{ratios['mean']:.3f} (mean), {ratios['second']:.3f} (second moment) "
        f"at 11 grid points, {m['elapsed']:.1f}s (< 30s)"
    )
    return ok, min(1.0 - v for v in ratios.values()), detail


def measure_c4(seed: int) -> dict:
    """Pair-excluding and diagonal-including level fits of a constant-variance
    panel: the level 1 and the noise variance 0.25, as deviations from 1."""
    model = (constant_model(0.0, 0.0, 0.0), LevyConfig(1.0), PathGrid(0.0, 1.0, 200))
    paths = simulate_ensemble(*model, PointMass(1.0), 400, seed)
    scheme = DesignConfig(r=10, noise_sd=0.5, design_law=UniformDesign(), noise_law="gaussian")
    obs = observe(paths, scheme, seed=seed)
    grid = np.linspace(0.0, 1.0, 21)
    cov = fit_cov_grid(obs, grid, 1, default_bandwidth_cov(obs, 1))
    interior = (grid >= 0.1) & (grid <= 0.9)
    incl = fit_diagonal_inclusive(obs, grid[interior], h=cov.bandwidth)
    return {
        "level_dev": float(np.median(cov.D_hat[interior])) - 1.0,
        "control_dev": float(np.median(incl)) - 1.0,
    }


def verdict_c4(m: dict) -> tuple[bool, float, str]:
    level, control = abs(m["level_dev"]), m["control_dev"]
    ok = level <= 0.05 and 0.15 <= control <= 0.35
    detail = (
        f"pair-excluding level fit {1.0 + m['level_dev']:.4f} vs truth 1 (tol 0.05); "
        f"diagonal-including control off by {control:.4f} "
        f"(noise variance 0.25 +- 40%)"
    )
    return ok, min(0.05 - level, control - 0.15, 0.35 - control), detail


def measure_c56(seed: int) -> dict:
    """The convergence study of criteria 5 and 6: `run_emse` at n = 50..400,
    20 replications, known-sigma policy, tracking mu and xi2."""
    cfg = parse_config(
        {
            "schema_version": 1,
            "design": {"n": list(N_VALUES), "r": 10, "noise_sd": 0.1},
            "estimation": {
                "policy": {"kind": "known-sigma", "expr": "0.25 * sin(t)**2"},
                "mu_threshold": 0.05,
            },
            "experiment": {"master_seed": seed, "replications": 20, "track": ["mu", "xi2"]},
        }
    )
    t0 = time.perf_counter()
    result = run_emse(cfg)
    elapsed = time.perf_counter() - t0
    return {
        "medians": result.medians,
        "breakdown": result.breakdown,
        "rows": result.rows,
        "elapsed": elapsed,
    }


def verdict_c5(m: dict) -> tuple[bool, float, str]:
    meds = [m["medians"][n]["emse_mu"] for n in N_VALUES]
    ok = all(a > b for a, b in zip(meds, meds[1:]))
    detail = (
        "median EMSE(mu) " + "/".join(f"{v:.3f}" for v in meds)
        + f" strictly decreasing over n=50..400, 20 reps, {m['elapsed']:.0f}s (< 600s)"
    )
    return ok, min(1.0 - b / a for a, b in zip(meds, meds[1:])), detail


def verdict_c6(m: dict) -> tuple[bool, float, str]:
    ratio = m["medians"][400]["sup_xi2"] / m["medians"][100]["sup_xi2"]
    detail = (
        f"known-sigma policy: median sup |xi2_hat - xi2| on [0, 0.8] at n=400 "
        f"is {ratio:.3f} x its n=100 value (need <= 0.7)"
    )
    return ratio <= 0.7, 0.7 - ratio, detail


def measure_c7(seed: int) -> dict:
    """The bootstrap at t* = 0.5 on n = 35, r = 12, with B = 1000 and 2000."""
    cfg = parse_config(
        {
            "schema_version": 1,
            "design": {"n": 35, "r": 12, "noise_sd": 0.1},
            "estimation": {"policy": {"kind": "known-fraction", "expr": "0.5"}},
            "experiment": {"B": 1000, "master_seed": seed},
        }
    )
    bundle = harness.build_model(cfg)
    paths = harness.simulate_paths(cfg, bundle, seed, 35)
    obs = observe(paths, harness.build_design(cfg), seed)

    t0 = time.perf_counter()
    base = run_bootstrap(cfg, obs)
    elapsed = time.perf_counter() - t0
    doubled = run_bootstrap(
        parse_config({**cfg.raw, "experiment": {"B": 2000, "master_seed": seed}}), obs
    )
    rel = {key: abs(doubled.bmse[key] - v) / v for key, v in base.bmse.items()}
    return {"B": base.B, "n_success": base.n_success, "bmse": base.bmse, "rel": rel,
            "result": base, "elapsed": elapsed}


def verdict_c7(m: dict) -> tuple[bool, float, str]:
    rel = m["rel"]
    ok = (
        m["B"] == 1000
        and m["n_success"] >= 800
        and all(np.isfinite(v) and v >= 0.0 for v in m["bmse"].values())
        and all(v < 0.10 for v in rel.values())
    )
    detail = (
        f"B=1000 on n=35, r=12: {m['n_success']}/1000 resamples, three-BMSE "
        f"table emitted, doubling B shifts each BMSE < 10% (max "
        f"{max(rel.values()):.1%}), {m['elapsed']:.1f}s (< 300s)"
    )
    return ok, min(0.10 - v for v in rel.values()), detail


# criterion -> (study, verdict); criteria 5 and 6 read one study
CRITERIA = {
    2: (measure_c2, verdict_c2),
    4: (measure_c4, verdict_c4),
    5: (measure_c56, verdict_c5),
    6: (measure_c56, verdict_c6),
    7: (measure_c7, verdict_c7),
}
