"""Report-only seed sweep of the criterion-5/6 EMSE study.

Runs the `convergence_study` of tests/test_acceptance.py (n = 50, 100, 200,
400; r = 10; 20 replications; known-sigma policy; tracking mu and xi2) at
each master seed.  The replications are those of `run_emse`, run through
the same `harness.replications` (forked lanes, one per CPU) and scored
here so that the script can also say where the errors sit.  Per seed it
prints the median EMSE(mu) at every n, the n = 400 / n = 100 ratio of the
median sup |xi2_hat - xi2| on [0, 0.8], and whether each criterion
passes, with its margin:

  criterion 5  medians strictly decreasing; margin 1 - the largest ratio
               of a median to the one before it
  criterion 6  xi2 error ratio <= 0.7; margin 0.7 - ratio

A positive margin passes.  A second line per seed splits the median
EMSE(mu) at every n into the integrals over t < 0.9 and over t >= 0.9 (the
medians of each part, so they need not add up to the total) and gives the
median time at which |xi2_hat - xi2| takes its sup.  It gates nothing and
pytest does not collect it.

    PYTHONPATH=src python3 bench/seed_sweep.py [--seeds 1 2 3 ...]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from sparsesde import harness, parse_config
from sparsesde.errors import EstimationFailedError

N_VALUES = [50, 100, 200, 400]
REPLICATIONS = 20
RATIO_LIMIT = 0.7
EDGE = 0.9  # EMSE(mu) splits at this time


def study_config(seed: int):
    """The config of the acceptance test's convergence study at `seed`."""
    return parse_config(
        {
            "schema_version": 1,
            "design": {"n": N_VALUES, "r": 10, "noise_sd": 0.1},
            "estimation": {
                "policy": {"kind": "known-sigma", "expr": "0.25 * sin(t)**2"},
                "mu_threshold": 0.05,
            },
            "experiment": {"master_seed": seed, "replications": REPLICATIONS, "track": ["mu", "xi2"]},
        }
    )


def score(cfg, obs, mu_true, xi2_true) -> dict[str, float]:
    """`run_emse`'s emse_mu and sup_xi2 of one replication, with the split and argmax."""
    st = harness._resolve_settings(cfg, obs)
    grid = st.grid
    _, mu_hat, region_A, _ = harness._drift_stage(obs, st)
    err2 = np.where(region_A, (mu_hat - mu_true(grid)) ** 2, 0.0)
    k = int(np.argmin(np.abs(grid - EDGE)))
    noise = harness._noise_stage(obs, st, mu_hat)
    sel = (grid <= 0.8 + 1e-12) & np.isfinite(noise.xi2)
    if not sel.any():
        raise EstimationFailedError("no usable xi2 values on [0, 0.8]")
    dev = np.abs(noise.xi2[sel] - xi2_true(grid[sel]))
    return {
        "emse_mu": float(np.trapezoid(err2, grid)),
        "emse_mu_inner": float(np.trapezoid(err2[: k + 1], grid[: k + 1])),
        "emse_mu_edge": float(np.trapezoid(err2[k:], grid[k:])),
        "sup_xi2": float(np.max(dev)),
        "argmax_xi2": float(grid[sel][np.argmax(dev)]),
    }


def study(seed: int) -> dict[int, dict[str, float]]:
    """Medians over the successful replications of every score, per n."""
    cfg = study_config(seed)
    mu_true, _, xi2_true, _ = harness.unit_truth(harness.build_model(cfg))
    medians = {}
    for n, outcomes in harness.replications(cfg, lambda obs: score(cfg, obs, mu_true, xi2_true)):
        rows = [out for out in outcomes if isinstance(out, dict)]
        if not rows:
            raise EstimationFailedError(f"every replication failed at n={n}")
        medians[n] = {key: float(np.median([r[key] for r in rows])) for key in rows[0]}
    return medians


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 9)))
    seeds = ap.parse_args(argv).seeds
    print("seed  median EMSE(mu) n=50/100/200/400   c5 margin  xi2 ratio  c6 margin  time")
    print(f"      EMSE(mu) t<{EDGE} | t>={EDGE}, n=50/100/200/400; argmax t of xi2 error")
    passes = [0, 0]
    for seed in seeds:
        t0 = time.perf_counter()
        med = study(seed)
        meds = [med[n]["emse_mu"] for n in N_VALUES]
        m5 = 1.0 - max(b / a for a, b in zip(meds, meds[1:]))
        ratio = med[400]["sup_xi2"] / med[100]["sup_xi2"]
        m6 = RATIO_LIMIT - ratio
        passes[0] += m5 > 0
        passes[1] += m6 >= 0
        print(
            f"{seed:>4}  {'/'.join(f'{m:.3f}' for m in meds):<32} "
            f"{'PASS' if m5 > 0 else 'FAIL'} {m5:+.3f}  {ratio:9.3f}  "
            f"{'PASS' if m6 >= 0 else 'FAIL'} {m6:+.3f}  {time.perf_counter() - t0:4.1f}s"
        )

        def cols(key):
            return "/".join(f"{med[n][key]:.3f}" for n in N_VALUES)

        print(f"      {cols('emse_mu_inner')} | {cols('emse_mu_edge')}; {cols('argmax_xi2')}")
    print(f"criterion 5 passes {passes[0]}/{len(seeds)}, criterion 6 passes {passes[1]}/{len(seeds)}")


if __name__ == "__main__":
    main()
