"""Report-only seed sweep of the criterion-5/6 EMSE study.

Runs the `convergence_study` of tests/test_acceptance.py (n = 50, 100, 200,
400; r = 10; 20 replications; known-sigma policy; tracking mu and xi2) at
each master seed and prints, per seed, the median EMSE(mu) at every n, the
n = 400 / n = 100 ratio of the median sup |xi2_hat - xi2| on [0, 0.8], and
whether each criterion passes, with its margin:

  criterion 5  medians strictly decreasing; margin 1 - the largest ratio
               of a median to the one before it
  criterion 6  xi2 error ratio <= 0.7; margin 0.7 - ratio

A positive margin passes.  It gates nothing and pytest does not collect it.

    PYTHONPATH=src python3 bench/seed_sweep.py [--seeds 1 2 3 ...]
"""

from __future__ import annotations

import argparse
import time

from sparsesde import parse_config, run_emse

N_VALUES = [50, 100, 200, 400]
RATIO_LIMIT = 0.7


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
            "experiment": {"master_seed": seed, "replications": 20, "track": ["mu", "xi2"]},
        }
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 9)))
    seeds = ap.parse_args(argv).seeds
    print("seed  median EMSE(mu) n=50/100/200/400   c5 margin  xi2 ratio  c6 margin  time")
    passes = [0, 0]
    for seed in seeds:
        t0 = time.perf_counter()
        result = run_emse(study_config(seed))
        meds = [result.medians[n]["emse_mu"] for n in N_VALUES]
        m5 = 1.0 - max(b / a for a, b in zip(meds, meds[1:]))
        ratio = result.medians[400]["sup_xi2"] / result.medians[100]["sup_xi2"]
        m6 = RATIO_LIMIT - ratio
        passes[0] += m5 > 0
        passes[1] += m6 >= 0
        print(
            f"{seed:>4}  {'/'.join(f'{m:.3f}' for m in meds):<32} "
            f"{'PASS' if m5 > 0 else 'FAIL'} {m5:+.3f}  {ratio:9.3f}  "
            f"{'PASS' if m6 >= 0 else 'FAIL'} {m6:+.3f}  {time.perf_counter() - t0:4.1f}s"
        )
    print(f"criterion 5 passes {passes[0]}/{len(seeds)}, criterion 6 passes {passes[1]}/{len(seeds)}")


if __name__ == "__main__":
    main()
