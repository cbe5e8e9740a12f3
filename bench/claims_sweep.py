"""Report-only sweep of the seed-dependent acceptance claims over master seeds.

Runs the studies of criteria 2, 4, 5/6 and 7 as `tests/claims.py` defines
them for tests/test_acceptance.py (the same data sizes and gates) at each
seed.  Per seed and criterion it prints PASS or FAIL, the margin (the
distance inside the bound: zero at the bound, where an inclusive bound
passes and a strict one fails) and the acceptance record.  Under criterion
6 it gives, from `run_emse`, the median EMSE(mu) on t < 0.9 | on t >= 0.9
at every n and the median time at which |xi2_hat - xi2| peaks, and the
least-squares slope on log n of the log median EMSE(mu), in total and on
t < 0.9, and of the log median sup |xi2_hat - xi2|, beside -4/7: the rate
of the MSE that the mean bandwidth rule h ~ N^(-1/7) targets for m' (d = 2;
Fan & Gijbels 1996, ch. 3).  A study
that raises a SparseSdeError fails its criteria at that seed.  Pass counts
are given for seeds 1-8 (development) and the other seeds (held out) apart.
It gates nothing and pytest does not collect it.

    PYTHONPATH=src python3 bench/claims_sweep.py [--seeds 1 2 3 ...]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import claims  # noqa: E402
from sparsesde.errors import SparseSdeError  # noqa: E402


def log_slope(xs, ys) -> float:
    """Least-squares slope of log ys on log xs."""
    x, y = np.log(xs), np.log(ys)
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 17)))
    seeds = ap.parse_args(argv).seeds
    passes = {num: [0, 0] for num in claims.CRITERIA}  # development, held out
    for seed in seeds:
        print(f"seed {seed}")
        found = {}
        for num, (study, verdict) in claims.CRITERIA.items():
            if study not in found:
                try:
                    found[study] = study(seed)
                except SparseSdeError as exc:
                    found[study] = None
                    print(f"  {study.__name__} raised {type(exc).__name__}: {exc}")
            if found[study] is None:
                ok, margin, detail = False, float("nan"), "study raised"
            else:
                ok, margin, detail = verdict(found[study])
            passes[num][not 1 <= seed <= 8] += ok
            print(f"  c{num} {'PASS' if ok else 'FAIL'} {margin:+.3f}  {detail}")
            if num == 6 and found[study] is not None:
                part = found[study]["breakdown"]

                def cols(key):
                    return "/".join(f"{part[n][key]:.3f}" for n in claims.N_VALUES)

                print(f"     EMSE(mu) t<0.9 | t>=0.9 {cols('emse_mu_inner')} | "
                      f"{cols('emse_mu_edge')}; argmax t of xi2 error {cols('argmax_xi2')}")
                meds = found[study]["medians"]

                def slope(table, key):
                    return log_slope(claims.N_VALUES, [table[n][key] for n in claims.N_VALUES])

                print(f"     slope on log n: EMSE(mu) {slope(meds, 'emse_mu'):+.3f}, "
                      f"t<0.9 {slope(part, 'emse_mu_inner'):+.3f}; "
                      f"sup xi2 error {slope(meds, 'sup_xi2'):+.3f}; "
                      f"bandwidth rule targets {-4 / 7:+.3f} (-4/7)")
    dev = sum(1 <= seed <= 8 for seed in seeds)
    for num, (a, b) in passes.items():
        print(f"criterion {num} passes {a}/{dev} at seeds 1-8 (development), "
              f"{b}/{len(seeds) - dev} held out")


if __name__ == "__main__":
    main()
