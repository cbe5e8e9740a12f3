"""Report-only A/B of two trees on one benchmark workload, in alternating pairs.

    python3 bench/ab_pairs.py --parent DIR --change DIR --workload NAME --pairs N --seconds S

DIR is the root of a checkout (holding `perfbench/` and `src/`).  Pair i
runs `perfbench/run.py --trace 0` once in each tree at its own fresh seed,
FIRST_SEED + i, one run at a time; the order alternates (parent first in
even pairs, change first in odd ones) so that a drift of the host's speed
does not favour one side.  For every end-to-end metric of BENCHMARK.json
it prints each pair's two values and the host slowdown of each run, then
per side the median, q1 and q3 over the pairs, and how many pairs the
change won (a strictly better value in the metric's `better` direction).
It gates nothing and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from perf_record import SPEC, bench

FIRST_SEED = 901
SIDES = ("parent", "change")


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by `statistics.quantiles` as perfbench's summaries."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q[0], statistics.median(xs), q[2]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for side in SIDES:
        ap.add_argument(f"--{side}", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    metrics = SPEC["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    ok = True
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        row = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            _, result = bench(args.workload, seed, 0, args.seconds, getattr(args, side).resolve())
            ok &= bool(result["correct"]) and not result["problems"]
            row[side] = result
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        cols = " ".join(
            f"{m['name']} {row['parent']['metrics'][m['name']]['value']:.6g}"
            f" -> {row['change']['metrics'][m['name']]['value']:.6g}"
            for m in metrics
        )
        slow = " -> ".join(f"{row[side]['host_slowdown']}" for side in SIDES)
        correct = " ".join(f"{row[side]['correct']}" for side in SIDES)
        print(f"pair {i} seed {seed}: {cols}; host slowdown {slow}; correct {correct}",
              flush=True)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        for side in SIDES:
            q1, med, q3 = quartiles(values[side][name])
            print(f"{name} {side}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} {m['unit']}")
        par, chg = statistics.median(values["parent"][name]), statistics.median(values["change"][name])
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"][name], values["change"][name])
        )
        print(f"{name}: change won {wins} of {args.pairs} pairs; "
              f"median change {100 * (chg - par) / par:+.1f} %")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
