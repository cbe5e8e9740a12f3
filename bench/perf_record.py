"""Record the benchmark's medians, end to end and per layer, in BENCH_<label>.json.

Runs `perfbench/run.py` for every workload of BENCHMARK.json at each seed,
once with `--trace 0` (the end-to-end metrics) and once with `--trace 1`
(the per-layer metrics), one run at a time, and writes the median over the
seeds of every metric, with the per-seed values, to `BENCH_<label>.json` at
the root of the repository.  The record also holds the `env` line of the
runs (machine and library versions) and whether every run was `correct`.
The script only calls the benchmark; it changes nothing under perfbench/.

perfbench scales `wall_adj_s` and `setup_s` to a reference host speed, but
not the traced per-layer times.  So each workload also records
`host_slowdown`: the median host slowdown per call that its `--trace 0` run
printed, per seed and its median over the seeds.  Dividing a layer time by
it puts records from different sessions on one scale.

perfbench loads third-party modules before its timed regions, so it cannot
see the cost of a cold start.  The record therefore also holds the median
over five fresh interpreters of the wall time of `import sparsesde.cli` and
of the interpreter's peak resident set size (`ru_maxrss`) after it.

    python3 bench/perf_record.py --label NAME

Each run lasts BENCHMARK.json's `run_seconds`, at seeds 1, 2 and 3, so a
record takes 18 runs, about ten minutes at 30 s a run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2, 3)
COLD_RUNS = 5
# one fresh interpreter: seconds to import the CLI, then its peak RSS in MB
COLD_PROBE = (
    "import resource, time; t = time.perf_counter(); import sparsesde.cli; "
    "t = time.perf_counter() - t; "
    "print(t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


# perfbench's note on the host speed of an untraced run's calls
SLOWDOWN = re.compile(r"^info host slowdown per call over \d+: .* median (\S+) ")


def bench(workload: str, seed: int, trace: int, seconds: float | None = None,
          tree: Path = ROOT) -> tuple[dict, dict]:
    """(env, result) of one perfbench run of `tree`; raises if the run does not
    finish.  The result's `host_slowdown` is the median host slowdown per call
    that a `--trace 0` run printed, or None."""
    seconds = SPEC["run_seconds"] if seconds is None else seconds
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr[-500:]}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    result["problems"] = [ln[8:] for ln in lines if ln.startswith("problem ")]
    slow = [float(m[1]) for m in map(SLOWDOWN.match, lines) if m]
    result["host_slowdown"] = slow[0] if slow else None
    return env, result


def cold_start() -> dict:
    """Medians over COLD_RUNS fresh interpreters of the import time and peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = [
        subprocess.run([sys.executable, "-c", COLD_PROBE], capture_output=True, text=True,
                       env=env, check=True).stdout.split()
        for _ in range(COLD_RUNS)
    ]
    return {
        metric: {"median": statistics.median(v), "unit": unit, "values": v}
        for metric, unit, v in (
            ("import_s", "s", [float(r[0]) for r in runs]),
            ("maxrss_mb", "MB", [float(r[1]) for r in runs]),
        )
    }


def record(workloads: list[str]) -> dict:
    envs: list[dict] = []
    out: dict = {}
    for name in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        correct, problems, slowdowns = True, [], []
        for seed in SEEDS:
            for trace in (0, 1):
                env, result = bench(name, seed, trace)
                envs.append(env)
                correct &= bool(result["correct"])
                problems += [f"seed {seed} trace {trace}: {p}" for p in result["problems"]]
                if trace == 0 and result["host_slowdown"] is not None:
                    slowdowns.append(result["host_slowdown"])
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                    units[metric] = m["unit"]
                print(f"{name} seed {seed} trace {trace}: correct {result['correct']}", flush=True)
        out[name] = {
            "correct": correct,
            "problems": problems,
            "host_slowdown": {
                "median": statistics.median(slowdowns) if slowdowns else None,
                "values": slowdowns,
            },
            "metrics": {
                metric: {"median": statistics.median(v), "unit": units[metric], "values": v}
                for metric, v in sorted(values.items())
            },
        }
    return {
        "env": envs[0],
        "env_same_in_every_run": all(e == envs[0] for e in envs),
        "seeds": list(SEEDS),
        "seconds": SPEC["run_seconds"],
        "cold_start": cold_start(),
        "workloads": out,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    rec = record([w["name"] for w in SPEC["workloads"]])
    dest = ROOT / f"BENCH_{args.label}.json"
    dest.write_text(json.dumps(rec, indent=1) + "\n")
    for name, wl in rec["workloads"].items():
        for metric in ("wall_adj_s", "peak_rss_mb", "setup_s"):
            m = wl["metrics"][metric]
            print(f"{name} {metric} median {m['median']:.6g} {m['unit']}")
        print(f"{name} host_slowdown median {wl['host_slowdown']['median']}")
    for metric, m in rec["cold_start"].items():
        print(f"cold start {metric} median {m['median']:.6g} {m['unit']}")
    print(f"wrote {dest.relative_to(ROOT)}")
    return 0 if all(wl["correct"] for wl in rec["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
