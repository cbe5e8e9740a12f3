"""Benchmark of the sparsesde command-line interface, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One run makes the workload's
inputs from the seed, then calls `sparsesde.cli.main` in-process on them
until S seconds have passed (at least three calls), checks the outputs of
the first call against reference code and the moment oracle, and requires
every later call to write byte-identical outputs.

With `--trace 0` the calls are untraced and the end-to-end metrics are
reported: `setup_s` (median of repeated fresh imports of the package),
`wall_adj_s` (median seconds per command call) and `peak_rss_mb`.  Both
times are scaled to a fixed reference host speed by the probe in
`speed.py`, which measures how fast the benchmark's CPU ran during each
call and during the imports; the raw wall times are printed as `info`
lines.  With
`--trace 1` untraced and traced calls alternate; the per-layer metrics are
medians over the traced calls and `trace.overhead_s` is the traced minus
the untraced median.  Spans are written to
`perfbench/out/trace-<workload>-seed<seed>.json` at the end.

Stdout carries one `env` line (machine and library record), one `quality`
line (seed-exact error figures and the failed-operation share of the
workload), one line per metric, and last the result object
`{"correct", "attempted", "failed", "metrics"}`.  `--smoke` shrinks every
workload to seconds for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_REPS = 31
MIN_CALLS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    return ap.parse_args(argv)


def fresh_import() -> float:
    """Seconds to import the package again, third-party modules already loaded."""
    for key in [k for k in sys.modules if k == "sparsesde" or k.startswith("sparsesde.")]:
        del sys.modules[key]
    t0 = time.perf_counter()
    import sparsesde.cli  # noqa: F401

    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_runtime": _openblas_runtime(),
    }
    return env


def _openblas_runtime() -> list[dict]:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    symbols = [
        (f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
        for prefix in ("scipy_openblas_", "openblas_")
        for suffix in ("64_", "")
    ]
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for config_name, threads_name in symbols:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                get_config = getattr(lib, config_name)
                get_config.restype = ctypes.c_char_p
                get_threads = getattr(lib, threads_name)
                get_threads.restype = ctypes.c_int
                found.append({
                    "lib": Path(path).name,
                    "config": get_config().decode().strip(),
                    "threads": get_threads(),
                })
                break
    return found


def digest(out_dir: Path) -> tuple[dict[str, str], int]:
    """sha256 of each output file, and their total size in bytes."""
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    return (
        {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        sum(p.stat().st_size for p in files),
    )


class Runner:
    """Command calls of one run, each into a fresh output directory."""

    def __init__(self, inputs, work_dir: Path):
        from sparsesde import cli

        self.cli = cli
        self.inputs = inputs
        self.out_dir = work_dir / "call"
        self.calls = 0

    def call(self, tracer=None) -> tuple[float, int, str]:
        """One command call: (seconds, exit code, stderr)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.inputs.argv(self.out_dir)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if tracer is None:
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                wall = time.perf_counter() - t0
            else:
                with tracer.command_call(self.calls) as root:
                    code = self.cli.main(argv)
                wall = root["end"] - root["start"]
        self.calls += 1
        return wall, code, err.getvalue()


def run(args) -> int:
    if not (SRC / "sparsesde" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sparsesde.cli  # noqa: F401

    cold_import_s = time.perf_counter() - t0
    if not Path(sys.modules["sparsesde"].__file__).resolve().is_relative_to(SRC):
        print("error: sparsesde was not imported from src/", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment()
    work_dir = OUT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        # the end-to-end times are scaled by the host speed seen while they ran
        with (contextlib.nullcontext() if args.trace else speed.SpeedProbe(work_dir)) as probe:
            t0 = time.perf_counter()
            setup = [fresh_import() for _ in range(SETUP_REPS)]
            setup_window = (t0, time.perf_counter())
            inputs = wl.prepare(args.seed, args.smoke, work_dir)
            runner = Runner(inputs, work_dir)
            result = measure(args, spec, wl, runner, inputs, env)
        if probe is not None:
            scale_by_speed(result, probe, setup, setup_window)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values, units = result.pop("values"), result.pop("units")
    if set(values) != set(units):
        result["problems"].append(
            f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
        result["correct"] = False
    result["metrics"] = {k: {"value": values[k], "unit": units.get(k, "?")} for k in sorted(values)}
    del result["untraced"], result["windows"]
    print("env " + json.dumps(env, sort_keys=True))
    print("quality " + json.dumps(
        {k: {"value": v, "unit": u} for k, (v, u) in result.pop("quality").items()}
    ))
    print(f"info cold_import_s {cold_import_s:.4f} s; setup reps {len(setup)}")
    for problem in result.pop("problems"):
        print(f"problem {problem}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for line in result.pop("notes"):
        print(f"info {line}")
    print(json.dumps(result))
    return 0


def measure(args, spec, wl, runner, inputs, env) -> dict:
    problems: list[str] = []
    notes: list[str] = []
    failed = 0
    reference = None  # output digest of the checked first call
    reference_ok = False
    quality: dict = {}
    untraced: list[float] = []
    windows: list[tuple[float, float]] = []  # (start, end) of each untraced call
    traced: list[float] = []
    per_call: list[dict] = []
    bytes_written: list[int] = []
    tracer = tracing.Tracer() if args.trace else None
    missing: list[str] = []

    deadline = time.perf_counter() + args.seconds
    while True:
        use_trace = bool(args.trace) and len(untraced) > len(traced)
        if use_trace:
            before = len(tracer.spans)
            with tracer.installed() as missing:
                wall, code, err = runner.call(tracer)
            spans = tracer.spans[before:]
            traced.append(wall)
        else:
            t0 = time.perf_counter()
            wall, code, err = runner.call()
            windows.append((t0, time.perf_counter()))
            untraced.append(wall)
        ok = code == 0
        if not ok:
            problems.append(f"call {runner.calls - 1} exited {code}: {err.strip()[-300:]}")
        else:
            files, size = digest(runner.out_dir)
            bytes_written.append(size)
            if reference is None:
                try:
                    found = wl.check(inputs, runner.out_dir)
                    quality = wl.quality(inputs, runner.out_dir)
                except Exception as exc:  # a malformed output must fail the run, not crash it
                    found = [f"output check raised {type(exc).__name__}: {exc}"]
                problems += found
                ok = reference_ok = not found
                reference = files
            elif files != reference:
                ok = False
                kind = "traced" if use_trace else "untraced"
                problems.append(f"{kind} call {runner.calls - 1} outputs differ from the first")
            else:
                ok = reference_ok
        if use_trace:
            seen = tracing.layers_seen(spans)
            lacking = sorted(set(wl.layers) - seen)
            if lacking:
                ok = False
                problems.append(f"traced call recorded no span in layers {lacking}")
            per_call.append(tracing.call_metrics(spans))
        failed += not ok
        enough = len(untraced) >= MIN_CALLS and (not args.trace or len(traced) >= MIN_CALLS)
        if enough and time.perf_counter() >= deadline:
            break

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = tracing.median_metrics(per_call)
        values["cli.bytes_written"] = float(statistics.median(bytes_written or [0]))
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        if missing:
            notes.append(f"trace targets not found: {missing}")
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "env": env,
            "untraced_wall_s": untraced, "traced_wall_s": traced,
            "per_call": per_call, "spans": tracer.spans,
        }))
        notes.append(f"spans written to {trace_path.relative_to(HERE.parent)}")
    else:
        # setup_s and wall_adj_s are filled in by scale_by_speed
        values = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": failed == 0 and not problems,
        "attempted": runner.calls,
        "failed": failed,
        "values": values,
        "units": units,
        "untraced": untraced,
        "windows": windows,
        "quality": quality,
        "problems": problems,
        "notes": notes,
    }


def _summary(name: str, xs: list[float]) -> str:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return (f"{name} over {len(xs)}: min {min(xs):.4f} q1 {q[0]:.4f} "
            f"median {statistics.median(xs):.4f} q3 {q[2]:.4f} max {max(xs):.4f}")


def scale_by_speed(result: dict, probe, setup: list[float], setup_window) -> None:
    """Fill in setup_s and wall_adj_s: raw times over the host slowdown they ran at."""
    notes = result["notes"]
    try:
        slow = speed.slowdowns(probe.shared_samples(), [setup_window] + result["windows"])
    except RuntimeError as exc:
        result["problems"].append(f"host speed unknown: {exc}")
        result["correct"] = False
        return
    wall = result["untraced"]
    adjusted = [w / s for w, s in zip(wall, slow[1:])]
    result["values"]["setup_s"] = statistics.median(setup) / slow[0]
    result["values"]["wall_adj_s"] = statistics.median(adjusted)
    notes.append(f"raw setup median {statistics.median(setup):.4f} s over {len(setup)} imports; "
                 f"host slowdown {slow[0]:.4f} while they ran")
    notes.append(_summary("raw wall_s per call", wall))
    notes.append(_summary("host slowdown per call", slow[1:]))
    notes.append(_summary("wall_adj_s per call", adjusted))
    notes.append("raw wall_s per call in order: " + " ".join(f"{w:.4f}" for w in wall))
    notes.append("host slowdown per call in order: " + " ".join(f"{s:.4f}" for s in slow[1:]))


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
