"""Report-only peak resident set size after each phase of one perfbench run.

    python3 bench/rss_phases.py --workload NAME --seed N

Runs the phases of `perfbench/run.py --trace 0` in this process, in its
order and with its code: the package import (with the modules that the
run's `env` line loads), the 31 fresh imports timed as `setup_s`, the
workload's input preparation, the first command call, the check of that
call's outputs, and 5 more calls.  After each phase it prints the
process's `ru_maxrss` in MB, so one can see which phase sets a run's
`peak_rss_mb`.  The host speed probe is left out: it runs in its own
process.  The package is imported from `src/` of the tree that holds this
script.  It gates nothing and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MORE_CALLS = 5


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(f"start          {maxrss_mb():7.2f} MB")
    import run  # perfbench's runner, which loads no module of the package
    import sparsesde.cli  # noqa: F401
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    run.environment()  # the run's env line, which loads scipy
    print(f"import         {maxrss_mb():7.2f} MB")
    for _ in range(run.SETUP_REPS):
        run.fresh_import()
    print(f"fresh imports  {maxrss_mb():7.2f} MB  ({run.SETUP_REPS})")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = wl.prepare(args.seed, False, Path(tmp))
        print(f"inputs         {maxrss_mb():7.2f} MB")
        runner = run.Runner(inputs, Path(tmp))
        code = runner.call()[1]
        print(f"first call     {maxrss_mb():7.2f} MB  (exit {code})")
        problems = wl.check(inputs, runner.out_dir)
        print(f"output check   {maxrss_mb():7.2f} MB  ({len(problems)} problems)")
        codes = [runner.call()[1] for _ in range(MORE_CALLS)]
        print(f"{MORE_CALLS} more calls   {maxrss_mb():7.2f} MB  (exits {codes})")
    return 0 if code == 0 and not problems and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
