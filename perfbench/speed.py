"""Host speed probe: how fast the CPU under the benchmark runs, moment by moment.

On a shared host a virtual CPU slows by half or more whenever another tenant
loads the core beneath it.  That state flips within a second and its mix
drifts over minutes, so the same command call can take 4 s or 7 s.  The
probe measures that speed while the calls run, and the benchmark scales
each call's wall time to a fixed reference speed.

One probe process per CPU the benchmark may use, each pinned to its CPU,
wakes every `PERIOD_S` seconds, notes which CPU the benchmark's main thread
last ran on, and times a fixed kernel in its own CPU time: waiting to be
scheduled does not count, only how fast the core executes.  The samples
taken on the CPU where the main thread was describe the speed the call saw.
The kernel mixes interpreter work with small numpy calls, as the package's
local-polynomial fits do.  Each probe takes about 3% of its CPU.

    python3 perfbench/speed.py CPU PID OUT    (started by `SpeedProbe`)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.02
# CPU seconds of one `kernel()` call on an unloaded core of the reference
# host (Intel Xeon VM, 2 vCPUs, Python 3.11, numpy 2.4); scaling by it keeps
# adjusted times close to wall seconds on that host at full speed
REF_KERNEL_S = 5.2e-4
# shared samples a time window is measured with at the least
MIN_SAMPLES = 5
START_TIMEOUT_S = 60.0


def _kernel_inputs():
    rng = np.random.default_rng(0)
    return rng.standard_normal(2000), rng.standard_normal((30, 30)) + 30 * np.eye(30)


def kernel(y, m) -> float:
    """Fixed work: an interpreter loop, then small numpy reductions and solves."""
    s = 0.0
    d = {}
    for i in range(300):
        s += (i * 0.5) % 3.0
        d[i & 63] = s
    for j in range(10):
        u = y[j * 50:(j + 1) * 50]
        s += float(np.linalg.solve(m, m[:, j % 30] * np.exp(-u * u)[:30].sum())[0])
    return s


def _main_cpu(pid: int) -> int:
    """CPU that the main thread of process `pid` last ran on."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def probe(cpu: int, pid: int, out: Path) -> None:
    """Sample the speed of `cpu` until process `pid` ends or this one is stopped."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    y, m = _kernel_inputs()
    with open(out, "w") as fh:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            try:
                main_cpu = _main_cpu(pid)
            except OSError:
                return
            c0 = time.thread_time_ns()
            kernel(y, m)
            dt = time.thread_time_ns() - c0
            fh.write(f"{time.perf_counter():.6f} {main_cpu} {dt}\n")
            fh.flush()


class SpeedProbe:
    """Probe processes on every CPU of this process, for the span of a `with`."""

    def __init__(self, work_dir: Path):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.paths = {c: work_dir / f"speed-cpu{c}.txt" for c in self.cpus}
        self.procs: list[subprocess.Popen] = []

    def __enter__(self):
        try:
            for cpu, path in self.paths.items():
                path.unlink(missing_ok=True)
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(os.getpid()), str(path)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                ))
            deadline = time.monotonic() + START_TIMEOUT_S
            while not all(p.is_file() and p.stat().st_size for p in self.paths.values()):
                if any(p.poll() is not None for p in self.procs):
                    raise RuntimeError("a speed probe exited before its first sample")
                if time.monotonic() > deadline:
                    raise RuntimeError("speed probes gave no sample in time")
                time.sleep(PERIOD_S)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self) -> None:
        for p in self.procs:
            p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []

    def shared_samples(self) -> list[tuple[float, float]]:
        """(time, kernel CPU seconds) of each sample taken where the main thread was."""
        found = []
        for cpu, path in self.paths.items():
            for line in path.read_text().splitlines():
                t, main_cpu, dt = line.split()
                if int(main_cpu) == cpu:
                    found.append((float(t), int(dt) * 1e-9))
        return sorted(found)


def slowdowns(samples: list[tuple[float, float]],
              windows: list[tuple[float, float]]) -> list[float]:
    """Mean kernel time over `REF_KERNEL_S` within each (start, end) window.

    A window with fewer than `MIN_SAMPLES` samples inside it is measured by
    the `MIN_SAMPLES` samples nearest its middle.
    """
    if len(samples) < MIN_SAMPLES:
        raise RuntimeError(f"only {len(samples)} speed samples on the benchmark's CPU")
    found = []
    for t0, t1 in windows:
        inside = [dt for t, dt in samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            inside = [dt for _, dt in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        found.append(statistics.fmean(inside) / REF_KERNEL_S)
    return found


if __name__ == "__main__":
    probe(int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]))
