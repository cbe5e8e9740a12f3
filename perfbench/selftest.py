"""Tests of the benchmark itself, on the tiny `--smoke` sizes.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Kept out of the package's test suite on purpose: the file name does not
match pytest's default pattern, so `pytest` from the repository root does
not collect it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import speed  # noqa: E402
from sparsesde import cli  # noqa: E402
from workloads import WORKLOADS, sample_cells  # noqa: E402


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One smoke run of the benchmark: (result object, quality record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    quality = next(json.loads(ln[len("quality "):]) for ln in lines if ln.startswith("quality "))
    return json.loads(lines[-1]), quality


_cached_run = functools.lru_cache(maxsize=None)(_run)


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result, quality = _cached_run(name, 1, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, units)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    self.assertIn("failed_frac", quality)
                    for v in quality.values():
                        self.assertTrue(v["unit"])

    def test_same_seed_gives_identical_quality(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(_cached_run(name, 1, 0)[1], _run(name, 1, 0)[1])

    def test_checks_pass_on_another_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, _ = _run(name, 2, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        (HERE / "out").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
        self.addCleanup(shutil.rmtree, self.work, True)

    def _estimate(self):
        wl = WORKLOADS["estimate_n1600"]
        inputs = wl.prepare(3, True, self.work)
        out = self.work / "call"
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cli.main(inputs.argv(out)), 0)
        return wl, inputs, out

    def test_check_accepts_the_command_outputs(self):
        wl, inputs, out = self._estimate()
        self.assertEqual(wl.check(inputs, out), [])

    def test_check_catches_a_perturbed_surface(self):
        wl, inputs, out = self._estimate()
        G = wl.smoke_sizes["G"]
        path = out / "surface.csv"
        lines = path.read_text().splitlines()

        def line_of(i, j):  # rows run over the upper triangle, row by row
            return 1 + sum(G - k for k in range(i)) + (j - i)

        i, j = next(c for c in sample_cells(G) if lines[line_of(*c)].endswith(",0"))
        row = line_of(i, j)
        cells = lines[row].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-8))
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        problems = wl.check(inputs, out)
        self.assertTrue(any(f"({i},{j})" in p for p in problems), problems)


class SpeedScaling(unittest.TestCase):
    def test_each_window_averages_the_samples_inside_it(self):
        ref = speed.REF_KERNEL_S
        samples = [(t * 0.1, ref * (1 if t < 10 else 2)) for t in range(20)]
        self.assertEqual(speed.slowdowns(samples, [(0.0, 0.95), (1.0, 1.95)]), [1.0, 2.0])

    def test_a_short_window_takes_the_nearest_samples(self):
        ref = speed.REF_KERNEL_S
        samples = [(t * 0.1, ref * (1 + t)) for t in range(20)]
        # no sample inside; the five nearest to 1.02 are t = 0.8 .. 1.2
        self.assertAlmostEqual(speed.slowdowns(samples, [(1.01, 1.03)])[0], 11.0)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(RuntimeError):
            speed.slowdowns([(0.0, 1e-3)], [(0.0, 1.0)])

    def test_probes_sample_and_end(self):
        (HERE / "out").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out"))
        self.addCleanup(shutil.rmtree, work, True)
        with speed.SpeedProbe(work) as probe:
            procs = list(probe.procs)
            self.assertEqual(len(procs), len(probe.cpus))
            deadline = time.monotonic() + 30
            while len(probe.shared_samples()) < speed.MIN_SAMPLES:
                self.assertLess(time.monotonic(), deadline)
                sum(i * i for i in range(10**5))  # keep this process on a CPU
        self.assertTrue(all(p.poll() is not None for p in procs))


if __name__ == "__main__":
    unittest.main()
