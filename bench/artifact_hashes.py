"""Report-only hashes of every CLI artifact, to show that a change keeps them.

Runs all six subcommands in-process (`sparsesde.cli.main`) on five small
configs at master seeds 7 and 8, each run into a fresh temporary directory:

  fraction  known-fraction policy, tracking mu, s and xi2
  diag      d_mean 1, d_cov 2, gaussian-truncated kernel, diagonal
            separation source, known-sigma policy
  sparse    a sparse panel (n = 25, r = 3, narrow bandwidths) whose mean
            and surface windows widen, known-xi policy, t* = 0.37 between
            grid points
  jumpy     nu_K = 1000, so each path carries ~1,000 jumps and the
            simulator keeps dense counts (the other configs' ~1 jump a
            path takes its Poisson replay), known-fraction policy
  cubic     d_mean 3, d_cov 3, so the fits read the degree-3 feature rows
            and bases, known-fraction policy

and then `estimate` and `bootstrap` at each seed on a wide CSV it writes
(`--obs-csv --wide`): 40 curves on 24 midpoint columns, about half the
cells empty, so every time is shared by several curves and the fit windows
hold more rows than distinct times; h_m 0.05, h_G 0.08, t* = 0.37.

For each run it prints the exit code, then one sha256 per output file and
one each for stdout and stderr, with the temporary directory masked as
<out>.  It gates nothing and pytest does not collect it.  Diff its output
from two trees to see whether they write the same bytes:

    python3 bench/artifact_hashes.py > a.txt   # in each tree
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparsesde.cli import main as cli_main  # noqa: E402

COMMANDS = ("simulate", "observe", "estimate", "emse", "bootstrap", "oracle-check")
SEEDS = (7, 8)
_SMALL = {"sim_steps": 200, "replications": 3, "B": 40, "mc_paths": 400}
CONFIGS = {
    "fraction": {
        "design": {"n": 60, "r": 8},
        "estimation": {
            "eval_points": 21,
            "policy": {"kind": "known-fraction", "expr": "0.5"},
        },
        "experiment": {**_SMALL, "track": ["mu", "s", "xi2"]},
    },
    "diag": {
        "design": {"n": 60, "r": 8},
        "estimation": {
            "d_mean": 1,
            "d_cov": 2,
            "kernel": "gaussian-truncated",
            "separation_source": "diag",
            "eval_points": 21,
            "policy": {"kind": "known-sigma", "expr": "0.25 * sin(t)**2"},
        },
        "experiment": dict(_SMALL),
    },
    "sparse": {
        "design": {"n": 25, "r": 3},
        "estimation": {
            "h_m": 0.04,
            "h_G": 0.04,
            "eval_points": 21,
            "policy": {"kind": "known-xi", "expr": "sin(t)**2"},
        },
        "experiment": {**_SMALL, "t_star": 0.37},
    },
    "jumpy": {
        "model": {"nu_K": 1000.0},
        "design": {"n": 60, "r": 8},
        "estimation": {
            "eval_points": 21,
            "policy": {"kind": "known-fraction", "expr": "0.5"},
        },
        "experiment": dict(_SMALL),
    },
    "cubic": {
        "design": {"n": 60, "r": 8},
        "estimation": {
            "d_mean": 3,
            "d_cov": 3,
            "eval_points": 21,
            "policy": {"kind": "known-fraction", "expr": "0.5"},
        },
        "experiment": dict(_SMALL),
    },
}

# the wide-CSV run: tied design times, narrow bandwidths, t* between columns
WIDE_COMMANDS = ("estimate", "bootstrap")
WIDE_CONFIG = {
    "estimation": {
        "h_m": 0.05,
        "h_G": 0.08,
        "eval_points": 21,
        "policy": {"kind": "known-fraction", "expr": "0.5"},
    },
    "experiment": {**_SMALL, "t_star": 0.37},
}
_WIDE_COLUMNS, _WIDE_CURVES = 24, 40


def write_wide_csv(path: Path, seed: int) -> None:
    """An id column and `_WIDE_COLUMNS` value columns, about half the cells empty;
    every curve keeps at least two values."""
    rng = np.random.default_rng(seed)
    t = (np.arange(_WIDE_COLUMNS) + 0.5) / _WIDE_COLUMNS
    lines = [",".join(["id"] + [f"d{j + 1}" for j in range(_WIDE_COLUMNS)])]
    for i in range(_WIDE_CURVES):
        y = 1.0 + t + 0.3 * rng.standard_normal() + 0.1 * rng.standard_normal(t.size)
        keep = rng.random(t.size) < 0.5
        keep[rng.choice(t.size, 2, replace=False)] = True
        lines.append(",".join([f"c{i}"] + [repr(float(v)) if k else "" for v, k in zip(y, keep)]))
    path.write_text("\n".join(lines) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: dict, command: str, seed: int, tmp: Path, extra: tuple = ()) -> list[str]:
    """Report lines of one CLI run in the empty directory `tmp`, with `extra`
    appended to its arguments."""
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **config}))
    out_dir = tmp / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([command, "--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(out_dir), *extra])
    lines = [f"exit {code}"]
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
        lines.append(f"{path.name} {_sha(path.read_bytes())}")
    for name, stream in (("stdout", stdout), ("stderr", stderr)):
        lines.append(f"{name} {_sha(stream.getvalue().replace(str(out_dir), '<out>').encode())}")
    return lines


def main() -> int:
    for label, config in CONFIGS.items():
        for seed in SEEDS:
            for command in COMMANDS:
                with tempfile.TemporaryDirectory() as tmp:
                    lines = run(config, command, seed, Path(tmp))
                print(f"{label} seed {seed} {command}: {lines[0]}")
                for line in lines[1:]:
                    print(f"  {line}")
    for seed in SEEDS:
        for command in WIDE_COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                csv_path = Path(tmp) / "wide.csv"
                write_wide_csv(csv_path, seed)
                lines = run(WIDE_CONFIG, command, seed, Path(tmp),
                            ("--obs-csv", str(csv_path), "--wide"))
            print(f"wide seed {seed} {command}: {lines[0]}")
            for line in lines[1:]:
                print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
