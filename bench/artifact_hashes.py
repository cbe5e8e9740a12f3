"""Report-only hashes of every CLI artifact, to show that a change keeps them.

Runs all six subcommands in-process (`sparsesde.cli.main`) on four small
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
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: dict, command: str, seed: int, tmp: Path) -> list[str]:
    """Report lines of one CLI run in the empty directory `tmp`."""
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **config}))
    out_dir = tmp / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([command, "--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(out_dir)])
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
