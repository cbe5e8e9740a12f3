"""Report-only input fuzz battery of the six CLI subcommands.

Every case runs in this process through `sparsesde.cli.main`, into a fresh
temporary directory, in one of two batteries:

  config  tiny base configs (a sinusoid model with a known-fraction policy,
          a constant model with normal x0, clipped-linear design and the
          diagonal route, that model as an emse study over two sample
          sizes, an expression model with a known-xi policy), each with one
          schema leaf replaced by each value of VALUES, for each subcommand
          the base is used for (all six, or those ONLY names); then the
          valid extremes of EXTREMES on the first base.  NaN and Infinity
          are written as the tokens Python's `json` accepts.
  file    malformed and edge-case `--obs-csv` files, long and `--wide`, for
          estimate and bootstrap, each with no `--rescale-time`, with [0, 2]
          and with [1, 1].

A case is a defect when the command exits with a code outside {0, 2}
(oracle-check may also exit 1), raises out of `main` (a traceback), prints
a Warning to stderr, or exits 2 with an error longer than one line.  The
fits see one CPU (the affinity set reads {0}), so nothing forks and every
warning reaches the captured stderr; every warning is shown, not only the
first from a line.  It first runs every base unmutated and prints each run
that does not exit 0 (`base_failures`), then runs both full batteries and
prints one line per defect and a count per battery; it gates nothing and
pytest does not collect it.  A seeded sample is
`run_battery(draw(config_cases(), k, seed))`, as the tier-1 suite runs it:

    PYTHONPATH=src python3 bench/fuzz_inputs.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparsesde.cli import main as cli_main  # noqa: E402
from sparsesde.simulate import _REPLAY_JUMPS  # noqa: E402

COMMANDS = ("simulate", "observe", "estimate", "emse", "bootstrap", "oracle-check")
_TINY = {"sim_steps": 50, "replications": 2, "B": 20, "mc_paths": 50}
_CONSTANT = {
    "schema_version": 1,
    "model": {"kind": "builtin", "name": "constant", "driver_variance_scale": 2.0,
              "params": {"mu": -1.0, "sigma2": 0.04, "xi2": 0.09},
              "x0": {"kind": "normal", "mean": 1.0, "sd": 0.2}},
    "design": {"n": 20, "r": 4, "noise_law": "uniform",
               "design_law": {"kind": "clipped-linear", "floor": 0.3}},
    "estimation": {"eval_points": 11, "d_mean": 1, "d_cov": 2, "kernel": "gaussian-truncated",
                   "separation_source": "diag",
                   "policy": {"kind": "known-sigma", "expr": "0.04"}},
    "experiment": {**_TINY, "master_seed": 4, "negative_control": False},
}
BASES = {
    "sinusoid": {
        "schema_version": 1,
        "model": {"kind": "builtin", "name": "sinusoid", "span": [0.0, 1.0], "nu_K": 1.0,
                  "x0": {"kind": "point", "value": 1.0}},
        "design": {"n": 20, "r": 4, "noise_sd": 0.1, "design_law": {"kind": "uniform"}},
        "estimation": {"eval_points": 11, "h_m": "auto", "h_G": "auto", "epsilon": 0.1,
                       "mu_threshold": "auto",
                       "policy": {"kind": "known-fraction", "expr": "0.5"}},
        "experiment": {**_TINY, "master_seed": 3, "t_star": 0.5, "track": ["mu", "s", "xi2"]},
    },
    "constant": _CONSTANT,
    # a list of sample sizes, which only an emse study takes (see ONLY)
    "study": {**_CONSTANT, "design": {**_CONSTANT["design"], "n": [20, 30]}},
    "expressions": {
        "schema_version": 1,
        "model": {"kind": "expressions", "span": [1.0, 3.0], "mu": "-0.5 + 0*t",
                  "sigma": "0.3", "xi": "0.2 + 0.1*t"},
        "design": {"n": 20, "r": 4},
        "estimation": {"eval_points": 11, "policy": {"kind": "known-xi", "expr": "0.01"}},
        "experiment": {**_TINY, "master_seed": 5, "track": ["mu", "xi2"]},
        "output": {"directory": "out"},
    },
}
# base -> the commands its cases run, where not all of COMMANDS
ONLY = {"study": ("emse",)}
VALUES = (
    "x", True, None, 0, 1, -1, 1e300, -1e300, 1e-300, [], [1.0, 2.0], {}, {"kind": "x"},
    float("nan"), float("inf"), float("-inf"),
)
# (leaf path, value) pairs that are valid but extreme, applied to the first base
EXTREMES = (
    (("model", "x0"), {"kind": "normal", "mean": 0.0, "sd": 1e100}),
    (("model", "span"), [0.0, 1e-9]),
    (("model", "span"), [0.0, 1e6]),
    (("model", "nu_K"), 1e12),
    (("model", "nu_K"), 1e-12),
    # on the unit span lam * sim_steps is nu_K: just below, at and just above
    # the expected jumps a path from which the simulator stops replaying counts
    *((("model", "nu_K"), math.nextafter(_REPLAY_JUMPS, to))
      for to in (0.0, _REPLAY_JUMPS, math.inf)),
    (("estimation", "h_m"), 1e-6),
    (("estimation", "h_G"), 1e-6),
    (("design", "noise_sd"), 1e6),
    (("design", "n"), 1),
    (("design", "n"), 2),
    (("design", "r"), 2),
)


def _leaves(node, path=()):
    """Paths of every value below `node`: dict entries and list items, nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))


def _with(config: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(config)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def base_cases() -> list[tuple]:
    """(command, config, no file) of each base, unmutated, on each command it is used for."""
    return [(command, base, None) for name, base in BASES.items()
            for command in ONLY.get(name, COMMANDS)]


def config_cases() -> list[tuple]:
    """(command, config, no file) of every config case."""
    cases = [(command, _with(base, path, v), None) for command, base, _ in base_cases()
             for path in _leaves(base) for v in VALUES]
    first = next(iter(BASES.values()))
    mutated = [_with(first, path, v) for path, v in EXTREMES]
    return cases + [(command, config, None) for config in mutated for command in COMMANDS]


def _long(rows) -> str:
    return "curve_id,t,y\n" + "".join(f"{c},{t},{y}\n" for c, t, y in rows)


def _panel(n=12, r=4, scale=1.0) -> list[tuple]:
    rng = random.Random(11)
    rows = []
    for c in range(n):
        for t in sorted(rng.uniform(0.0, scale) for _ in range(r)):
            rows.append((c, repr(t), repr(1.0 + 0.3 * t + 0.05 * rng.gauss(0, 1))))
    return rows


def _wide(rows, ids=True) -> str:
    head = ["id"] * ids + [f"d{j}" for j in range(len(rows[0]))]
    lines = [",".join(head)]
    lines += [",".join([f"c{i}"] * ids + list(row)) for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def _wide_panel(n=12, cols=6) -> list[list[str]]:
    rng = random.Random(13)
    return [[repr(1.0 + 0.1 * j + 0.05 * rng.gauss(0, 1)) for j in range(cols)] for _ in range(n)]


def _files() -> dict[str, tuple[str, bool]]:
    """name -> (file text, whether it is wide)."""
    good = _panel()
    bad = lambda i, cell: good[:i] + [cell] + good[i + 1 :]  # noqa: E731
    long = {
        "empty": "",
        "header only": "curve_id,t,y\n",
        "wrong header": "id,time,value\n0,0.5,1\n",
        "spaced header": " curve_id , t , y \n" + _long(good).split("\n", 1)[1],
        "valid": _long(good),
        "times on [0, 2]": _long(_panel(scale=2.0)),
        "nan time": _long(bad(5, (1, "nan", "1.0"))),
        "inf time": _long(bad(5, (1, "inf", "1.0"))),
        "nan value": _long(bad(5, (1, "0.5", "nan"))),
        "inf value": _long(bad(5, (1, "0.5", "inf"))),
        "huge values": _long([(c, t, "1e308") for c, t, _ in good]),
        "zero values": _long([(c, t, "0") for c, t, _ in good]),
        "text cell": _long(bad(5, (1, "0.5", "abc"))),
        "two fields": _long(good) + "3,0.5\n",
        "four fields": _long(good) + "11,0.99,1.0,7\n",
        "float id": _long(bad(5, ("1.5", "0.5", "1.0"))),
        "negative id": _long([(-1, "0.1", "1.0"), (-1, "0.2", "1.0")] + good),
        "id gap": _long([(c + (c > 3), t, y) for c, t, y in good]),
        "huge id": _long(good + [(10**12, "0.5", "1.0"), (10**12, "0.6", "1.0")]),
        "unsorted": _long(good[::-1]),
        "equal times": _long([(c, "0.5", y) for c, _, y in good]),
        "time outside": _long(bad(5, (1, "1.5", "1.0"))),
        "one curve": _long([row for row in good if row[0] == 0]),
        "one point per curve": _long([row for row in good if row[1] == good[4 * row[0]][1]]),
        "quoted cells": "curve_id,t,y\n" + "".join(f'"{c}","{t}","{y}"\n' for c, t, y in good),
        "blank lines": _long(good).replace("\n", "\n\n"),
        "crlf": _long(good).replace("\n", "\r\n"),
        "bom": "\ufeff" + _long(good),
    }
    wgood = _wide_panel()
    wide = {
        "wide empty": "",
        "wide header only": "id,d0,d1\n",
        "wide valid": _wide(wgood),
        "wide no ids": _wide(wgood, ids=False),
        "wide one column": _wide([row[:1] for row in wgood]),
        "wide missing cells": _wide([[v if (i + j) % 3 else "" for j, v in enumerate(row)]
                                     for i, row in enumerate(wgood)]),
        "wide empty row": _wide(wgood[:3] + [[""] * 6] + wgood[3:]),
        "wide text cell": _wide(wgood[:3] + [["abc"] + wgood[3][1:]] + wgood[4:]),
        "wide ragged": _wide(wgood).replace("\n", ",9\n", 3),
        "wide short rows": _wide([row[:3] for row in wgood[:4]] + wgood[4:]),
        "wide nan": _wide(wgood[:3] + [["nan"] + wgood[3][1:]] + wgood[4:]),
        "wide inf": _wide(wgood[:3] + [["inf"] * 6] + wgood[4:]),
    }
    return {**{k: (v, False) for k, v in long.items()}, **{k: (v, True) for k, v in wide.items()}}


def file_cases() -> list[tuple]:
    """(command, config, (file name, text, wide, rescale)) of every file case."""
    config = next(iter(BASES.values()))
    return [
        (command, config, (name, text, wide, rescale))
        for name, (text, wide) in _files().items()
        for rescale in (None, (0.0, 2.0), (1.0, 1.0))
        for command in ("estimate", "bootstrap")
    ]


@contextlib.contextmanager
def _one_cpu():
    """The fits see one CPU, so they fork no lane."""
    real = os.sched_getaffinity
    os.sched_getaffinity = lambda pid: {0}
    try:
        yield
    finally:
        os.sched_getaffinity = real


def run_case(command: str, config: dict, obs_file, tmp: Path) -> tuple:
    """(exit code, defect or None) of one case run in the empty directory `tmp`."""
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp / "out")]
    if obs_file is not None:
        _, text, wide, rescale = obs_file
        (tmp / "obs.csv").write_text(text, newline="")
        argv += ["--obs-csv", str(tmp / "obs.csv")] + ["--wide"] * wide
        if rescale is not None:
            argv += ["--rescale-time", *map(str, rescale)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a traceback is the defect reported
                return "raised", f"traceback {type(exc).__name__}: {exc}"
    err = stderr.getvalue()
    if code not in ((0, 1, 2) if command == "oracle-check" else (0, 2)):
        return code, f"exit {code}"
    if "Warning" in err:
        return code, f"warning on stderr: {err.strip().splitlines()[0]}"
    if code == 2 and err.count("\n") != 1:
        return code, f"exit 2 with {err.count(chr(10))} lines of error: {err[:200]!r}"
    return code, None


def describe(case) -> str:
    command, config, obs_file = case
    if obs_file is not None:
        name, _, _, rescale = obs_file
        return f"{command} file {name!r} rescale {rescale}"
    return f"{command} config {json.dumps(config, sort_keys=True)}"


def draw(cases: list, k: int, seed: int) -> list:
    """k of `cases` (all of them if fewer), drawn with `seed`."""
    return random.Random(seed).sample(cases, min(k, len(cases)))


def run_battery(cases) -> tuple[Counter, list[tuple[str, str]]]:
    """The exit codes of `cases`, counted, and (case, defect) of each case that has one."""
    codes, found = Counter(), []
    with _one_cpu():
        for case in cases:
            with tempfile.TemporaryDirectory() as tmp:
                code, defect = run_case(*case, Path(tmp))
            codes[code] += 1
            if defect is not None:
                found.append((describe(case), defect))
    return codes, found


def base_failures() -> list[str]:
    """Each base's unmutated run that shows a defect or exits other than 0 (oracle-check:
    0 or 1, as its Monte Carlo band over mc_paths 50 paths may fail).  A base that cannot
    run makes every mutation of it exit 2 before the mutated leaf is read."""
    failed = []
    for case in base_cases():
        codes, found = run_battery([case])
        if found or set(codes) - ({0, 1} if case[0] == "oracle-check" else {0}):
            failed.append(f"{describe(case)}: exit {list(codes)} {found}")
    return failed


def main() -> int:
    failed = base_failures()
    for case in failed:
        print(f"BASE FAILS {case}")
    print(f"bases: {len(base_cases())} unmutated runs, {len(failed)} failing")
    for name, cases in (("config", config_cases()), ("file", file_cases())):
        t0 = time.perf_counter()
        codes, found = run_battery(cases)
        for case, defect in found:
            print(f"DEFECT {defect}\n  in {case}")
        exits = ", ".join(f"{code}: {k}" for code, k in sorted(codes.items(), key=str))
        print(f"{name}: {len(cases)} runs (exit {exits}), {len(found)} defects, "
              f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
