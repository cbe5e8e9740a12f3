"""Acceptance gate: one test per shipped claim, with pinned tolerances.

The seed-dependent studies and their statistical gates are defined once in
`claims.py`; the tests run them at the pinned seeds and add the timing and
artifact gates.

Each test appends a one-line verdict to the terminal summary (see
conftest.ACCEPTANCE_LINES) before asserting, so a red run still reports
every criterion it reached.
"""

import time

import numpy as np
import pytest

from sparsesde import PairScatter, fit_cov_at, fit_mean_at, parse_config, run_oracle_check
from sparsesde import harness
from sparsesde.cli import main

import claims
from conftest import ACCEPTANCE_LINES, make_obs

CONSTANT_MODEL = {
    "kind": "builtin",
    "name": "constant",
    "params": {"mu": -1.0, "sigma2": 0.04, "xi2": 0.09},
    "nu_K": 2.0,
}


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_identity_web():
    cfg = parse_config({"schema_version": 1, "model": CONSTANT_MODEL})
    t0 = time.perf_counter()
    report = run_oracle_check(cfg, mc=False)
    elapsed = time.perf_counter() - t0
    assert len(report.checks) == 4
    worst = max(val for _, val, _, _ in report.checks)
    ok = all(passed for _, _, _, passed in report.checks) and elapsed < 1.0
    record(
        1,
        ok,
        f"noise-sum identity web sup residual {worst:.3g} (tol 1e-4) "
        f"across 4 route comparisons, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_simulator_vs_moment_odes():
    measured = claims.measure_c2(claims.DEFAULT_SEED)
    assert len(measured["ratios"]) == 2
    ok, _, detail = claims.verdict_c2(measured)
    record(2, ok and measured["elapsed"] < 30.0, detail)
    assert measured["report"].passed  # the identity web holds for this model too


def test_criterion_3_polynomial_reproduction():
    rng = np.random.default_rng(20260818)
    t0 = time.perf_counter()

    # 1-D quadratic, d=2: y = 2 - t + 0.5 t^2 observed without noise
    curves = []
    for _ in range(30):
        t = np.sort(rng.random(8))
        curves.append((t, 2.0 - t + 0.5 * t**2))
    obs = make_obs(curves)
    pts = rng.uniform(0.05, 0.95, 50)
    worst_1d = 0.0
    for t in pts:
        m, dm = fit_mean_at(obs, float(t), d=2, h_m=0.3)
        worst_1d = max(
            worst_1d,
            abs(m - (2.0 - t + 0.5 * t**2)),
            abs(dm - (-1.0 + t)),
        )

    # 2-D plane, d=1: p = 1 + 2u + 3v on a random scatter
    u = rng.random(400)
    v = rng.random(400)
    sc = PairScatter(u=u, v=v, p=1.0 + 2.0 * u + 3.0 * v)
    worst_2d = 0.0
    for s, t in rng.uniform(0.1, 0.9, (50, 2)):
        G, dsG, dtG = fit_cov_at(sc, float(s), float(t), d=1, h_G=0.4)
        worst_2d = max(
            worst_2d,
            abs(G - (1.0 + 2.0 * s + 3.0 * t)),
            abs(dsG - 2.0),
            abs(dtG - 3.0),
        )

    elapsed = time.perf_counter() - t0
    ok = worst_1d < 1e-10 and worst_2d < 1e-10 and elapsed < 1.0
    record(
        3,
        ok,
        f"50-point reproduction error {worst_1d:.2g} (quadratic, d=2) and "
        f"{worst_2d:.2g} (plane, d=1), tol 1e-10, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_4_diagonal_bias_avoidance():
    ok, _, detail = claims.verdict_c4(claims.measure_c4(123))
    record(4, ok, detail)


@pytest.fixture(scope="module")
def convergence_study():
    return claims.measure_c56(claims.DEFAULT_SEED)


def test_criterion_5_drift_emse_decreases(convergence_study):
    ok, _, detail = claims.verdict_c5(convergence_study)
    record(5, ok and convergence_study["elapsed"] < 600.0, detail)


def test_criterion_6_jump_error_rate(convergence_study):
    ok, _, detail = claims.verdict_c6(convergence_study)
    record(6, ok, detail)


def test_criterion_7_bootstrap_harness(tmp_path):
    measured = claims.measure_c7(claims.DEFAULT_SEED)
    ok, _, detail = claims.verdict_c7(measured)
    harness.export_bootstrap_csv(measured["result"], tmp_path)
    rows = (tmp_path / "bootstrap_summary.csv").read_text().splitlines()
    table_ok = [r.split(",")[0] for r in rows[1:]] == ["mu", "sigma2", "xi2"]
    record(7, ok and table_ok and measured["elapsed"] < 300.0, detail)


def test_criterion_8_byte_identical_reruns(tmp_path):
    import json

    def cfg_file(name, doc):
        doc = {"schema_version": 1, **doc}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    runs = {
        "simulate": cfg_file(
            "sim.json",
            {"model": CONSTANT_MODEL, "design": {"n": 3}, "experiment": {"sim_steps": 20}},
        ),
        "observe": cfg_file("obs.json", {"design": {"n": 12, "r": 4}, "experiment": {"sim_steps": 50}}),
        "estimate": cfg_file(
            "est.json",
            {
                "design": {"n": 60, "r": 8},
                "estimation": {"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
                "experiment": {"sim_steps": 100},
            },
        ),
        "emse": cfg_file(
            "emse.json",
            {
                "design": {"n": [20, 40], "r": 8, "noise_sd": 0.05},
                "estimation": {"eval_points": 11},
                "experiment": {"sim_steps": 100, "replications": 2},
            },
        ),
        "bootstrap": cfg_file(
            "boot.json",
            {
                "design": {"n": 20, "r": 10},
                "estimation": {"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
                "experiment": {"sim_steps": 100, "B": 16},
            },
        ),
        "oracle-check": cfg_file(
            "oc.json",
            {"model": CONSTANT_MODEL, "experiment": {"mc_paths": 500, "sim_steps": 200}},
        ),
    }

    compared = 0
    for command, cfg in runs.items():
        a = tmp_path / f"{command}-a"
        b = tmp_path / f"{command}-b"
        rc_a = main([command, "--config", cfg, "--out", str(a)])
        rc_b = main([command, "--config", cfg, "--out", str(b)])
        assert rc_a == rc_b == 0, command
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b and names_a, command
        for name in names_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (
                f"{command}: {name} differs between reruns"
            )
            compared += 1
    record(
        8,
        True,
        f"all 6 subcommands rerun byte-identically ({compared} files compared)",
    )
