"""End-to-end runs of the command line entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsesde
from sparsesde import ConfigError, harness, ingest_csv, load_config
from sparsesde.cli import main

CONSTANT_MODEL = {
    "kind": "builtin",
    "name": "constant",
    "params": {"mu": -1.0, "sigma2": 0.04, "xi2": 0.09},
    "nu_K": 2.0,
}


def write_cfg(tmp_path, name="cfg.json", **sections):
    doc = {"schema_version": 1}
    doc.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_simulate_writes_paths_and_manifest(tmp_path):
    cfg = write_cfg(
        tmp_path,
        model=CONSTANT_MODEL,
        design={"n": 3},
        experiment={"sim_steps": 20},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,t,x"
    assert len(lines) == 1 + 3 * 21
    manifest = read_manifest(tmp_path / "out")
    assert manifest["command"] == "simulate"
    assert manifest["config_sha256"]


def test_observe_output_round_trips_through_ingest(tmp_path):
    cfg = write_cfg(
        tmp_path,
        design={"n": 12, "r": 4},
        experiment={"sim_steps": 50},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["observe", "--config", cfg]) == 0
    obs = ingest_csv(tmp_path / "out" / "observations.csv")
    assert obs.n == 12
    assert obs.total == 48


def test_estimate_end_to_end_simulated(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        design={"n": 150, "r": 8},
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
        experiment={"sim_steps": 200},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["estimate", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("mean.csv", "surface.csv", "surface_diag.csv", "coefficients.csv"):
        assert (out / name).exists()
    header = (out / "coefficients.csv").read_text().splitlines()[0]
    assert header == "t,mu_hat,s_diag,s_tri,sigma2_hat,xi2_hat,flags"
    results = read_manifest(out)["results"]
    assert set(results) >= {"rho2_hat", "rho2_floored", "h_m", "h_G", "mu_threshold"}
    assert "noise variance estimate:" in capsys.readouterr().out


def test_estimate_from_long_csv(tmp_path):
    cfg = write_cfg(
        tmp_path,
        design={"n": 150, "r": 8},
        estimation={"eval_points": 11},
        experiment={"sim_steps": 200},
    )
    assert main(["observe", "--config", cfg, "--out", str(tmp_path / "obs")]) == 0
    rc = main(
        [
            "estimate",
            "--config",
            cfg,
            "--obs-csv",
            str(tmp_path / "obs" / "observations.csv"),
            "--out",
            str(tmp_path / "est"),
        ]
    )
    assert rc == 0
    notes = read_manifest(tmp_path / "est")["notes"]
    assert any("observations.csv" in note for note in notes)


def test_estimate_rescale_time_long_format(tmp_path):
    cfg = write_cfg(
        tmp_path,
        design={"n": 150, "r": 8},
        estimation={"eval_points": 11},
        experiment={"sim_steps": 200},
    )
    assert main(["observe", "--config", cfg, "--out", str(tmp_path / "obs")]) == 0
    rows = (tmp_path / "obs" / "observations.csv").read_text().splitlines()
    scaled = [rows[0]]
    for row in rows[1:]:
        c, t, y = row.split(",")
        scaled.append(f"{c},{repr(float(t) * 50.0)},{y}")
    days = tmp_path / "days.csv"
    days.write_text("\n".join(scaled) + "\n")

    # without the flag the times are out of range
    rc = main(
        ["estimate", "--config", cfg, "--obs-csv", str(days), "--out", str(tmp_path / "e1")]
    )
    assert rc == 2

    rc = main(
        [
            "estimate",
            "--config",
            cfg,
            "--obs-csv",
            str(days),
            "--rescale-time",
            "0",
            "50",
            "--out",
            str(tmp_path / "e2"),
        ]
    )
    assert rc == 0
    notes = read_manifest(tmp_path / "e2")["notes"]
    assert any("mapped from [0, 50]" in note for note in notes)


def test_wide_with_rescale_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    wide = tmp_path / "w.csv"
    wide.write_text("id,c1,c2\na,1.0,2.0\n")
    rc = main(
        [
            "estimate",
            "--config",
            cfg,
            "--obs-csv",
            str(wide),
            "--wide",
            "--rescale-time",
            "0",
            "365",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "long-format" in capsys.readouterr().err


def test_estimate_wide_standin_reports_midpoint(tmp_path):
    """35 curves on a 365-column grid run through the full pipeline."""
    rng = np.random.default_rng(4)
    days = (np.arange(365) + 0.5) / 365
    lines = ["id," + ",".join(f"d{j}" for j in range(365))]
    for i in range(35):
        amp = 1.0 + 0.2 * rng.standard_normal()
        off = 5.0 + 0.5 * rng.standard_normal()
        vals = off + amp * np.sin(2 * np.pi * days) + 0.3 * rng.standard_normal(365)
        lines.append(f"stn{i}," + ",".join(f"{v:.6f}" for v in vals))
    wide = tmp_path / "wide.csv"
    wide.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(
        tmp_path,
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
    )
    rc = main(
        [
            "estimate",
            "--config",
            cfg,
            "--obs-csv",
            str(wide),
            "--wide",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()
    mid = [r for r in rows if r.startswith("0.5,")]
    assert len(mid) == 1
    fields = mid[0].split(",")
    assert len(fields) == 7
    assert np.isfinite(float(fields[1]))  # drift estimate reported at t = 0.5


def test_emse_cli(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        design={"n": [20, 40], "r": 8, "noise_sd": 0.05},
        estimation={"eval_points": 11},
        experiment={"sim_steps": 100, "replications": 2},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["emse", "--config", cfg]) == 0
    assert (tmp_path / "out" / "emse.csv").exists()
    summary = (tmp_path / "out" / "emse_summary.csv").read_text().splitlines()
    assert summary[0].startswith("n,")
    assert "median_emse_mu" in summary[0]
    assert "n=20:" in capsys.readouterr().out


def test_bootstrap_cli(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        design={"n": 20, "r": 10},
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
        experiment={"sim_steps": 100, "B": 16},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["bootstrap", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "bootstrap_summary.csv").read_text().splitlines()
    assert rows[0] == "quantity,point_estimate,bmse,t_star,B,resamples_used"
    assert [r.split(",")[0] for r in rows[1:]] == ["mu", "sigma2", "xi2"]
    assert "mu(t=0.5):" in capsys.readouterr().out


def test_bootstrap_manifest_reports_resamples(tmp_path):
    cfg = write_cfg(
        tmp_path,
        design={"n": 20, "r": 10},
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
        experiment={"sim_steps": 100, "B": 16},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["bootstrap", "--config", cfg]) == 0
    results = read_manifest(tmp_path / "out")["results"]
    assert set(results) == {"resamples_used", "bootstrap_fallback_resamples"}
    rows = (tmp_path / "out" / "bootstrap_summary.csv").read_text().splitlines()
    assert results["resamples_used"] == int(rows[1].split(",")[-1])
    assert 0 <= results["bootstrap_fallback_resamples"] <= 16


def test_oracle_check_cli_pass_and_negative_control(tmp_path):
    cfg = write_cfg(
        tmp_path,
        model=CONSTANT_MODEL,
        experiment={"mc_paths": 2000, "sim_steps": 500},
        output={"directory": str(tmp_path / "good")},
    )
    assert main(["oracle-check", "--config", cfg]) == 0
    report = (tmp_path / "good" / "oracle_check.txt").read_text()
    assert "PASS" in report and "FAIL" not in report
    assert (tmp_path / "good" / "oracle_m_D.csv").exists()
    assert (tmp_path / "good" / "oracle_G.csv").exists()

    bad = write_cfg(
        tmp_path,
        name="bad.json",
        model=CONSTANT_MODEL,
        experiment={"mc_paths": 2000, "sim_steps": 500, "negative_control": True},
        output={"directory": str(tmp_path / "bad")},
    )
    assert main(["oracle-check", "--config", bad]) == 1


def test_seed_override_recorded(tmp_path):
    cfg = write_cfg(
        tmp_path,
        model=CONSTANT_MODEL,
        design={"n": 2},
        experiment={"sim_steps": 10},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["simulate", "--config", cfg, "--seed", "777"]) == 0
    assert read_manifest(tmp_path / "out")["master_seed"] == 777


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "models": {}}))
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_manifest_reports_surface_fallback(tmp_path):
    cfg = write_cfg(
        tmp_path,
        design={"n": 60, "r": 6},
        estimation={"eval_points": 11},
        experiment={"sim_steps": 100},
        output={"directory": str(tmp_path / "out")},
    )
    assert main(["estimate", "--config", cfg]) == 0
    assert read_manifest(tmp_path / "out")["results"]["surface_fallback_cells"] == 0


@pytest.mark.parametrize(
    "section, values",
    [
        ("estimation", {"d_cov": 2.5}),
        ("estimation", {"d_mean": "2"}),
        ("estimation", {"d_cov": True}),
        ("estimation", {"epsilon": "0.1"}),
        ("experiment", {"t_star": "0.5"}),
        ("design", {"n": True}),
        ("model", {"x0": {"kind": "normal"}}),
        ("design", {"design_law": {"kind": "clipped-linear", "floor": "abc"}}),
        ("experiment", {"mc_paths": True}),
        ("experiment", {"track": 5}),
        ("experiment", {"track": ["mu", ["x"]]}),
        ("model", {**CONSTANT_MODEL, "params": 5}),
        ("model", {**CONSTANT_MODEL, "params": {"mu": "a", "sigma2": 0.04, "xi2": 0.09}}),
        ("model", {**CONSTANT_MODEL, "params": {"mu": -1.0, "sigma2": -1, "xi2": 0.09}}),
        ("model", {"kind": "expressions", "mu": "1/0", "sigma": "0.2", "xi": "0.3"}),
        ("model", {"kind": "expressions", "mu": "-1", "sigma": "minimum(t)", "xi": "0.3"}),
        ("model", {"kind": "expressions", "mu": "-1", "sigma": "0.2", "xi": "t ** 'a'"}),
        ("model", {**CONSTANT_MODEL, "params": {**CONSTANT_MODEL["params"], "sigma": 5}}),
        ("model", {"params": {"mu": -1.0}}),
        ("model", {"params": 5}),
        ("model", {"x0": {"kind": "point", "value": 1.0, "sd": 3}}),
        ("model", {"x0": {"kind": "normal", "mean": 1.0, "sd": 0.5, "value": 1.0}}),
        # integers beyond float range
        ("design", {"noise_sd": 10**400}),
        ("model", {"nu_K": 10**400}),
        ("model", {"x0": {"kind": "normal", "mean": 10**400, "sd": 1.0}}),
    ],
)
def test_mistyped_config_value_exits_2(tmp_path, capsys, section, values):
    cfg = write_cfg(tmp_path, **{section: values})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["estimate", "emse"])
@pytest.mark.parametrize("expr", ["1/0", "minimum(t)", "t ** 'a'"])
def test_failing_policy_expression_exits_2(tmp_path, capsys, command, expr):
    # only the estimation commands evaluate the policy; simulate never does
    cfg = write_cfg(
        tmp_path,
        design={"n": 60, "r": 6},
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": expr}},
        experiment={"sim_steps": 100, "replications": 2, "track": ["mu", "xi2"]},
    )
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(expr) in err


def test_missing_obs_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, output={"directory": str(tmp_path / "out")})
    rc = main(["estimate", "--config", cfg, "--obs-csv", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "section, values",
    [
        ("estimation", {"policy": {"kind": "known-sigma", "expr": "0.1", "exprr": 1}}),
        ("model", {"jump_size_law": 42}),
        ("output", {"directory": 5}),
    ],
)
def test_config_hole_rejected_at_parse_time(tmp_path, monkeypatch, capsys, section, values):
    cfg = write_cfg(tmp_path, **{section: values})
    with pytest.raises(ConfigError):
        load_config(cfg)
    monkeypatch.chdir(tmp_path)  # no --out: output.directory is read
    assert main(["estimate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command, model",
    [
        ("simulate", {"nu_K": 1e30}),
        ("oracle-check", {"nu_K": 1e30}),
        ("simulate", {"span": [0.0, 1e308]}),
    ],
)
def test_poisson_rate_beyond_sampler_limit_exits_2(tmp_path, capsys, command, model):
    cfg = write_cfg(
        tmp_path, model=model, design={"n": 3}, experiment={"sim_steps": 20, "mc_paths": 10}
    )
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nu_K*dt" in err


def test_simulate_rejects_unknown_design_law_key(tmp_path, capsys):
    # simulate never builds the design, so the law's keys are checked at parse time
    law = {"kind": "uniform", "flor": 0.2}
    cfg = write_cfg(tmp_path, design={"n": 3, "design_law": law}, experiment={"sim_steps": 20})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "flor" in err
    assert not (tmp_path / "out" / "paths.csv").exists()


@pytest.mark.filterwarnings("error")
def test_oracle_check_overflowing_moments_exit_2_without_warnings(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        model={"span": [0.0, 1e308]},
        design={"n": 3},
        experiment={"sim_steps": 20, "mc_paths": 10},
    )
    assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: moment solution contains non-finite values\n"


@pytest.mark.filterwarnings("error")
def test_oracle_check_overflowing_monte_carlo_exits_2_without_warnings(tmp_path, capsys):
    # the second moment 1e200 is finite, but the spread of X^2 overflows
    cfg = write_cfg(
        tmp_path,
        model={"x0": {"kind": "normal", "mean": 0.0, "sd": 1e100}},
        design={"n": 3},
        experiment={"sim_steps": 20, "mc_paths": 10},
    )
    assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: Monte Carlo moments contain non-finite values\n"


@pytest.mark.parametrize("command", ["simulate", "oracle-check"])
@pytest.mark.parametrize(
    "x0", [{"mean": 0.0, "sd": 1e300}, {"mean": -1e300, "sd": 1.0}, {"mean": 1e154, "sd": 1e154}]
)
def test_normal_x0_with_overflowing_second_moment_exits_2(tmp_path, capsys, command, x0):
    model = {"x0": {"kind": "normal", **x0}}
    cfg = write_cfg(tmp_path, model=model, design={"n": 3}, experiment={"sim_steps": 20})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: model.x0 normal needs a finite second moment mean^2 + sd^2\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command", ["simulate", "observe", "estimate", "emse", "bootstrap", "oracle-check"]
)
def test_point_x0_with_overflowing_square_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(
        tmp_path,
        model={"x0": {"kind": "point", "value": 1e200}},
        design={"n": 30, "r": 6},
        estimation={"eval_points": 11, "policy": {"kind": "known-sigma", "expr": "0.01"}},
        experiment={"sim_steps": 50},
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: model.x0 point needs a finite second moment value^2\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "section, key",
    [
        (s, k)
        for s, table in harness._SCHEMA.items()
        for k, (_, check, _) in table.items()
        if isinstance(check, harness._Count)
    ],
)
def test_count_key_past_its_cap_exits_2_before_running(tmp_path, capsys, section, key):
    sections = {"design": {"n": 3}, "experiment": {"sim_steps": 20}}
    sections.setdefault(section, {})[key] = 2**70
    cfg = write_cfg(tmp_path, **sections)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}.{key} must be an integer from ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_seed_override_is_checked_and_leaves_the_config_hash(tmp_path, capsys):
    experiment = {"sim_steps": 10, "master_seed": 5}
    cfg = write_cfg(tmp_path, design={"n": 2}, experiment=experiment)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed=-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a nonnegative integer\n"
    assert not out.exists()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "777"]) == 0
    manifest = read_manifest(out)
    assert manifest["master_seed"] == 777
    assert manifest["config"]["experiment"]["master_seed"] == 5
    assert manifest["config_sha256"] == load_config(cfg).sha256()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, sections",
    [
        *(
            ("simulate", {"model": {"kind": "expressions", "mu": mu, "sigma": "0.2", "xi": "0.3"}})
            for mu in ("1/t", "log(t)", "sqrt(t-2)", "exp(1e5*t)")
        ),
        ("estimate", {"estimation": {"policy": {"kind": "known-fraction", "expr": "sqrt(t-2)"}}}),
    ],
)
def test_expression_off_its_domain_exits_2_without_warnings(tmp_path, capsys, command, sections):
    sections = {"design": {"n": 30, "r": 6}, "experiment": {"sim_steps": 50}, **sections}
    sections.setdefault("estimation", {})["eval_points"] = 11
    cfg = write_cfg(tmp_path, **sections)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot evaluate expression ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_expression_may_underflow(tmp_path):
    model = {"kind": "expressions", "mu": "exp(-1e3*t)", "sigma": "0.2", "xi": "0.3"}
    cfg = write_cfg(tmp_path, model=model, design={"n": 3}, experiment={"sim_steps": 20})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, track", [("estimate", ["mu"]), ("emse", ["mu", "s"]), ("bootstrap", ["mu"])]
)
def test_overflowing_estimate_exits_2_without_warnings(tmp_path, capsys, command, track):
    # X(0) of sd 1e150 overflows the surface's products; an emse replication then fails
    cfg = write_cfg(
        tmp_path,
        model={"x0": {"kind": "normal", "mean": 0, "sd": 1e150}},
        design={"n": 30, "r": 6},
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
        experiment={"sim_steps": 50, "replications": 2, "B": 20, "track": track},
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        "error: 2/2 replications" if command == "emse" else "error: estimation overflowed"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["estimate", "emse", "bootstrap"])
def test_overflowing_noise_exits_2_without_warnings(tmp_path, capsys, command):
    # noise of sd 1e308 overflows in the draw itself, before any estimate runs
    cfg = write_cfg(
        tmp_path,
        design={"n": 30, "r": 6, "noise_sd": 1e308},
        estimation={"eval_points": 11},
        experiment={"sim_steps": 50, "replications": 2, "B": 20},
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        "error: 2/2 replications" if command == "emse" else "error: observation values"
    )


_SCIPY_SUBMODULES = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg")

# imports the CLI, then runs each subcommand at a tiny size, listing after each
# step the scipy submodules it finds loaded
_IMPORT_PROBE = """
import json, sys
import sparsesde.cli

def loaded():
    return [m for m in {mods} if m in sys.modules]

found = {{"import": loaded()}}
for command in ("simulate", "observe", "estimate", "emse", "bootstrap", "oracle-check"):
    code = sparsesde.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    found[command] = loaded() if code in (0, 1) else f"exit {{code}}"  # 1: a check failed
print(json.dumps(found))
"""


def test_no_scipy_submodule_is_loaded(tmp_path):
    cfg = write_cfg(
        tmp_path,
        design={"n": 30, "r": 6},
        estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
        experiment={"sim_steps": 50, "replications": 2, "B": 20, "mc_paths": 200},
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sparsesde.__file__).parents[1]))
    probe = _IMPORT_PROBE.format(mods=_SCIPY_SUBMODULES)
    done = subprocess.run(
        [sys.executable, "-c", probe, cfg, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    found = json.loads(done.stdout.splitlines()[-1])
    assert found == dict.fromkeys(
        ["import", "simulate", "observe", "estimate", "emse", "bootstrap", "oracle-check"], []
    )


@pytest.mark.parametrize(
    "exc, line", [(MemoryError(), "out of memory"), (MemoryError("big"), "big")]
)
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, exc, line):
    def no_room(*args):
        raise exc

    monkeypatch.setattr(harness, "simulate_paths", no_room)
    cfg = write_cfg(tmp_path, design={"n": 3}, experiment={"sim_steps": 20})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_must_be_the_integer_1(tmp_path, capsys, version):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": version, "design": {"n": 3}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: config.schema_version must be 1\n"
    assert not (tmp_path / "out").exists()
