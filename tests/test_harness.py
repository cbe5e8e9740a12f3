"""Config schema, model building, and the replicated study drivers."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    ClippedLinearDesign,
    ConfigError,
    DesignConfig,
    GaussianInitial,
    LevyConfig,
    PathGrid,
    PointMass,
    build_model,
    load_config,
    observe,
    parse_config,
    run_bootstrap,
    run_emse,
    run_estimate,
    run_oracle_check,
    simulate_ensemble,
    sinusoid_model,
)
from sparsesde import bootstrap
from sparsesde.bootstrap import gathered_estimates, point_estimates
from sparsesde.errors import SparseSdeError
from sparsesde.harness import (
    _STREAM_BOOTSTRAP,
    _STREAM_REPLICATION,
    _drift_stage,
    _resolve_settings,
    _single_n,
    build_design,
    build_policy,
    simulate_paths,
    unit_truth,
    write_manifest,
)
from sparsesde.observe import SparseObservations

from conftest import make_obs


def cfg_dict(**sections) -> dict:
    data = {"schema_version": 1}
    data.update(sections)
    return data


CONSTANT_MODEL = {
    "kind": "builtin",
    "name": "constant",
    "params": {"mu": -1.0, "sigma2": 0.04, "xi2": 0.09},
    "nu_K": 2.0,
}


def test_parse_config_fills_defaults():
    cfg = parse_config(cfg_dict())
    assert cfg.design["n"] == 100
    assert cfg.design["r"] == 10
    assert cfg.estimation["kernel"] == "epanechnikov"
    assert cfg.estimation["eval_points"] == 51
    assert cfg.experiment["master_seed"] == 20260818
    assert cfg.output["directory"] == "out"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config(cfg_dict(extra={}))
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_dict(design={"m": 5}))
    assert "design" in str(exc.value)


def test_parse_config_schema_version_required():
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config({"schema_version": 2})


def test_parse_config_constant_model_needs_params():
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_dict(model={"kind": "builtin", "name": "constant"}))
    assert "sigma2" in str(exc.value)


def test_parse_config_expression_model_needs_all_three():
    with pytest.raises(ConfigError):
        parse_config(cfg_dict(model={"kind": "expressions", "mu": "-t"}))


def test_parse_config_policy_and_track_rules():
    with pytest.raises(ConfigError):
        parse_config(cfg_dict(estimation={"policy": {"kind": "magic", "expr": "0.5"}}))
    with pytest.raises(ConfigError):
        parse_config(cfg_dict(estimation={"policy": {"kind": "known-sigma"}}))
    # tracking xi2 without a policy cannot be scored
    with pytest.raises(ConfigError):
        parse_config(cfg_dict(experiment={"track": ["mu", "xi2"]}))


def test_parse_config_numeric_guards():
    bad = [
        cfg_dict(estimation={"epsilon": 1.0}),
        cfg_dict(estimation={"eval_points": 3}),
        cfg_dict(estimation={"d_mean": 0}),
        cfg_dict(experiment={"B": 1}),
        cfg_dict(experiment={"t_star": 1.2}),
        cfg_dict(experiment={"sim_steps": 0}),
        cfg_dict(design={"n": [50, 0]}),
        cfg_dict(model={"span": [1.0, 0.0]}),
        cfg_dict(model={"nu_K": -2.0}),
    ]
    for data in bad:
        with pytest.raises(ConfigError):
            parse_config(data)


def test_canonical_hash_ignores_key_order():
    a = parse_config({"schema_version": 1, "design": {"n": 50, "r": 5}})
    b = parse_config({"design": {"r": 5, "n": 50}, "schema_version": 1})
    assert a.sha256() == b.sha256()
    c = parse_config({"schema_version": 1, "design": {"n": 51, "r": 5}})
    assert a.sha256() != c.sha256()


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_dict(design={"n": 37})))
    assert load_config(path).design["n"] == 37
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_build_model_unit_span_is_identity():
    cfg = parse_config(cfg_dict(model=dict(CONSTANT_MODEL)))
    bundle = build_model(cfg)
    assert bundle.notes == []
    t = np.array([0.3])
    assert bundle.unit_coeffs.mu(t)[0] == bundle.coeffs.mu(t)[0] == -1.0
    assert bundle.unit_levy.nu_K == 2.0
    assert (bundle.m0, bundle.D0) == (1.0, 1.0)


def test_build_model_rescales_span():
    model = {"name": "sinusoid", "span": [0.0, 50.0]}
    bundle = build_model(parse_config(cfg_dict(model=model)))
    u = np.array([0.3])
    # drift picks up the span length and the native argument 50 * u
    expect = 50.0 * -(2.0 + math.sin(50.0 * 0.3))
    assert bundle.unit_coeffs.mu(u)[0] == pytest.approx(expect, rel=1e-12)
    assert bundle.unit_levy.nu_K == pytest.approx(50.0)
    assert any("rescaled" in note for note in bundle.notes)


def test_build_model_driver_scale_folds_into_sigma():
    model = dict(CONSTANT_MODEL, driver_variance_scale=4.0)
    bundle = build_model(parse_config(cfg_dict(model=model)))
    t = np.array([0.5])
    assert bundle.coeffs.sigma(t)[0] == pytest.approx(2.0 * 0.2, rel=1e-12)
    assert any("equal in law" in note for note in bundle.notes)


def test_build_model_gaussian_initial_moments():
    model = dict(CONSTANT_MODEL, x0={"kind": "normal", "mean": 1.2, "sd": 0.5})
    bundle = build_model(parse_config(cfg_dict(model=model)))
    assert isinstance(bundle.x0_law, GaussianInitial)
    assert bundle.m0 == pytest.approx(1.2)
    assert bundle.D0 == pytest.approx(1.2**2 + 0.25)


def test_expression_model_matches_builtin():
    model = {
        "kind": "expressions",
        "mu": "-(2 + sin(t))",
        "sigma": "0.5 * sin(t)",
        "xi": "sin(t)",
    }
    bundle = build_model(parse_config(cfg_dict(model=model)))
    ref = sinusoid_model()
    t = np.linspace(0.0, 1.0, 7)
    npt.assert_allclose(bundle.coeffs.mu(t), ref.mu(t), rtol=1e-12)
    npt.assert_allclose(bundle.coeffs.sigma(t), ref.sigma(t), rtol=1e-12)


def test_unit_truth_combines_noise_channels():
    bundle = build_model(parse_config(cfg_dict(model=dict(CONSTANT_MODEL))))
    mu, sigma2, xi2, s = unit_truth(bundle)
    t = np.linspace(0, 1, 5)
    npt.assert_allclose(mu(t), -1.0)
    npt.assert_allclose(sigma2(t), 0.04)
    npt.assert_allclose(xi2(t), 0.09)
    npt.assert_allclose(s(t), 0.04 + 2.0 * 0.09)


def test_build_design_law_dispatch():
    cfg = parse_config(
        cfg_dict(design={"design_law": {"kind": "clipped-linear", "floor": 0.2}})
    )
    design = build_design(cfg)
    assert isinstance(design.design_law, ClippedLinearDesign)
    assert design.design_law.floor == 0.2
    bad = parse_config(cfg_dict(design={"design_law": {"kind": "uniform"}}))
    bad.design["design_law"] = {"kind": "uniform", "floor": 0.2}
    with pytest.raises(ConfigError):
        build_design(bad)


def test_build_policy_from_expression():
    cfg = parse_config(
        cfg_dict(estimation={"policy": {"kind": "known-sigma", "expr": "0.25 * sin(t)**2"}})
    )
    policy = build_policy(cfg)
    assert policy.kind == "known-sigma"
    assert policy.label == "0.25 * sin(t)**2"
    npt.assert_allclose(policy.value(np.array([0.5])), 0.25 * math.sin(0.5) ** 2)
    assert build_policy(parse_config(cfg_dict())) is None


def test_single_n_rejects_lists():
    cfg = parse_config(cfg_dict(design={"n": [50, 100]}))
    with pytest.raises(ConfigError):
        _single_n(cfg)
    assert _single_n(parse_config(cfg_dict(design={"n": 42}))) == 42


def test_run_estimate_smoke():
    cfg = parse_config(
        cfg_dict(
            model=dict(CONSTANT_MODEL),
            design={"n": 200, "r": 8},
            estimation={"eval_points": 21},
            experiment={"sim_steps": 300},
        )
    )
    bundle = build_model(cfg)
    paths = simulate_paths(cfg, bundle, 99, 200)
    obs = observe(paths, build_design(cfg), 99)
    res = run_estimate(cfg, obs)
    assert res.coeffs.region_A.mean() > 0.8
    assert res.rho2_hat >= 0.0
    assert res.h_m > 0 and res.h_G > 0
    assert res.coeffs.mu_threshold > 0
    assert np.isfinite(res.coeffs.s_diag).sum() >= 15
    # policy-free run leaves the separated channels unset
    assert res.coeffs.sigma2_hat is None and res.coeffs.xi2_hat is None


def test_noiseless_study_hits_floor():
    cfg = parse_config(
        cfg_dict(
            model={
                "kind": "builtin",
                "name": "constant",
                "params": {"mu": -1.0, "sigma2": 0.0, "xi2": 0.0},
            },
            design={"n": 400, "r": 10, "noise_sd": 0.0},
            estimation={"eval_points": 21},
            experiment={"replications": 1, "sim_steps": 400, "track": ["mu"]},
        )
    )
    result = run_emse(cfg)
    assert result.failures[400] == 0
    assert result.medians[400]["emse_mu"] < 1e-3


def test_run_emse_structure():
    cfg = parse_config(
        cfg_dict(
            design={"n": [30, 60], "r": 8},
            estimation={"eval_points": 21},
            experiment={"replications": 3, "sim_steps": 200},
        )
    )
    result = run_emse(cfg)
    assert result.n_values == [30, 60]
    assert len(result.rows) == 6
    assert set(result.medians) == {30, 60}
    for n in (30, 60):
        assert "emse_mu" in result.medians[n]
        assert "excluded_points" in result.medians[n]
    ok = [r for r in result.rows if r["status"] == "ok"]
    assert len(ok) == 6 - sum(result.failures.values())


def test_run_bootstrap_requires_policy():
    cfg = parse_config(cfg_dict())
    obs = make_obs([(np.linspace(0.1, 0.9, 6), np.ones(6)) for _ in range(10)])
    with pytest.raises(ConfigError):
        run_bootstrap(cfg, obs)


def test_bootstrap_identical_curves_gives_zero_bmse():
    cfg = parse_config(
        cfg_dict(
            estimation={"policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"B": 8},
        )
    )
    t = np.linspace(0.05, 0.95, 8)
    obs = make_obs([(t, 2.0 + t)] * 20)
    result = run_bootstrap(cfg, obs)
    assert result.n_success == 8
    assert result.bmse == {"mu": 0.0, "sigma2": 0.0, "xi2": 0.0}


def test_bootstrap_on_simulated_data():
    cfg = parse_config(
        cfg_dict(
            design={"n": 25, "r": 10},
            estimation={"policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"B": 40, "sim_steps": 200},
        )
    )
    bundle = build_model(cfg)
    paths = simulate_paths(cfg, bundle, cfg.experiment["master_seed"], 25)
    obs = observe(paths, build_design(cfg), cfg.experiment["master_seed"])
    result = run_bootstrap(cfg, obs)
    assert result.n_success >= 32
    assert set(result.point) == {"mu", "sigma2", "xi2"}
    for key, val in result.bmse.items():
        assert np.isfinite(val) and val >= 0.0


def test_bootstrap_t_star_domain():
    cfg = parse_config(
        cfg_dict(estimation={"policy": {"kind": "known-fraction", "expr": "0.5"}})
    )
    obs = make_obs([(np.linspace(0.05, 0.95, 8), np.full(8, 2.0))] * 10)
    with pytest.raises(Exception) as exc:
        run_bootstrap(cfg, obs, t_star=0.95)
    assert "epsilon" in str(exc.value)


def test_bootstrap_point_matches_estimate_at_t_star():
    # run_estimate and run_bootstrap resolve bandwidths and the drift threshold alike
    cfg = parse_config(
        cfg_dict(
            model={**CONSTANT_MODEL, "span": [0.0, 2.0]},
            design={"n": 60, "r": 8},
            estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"B": 4, "sim_steps": 100, "t_star": 0.5},
        )
    )
    bundle = build_model(cfg)
    obs = observe(simulate_paths(cfg, bundle, 7, 60), build_design(cfg), 7)
    coeffs = run_estimate(cfg, obs).coeffs
    point = run_bootstrap(cfg, obs).point
    (i,) = np.flatnonzero(coeffs.eval_grid == 0.5)
    assert coeffs.region_A[i]
    assert point["mu"] == coeffs.mu_hat[i]
    s_boot = point["sigma2"] + bundle.unit_levy.nu_K * point["xi2"]
    assert s_boot == pytest.approx(coeffs.s_diag[i], rel=1e-10, abs=0.0)


def _chain_bootstrap(cfg, obs):
    """Reference bootstrap: the per-resample chain over the draws of run_bootstrap.

    Returns (used mask, BMSE per quantity centred on the point estimate).
    """
    st = _resolve_settings(cfg, obs)
    thr = _drift_stage(obs, st)[3]
    t_star, B = cfg.experiment["t_star"], cfg.experiment["B"]
    point = point_estimates(obs, t_star, st, thr)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.experiment["master_seed"], _STREAM_BOOTSTRAP])
    )
    draws = rng.integers(0, obs.n, size=(B, obs.n))
    used = np.zeros(B, dtype=bool)
    vals = []
    for b in range(B):
        try:
            vals.append(point_estimates(obs.subset(draws[b]), t_star, st, thr))
        except SparseSdeError:
            continue
        used[b] = True
    vals = np.array(vals)
    keys = ("mu", "sigma2", "xi2")
    return used, {k: float(np.mean((vals[:, i] - point[i]) ** 2)) for i, k in enumerate(keys)}


def _gap_panel():
    # four curves see t* = 0.5 at h = 0.1, the rest only [0, 0.34] and [0.66, 1]:
    # resamples drawing too few of the four widen their windows
    rng = np.random.default_rng(7)
    curves = []
    for i in range(40):
        if i < 4:
            near = 0.44 + 0.03 * i + np.array([0.0, 0.03, 0.06])
            t = np.concatenate((rng.uniform(0.05, 0.3, 2), near, rng.uniform(0.7, 0.95, 2)))
        else:
            t = np.concatenate((rng.uniform(0.0, 0.34, 3), rng.uniform(0.66, 1.0, 3)))
        t = np.sort(t)
        level = 1.0 + 0.5 * rng.standard_normal()
        curves.append((t, level + 0.3 * t + 0.05 * rng.standard_normal(t.size)))
    return make_obs(curves)


def _low_mean_panel():
    # curve levels scatter around 0.3 with sd 0.6, so m_hat(0.5) of a few
    # resamples falls below the drift threshold 0.012
    rng = np.random.default_rng(7)
    curves = []
    for _ in range(40):
        t = np.sort(rng.uniform(0.0, 1.0, 6))
        level = 0.3 + 0.6 * rng.standard_normal()
        curves.append((t, level + 0.2 * (t - 0.5) + 0.05 * rng.standard_normal(6)))
    return make_obs(curves)


@pytest.mark.parametrize("d_mean, d_cov", [(1, 1), (2, 2), (2, 1), (1, 2)])
@pytest.mark.parametrize("panel", ["simulated", "gap", "low-mean"])
def test_bootstrap_matches_per_resample_chain(panel, d_mean, d_cov):
    est = {"d_mean": d_mean, "d_cov": d_cov, "eval_points": 21}
    est["policy"] = {"kind": "known-fraction", "expr": "0.5"}
    if panel == "simulated":
        experiment = {"B": 60, "sim_steps": 200}
        cfg = parse_config(cfg_dict(design={"n": 30, "r": 8}, estimation=est, experiment=experiment))
        bundle = build_model(cfg)
        obs = observe(simulate_paths(cfg, bundle, 11, 30), build_design(cfg), 11)
    elif panel == "gap":
        est.update(h_m=0.1, h_G=0.1)
        cfg = parse_config(cfg_dict(estimation=est, experiment={"B": 60}))
        obs = _gap_panel()
    else:
        est["mu_threshold"] = 0.012
        cfg = parse_config(cfg_dict(estimation=est, experiment={"B": 60}))
        obs = _low_mean_panel()
    result = run_bootstrap(cfg, obs)
    used, bmse = _chain_bootstrap(cfg, obs)
    npt.assert_array_equal(result.used, used)
    assert result.n_success == int(used.sum())
    for key, ref in bmse.items():
        assert result.bmse[key] == pytest.approx(ref, rel=1e-10, abs=0.0), key
    if panel == "gap":
        assert result.fallback > 0
    else:
        assert result.fallback == 0
    if panel == "low-mean":
        assert result.n_success < 60


def _gap_config(d_mean, d_cov, B):
    est = {"d_mean": d_mean, "d_cov": d_cov, "eval_points": 21, "h_m": 0.1, "h_G": 0.1}
    est["policy"] = {"kind": "known-fraction", "expr": "0.5"}
    return parse_config(cfg_dict(estimation=est, experiment={"B": B}))


@pytest.mark.parametrize("d_mean, d_cov", [(1, 1), (2, 2), (2, 1), (1, 2)])
def test_widened_resamples_match_pointwise_chain(d_mean, d_cov):
    # rows failing a check at h_m or h_G are widened inside the batch
    cfg = _gap_config(d_mean, d_cov, 400)
    obs = _gap_panel()
    st = _resolve_settings(cfg, obs)
    thr = _drift_stage(obs, st)[3]
    t_star = cfg.experiment["t_star"]
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.experiment["master_seed"], _STREAM_BOOTSTRAP])
    )
    draws = rng.integers(0, obs.n, size=(400, obs.n))
    est, used, fallback = gathered_estimates(obs, t_star, st, thr, draws)
    widened = np.flatnonzero(fallback)
    assert widened.size > 0
    ref_used = np.zeros(widened.size, dtype=bool)
    for i, b in enumerate(widened):
        try:
            ref = point_estimates(obs.subset(draws[b]), t_star, st, thr)
        except SparseSdeError:
            continue
        ref_used[i] = True
        npt.assert_allclose(est[b], ref, rtol=1e-12, atol=0.0)
    npt.assert_array_equal(used[widened], ref_used)


def test_bootstrap_widens_without_pointwise_refits(monkeypatch):
    def no_subset(self, curve_ids):
        raise AssertionError("a resample was refitted from its own observation set")

    calls = []

    def counted(*args):
        calls.append(args)
        return point_estimates(*args)

    monkeypatch.setattr(SparseObservations, "subset", no_subset)
    monkeypatch.setattr(bootstrap, "point_estimates", counted)
    result = run_bootstrap(_gap_config(2, 2, 200), _gap_panel())
    assert result.fallback > 0
    assert len(calls) == 1


def test_emse_rows_match_estimate_on_regenerated_panels():
    cfg = parse_config(
        cfg_dict(
            design={"n": [40, 60], "r": 8},
            estimation={"eval_points": 11},
            experiment={"replications": 2, "sim_steps": 100},
        )
    )
    result = run_emse(cfg)
    bundle = build_model(cfg)
    mu_true = unit_truth(bundle)[0]
    master = cfg.experiment["master_seed"]
    for row in result.rows:
        assert row["status"] == "ok"
        ni = cfg.design["n"].index(row["n"])
        seq = np.random.SeedSequence([master, _STREAM_REPLICATION, ni, row["replication"]])
        seed = int(seq.generate_state(1)[0])
        obs = observe(simulate_paths(cfg, bundle, seed, row["n"]), build_design(cfg), seed)
        c = run_estimate(cfg, obs).coeffs
        err2 = np.where(c.region_A, (c.mu_hat - mu_true(c.eval_grid)) ** 2, 0.0)
        assert row["emse_mu"] == float(np.trapezoid(err2, c.eval_grid))


def test_write_manifest_deterministic(tmp_path):
    cfg = parse_config(cfg_dict(design={"n": 33}))
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    write_manifest(d1, "estimate", cfg, seed=7, notes=["x"], results={"h_m": 0.2})
    write_manifest(d2, "estimate", cfg, seed=7, notes=["x"], results={"h_m": 0.2})
    b1 = (d1 / "manifest.json").read_bytes()
    assert b1 == (d2 / "manifest.json").read_bytes()
    manifest = json.loads(b1)
    assert manifest["config_sha256"] == cfg.sha256()
    assert manifest["results"] == {"h_m": 0.2}


def test_oracle_report_negative_control():
    model = dict(CONSTANT_MODEL)
    good = run_oracle_check(parse_config(cfg_dict(model=model)), mc=False)
    assert good.passed
    control = run_oracle_check(
        parse_config(cfg_dict(model=model, experiment={"negative_control": True})),
        mc=False,
    )
    assert not control.passed
    by_name = {name: ok for name, _, _, ok in control.checks}
    assert not by_name["identity web web_vs_target sup on [0,0.9]"]
    assert by_name["identity web diag_vs_tri sup on [0,0.9]"]
