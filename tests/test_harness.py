"""Config schema, model building, and the replicated study drivers."""

import csv
import errno
import json
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from sparsesde import (
    ClippedLinearDesign,
    ConfigError,
    GaussianInitial,
    build_model,
    load_config,
    observe,
    parse_config,
    run_bootstrap,
    run_emse,
    run_estimate,
    run_oracle_check,
    sinusoid_model,
)
from sparsesde import bootstrap, harness, lanes, simulate
from sparsesde.bootstrap import gathered_estimates, point_estimates
from sparsesde.covfit import (
    CovEstimate,
    fit_diag,
    noise_variance_estimate,
    pair_scatter,
    replace_responses,
)
from sparsesde.errors import (
    EstimationFailedError,
    SimulationDivergedError,
    SparseSdeError,
    SparseWindowError,
    ValidationError,
)
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
    write_table,
)
from sparsesde.meanfit import default_bandwidth_mean, fit_mean_points
from sparsesde.observe import SparseObservations

from conftest import common_grid_panel, make_obs


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


def test_parse_config_list_defaults_are_not_shared():
    first = parse_config(cfg_dict())
    first.experiment["track"].append("s")
    first.model["span"].append(2.0)
    first.model["params"]["mu"] = 1.0
    again = parse_config(cfg_dict())
    assert again.experiment["track"] == ["mu"]
    assert again.model["span"] == [0.0, 1.0]
    assert again.model["params"] == {}


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


# one value per schema key whose JSON type the key never takes
WRONG_TYPE = {
    "model": {
        "kind": 1, "name": 1, "params": [], "span": "0,1", "nu_K": "1",
        "driver_variance_scale": "1", "x0": "point", "mu": 1, "sigma": [], "xi": 0.5,
    },
    "design": {"n": 1.5, "r": "10", "noise_sd": "0.1", "design_law": "uniform", "noise_law": 1},
    "estimation": {
        "d_mean": 2.0, "d_cov": "1", "h_m": [], "h_G": True, "epsilon": "0.1", "kernel": 1,
        "eval_points": 51.0, "mu_threshold": None, "separation_source": 1, "policy": "x",
    },
    "experiment": {
        "master_seed": 1.0, "sim_steps": "10", "replications": True, "track": "mu", "B": 1e3,
        "t_star": "0.5", "mc_paths": [10], "negative_control": 0,
    },
    "output": {"directory": 5},
}


def test_schema_table_has_a_wrong_type_case_per_key():
    assert {s: set(t) for s, t in harness._SCHEMA.items()} == {
        s: set(t) for s, t in WRONG_TYPE.items()
    }


@pytest.mark.parametrize(
    "section, key", [(s, k) for s, table in harness._SCHEMA.items() for k in table]
)
def test_schema_key_rejects_wrong_type_and_sizes_past_its_cap(section, key):
    def parse(value):
        return parse_config(cfg_dict(**{section: {key: value}}))

    default, check, _ = harness._SCHEMA[section][key]
    assert parse(default) is not None
    with pytest.raises(ConfigError, match=f"^{section}.{key} must be "):
        parse(WRONG_TYPE[section][key])
    if isinstance(check, harness._Count):
        for bad in (check.lo - 1, check.hi + 1, 2**70):
            with pytest.raises(ConfigError, match=f"^{section}.{key} must be an integer from "):
                parse(bad)
        assert parse(check.hi) is not None and parse(check.lo) is not None


def test_sample_size_list_entries_are_capped():
    cap = harness._SCHEMA["design"]["n"][1].hi
    assert parse_config(cfg_dict(design={"n": [3, cap]})).design["n"] == [3, cap]
    for bad in ([3, cap + 1], [2**70], []):
        with pytest.raises(ConfigError, match="^design.n must be"):
            parse_config(cfg_dict(design={"n": bad}))


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


@pytest.mark.parametrize("span", [[0.0, 1.0], [0.0, 50.0], [2.0, 2.5], [-1.0, 0.0]])
def test_settings_take_the_models_unit_nu_k_without_building_it(monkeypatch, span):
    model = {**CONSTANT_MODEL, "span": span}
    cfg = parse_config(cfg_dict(model=model))
    want = build_model(cfg).unit_levy.nu_K

    def no_model(cfg):
        raise AssertionError("the settings built the model")

    monkeypatch.setattr(harness, "build_model", no_model)
    assert _resolve_settings(cfg, _gap_panel()).nu_K == want


def test_overflowing_coefficient_square_is_rejected_without_a_warning():
    model = {"kind": "expressions", "span": [1.0, 1e300], "mu": "-0.5", "sigma": "0.3",
             "xi": "0.2 + 0.1*t"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"xi\^2 does not integrate finitely"):
            build_model(parse_config(cfg_dict(model=model)))


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


def test_build_policy_from_expression():
    cfg = parse_config(
        cfg_dict(estimation={"policy": {"kind": "known-sigma", "expr": "0.25 * sin(t)**2"}})
    )
    policy = build_policy(cfg)
    assert policy.kind == "known-sigma"
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
    assert (~res.coeffs.flags["excluded"]).mean() > 0.8
    assert res.rho2_hat >= 0.0
    assert res.mean_est.bandwidth > 0 and res.cov_est.bandwidth > 0
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
        cfg_dict(
            estimation={"policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"t_star": 0.95},
        )
    )
    obs = make_obs([(np.linspace(0.05, 0.95, 8), np.full(8, 2.0))] * 10)
    with pytest.raises(Exception) as exc:
        run_bootstrap(cfg, obs)
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
    assert not coeffs.flags["excluded"][i]
    assert point["mu"] == coeffs.mu_hat[i]
    # the bootstrap's s at t* is the pointwise route of `fit_diag`
    st = _resolve_settings(cfg, obs)
    D, dD = fit_diag(pair_scatter(obs), 0.5, st.d_cov, st.h_G, st.kernel)
    s_boot = point["sigma2"] + bundle.unit_levy.nu_K * point["xi2"]
    assert s_boot == pytest.approx(max(dD - 2.0 * point["mu"] * D, 0.0), rel=1e-10, abs=0.0)


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
@pytest.mark.parametrize("panel", ["simulated", "gap", "low-mean", "common-grid"])
def test_bootstrap_matches_per_resample_chain(monkeypatch, panel, d_mean, d_cov):
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
    elif panel == "common-grid":
        # the mean window at t* = 0.5 holds the 12 curves' rows at 0.5 alone
        est.update(h_m=0.04, h_G=0.08)
        cfg = parse_config(cfg_dict(estimation=est, experiment={"B": 60}))
        obs = common_grid_panel()
        window = np.abs(obs.t - 0.5) < 0.04
        assert np.count_nonzero(window) >= d_mean + 1 > np.unique(obs.t[window]).size
    else:
        est["mu_threshold"] = 0.012
        cfg = parse_config(cfg_dict(estimation=est, experiment={"B": 60}))
        obs = _low_mean_panel()
    gathered = []  # the (est, used, fallback) of run_bootstrap's batched route
    real = bootstrap.gathered_estimates
    monkeypatch.setattr(
        bootstrap, "gathered_estimates", lambda *a: gathered.append(real(*a)) or gathered[0]
    )
    result = run_bootstrap(cfg, obs)
    used, bmse = _chain_bootstrap(cfg, obs)
    npt.assert_array_equal(gathered[0][1][1:], used)
    assert result.n_success == int(used.sum())
    for key, ref in bmse.items():
        assert result.bmse[key] == pytest.approx(ref, rel=1e-10, abs=0.0), key
    if panel in ("gap", "common-grid"):
        assert result.fallback > 0
    else:
        assert result.fallback == 0
    if panel == "low-mean":
        assert result.n_success < 60


def test_bootstrap_fails_when_too_few_resamples_produce_estimates():
    # at threshold 0.05 the low-mean panel's m_hat(0.5) drops below it in
    # more than a fifth of the resamples
    est = {"eval_points": 21, "mu_threshold": 0.05}
    est["policy"] = {"kind": "known-fraction", "expr": "0.5"}
    cfg = parse_config(cfg_dict(estimation=est, experiment={"B": 60}))
    with pytest.raises(EstimationFailedError, match=r"only 42/60 bootstrap resamples produced"):
        run_bootstrap(cfg, _low_mean_panel())


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


def _plain_resample_sums(table, draws):
    """Reference: a fresh gather of table[c] per draw position."""
    sums = np.zeros((draws.shape[0], table.shape[1]))
    for c in draws.T:
        sums += table[c]
    return sums


def test_resample_sums_equal_the_plain_gather_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    n, k = 12, 9
    # magnitudes 1e-8..1e8, so a different order of the additions shows in the bits
    table = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 9, (n, k))
    table[:, 2] = -0.0  # a sum of -0.0 alone is +0.0 only if it starts from +0.0
    table[3] = -0.0
    # repeated curves in every row, and a row that draws one curve n times
    draws = np.vstack((np.arange(n), rng.integers(0, 4, (30, n)), np.full(n, 3)))
    sums = bootstrap._resample_sums(table, draws)
    assert sums.tobytes() == _plain_resample_sums(table, draws).tobytes()
    assert np.signbit(sums[-1]).sum() == 0


@pytest.mark.parametrize(
    "d_mean, d_cov, columns",
    [
        # mean M (2 d_mean + 1), R (d_mean + 1) and count; pair sums M[P, Q]
        # with P + Q <= 2 d_cov and R[p, q] with p + q <= d_cov at 2 cells; 2 counts
        (2, 1, 5 + 3 + 1 + 2 * 6 + 2 * 3 + 2),
        (1, 2, 3 + 2 + 1 + 2 * 15 + 2 * 6 + 2),
    ],
)
def test_bootstrap_table_holds_only_the_columns_its_solves_read(d_mean, d_cov, columns):
    est = {"d_mean": d_mean, "d_cov": d_cov, "eval_points": 21}
    est["policy"] = {"kind": "known-fraction", "expr": "0.5"}
    obs = _gap_panel()
    st = _resolve_settings(parse_config(cfg_dict(estimation=est)), obs)
    table, shapes = bootstrap._curve_statistics(obs, 0.5, st, st.h_m, st.h_G)
    assert table.shape == (obs.n, columns)
    assert sum(math.prod(shape) for shape in shapes) == columns


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
        err2 = np.where(~c.flags["excluded"], (c.mu_hat - mu_true(c.eval_grid)) ** 2, 0.0)
        assert row["emse_mu"] == float(np.trapezoid(err2, c.eval_grid))


def test_emse_records_a_replication_without_usable_xi2_as_failed(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one process sees every call
    calls = []
    real = harness.separate

    def first_without_xi2(*args):
        sigma2, xi2, flags = real(*args)
        calls.append(1)
        return sigma2, np.full_like(xi2, np.nan) if len(calls) == 1 else xi2, flags

    monkeypatch.setattr(harness, "separate", first_without_xi2)
    cfg = parse_config(
        cfg_dict(
            design={"n": 40, "r": 8},
            estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"replications": 2, "sim_steps": 100, "track": ["mu", "xi2"]},
        )
    )
    result = run_emse(cfg)
    assert len(calls) == 2
    assert [row["status"] for row in result.rows] == ["failed: EstimationFailedError", "ok"]
    assert result.failures == {40: 1}
    assert result.medians[40]["sup_xi2"] == result.rows[1]["sup_xi2"]


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


@pytest.mark.parametrize("nu_K", [100.0, 1000.0])
def test_identity_web_tolerance_scales_with_the_noise_sum(nu_K):
    # the routes agree to ~4e-6 relative here, which an absolute 1e-4 failed at nu_K = 1000
    reports = [
        run_oracle_check(
            parse_config(cfg_dict(model={"nu_K": nu_K}, experiment={"negative_control": neg})),
            mc=False,
        )
        for neg in (False, True)
    ]
    good, control = ({name: (val, tol, ok) for name, val, tol, ok in r.checks} for r in reports)
    assert reports[0].passed
    web = "identity web web_vs_target sup on [0,0.9]"
    # the tolerance is 1e-4 times the true noise sum's sup, not the wrong target's
    assert good[web][1] == control[web][1] > 1e-4 * nu_K * 0.5
    val, tol, ok = control[web]
    assert not ok and val > 1e3 * tol


# ------------------------------------------------------- forked study lanes


def _lane_config(**experiment):
    return parse_config(
        cfg_dict(
            design={"n": [30, 60], "r": 8},
            estimation={"eval_points": 11},
            experiment={"replications": 4, "sim_steps": 100, **experiment},
        )
    )


def _child_tasks(cfg) -> set:
    """The (n index, replication) tasks that run in the forked lane of two."""
    n_values = cfg.design["n"]
    reps = cfg.experiment["replications"]
    tasks = [(ni, rep) for ni in range(len(n_values)) for rep in range(reps)]
    return set(lanes.split_lanes(tasks, lambda task: n_values[task[0]], 2)[1])


def _no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity set, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _raise_in_children(monkeypatch, action):
    """Make `simulate_observations` call `action()` in forked lanes only."""
    parent = os.getpid()
    real = harness.simulate_observations

    def simulate(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(harness, "simulate_observations", simulate)


def test_split_lanes_is_greedy_longest_first():
    tasks = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
    cost = {0: 1, 1: 4}
    assert lanes.split_lanes(tasks, lambda t: cost[t[0]], 2) == [
        [(1, 0), (1, 2)],
        [(0, 0), (0, 1), (1, 1)],
    ]
    assert lanes.split_lanes(tasks, lambda t: 1, 8) == [[t] for t in tasks]
    assert lanes.split_lanes(tasks, lambda t: 1, 1) == [tasks]


def test_forked_study_equals_in_process_study(monkeypatch):
    cfg = _lane_config(track=["mu", "s"])
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = run_emse(cfg)
    assert len(forks) == 1
    _no_process_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = run_emse(cfg)
    assert len(forks) == 1  # one CPU: nothing forks
    assert forked.rows == serial.rows
    assert forked.medians == serial.medians
    assert forked.failures == serial.failures


def test_failed_fit_in_child_lane_is_a_failed_row(two_cpus, monkeypatch):
    cfg = _lane_config()
    clean = run_emse(cfg)

    def diverge():
        raise SimulationDivergedError(5, 2)

    _raise_in_children(monkeypatch, diverge)
    result = run_emse(cfg)
    _no_process_left()
    child = _child_tasks(cfg)
    assert result.failures == {30: 2, 60: 2}
    for row, ref in zip(result.rows, clean.rows):
        task = (cfg.design["n"].index(row["n"]), row["replication"])
        if task in child:
            assert row["status"] == "failed: SimulationDivergedError"
        else:
            assert row == ref


@pytest.mark.parametrize("exc", [ConfigError("bad key"), RuntimeError("boom")])
def test_fatal_error_in_child_lane_reaches_the_parent(two_cpus, monkeypatch, exc):
    def fail():
        raise exc

    _raise_in_children(monkeypatch, fail)
    with pytest.raises(type(exc), match=str(exc)):
        run_emse(_lane_config())
    _no_process_left()


def test_study_failing_in_every_lane_leaves_no_process(two_cpus, monkeypatch):
    def diverge(*args):
        raise SimulationDivergedError(1, 0)

    monkeypatch.setattr(harness, "simulate_observations", diverge)
    with pytest.raises(EstimationFailedError, match="4/4 replications failed at n=30"):
        run_emse(_lane_config())
    _no_process_left()


def test_failed_fork_runs_the_lane_in_process(two_cpus, monkeypatch):
    cfg = _lane_config()
    forked = run_emse(cfg)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_emse(cfg).rows == forked.rows


def test_lane_whose_child_dies_runs_in_process(two_cpus, monkeypatch):
    cfg = _lane_config()
    clean = run_emse(cfg)
    _raise_in_children(monkeypatch, lambda: os._exit(3))
    assert run_emse(cfg).rows == clean.rows
    _no_process_left()


def test_lane_stops_at_its_first_fatal_error(two_cpus, monkeypatch):
    calls = []

    def bad_config(*args):
        calls.append(os.getpid())
        raise ConfigError("bad key")

    monkeypatch.setattr(harness, "simulate_observations", bad_config)
    with pytest.raises(ConfigError, match="bad key"):
        run_emse(_lane_config())
    assert calls == [os.getpid()]  # this process's lane ran one of its four tasks
    _no_process_left()


def test_lane_simulates_every_replication_into_one_buffer(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = _lane_config(replications=3)
    clean = run_emse(cfg)
    first, same = [], []
    real = simulate.simulate_ensemble

    def spy(*args, **kwargs):
        out = kwargs["out"]
        if not first:
            first.append(weakref.ref(out))
        same.append(out is first[0]())
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_ensemble", spy)
    assert run_emse(cfg).rows == clean.rows
    assert same == [True] * 6  # one block per replication at n = 30 and 60
    assert first[0]() is None  # the study dropped it


def test_blas_runs_one_thread_per_lane_and_is_restored(two_cpus, monkeypatch):
    def threads():
        return [get() for get, _ in lanes._blas_thread_controls()]

    before = threads()
    seen = []
    real = harness.simulate_observations

    def simulate(*args):
        seen.append(threads())
        return real(*args)

    monkeypatch.setattr(harness, "simulate_observations", simulate)
    run_emse(_lane_config())
    assert len(seen) == 4 and all(t == [1] * len(before) for t in seen)
    assert threads() == before


def _fmt(x) -> str:
    """The per-cell formatter CSV artifacts were once written with: the oracle."""
    if type(x) is float:
        return repr(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _oracle_table(dest, header, cols) -> None:
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in cols]
    with open(dest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(x) for x in row] for row in zip(*cols))


_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.125, -2.5e-310,
]


@pytest.mark.parametrize("block", [3, 1 << 14])
@pytest.mark.parametrize(
    "cols",
    [
        [np.array(_EDGE_FLOATS), np.arange(13, dtype=np.int64), np.arange(13) % 3 == 0],
        [
            np.arange(13, dtype=np.int32),
            ["|".join(["excluded", "floored_tri"][: k % 3]) for k in range(13)],
            [np.float64(v) for v in _EDGE_FLOATS],
            _EDGE_FLOATS,
            [int(v) for v in np.arange(13) * 7],
        ],
        [  # numbers with empty cells, as a failed emse replication leaves them
            ["ok", "failed: EstimationFailedError", "ok", "", "ok"],
            [1.5, "", -0.0, "", math.nan],
            [3, "", 0, "", 12],
            ["", "", "", "", ""],
        ],
        [
            np.array([2.0**-1074 * k for k in range(4)]),
            np.zeros(4, dtype=bool),
            ["a b", "", "c", "d"],
        ],
        [np.empty(0), np.empty(0, dtype=int), []],
        [  # cells that csv quotes
            ["a,b", 'say "hi"', "two\nlines", "cr\r", "plain", ""],
            [0.5, "x,y", "", '"', 1e-300, "|"],
        ],
    ],
    ids=["arrays", "lists", "holes", "subnormal", "no-rows", "quoted"],
)
def test_write_table_matches_per_cell_writer(tmp_path, monkeypatch, cols, block):
    monkeypatch.setattr(harness, "_TABLE_BLOCK", block)
    header = [f"c{k}" for k in range(len(cols) - 1)] + ['last, "quoted"']
    write_table(tmp_path / "got.csv", header, cols)
    _oracle_table(tmp_path / "want.csv", header, cols)
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == want
    assert want.count(b"\r\n") == 1 + len(cols[0])


@pytest.mark.parametrize("block", [7, 1 << 14])
def test_surface_csv_equals_the_per_cell_write(tmp_path, monkeypatch, block):
    monkeypatch.setattr(harness, "_TABLE_BLOCK", block)
    rng = np.random.default_rng(3)
    times = np.concatenate((np.linspace(0.0, 1.0, 13), [2.0**-1074, 1.0 / 3.0, 0.1 + 0.2]))
    nt = times.size
    G2, ds2, dt2 = rng.standard_normal((3, nt, nt))
    flags = rng.random((nt, nt)) < 0.2
    G2[flags] = np.nan
    cov = CovEstimate(
        eval_times=times, G2=G2, ds2=ds2, dt2=dt2, pair_flags=flags,
        D_hat=np.diag(G2).copy(), dD_hat=np.zeros(nt), diag_flags=np.diag(flags).copy(),
        bandwidth=0.1,
    )
    harness.export_surface_csv(cov, tmp_path / "got.csv")
    iu = np.triu_indices(nt)
    cols = (times[iu[0]], times[iu[1]], G2[iu], ds2[iu], dt2[iu], flags[iu])
    write_table(tmp_path / "want.csv", ["s", "t", "G_hat", "dsG_hat", "dtG_hat", "flag"], cols)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_replication_holds_one_block_of_paths(monkeypatch):
    # an emse replication at n = 1600 and 1000 steps simulates and observes
    # its 12.8 MB of paths in two blocks of 800
    cfg = parse_config(cfg_dict(design={"n": 1600, "r": 10}, experiment={"sim_steps": 1000}))
    bundle, design = build_model(cfg), build_design(cfg)
    peak = _traced_peak(lambda: harness.simulate_observations(cfg, bundle, design, 3, 1600))
    assert peak < 1.5 * simulate._PATH_BLOCK_BYTES < 1600 * 1001 * 8
    # a study's replications at two sizes share one lane's buffer of the
    # largest block, 800 paths, of which n = 400 takes the first 400 rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    experiment = {"sim_steps": 1000, "replications": 3}
    cfg = parse_config(cfg_dict(design={"n": [400, 1600], "r": 10}, experiment=experiment))
    found = []
    peak = _traced_peak(lambda: found.extend(harness.replications(cfg, lambda obs: obs.n)))
    assert found == [(400, [400] * 3), (1600, [1600] * 3)]
    assert peak < 1.5 * simulate._PATH_BLOCK_BYTES < 2 * 800 * 1001 * 8


def test_oracle_monte_carlo_holds_one_block_of_paths():
    # 2400 paths of 1000 steps are 19.2 MB at once; the check keeps 11 columns
    cfg = parse_config(cfg_dict(experiment={"mc_paths": 2400, "sim_steps": 1000}))
    peak = _traced_peak(lambda: run_oracle_check(cfg))
    assert peak < 1.5 * simulate._PATH_BLOCK_BYTES < 2400 * 1001 * 8


# ------------------------------------------------------- curve ids with gaps


def _gapped(obs: SparseObservations, shift_from: int, by: int) -> SparseObservations:
    """`obs` with the ids of curves `shift_from`.. raised by `by`, leaving ids unused."""
    ids = np.where(obs.curve_id >= shift_from, obs.curve_id + by, obs.curve_id)
    return SparseObservations(curve_id=ids, t=obs.t, y=obs.y)


@pytest.mark.parametrize("shift_from, by, missing", [(15, 1, 15), (0, 2, 0)])
def test_estimate_and_bootstrap_reject_curve_ids_with_gaps(shift_from, by, missing):
    cfg = parse_config(
        cfg_dict(
            design={"n": 30, "r": 8},
            estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"B": 10, "sim_steps": 100},
        )
    )
    obs = observe(simulate_paths(cfg, build_model(cfg), 3, 30), build_design(cfg), 3)
    gapped = _gapped(obs, shift_from, by)
    runs = (gapped.validate, lambda: run_estimate(cfg, gapped), lambda: run_bootstrap(cfg, gapped))
    for run in runs:
        with pytest.raises(ValidationError, match=f"id {missing} is missing"):
            run()
    _no_process_left()


# ------------------------------------------------------- forked estimate lanes


def _estimate_config() -> harness.ExperimentConfig:
    """The config of `test_cli.py::test_estimate_end_to_end_simulated`, at n = 200."""
    return parse_config(
        cfg_dict(
            design={"n": 200, "r": 8},
            estimation={"eval_points": 11, "policy": {"kind": "known-fraction", "expr": "0.5"}},
            experiment={"sim_steps": 200},
        )
    )


def _estimate_panel(cfg, seed: int = 5) -> SparseObservations:
    paths = simulate_paths(cfg, build_model(cfg), seed, cfg.design["n"])
    return observe(paths, build_design(cfg), seed)


def _estimate_bytes(result) -> list[bytes]:
    cov, mean = result.cov_est, result.mean_est
    arrays = (cov.G2, cov.ds2, cov.dt2, cov.D_hat, cov.dD_hat, mean.m_hat, mean.dm_hat,
              result.coeffs.s_tri, np.float64(result.rho2_hat))
    return [np.asarray(a).tobytes() for a in arrays]


def _y2_smooth(obs, st, h):
    """The degree-2 smooth of Y^2 on the grid at bandwidth h, by `fit_mean_points`."""
    return fit_mean_points(replace_responses(obs, obs.y**2), st.grid, 2, h, st.kernel)


@pytest.mark.parametrize("estimation", [{"h_m": 0.3}, {"d_mean": 1}], ids=["h_m_0.3", "d_mean_1"])
def test_estimate_smooths_y2_at_the_degree_2_mean_rule(estimation):
    # rho2_hat reads the smooth of Y^2 at default_bandwidth_mean(obs, 2), whatever
    # bandwidth and degree the mean fit takes
    est = {"eval_points": 11, **estimation, "policy": {"kind": "known-fraction", "expr": "0.5"}}
    cfg = parse_config(cfg_dict(design={"n": 200, "r": 8}, estimation=est))
    obs = _estimate_panel(cfg)
    st = _resolve_settings(cfg, obs)
    h = default_bandwidth_mean(obs, 2)
    assert st.h_Y2 == h and st.h_m != h
    result = run_estimate(cfg, obs)

    def rho2(h):
        level = _y2_smooth(obs, st, h)[0]
        return noise_variance_estimate(obs, result.cov_est, lambda: level)

    assert (result.rho2_hat, result.rho2_floored) == rho2(h)
    assert rho2(st.h_m)[0] != result.rho2_hat


def test_s_diag_is_the_slope_of_the_y2_smooth_less_twice_mu_d():
    cfg = _estimate_config()
    obs = _estimate_panel(cfg)
    st = _resolve_settings(cfg, obs)
    result = run_estimate(cfg, obs)
    cov, coeffs = result.cov_est, result.coeffs
    _, dV, failed = _y2_smooth(obs, st, default_bandwidth_mean(obs, 2))
    assert not failed.any() and not cov.diag_flags.any()
    npt.assert_array_equal(cov.dD_hat, dV)
    npt.assert_array_equal(cov.D_hat, np.diag(cov.G2))
    s_diag = np.maximum(dV - 2.0 * coeffs.mu_hat * cov.D_hat, 0.0)
    npt.assert_array_equal(coeffs.s_diag, s_diag)
    npt.assert_array_equal(coeffs.flags["floored_diag"], dV - 2.0 * coeffs.mu_hat * cov.D_hat < 0)


def test_forked_estimate_equals_in_process_estimate(monkeypatch):
    cfg = _estimate_config()
    obs = _estimate_panel(cfg)
    controls = lanes._blas_thread_controls()
    saved = [get() for get, _ in controls]
    parent = os.getpid()
    forks, mean_pids = [], []
    real_fork, real_mean = os.fork, harness.fit_mean_curve

    def counted_fork():
        forks.append(1)
        return real_fork()

    def mean_here(*args):
        mean_pids.append(os.getpid())  # a forked lane's append never reaches this list
        return real_mean(*args)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(harness, "fit_mean_curve", mean_here)
    runs = {}
    try:
        for threads in (1, lanes._cpu_count()):
            for _, put in controls:
                put(threads)
            for cpus in ({0}, {0, 1}, {0, 1, 2, 3}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                del forks[:], mean_pids[:]
                runs[threads, len(cpus)] = _estimate_bytes(run_estimate(cfg, obs))
                _no_process_left()
                assert len(forks) == (len(cpus) > 1)  # two tasks: never more than one fork
                assert mean_pids == [parent]
    finally:
        for (_, put), threads in zip(controls, saved):
            put(threads)
    first = next(iter(runs.values()))
    assert all(found == first for found in runs.values())


def test_mean_and_surface_fits_run_here_and_the_grid_pass_forks(two_cpus, monkeypatch):
    cfg = _estimate_config()
    obs = _estimate_panel(cfg)
    parent = os.getpid()
    ran = {}  # a forked lane's calls never reach this dict

    def spy(name):
        real = getattr(harness, name)

        def call(*args, **kwargs):
            ran.setdefault(name, []).append(os.getpid())
            return real(*args, **kwargs)

        return call

    for name in ("fit_mean_curve", "smooth_squares", "surface_sums", "fit_cov_grid"):
        monkeypatch.setattr(harness, name, spy(name))
    runs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        ran.clear()
        result = run_estimate(cfg, obs)
        _no_process_left()
        runs.append(_estimate_bytes(result) + [result.coeffs.s_diag.tobytes()])
        here = {"fit_mean_curve": [parent], "smooth_squares": [parent], "fit_cov_grid": [parent]}
        assert ran == (here if len(cpus) > 1 else {**here, "surface_sums": [parent]})
    assert runs[0] == runs[1]


def _both_runs(monkeypatch, cfg, obs) -> list[tuple[type, str]]:
    """(class, message) of the error that `run_estimate` raises on one CPU, then on two."""
    found = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with pytest.raises(Exception) as exc:
            run_estimate(cfg, obs)
        _no_process_left()
        found.append((type(exc.value), str(exc.value)))
    return found


@pytest.mark.parametrize(
    "estimation, error, message",
    [
        ({"h_m": 0.001}, EstimationFailedError, "mean fit points failed"),
        ({"h_G": 0.001}, EstimationFailedError, "surface cells failed"),
        # the mean fit's failure comes first in the pipeline
        ({"h_m": 0.001, "h_G": 0.001}, EstimationFailedError, "mean fit points failed"),
    ],
)
def test_failed_fit_in_a_lane_raises_as_in_process(monkeypatch, estimation, error, message):
    cfg = parse_config(
        cfg_dict(
            design={"n": 20, "r": 4},
            estimation={"eval_points": 11, **estimation},
            experiment={"sim_steps": 100},
        )
    )
    one, two = _both_runs(monkeypatch, cfg, _estimate_panel(cfg))
    assert one == two
    assert one[0] is error and message in one[1]


def test_failed_noise_smooth_in_a_lane_raises_as_in_process(monkeypatch):
    def sparse(*args, **kwargs):
        raise SparseWindowError(0.25)

    monkeypatch.setattr(harness, "smooth_squares", sparse)
    cfg = _estimate_config()
    one, two = _both_runs(monkeypatch, cfg, _estimate_panel(cfg))
    assert one == two == (SparseWindowError, str(SparseWindowError(0.25)))


def test_lane_step_warning_is_shown_once_as_in_process(monkeypatch):
    real = harness.smooth_squares

    def noisy(*args, **kwargs):
        warnings.warn("smooth of Y^2 is rough", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "smooth_squares", noisy)
    cfg = _estimate_config()
    obs = _estimate_panel(cfg)
    runs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            runs.append(_estimate_bytes(run_estimate(cfg, obs)))
        _no_process_left()
        assert [(w.category, str(w.message)) for w in seen] == [
            (RuntimeWarning, "smooth of Y^2 is rough")
        ]
    assert runs[0] == runs[1]


def test_overflow_in_a_lane_raises_as_in_process(monkeypatch):
    # the grid pass overflows in the forked lane and the Y^2 smooth in this
    # process; a serial run stops at the grid pass
    cfg = parse_config(
        cfg_dict(
            model={"x0": {"kind": "normal", "mean": 0, "sd": 1e154}},
            design={"n": 30, "r": 6},
            estimation={"eval_points": 11},
            experiment={"sim_steps": 50},
        )
    )
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        one, two = _both_runs(monkeypatch, cfg, _estimate_panel(cfg))
    assert seen == []
    overflow = "estimation overflowed: overflow encountered in matmul"
    assert one == two == (EstimationFailedError, overflow)


def test_error_in_the_forked_estimate_lane_reaches_the_parent(two_cpus, monkeypatch):
    parent = os.getpid()
    real = harness.surface_sums

    def sums(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "surface_sums", sums)
    with pytest.raises(RuntimeError, match="boom"):
        run_estimate(_estimate_config(), _estimate_panel(_estimate_config()))
    _no_process_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_one_blas_thread_starts_no_worker_after_a_fork():
    # OpenBLAS shuts its pool down at a fork, and setting the thread count
    # restarts it with a worker that spins; a count already at 1 is not set
    controls = lanes._blas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(1)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        before = len(os.listdir("/proc/self/task"))
        with lanes._one_blas_thread():
            assert len(os.listdir("/proc/self/task")) == before
    finally:
        for (_, put), threads in zip(controls, saved):
            put(threads)
