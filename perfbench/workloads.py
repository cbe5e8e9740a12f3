"""The benchmark's workloads: configs, seeded inputs, output checks, quality.

Each workload times one `sparsesde` command-line call.  Its inputs
(config, and for `estimate` and `bootstrap` an observation panel) are made
from the workload seed through the package's public simulate / observe /
export functions, outside any timed region.  After the first command call of
a run its outputs are checked against reference code paths and the closed
form moment oracle, and quality figures are read off them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsesde import harness
from sparsesde.covfit import default_bandwidth_cov, fit_cov_at, fit_diag, pair_scatter
from sparsesde.errors import SparseWindowError
from sparsesde.kernels import kernel_by_name
from sparsesde.meanfit import default_bandwidth_mean, fit_mean_at
from sparsesde.moments import cov_value, solve_moments
from sparsesde.observe import SparseObservations, export_observations_csv, ingest_csv, observe
from sparsesde.recover import separate
from sparsesde.simulate import PathGrid, simulate_ensemble

# agreement required between command outputs and the reference recomputation
REL_TOL = 1e-10
# paths simulated per block when building a panel, so that input generation
# never holds more memory than the timed command call does
PANEL_BLOCK = 200

_SINUSOID = {"kind": "builtin", "name": "sinusoid", "nu_K": 1.0}


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one run: the config and, if any, the panel CSV."""

    command: str
    config: dict
    config_path: Path
    panel_path: Path | None
    size: dict

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, "--config", str(self.config_path), "--out", str(out_dir)]
        if self.panel_path is not None:
            argv += ["--obs-csv", str(self.panel_path)]
        return argv

    def parsed(self) -> harness.ExperimentConfig:
        return harness.parse_config(self.config)


class Workload:
    """One command call at pinned sizes; subclasses fill in the specifics."""

    name: str
    command: str
    # package modules that must record at least one span per traced call
    layers: tuple[str, ...]
    sizes: dict
    smoke_sizes: dict

    def config(self, seed: int, size: dict) -> dict:
        raise NotImplementedError

    def panel_n(self, size: dict) -> int | None:
        return None

    def prepare(self, seed: int, smoke: bool, work_dir: Path) -> Inputs:
        size = self.smoke_sizes if smoke else self.sizes
        cfg = self.config(seed, size)
        work_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = work_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        panel = None
        n = self.panel_n(size)
        if n is not None:
            panel = work_dir / "panel.csv"
            write_panel(harness.parse_config(cfg), seed, n, panel)
        return Inputs(self.command, cfg, cfg_path, panel, size)

    def check(self, inp: Inputs, out_dir: Path) -> list[str]:
        """Problems found in the outputs of one command call; empty if none."""
        raise NotImplementedError

    def quality(self, inp: Inputs, out_dir: Path) -> dict[str, tuple[float, str]]:
        """Seed-exact quality figures: name -> (value, unit)."""
        raise NotImplementedError


def write_panel(cfg: harness.ExperimentConfig, seed: int, n: int, dest: Path) -> None:
    """Simulate n curves in blocks, observe them and export the long CSV."""
    bundle = harness.build_model(cfg)
    design = harness.build_design(cfg)
    grid = PathGrid(*bundle.coeffs.span, cfg.experiment["sim_steps"])
    cid, tt, yy = [], [], []
    for block, start in enumerate(range(0, n, PANEL_BLOCK)):
        sub = int(np.random.SeedSequence([seed, block]).generate_state(1)[0])
        size = min(PANEL_BLOCK, n - start)
        paths = simulate_ensemble(bundle.coeffs, bundle.levy, grid, bundle.x0_law, size, sub)
        obs = observe(paths, design, sub)
        cid.append(obs.curve_id + start)
        tt.append(obs.t)
        yy.append(obs.y)
    panel = SparseObservations(
        curve_id=np.concatenate(cid), t=np.concatenate(tt), y=np.concatenate(yy)
    )
    panel.validate()
    export_observations_csv(panel, dest)


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _mismatch(got, ref) -> float:
    """Largest deviation between two tuples, relative to the larger |ref|."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


def sample_cells(G: int) -> list[tuple[int, int]]:
    """Fixed off-diagonal surface cells (i < j) recomputed by the check.

    Three edge cells, where windows widen, plus a seed-independent draw.
    """
    pairs = [(i, j) for i in range(G) for j in range(i + 1, G)]
    edges = {(0, 1), (0, G - 1), (G - 2, G - 1)}
    rest = [p for p in pairs if p not in edges]
    pick = np.random.default_rng(0).choice(len(rest), size=min(13, len(rest)), replace=False)
    return sorted(edges | {rest[k] for k in pick})


def _oracle(cfg: harness.ExperimentConfig):
    bundle = harness.build_model(cfg)
    return solve_moments(bundle.unit_coeffs, bundle.unit_levy, bundle.m0, bundle.D0)


class EstimateN1600(Workload):
    name = "estimate_n1600"
    command = "estimate"
    layers = ("cli", "harness", "observe", "meanfit", "covfit", "recover")
    # tol_m, tol_G: bands on |m_hat - m| and |G_hat - G| against the
    # closed-form moments.  At n = 1600 the largest deviations seen over
    # seeds 1..15 were 0.04 and 0.09; a broken estimator lands far outside.
    sizes = {"n": 1600, "r": 10, "G": 51, "tol_m": 0.2, "tol_G": 0.3}
    smoke_sizes = {"n": 120, "r": 8, "G": 11, "tol_m": 0.5, "tol_G": 1.0}
    MEAN_POINTS = (0.1, 0.5, 0.9)

    def config(self, seed, size):
        return {
            "schema_version": 1,
            "model": _SINUSOID,
            "design": {"n": size["n"], "r": size["r"], "noise_sd": 0.1},
            "estimation": {
                "eval_points": size["G"],
                "mu_threshold": 0.05,
                "policy": {"kind": "known-sigma", "expr": "0.25 * sin(t)**2"},
            },
            "experiment": {"master_seed": seed},
        }

    def panel_n(self, size):
        return size["n"]

    def _surface(self, out_dir: Path, G: int) -> dict[tuple[int, int], dict]:
        rows = read_rows(out_dir / "surface.csv")
        if len(rows) != G * (G + 1) // 2:
            raise ValueError(f"surface.csv has {len(rows)} rows, expected {G * (G + 1) // 2}")
        cells = iter(rows)
        return {(i, j): next(cells) for i in range(G) for j in range(i, G)}

    def check(self, inp, out_dir):
        problems = []
        cfg = inp.parsed()
        e = cfg.estimation
        G = e["eval_points"]
        grid = np.linspace(0.0, 1.0, G)
        kernel = kernel_by_name(e["kernel"])
        obs = ingest_csv(inp.panel_path)
        surface = self._surface(out_dir, G)
        sol = _oracle(cfg)

        scatter = pair_scatter(obs)
        h_G = default_bandwidth_cov(obs, e["d_cov"])
        for i, j in sample_cells(G):
            row = surface[(i, j)]
            if float(row["s"]) != grid[i] or float(row["t"]) != grid[j]:
                problems.append(f"surface cell ({i},{j}) sits at ({row['s']},{row['t']})")
                continue
            try:
                ref = fit_cov_at(scatter, grid[i], grid[j], e["d_cov"], h_G, kernel)
            except SparseWindowError:
                if row["flag"] != "1":
                    problems.append(f"surface cell ({i},{j}) should be flagged")
                continue
            if row["flag"] != "0":
                problems.append(f"surface cell ({i},{j}) flagged, reference fits it")
                continue
            got = (float(row["G_hat"]), float(row["dsG_hat"]), float(row["dtG_hat"]))
            dev = _mismatch(got, ref)
            if not dev <= REL_TOL:
                problems.append(f"surface cell ({i},{j}) off the reference by {dev:.3g} rel")
            band = abs(got[0] - float(cov_value(sol, grid[i], grid[j])))
            if not band <= inp.size["tol_G"]:
                problems.append(f"surface cell ({i},{j}) off the oracle G by {band:.3g}")

        mean = read_rows(out_dir / "mean.csv")
        h_m = default_bandwidth_mean(obs, e["d_mean"])
        for t in self.MEAN_POINTS:
            k = int(round(t * (G - 1)))
            row = mean[k]
            ref = fit_mean_at(obs, grid[k], e["d_mean"], h_m, kernel)
            dev = _mismatch((float(row["m_hat"]), float(row["dm_hat"])), ref)
            if not dev <= REL_TOL:
                problems.append(f"mean at t={grid[k]:g} off the reference by {dev:.3g} rel")
        m_hat = np.array([float(r["m_hat"]) for r in mean])
        ok = np.array([r["flag"] == "0" for r in mean])
        worst = float(np.max(np.abs(m_hat[ok] - sol.mean_at(grid[ok])))) if ok.any() else np.inf
        if not worst <= inp.size["tol_m"]:
            problems.append(f"mean curve off the oracle m by {worst:.3g}")

        manifest = json.loads((out_dir / "manifest.json").read_text())
        if not math.isfinite(manifest["results"]["rho2_hat"]):
            problems.append("noise variance estimate is not finite")
        return problems

    def quality(self, inp, out_dir):
        cfg = inp.parsed()
        e = cfg.estimation
        G = e["eval_points"]
        mu, _, xi2, s = harness.unit_truth(harness.build_model(cfg))
        surface = self._surface(out_dir, G)
        mean = read_rows(out_dir / "mean.csv")
        coef = read_rows(out_dir / "coefficients.csv")
        grid = np.array([float(r["t"]) for r in coef])

        def col(name):
            return np.array([float(r[name]) for r in coef])

        flagged = sum(r["flag"] != "0" for r in surface.values())
        flagged += sum(r["flag"] != "0" for r in mean)
        region = np.array(["excluded" not in r["flags"].split("|") for r in coef])
        err_mu = np.where(region, (col("mu_hat") - mu(grid)) ** 2, 0.0)

        keep = grid <= 1.0 - float(e["epsilon"]) + 1e-12
        s_tri = col("s_tri")[keep]
        finite = np.isfinite(s_tri)
        err_s = np.where(finite, (np.where(finite, s_tri, 0.0) - s(grid[keep])) ** 2, 0.0)

        sel = (grid <= 0.8 + 1e-12) & np.isfinite(col("xi2_hat"))
        return {
            "failed_frac": (flagged / (len(surface) + len(mean)), "ratio"),
            "err_mu": (float(np.trapezoid(err_mu, grid)), "1"),
            "err_s": (float(np.trapezoid(err_s, grid[keep])), "1"),
            "err_xi2": (float(np.max(np.abs(col("xi2_hat")[sel] - xi2(grid[sel])))), "1"),
        }


class BootstrapN100(Workload):
    name = "bootstrap_n100"
    command = "bootstrap"
    layers = ("cli", "harness", "observe", "meanfit", "covfit", "recover")
    sizes = {"n": 100, "r": 12, "B": 1000}
    smoke_sizes = {"n": 60, "r": 12, "B": 40}

    def config(self, seed, size):
        return {
            "schema_version": 1,
            "model": _SINUSOID,
            "design": {"n": size["n"], "r": size["r"], "noise_sd": 0.1},
            "estimation": {"policy": {"kind": "known-fraction", "expr": "0.5"}},
            "experiment": {"master_seed": seed, "B": size["B"], "t_star": 0.5},
        }

    def panel_n(self, size):
        return size["n"]

    def _summary(self, out_dir: Path) -> dict[str, dict]:
        return {r["quantity"]: r for r in read_rows(out_dir / "bootstrap_summary.csv")}

    def check(self, inp, out_dir):
        problems = []
        cfg = inp.parsed()
        e, x = cfg.estimation, cfg.experiment
        t_star, B = float(x["t_star"]), int(x["B"])
        kernel = kernel_by_name(e["kernel"])
        obs = ingest_csv(inp.panel_path)
        summary = self._summary(out_dir)
        if sorted(summary) != ["mu", "sigma2", "xi2"]:
            return [f"bootstrap_summary.csv quantities {sorted(summary)}"]

        # point estimates by the reference pointwise fits on the full panel
        h_m = default_bandwidth_mean(obs, e["d_mean"])
        h_G = default_bandwidth_cov(obs, e["d_cov"])
        m, dm = fit_mean_at(obs, t_star, e["d_mean"], h_m, kernel)
        D, dD = fit_diag(pair_scatter(obs), t_star, e["d_cov"], h_G, kernel)
        mu = dm / m
        s_val = max(dD - 2.0 * mu * D, 0.0)
        nu_K = float(cfg.model["nu_K"])
        sigma2, xi2, _ = separate(
            np.array([t_star]), np.array([s_val]), harness.build_policy(cfg), nu_K
        )
        ref = {"mu": mu, "sigma2": float(sigma2[0]), "xi2": float(xi2[0])}
        for key, row in summary.items():
            dev = _mismatch(float(row["point_estimate"]), ref[key])
            if not dev <= REL_TOL:
                problems.append(f"{key} point estimate off the reference by {dev:.3g} rel")
            bmse = float(row["bmse"])
            if not (math.isfinite(bmse) and bmse > 0):
                problems.append(f"{key} BMSE {row['bmse']} is not finite and positive")
            if int(row["B"]) != B or float(row["t_star"]) != t_star:
                problems.append(f"{key} row reports B={row['B']} t_star={row['t_star']}")
            used = int(row["resamples_used"])
            if not 0.8 * B <= used <= B:
                problems.append(f"{used}/{B} resamples used, below 0.8 B")
        return problems

    def quality(self, inp, out_dir):
        row = self._summary(out_dir)["mu"]
        B, used = int(row["B"]), int(row["resamples_used"])
        return {"failed_frac": ((B - used) / B, "ratio")}


class EmseMu(Workload):
    name = "emse_mu"
    command = "emse"
    layers = ("cli", "harness", "simulate", "observe", "meanfit", "recover")
    sizes = {"n": [400, 1600], "r": 10, "reps": 10, "steps": 1000}
    smoke_sizes = {"n": [60, 120], "r": 10, "reps": 2, "steps": 200}

    def config(self, seed, size):
        return {
            "schema_version": 1,
            "model": _SINUSOID,
            "design": {"n": size["n"], "r": size["r"], "noise_sd": 0.1},
            "estimation": {"mu_threshold": 0.05},
            "experiment": {
                "master_seed": seed,
                "replications": size["reps"],
                "sim_steps": size["steps"],
                "track": ["mu"],
            },
        }

    def check(self, inp, out_dir):
        problems = []
        cfg = inp.parsed()
        n_values = cfg.design["n"]
        reps = cfg.experiment["replications"]
        rows = read_rows(out_dir / "emse.csv")
        if [(int(r["n"]), int(r["replication"])) for r in rows] != [
            (n, k) for n in n_values for k in range(reps)
        ]:
            return ["emse.csv does not hold one row per (n, replication)"]
        summary = {int(r["n"]): r for r in read_rows(out_dir / "emse_summary.csv")}
        for n in n_values:
            mine = [r for r in rows if int(r["n"]) == n]
            ok = [r for r in mine if r["status"] == "ok"]
            bad = [r for r in mine if r["status"] != "ok"]
            for r in ok:
                vals = (float(r["emse_mu"]), float(r["excluded_points"]))
                if not all(math.isfinite(v) for v in vals):
                    problems.append(f"n={n} replication {r['replication']} is not finite")
            for r in bad:
                if not r["status"].startswith("failed: "):
                    problems.append(f"n={n} replication {r['replication']}: {r['status']!r}")
            if n not in summary or int(summary[n]["failures"]) != len(bad):
                problems.append(f"n={n} summary does not record {len(bad)} failures")
                continue
            med = float(np.median([float(r["emse_mu"]) for r in ok]))
            dev = _mismatch(float(summary[n]["median_emse_mu"]), med)
            if not dev <= REL_TOL:
                problems.append(f"n={n} median EMSE(mu) off the rows by {dev:.3g} rel")
        return problems

    def quality(self, inp, out_dir):
        rows = read_rows(out_dir / "emse.csv")
        summary = read_rows(out_dir / "emse_summary.csv")
        failed = sum(r["status"] != "ok" for r in rows)
        largest = max(summary, key=lambda r: int(r["n"]))
        return {
            "failed_frac": (failed / len(rows), "ratio"),
            "err_mu": (float(largest["median_emse_mu"]), "1"),
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (EstimateN1600(), BootstrapN100(), EmseMu())
}
