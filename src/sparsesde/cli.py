"""Command line interface.

Every subcommand reads one JSON config (--config), honours --seed and --out
overrides, writes its artifacts plus a manifest into the output directory,
and prints a one-line summary per artifact.  Outputs are byte-identical
across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, harness
from .errors import ConfigError, SparseSdeError
from .observe import export_observations_csv, ingest_csv, ingest_wide_csv
from .simulate import export_paths_csv


def _add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
    p.add_argument("--config", required=needs_config, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override experiment.master_seed")
    p.add_argument("--out", default=None, help="override output.directory")


def _add_obs_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs-csv", default=None, help="observations file (default: simulate)")
    p.add_argument("--wide", action="store_true", help="obs file is wide format")
    p.add_argument(
        "--rescale-time",
        nargs=2,
        type=float,
        metavar=("T0", "T1"),
        default=None,
        help="map ingested times from [T0, T1] to [0, 1]",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sparsesde",
        description="simulate, observe and estimate linear jump-diffusion panels",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an ensemble of paths")
    _add_common(p)

    p = sub.add_parser("observe", help="simulate and sample sparse noisy observations")
    _add_common(p)

    p = sub.add_parser("estimate", help="recover coefficients from observations")
    _add_common(p)
    _add_obs_source(p)

    p = sub.add_parser("emse", help="replicated error study across sample sizes")
    _add_common(p)

    p = sub.add_parser("bootstrap", help="curve-level bootstrap at t_star")
    _add_common(p)
    _add_obs_source(p)

    p = sub.add_parser("oracle-check", help="identity web and Monte Carlo cross-check")
    _add_common(p)
    return ap


def _prepare(args) -> tuple[harness.ExperimentConfig, int, Path]:
    cfg = harness.load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.experiment["master_seed"]
    _, check, what = harness._SCHEMA["experiment"]["master_seed"]
    if not check(seed):
        raise ConfigError(f"--seed must be {what}")
    cfg.experiment["master_seed"] = seed  # cfg.raw, which the manifest hashes, keeps the file's
    out = Path(args.out if args.out is not None else cfg.output["directory"])
    out.mkdir(parents=True, exist_ok=True)
    return cfg, seed, out


def _load_obs(args, cfg, bundle, seed):
    if args.obs_csv is None:
        n = harness._single_n(cfg)
        obs = harness.simulate_observations(cfg, bundle, harness.build_design(cfg), seed, n)
        return obs, ["observations simulated"]
    if args.wide:
        if args.rescale_time is not None:
            raise SparseSdeError(
                "--rescale-time applies to long-format files only; "
                "wide columns already map to midpoint times in (0, 1)"
            )
        obs = ingest_wide_csv(args.obs_csv)
    else:
        span = None if args.rescale_time is None else tuple(args.rescale_time)
        obs = ingest_csv(args.obs_csv, time_span=span)
    notes = [f"observations ingested from {Path(args.obs_csv).name}"]
    if args.rescale_time is not None:
        t0, t1 = args.rescale_time
        notes.append(f"ingested times mapped from [{t0:g}, {t1:g}] to [0, 1]")
    return obs, notes


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .lanes import _one_blas_thread  # compiled on the first call, not at import

    try:
        with _one_blas_thread():
            return _dispatch(args)
    except (SparseSdeError, OSError, MemoryError) as exc:  # sizes within the caps can still not fit
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg, seed, out = _prepare(args)
    bundle = harness.build_model(cfg)

    if args.command == "simulate":
        paths = harness.simulate_paths(cfg, bundle, seed, harness._single_n(cfg))
        export_paths_csv(paths, out / "paths.csv")
        harness.write_manifest(out, "simulate", cfg, seed, bundle.notes)
        print(f"wrote {out / 'paths.csv'} ({paths.n} paths, {paths.grid.steps} steps)")
        return 0

    if args.command == "observe":
        n = harness._single_n(cfg)
        obs = harness.simulate_observations(cfg, bundle, harness.build_design(cfg), seed, n)
        export_observations_csv(obs, out / "observations.csv")
        harness.write_manifest(out, "observe", cfg, seed, bundle.notes)
        print(f"wrote {out / 'observations.csv'} ({obs.total} rows, {obs.n} curves)")
        return 0

    if args.command == "estimate":
        obs, notes = _load_obs(args, cfg, bundle, seed)
        res = harness.run_estimate(cfg, obs)
        harness.export_mean_csv(res.mean_est, out / "mean.csv")
        harness.export_surface_csv(res.cov_est, out / "surface.csv")
        harness.export_surface_diag_csv(res.cov_est, out / "surface_diag.csv")
        harness.export_coefficients_csv(res.coeffs, out / "coefficients.csv")
        harness.write_manifest(
            out,
            "estimate",
            cfg,
            seed,
            bundle.notes + notes,
            results={
                "rho2_hat": res.rho2_hat,
                "rho2_floored": res.rho2_floored,
                "h_m": res.h_m,
                "h_G": res.h_G,
                "mu_threshold": res.coeffs.mu_threshold,
                "surface_fallback_cells": res.cov_est.fallback_cells,
            },
        )
        for name in ("mean.csv", "surface.csv", "surface_diag.csv", "coefficients.csv"):
            print(f"wrote {out / name}")
        print(f"noise variance estimate: {res.rho2_hat:.6g}")
        return 0

    if args.command == "emse":
        result = harness.run_emse(cfg)
        harness.export_emse_csv(result, out)
        harness.write_manifest(out, "emse", cfg, seed, bundle.notes)
        print(f"wrote {out / 'emse.csv'} and {out / 'emse_summary.csv'}")
        for n in result.n_values:
            meds = result.medians[n]
            stats = ", ".join(f"{k}={v:.6g}" for k, v in sorted(meds.items()))
            print(f"n={n}: {stats} ({result.failures[n]} failures)")
        return 0

    if args.command == "bootstrap":
        obs, notes = _load_obs(args, cfg, bundle, seed)
        result = harness.run_bootstrap(cfg, obs)
        harness.export_bootstrap_csv(result, out)
        results = {
            "resamples_used": result.n_success,
            "bootstrap_fallback_resamples": result.fallback,
        }
        harness.write_manifest(out, "bootstrap", cfg, seed, bundle.notes + notes, results)
        print(f"wrote {out / 'bootstrap_summary.csv'}")
        for key in ("mu", "sigma2", "xi2"):
            print(
                f"{key}(t={result.t_star:g}): point {result.point[key]:.6g}, "
                f"BMSE {result.bmse[key]:.6g}"
            )
        return 0

    if args.command == "oracle-check":
        report = harness.run_oracle_check(cfg)
        harness.export_oracle_report(report, out / "oracle_check.txt")
        harness.export_oracle_csvs(report.solution, out)
        harness.write_manifest(out, "oracle-check", cfg, seed, bundle.notes)
        with open(out / "oracle_check.txt") as fh:
            sys.stdout.write(fh.read())
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
