"""Spans around calls into the package's public functions, kept in memory.

While a `Tracer` is installed, every call of a function named in `TARGETS`,
from anywhere in the package, becomes one span with a name, start, end,
parent and the id of the command call it belongs to.  The wrappers replace
each module binding of the function (whether a caller imported the name or
looks it up on the module) and are removed again afterwards, so untraced
calls run the package untouched.  Span names are `<layer>.<part>`, where the
layer is the package module the part belongs to.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np


def _surface_counts(est) -> dict[str, int]:
    iu = np.triu_indices(est.eval_times.size)
    return {
        "covfit.surface_cells": int(iu[0].size),
        "covfit.surface_flagged": int(est.pair_flags[iu].sum()),
    }


# (module, function, span name, counts read off the result)
TARGETS = [
    ("simulate", "simulate_ensemble", "simulate.busy",
     lambda r: {"simulate.path_steps": int(r.values.shape[0] * (r.values.shape[1] - 1))}),
    ("observe", "observe", "observe.busy", lambda r: {"observe.rows": int(r.total)}),
    ("observe", "ingest_csv", "observe.ingest", None),
    ("observe", "SparseObservations.subset", "observe.subset", None),
    ("meanfit", "fit_mean_curve", "meanfit.curve",
     lambda r: {"meanfit.flagged": int(r.flags.sum())}),
    ("meanfit", "fit_mean_at", "meanfit.point", None),
    ("covfit", "pair_scatter", "covfit.scatter", lambda r: {"covfit.scatter_pairs": int(r.size)}),
    ("covfit", "fit_cov_grid", "covfit.surface", _surface_counts),
    ("covfit", "fit_diag", "covfit.diag", None),
    ("covfit", "noise_variance_estimate", "covfit.noise_var", None),
    ("recover", "estimate_drift", "recover.busy", None),
    ("recover", "estimate_total_noise", "recover.busy",
     lambda r: {"recover.failed_tri": int(r[2]["failed_tri"].sum())}),
    ("recover", "separate", "recover.busy", None),
    ("harness", "run_estimate", "harness.run", None),
    ("harness", "run_bootstrap", "harness.run", None),
    ("harness", "run_emse", "harness.run", None),
    # artifact writers live in harness but are called by the cli per command
    ("harness", "write_manifest", "cli.export", None),
    ("harness", "export_mean_csv", "cli.export", None),
    ("harness", "export_surface_csv", "cli.export", None),
    ("harness", "export_surface_diag_csv", "cli.export", None),
    ("harness", "export_coefficients_csv", "cli.export", None),
    ("harness", "export_emse_csv", "cli.export", None),
    ("harness", "export_bootstrap_csv", "cli.export", None),
]

# per-layer metric -> span name whose outermost spans it sums, in seconds
TIME_METRICS = {
    "covfit.surface_s": "covfit.surface",
    "covfit.scatter_s": "covfit.scatter",
    "covfit.diag_s": "covfit.diag",
    "covfit.noise_var_s": "covfit.noise_var",
    "observe.subset_s": "observe.subset",
    "observe.busy_s": "observe.busy",
    "observe.ingest_s": "observe.ingest",
    "meanfit.point_s": "meanfit.point",
    "meanfit.curve_s": "meanfit.curve",
    "simulate.busy_s": "simulate.busy",
    "recover.busy_s": "recover.busy",
    "cli.export_s": "cli.export",
}
# per-layer metric -> span name whose spans it counts
CALL_METRICS = {
    "covfit.scatter_calls": "covfit.scatter",
    "covfit.diag_calls": "covfit.diag",
    "observe.subset_calls": "observe.subset",
    "meanfit.point_calls": "meanfit.point",
}
COUNT_METRICS = (
    "covfit.surface_cells",
    "covfit.surface_flagged",
    "covfit.scatter_pairs",
    "simulate.path_steps",
    "observe.rows",
    "meanfit.flagged",
    "recover.failed_tri",
)
ROOT = "cli.main"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.call: int | None = None

    @contextmanager
    def span(self, name: str, fn: str = ""):
        rec = {
            "id": len(self.spans),
            "call": self.call,
            "name": name,
            "fn": fn,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def command_call(self, call: int):
        """Root span of one command call; its id tags every span inside."""
        self.call = call
        try:
            with self.span(ROOT) as rec:
                yield rec
        finally:
            self.call = None

    def _wrap(self, fn, name: str, fn_name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, fn_name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec["counts"] = count(result)
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; yields targets not found."""
        modules = [
            m for k, m in list(sys.modules.items()) if k == "sparsesde" or k.startswith("sparsesde.")
        ]
        saved: list[tuple[object, str, object]] = []
        missing: list[str] = []
        for mod_name, qual, name, count in TARGETS:
            home = sys.modules.get(f"sparsesde.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                missing.append(f"{mod_name}.{qual}")
                continue
            wrapper = self._wrap(orig, name, f"{mod_name}.{qual}", count)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        saved.append((holder, key, val))
                        setattr(holder, key, wrapper)
        try:
            yield missing
        finally:
            for holder, key, val in reversed(saved):
                setattr(holder, key, val)


def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def call_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one command call from its spans."""
    by_id = {s["id"]: s for s in spans}

    def outermost(rec):
        parent = rec["parent"]
        while parent is not None:
            if by_id[parent]["name"] == rec["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    out: dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = sum(_duration(s) for s in spans if s["name"] == name and outermost(s))
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(1 for s in spans if s["name"] == name)
    for metric in COUNT_METRICS:
        out[metric] = sum(s["counts"].get(metric, 0) for s in spans)
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _duration(s)
    out["harness.self_s"] = sum(
        _duration(s) - children.get(s["id"], 0.0) for s in spans if s["name"] == "harness.run"
    )
    return out


def layers_seen(spans: list[dict]) -> set[str]:
    """Package layers that recorded a span below the root of a call."""
    return {s["name"].split(".")[0] for s in spans if s["parent"] is not None}


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(c[k] for c in per_call)) for k in per_call[0]}
