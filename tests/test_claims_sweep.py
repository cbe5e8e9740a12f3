"""The shared acceptance verdicts at their bounds, and the report-only claims
sweep of `bench/claims_sweep.py` on one seed."""

import importlib.util
from pathlib import Path

import pytest

import claims

_PATH = Path(__file__).resolve().parent.parent / "bench" / "claims_sweep.py"
_SPEC = importlib.util.spec_from_file_location("claims_sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def c56(emse_mu=(4.0, 3.0, 2.0, 1.0), sup_xi2=(1.0, 0.6)):
    medians = {n: {"emse_mu": v} for n, v in zip(claims.N_VALUES, emse_mu)}
    medians[100]["sup_xi2"], medians[400]["sup_xi2"] = sup_xi2
    return {"medians": medians, "elapsed": 1.0}


def c4(level_dev=0.0, control_dev=0.25):
    return {"level_dev": level_dev, "control_dev": control_dev}


def c7(rel=0.05):
    bmse = {"mu": 1.0, "sigma2": 0.5, "xi2": 0.25}
    return {"B": 1000, "n_success": 1000, "bmse": bmse, "rel": dict.fromkeys(bmse, rel),
            "elapsed": 1.0}


def c2(ratio=0.5):
    return {"ratios": {"mean": 0.5, "second": ratio}, "elapsed": 1.0}


# (verdict, measured values at a bound, whether the bound passes there)
AT_BOUND = {
    "c5 two equal medians": (claims.verdict_c5, c56(emse_mu=(4.0, 3.0, 3.0, 1.0)), False),
    "c6 ratio 0.7": (claims.verdict_c6, c56(sup_xi2=(1.0, 0.7)), True),
    "c4 level +0.05": (claims.verdict_c4, c4(level_dev=0.05), True),
    "c4 level -0.05": (claims.verdict_c4, c4(level_dev=-0.05), True),
    "c4 control 0.15": (claims.verdict_c4, c4(control_dev=0.15), True),
    "c4 control 0.35": (claims.verdict_c4, c4(control_dev=0.35), True),
    "c7 shift 0.10": (claims.verdict_c7, c7(rel=0.10), False),
    "c2 ratio 1.0": (claims.verdict_c2, c2(ratio=1.0), True),
}

# the same bounds a little inside and a little outside
NEAR_BOUND = {
    "c5 decreasing": (claims.verdict_c5, c56(emse_mu=(4.0, 3.0, 2.999, 1.0)), True),
    "c5 rising": (claims.verdict_c5, c56(emse_mu=(4.0, 3.0, 3.001, 1.0)), False),
    "c6 below": (claims.verdict_c6, c56(sup_xi2=(1.0, 0.699)), True),
    "c6 above": (claims.verdict_c6, c56(sup_xi2=(1.0, 0.701)), False),
    "c4 level inside": (claims.verdict_c4, c4(level_dev=0.049), True),
    "c4 level outside": (claims.verdict_c4, c4(level_dev=-0.051), False),
    "c4 control low": (claims.verdict_c4, c4(control_dev=0.149), False),
    "c4 control high": (claims.verdict_c4, c4(control_dev=0.351), False),
    "c7 shift below": (claims.verdict_c7, c7(rel=0.099), True),
    "c7 shift above": (claims.verdict_c7, c7(rel=0.101), False),
    "c2 ratio below": (claims.verdict_c2, c2(ratio=0.999), True),
    "c2 ratio above": (claims.verdict_c2, c2(ratio=1.001), False),
}


@pytest.mark.parametrize("case", list(AT_BOUND))
def test_verdict_at_its_bound_has_zero_margin(case):
    verdict, measured, passes = AT_BOUND[case]
    ok, margin, detail = verdict(measured)
    assert (ok, margin) == (passes, 0.0)
    assert detail


@pytest.mark.parametrize("case", list(NEAR_BOUND))
def test_margin_sign_matches_verdict_near_its_bound(case):
    verdict, measured, passes = NEAR_BOUND[case]
    ok, margin, _ = verdict(measured)
    assert ok is passes
    assert (margin > 0) is passes and margin != 0


def test_sweep_prints_every_criterion_and_both_pass_counts(capsys):
    sweep.main(["--seeds", "1"])
    out = capsys.readouterr().out.splitlines()
    verdicts = [line.split()[:2] for line in out if line.startswith("  c")]
    assert [v[0] for v in verdicts] == ["c2", "c4", "c5", "c6", "c7"]
    assert all(v[1] in ("PASS", "FAIL") for v in verdicts)
    assert any(line.startswith("     EMSE(mu) t<0.9 | t>=0.9") for line in out)
    (slopes,) = [line for line in out if line.startswith("     slope on log n: EMSE(mu) ")]
    assert slopes.endswith("bandwidth rule targets -0.571 (-4/7)")
    assert " t<0.9 " in slopes and " sup xi2 error " in slopes
    counts = [line for line in out if line.startswith("criterion ")]
    assert len(counts) == 5
    assert all("/1 at seeds 1-8 (development), 0/0 held out" in line for line in counts)


def test_log_slope_recovers_a_power_law():
    ns = list(claims.N_VALUES)
    assert sweep.log_slope(ns, [3.0 * n ** (-4 / 7) for n in ns]) == pytest.approx(-4 / 7)
    assert sweep.log_slope([1.0, 2.0], [5.0, 5.0]) == 0.0
