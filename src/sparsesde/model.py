"""Model ingredients: time-varying coefficients, jump activity, initial laws.

The process under study is a scalar linear SDE

    dX(t) = mu(t) X(t) dt + sigma(t) dW(t) + xi(t) d(compensated small jumps)

with deterministic coefficient functions mu, sigma, xi on a finite time span
and a finite small-jump activity nu_K.  This module holds the coefficient
containers, a small safe-expression parser for config files, the built-in
models used by the experiment harness, and the affine time rescale that
maps a model on [t0, t1] to the unit interval.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ValidationError

# names allowed inside coefficient expressions
_EXPR_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "arctan": np.arctan,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "sign": np.sign,
    "pi": np.pi,
    "e": np.e,
}


def expression_function(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a coefficient expression in the variable ``t``.

    Only arithmetic and the whitelisted math names are allowed; anything
    else raises ConfigError, as does an evaluation that divides by zero,
    overflows or leaves its domain.  The returned callable is vectorised.
    """
    try:
        tree = ast.parse(expr, "<coefficient>", "eval")
        code = compile(tree, "<coefficient>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    # a lambda or comprehension has a scope of its own, whose names the
    # whitelist below does not see (since Python 3.12 a list comprehension
    # is inlined, so this is checked on the syntax tree, not the code object)
    if any(isinstance(node, (ast.Lambda, ast.comprehension)) for node in ast.walk(tree)):
        raise ConfigError(f"no lambda or comprehension allowed in expression {expr!r}")
    for name in code.co_names:
        if name != "t" and name not in _EXPR_FUNCS:
            raise ConfigError(f"name {name!r} not allowed in expression {expr!r}")

    def f(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):  # not underflow
                out = eval(code, {"__builtins__": {}}, {**_EXPR_FUNCS, "t": t})
            return np.broadcast_to(np.asarray(out, dtype=float), t.shape).copy()
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc

    return f


def constant_function(value: float) -> Callable[[np.ndarray], np.ndarray]:
    value = float(value)

    def f(t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), value)

    return f


@dataclass(frozen=True)
class CoefficientSet:
    """Deterministic coefficient functions of the SDE on a fixed span.

    mu, sigma and xi are vectorised callables of time.  They must be finite
    on the span; sigma^2 and xi^2 must integrate to finite values (checked
    on a 1001-point grid at construction via `validate`).
    """

    mu: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray], np.ndarray]
    span: tuple[float, float] = (0.0, 1.0)

    @np.errstate(over="ignore")  # an overflow leaves inf, which the checks below reject
    def validate(self) -> None:
        t0, t1 = self.span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValidationError(f"bad span {self.span}")
        grid = np.linspace(t0, t1, 1001)
        for name in ("mu", "sigma", "xi"):
            vals = np.asarray(getattr(self, name)(grid), dtype=float)
            if vals.shape != grid.shape:
                raise ValidationError(f"{name} must return one value per time")
            if not np.all(np.isfinite(vals)):
                raise ValidationError(f"{name} is not finite on the span")
            # square-integrability is automatic for finite values on a compact
            # span, but the squares of large finite values can still overflow
            if name != "mu" and not math.isfinite(float(np.trapezoid(vals**2, grid))):
                raise ValidationError(f"{name}^2 does not integrate finitely")


@dataclass(frozen=True)
class LevyConfig:
    """Small-jump activity of the driving compensated Poisson measure.

    nu_K is the total mass the jump measure puts on the unit ball; it must
    be finite and positive.  The jump-size law matters to the moment
    structure only through nu_K, so it is not represented.
    """

    nu_K: float

    def __post_init__(self):
        if not (math.isfinite(self.nu_K) and self.nu_K > 0):
            raise ValidationError(f"nu_K must be finite and > 0, got {self.nu_K}")


class PointMass:
    """Degenerate initial law X(0) = value."""

    def __init__(self, value: float):
        self.value = float(value)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)


class GaussianInitial:
    """Gaussian initial law X(0) ~ N(mean, sd^2)."""

    def __init__(self, mean: float, sd: float):
        if sd < 0:
            raise ValidationError("initial sd must be >= 0")
        self.mean = float(mean)
        self.sd = float(sd)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(n)


def sinusoid_model(span: tuple[float, float] = (0.0, 1.0)) -> CoefficientSet:
    """Sinusoidal test model: mu = -(2 + sin t), sigma = sin(t)/2, xi = sin t."""
    return CoefficientSet(
        mu=expression_function("-(2 + sin(t))"),
        sigma=expression_function("0.5 * sin(t)"),
        xi=expression_function("sin(t)"),
        span=span,
    )


def constant_model(
    mu: float, sigma2: float, xi2: float, span: tuple[float, float] = (0.0, 1.0)
) -> CoefficientSet:
    """Constant-coefficient model, handy for closed-form checks."""
    return CoefficientSet(
        mu=constant_function(mu),
        sigma=constant_function(math.sqrt(sigma2)),
        xi=constant_function(math.sqrt(xi2)),
        span=span,
    )


def rescale_to_unit(
    coeffs: CoefficientSet, levy: LevyConfig
) -> tuple[CoefficientSet, LevyConfig]:
    """Affinely map a model on [t0, t1] to the unit interval.

    If X solves the SDE on [t0, t1], then X~(u) = X(t0 + L u) with
    L = t1 - t0 solves the same kind of SDE on [0, 1] with

        mu~(u)    = L * mu(t0 + L u)
        sigma~(u) = sqrt(L) * sigma(t0 + L u)   (Brownian scaling)
        xi~(u)    = xi(t0 + L u),  nu_K~ = L * nu_K   (jump rate scaling)

    Jump amplitudes are untouched; only the arrival intensity picks up the
    factor L.  For span (0, 1) this is the identity.
    """
    unit_levy = rescale_levy(coeffs.span, levy)
    if unit_levy is levy:  # the span is [0, 1] already
        return coeffs, levy
    t0, t1 = coeffs.span
    L = t1 - t0

    def on_unit(f, scale):
        return lambda u: scale * f(t0 + L * np.asarray(u, dtype=float))

    scaled = on_unit(coeffs.mu, L), on_unit(coeffs.sigma, math.sqrt(L)), on_unit(coeffs.xi, 1.0)
    return CoefficientSet(*scaled, span=(0.0, 1.0)), unit_levy


def rescale_levy(span: tuple[float, float], levy: LevyConfig) -> LevyConfig:
    """The jump activity of `rescale_to_unit`, nu_K~ = L * nu_K, alone: a
    caller that reads only nu_K~ need not build the coefficient functions.
    For span (0, 1) it returns `levy` itself."""
    t0, t1 = span
    L = t1 - t0
    if abs(L - 1.0) < 1e-15 and abs(t0) < 1e-15:
        return levy
    return LevyConfig(nu_K=L * levy.nu_K)
