"""Smoothing kernels on [-1, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Phi(1) - Phi(-1), mass of the standard normal on [-1, 1]
_NORMAL_MASS = math.erf(1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class KernelSpec:
    """Named kernel with compact support [-1, 1] integrating to one."""

    family: str

    def values(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) <= 1.0
        if self.family == "epanechnikov":
            out = 0.75 * (1.0 - u * u)
        elif self.family == "gaussian-truncated":
            out = np.exp(-0.5 * u * u) / (math.sqrt(2.0 * math.pi) * _NORMAL_MASS)
        else:
            raise ValidationError(f"unknown kernel family {self.family!r}")
        return np.where(inside, out, 0.0)


EPANECHNIKOV = KernelSpec("epanechnikov")
GAUSSIAN_TRUNCATED = KernelSpec("gaussian-truncated")


_BY_NAME = {spec.family: spec for spec in (EPANECHNIKOV, GAUSSIAN_TRUNCATED)}


def kernel_by_name(name: str) -> KernelSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValidationError(f"unknown kernel family {name!r}") from None
