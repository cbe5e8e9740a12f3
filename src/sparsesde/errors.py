"""Exception types shared across the package."""

import copyreg


class SparseSdeError(Exception):
    """Base class for all package-specific errors.

    Every subclass pickles: it is rebuilt from its `args` and attributes
    without calling `__init__`, whose signature may differ from `args`.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SparseSdeError):
    """Experiment configuration is malformed or inconsistent."""


class ValidationError(SparseSdeError):
    """An input violates a documented precondition."""


class SimulationDivergedError(SparseSdeError):
    """Euler recursion produced a non-finite state.

    Carries the first offending step and path so the caller can report
    which portion of the ensemble blew up.
    """

    def __init__(self, step: int, path: int):
        self.step = step
        self.path = path
        super().__init__(f"state became non-finite at step {step} (path {path})")


class DesignRangeError(SparseSdeError):
    """An observation time falls outside the simulated path grid."""


class CsvParseError(SparseSdeError):
    """Malformed row in a CSV input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SingularFitError(SparseSdeError):
    """Weighted least squares system is singular or numerically unusable."""


class SparseWindowError(SparseSdeError):
    """Too few design points near the requested location, even after widening."""

    def __init__(self, where, message: str = ""):
        self.where = where
        detail = message or "window too sparse after maximal widening"
        super().__init__(f"at {where}: {detail}")


class SparseQuadratureError(SparseWindowError):
    """Too few unflagged surface nodes to average the triangular identity."""

    def __init__(self, t: float, count: int):
        super().__init__(t, f"only {count} usable tau nodes")


class EstimationFailedError(SparseSdeError):
    """A curve- or surface-level fit failed at too many evaluation points."""


class NoIdentifiableRegionError(SparseSdeError):
    """The fitted mean never clears the drift identifiability threshold."""


class PolicyError(SparseSdeError):
    """A separation policy is inconsistent with the data it is applied to."""
