import numpy as np
import pytest

from sparsesde import SparseObservations

# one line per acceptance criterion, emitted after the summary so the
# pass/fail verdicts survive pytest's capture of per-test stdout
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_obs(curves) -> SparseObservations:
    """Build observations from [(t_array, y_array), ...], one tuple per curve."""
    cid, tt, yy = [], [], []
    for i, (t, y) in enumerate(curves):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        cid.append(np.full(t.size, i))
        tt.append(t)
        yy.append(y)
    obs = SparseObservations(
        curve_id=np.concatenate(cid).astype(int),
        t=np.concatenate(tt),
        y=np.concatenate(yy),
    )
    obs.validate()
    return obs


def common_grid_panel() -> SparseObservations:
    """12 curves that all see the same 21 times, so windows hold few distinct times."""
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, 21)
    return make_obs([(t, 1.0 + t + 0.3 * rng.standard_normal(21)) for _ in range(12)])


def curve_slices(obs: SparseObservations) -> list[slice]:
    """One row slice per curve, from `curve_bounds`."""
    bounds = obs.curve_bounds()
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
