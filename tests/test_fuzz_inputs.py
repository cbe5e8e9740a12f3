"""A seeded sample of the input fuzz battery of `bench/fuzz_inputs.py`: no
config or observation file makes a command raise, warn, exit with an
unexpected code or print a multi-line error."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "fuzz_inputs.py"
_SPEC = importlib.util.spec_from_file_location("fuzz_inputs", _PATH)
fuzz = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz)


@pytest.mark.parametrize("battery, k", [("config", 200), ("file", 60)])
def test_sampled_fuzz_cases_show_no_defect(battery, k):
    cases = {"config": fuzz.config_cases, "file": fuzz.file_cases}[battery]()
    codes, found = fuzz.run_battery(fuzz.draw(cases, k, seed=20))
    assert found == []
    assert codes[0] > 0 and codes[2] > 0  # the sample runs commands through, and rejects inputs


def test_every_base_config_runs_unmutated():
    # a base that cannot run would leave its mutations testing only that it cannot
    assert fuzz.base_failures() == []
