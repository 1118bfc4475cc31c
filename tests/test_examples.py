"""Smoke tests: every example script must run end to end.

The examples are part of the public deliverable, so they are executed here
(with their default parameters) and their output is checked for the headline
lines a reader relies on.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXPECTED_OUTPUT = {
    "quickstart.py": "Cost-optimal allocation",
    "characterize_cloud.py": "Acceleration groups",
    "dynamic_acceleration.py": "Mean perceived response time per acceleration group",
    "offload_decision.py": "Offloading decision per device class",
    "workload_forecasting.py": "Mean workload-prediction accuracy",
}


def run_example(name: str) -> None:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)


class TestExamples:
    def test_all_examples_are_covered(self):
        scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert scripts == set(EXPECTED_OUTPUT)

    @pytest.mark.parametrize("name", sorted(EXPECTED_OUTPUT))
    def test_example_runs_and_prints_headline(self, name, capsys):
        run_example(name)
        output = capsys.readouterr().out
        assert EXPECTED_OUTPUT[name] in output
        assert len(output.splitlines()) >= 5
