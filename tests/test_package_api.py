"""Tests for the public package surface: exports, docstring example, lazy imports."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.workload


class TestTopLevelExports:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_everything_in_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_entry_points_present(self):
        assert repro.AdaptiveModel and repro.WorkloadPredictor and repro.IlpAllocator
        assert repro.DEFAULT_CATALOG and repro.DEFAULT_TASK_POOL

    def test_module_docstring_example_runs(self):
        """The quick-start snippet in the package docstring must stay correct."""
        results = doctest.testmod(repro, verbose=False)
        assert results.attempted > 0
        assert results.failed == 0


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module_name",
        sorted(f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg),
    )
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_workload_lazy_replay_export(self):
        with pytest.raises(AttributeError):
            repro.workload.does_not_exist  # noqa: B018


class TestRunPathImports:
    def test_a_run_imports_no_scipy(self):
        """Importing ``repro`` and running scenarios loads no SciPy.

        A fresh interpreter runs a single-site and a federated registry
        scenario in both execution modes.  SciPy's import would add about
        half a second and 40 MB to every CLI call and campaign worker.
        """
        script = textwrap.dedent(
            """
            import sys

            from repro import get_scenario, run_scenario

            for name in ("paper-baseline", "load-chase"):
                for execution in ("event", "batched"):
                    spec = get_scenario(name).with_overrides(
                        users=5, duration_hours=0.25, target_requests=50,
                        execution=execution,
                    )
                    run_scenario(spec, seed=0)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.splitlines()[-1] == "[]"
