"""Tests for the public package surface: exports, docstring example, lazy imports."""

import doctest

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
        [
            "repro.core",
            "repro.cloud",
            "repro.mobile",
            "repro.network",
            "repro.workload",
            "repro.sdn",
            "repro.analysis",
            "repro.simulation",
            "repro.experiments",
        ],
    )
    def test_all_names_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_workload_lazy_replay_export(self):
        with pytest.raises(AttributeError):
            repro.workload.does_not_exist  # noqa: B018
