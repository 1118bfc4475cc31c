"""Tests for the built-in scenario registry."""

import json
import pickle

import pytest

from repro.scenarios import (
    ScenarioSpec,
    builtin_specs,
    get_scenario,
    register_scenario,
)
from repro.scenarios import registry as registry_module
from repro.telemetry.record import spec_hash

EXPECTED_BUILTINS = [
    "paper-baseline",
    "flash-crowd",
    "diurnal",
    "bursty-poisson",
    "heterogeneous-fleet",
    "price-spike",
    "degraded-3g",
    "cold-history",
]


class TestBuiltins:
    def test_all_expected_scenarios_registered(self):
        for name in EXPECTED_BUILTINS:
            assert name in [spec.name for spec in builtin_specs()]

    def test_builtin_specs_in_registration_order(self):
        names = [spec.name for spec in builtin_specs()]
        assert names[: len(EXPECTED_BUILTINS)] == EXPECTED_BUILTINS

    def test_every_builtin_has_a_description(self):
        for spec in builtin_specs():
            assert spec.description

    def test_builtins_exercise_distinct_regimes(self):
        # The registry's point is coverage: several arrival patterns, at
        # least one non-LTE network, one pricing perturbation and one
        # bootstrap-starved configuration must all be present.
        specs = {spec.name: spec for spec in builtin_specs()}
        patterns = {spec.workload.pattern for spec in specs.values()}
        assert {"uniform", "flash-crowd", "diurnal", "bursty"} <= patterns
        assert any(spec.network.profile != "lte" for spec in specs.values())
        assert any(spec.cloud.price_multipliers for spec in specs.values())
        assert any(spec.policy.min_history > 2 for spec in specs.values())
        assert any(spec.policy.promotion == "threshold" for spec in specs.values())

    def test_get_scenario_returns_spec(self):
        spec = get_scenario("paper-baseline")
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == "paper-baseline"

    def test_get_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="paper-baseline"):
            get_scenario("nope")

    def test_unknown_scenario_message_lists_every_name_in_registration_order(self):
        names = [spec.name for spec in builtin_specs()]
        with pytest.raises(KeyError) as caught:
            get_scenario("nope")
        assert caught.value.args[0] == f"unknown scenario 'nope'; known scenarios: {names}"

    @pytest.mark.parametrize("spec", builtin_specs(), ids=lambda spec: spec.name)
    def test_builtin_survives_json_and_pickle_with_its_spec_hash(self, spec):
        # A run record stores the spec's dict under its hash, and campaign
        # workers receive the spec pickled: both must give the same spec back.
        clone = ScenarioSpec(**json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert spec_hash(clone) == spec_hash(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRegistration:
    def test_register_and_overwrite(self):
        spec = ScenarioSpec(name="test-registry-entry", users=5,
                            duration_hours=0.1, slot_minutes=6.0)
        try:
            register_scenario(spec)
            assert get_scenario("test-registry-entry") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
            replacement = ScenarioSpec(name="test-registry-entry", users=7,
                                       duration_hours=0.1, slot_minutes=6.0)
            register_scenario(replacement, overwrite=True)
            assert get_scenario("test-registry-entry").users == 7
        finally:
            registry_module._REGISTRY.pop("test-registry-entry", None)
