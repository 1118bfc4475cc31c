"""Ablation — promotion policy sweep (the paper's 1/50 rule and its extensions).

The paper promotes users with a static 1/50 probability per request and
sketches response-time-threshold and battery-aware policies as future work
(Sections VI-C3 and VII-3).  This bench runs the dynamic-acceleration
experiment under each policy and reports promotion counts, mean perceived
response time and provisioning cost.
"""

import numpy as np
from conftest import print_rows, run_once

from repro.experiments.figure_dynamic import run_dynamic_acceleration
from repro.scenarios.spec import PolicySpec

POLICIES = {
    "no-promotion": PolicySpec(promotion_probability=0.0),
    "static 1/50 (paper)": PolicySpec(),
    "static 1/10": PolicySpec(promotion_probability=0.1),
    "threshold 2000 ms": PolicySpec(promotion="threshold", promotion_threshold_ms=2000.0),
    "battery-aware": PolicySpec(promotion="battery"),
}


def _run_policy(policy):
    result = run_dynamic_acceleration(
        seed=5, users=60, duration_hours=1.5, target_requests=2500, policy=policy
    )
    responses = [record.response_time_ms for record in result.records if record.success]
    return {
        "promoted_users": sum(1 for device in result.devices.values() if device.promotions),
        "mean_response_ms": float(np.mean(responses)),
        "provisioning_cost_usd": result.total_cost,
    }


def _run_all():
    return {name: _run_policy(policy) for name, policy in POLICIES.items()}


def test_promotion_policy_ablation(benchmark):
    outcomes = run_once(benchmark, _run_all)

    # More aggressive promotion means more promoted users...
    assert outcomes["no-promotion"]["promoted_users"] == 0
    assert outcomes["static 1/10"]["promoted_users"] > outcomes["static 1/50 (paper)"]["promoted_users"]
    # ... and a better perceived response time than never promoting.
    assert outcomes["static 1/50 (paper)"]["mean_response_ms"] < outcomes["no-promotion"]["mean_response_ms"]
    assert outcomes["static 1/10"]["mean_response_ms"] < outcomes["static 1/50 (paper)"]["mean_response_ms"]
    # The threshold policy only promotes when quality degrades; on this
    # lightly loaded run it promotes far fewer users than the 1/10 rule.
    assert outcomes["threshold 2000 ms"]["promoted_users"] <= outcomes["static 1/10"]["promoted_users"]

    print_rows(
        "Ablation: promotion policies",
        [
            {
                "policy": name,
                "promoted_users": outcome["promoted_users"],
                "mean_response_ms": round(outcome["mean_response_ms"], 1),
                "provisioning_cost_usd": round(outcome["provisioning_cost_usd"], 3),
            }
            for name, outcome in outcomes.items()
        ],
    )
