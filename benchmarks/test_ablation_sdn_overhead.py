"""Ablation — is the ≈150 ms SDN front-end overhead "a fair price"?

The paper argues the ≈150 ms added by the SDN-accelerator is a fair price for
on-demand control of code acceleration.  This bench quantifies the claim: it
runs the same decomposition workload with and without the front-end overhead
and compares the added latency with the acceleration the front-end enables
(level 1 → level 3 routing).
"""

import pytest
from conftest import print_rows, run_once

from repro.experiments.figure_decomposition import run_fig7_decomposition


def _run_both():
    with_sdn = run_fig7_decomposition(seed=0, rounds=4)

    # The same workload with a zero-overhead front-end (direct routing).
    import numpy as np

    import repro.experiments.figure_decomposition as decomposition_module

    def _zero_routing_overhead_ms(rng, count):
        return np.zeros(count)

    original = decomposition_module.draw_routing_overhead_ms
    decomposition_module.draw_routing_overhead_ms = _zero_routing_overhead_ms
    try:
        without_sdn = run_fig7_decomposition(seed=0, rounds=4)
    finally:
        decomposition_module.draw_routing_overhead_ms = original
    return with_sdn, without_sdn


def test_sdn_overhead_is_a_fair_price(benchmark):
    with_sdn, without_sdn = run_once(benchmark, _run_both)

    rows = []
    for level in (1, 2, 3, 4):
        with_total = with_sdn.component_means_ms[level]["Tresponse"]
        without_total = without_sdn.component_means_ms[level]["Tresponse"]
        overhead = with_total - without_total
        rows.append(
            {
                "acceleration_level": level,
                "with_sdn_ms": round(with_total, 1),
                "direct_ms": round(without_total, 1),
                "added_overhead_ms": round(overhead, 1),
            }
        )
        # The added overhead is the routing cost, ≈150 ms.
        assert overhead == pytest.approx(150.0, rel=0.35)

    # The benefit the overhead buys: routing a request from level 1 to level 3
    # saves far more than the 150 ms the front-end costs.
    saving_1_to_3 = (
        with_sdn.component_means_ms[1]["Tresponse"] - with_sdn.component_means_ms[3]["Tresponse"]
    )
    assert saving_1_to_3 > 3 * 150.0

    print_rows("Ablation: response time with and without the SDN front-end", rows)
    print_rows(
        "Ablation: overhead vs benefit",
        [{
            "added_overhead_ms": "~150",
            "saving_level1_to_level3_ms": round(saving_1_to_3, 1),
        }],
    )
