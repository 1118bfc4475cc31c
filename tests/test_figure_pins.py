"""Unrounded outputs of the Section VI-C and Fig. 7 figure paths, pinned.

The canonical record pins cover the scenario runner's folded metrics; these
cover what the figure modules compute from the front-end's per-request
columns on top of it: per-group and per-window means, the success rate, the
headline rows, the per-user series of Fig. 9b/9c and the Fig. 7 component
means.  Each pin is the SHA-256 of the value's ``repr``, so a change in the
last bit of any float, in a dict's order or in a value's Python type (an
``int`` turning into a numpy scalar) fails it.
"""

import hashlib

import pytest

from repro.experiments.figure_decomposition import run_fig7_decomposition
from repro.experiments.figure_dynamic import run_dynamic_acceleration

DYNAMIC_PINS = {
    "mean_response_by_group": "65e378717b0870ca78ba40ba58bba67d6bbf1a0c5297a3607bf0b3553b21a6f1",
    "mean_response_by_window": "dd265e1e50e2c5a46529103365db653326de85194f59aea65707e75bd3e2a78c",
    "success_rate": "d0ff5974b6aa52cf562bea5921840c032a860a91a3512f7fe8f768f6bbe005f6",
    "rows": "5f916869badd4e607dba87f7a1cc8e0070a5833b4f50b48114a5341b6884cdd7",
    "stable_user_series": "6a17ccb80d8eb50c0d7e18cb92a060abfa76fd429471750e9e94345a3bf194ce",
    "fully_promoted_user_series": "7b86c551471af433efcfe623adab676e50caa52ff6d5789780178acad0eeab15",
}

FIG7_PIN = "26d4ff803415fbbb2cea0c899e1c1bb7d5e1bc242380c8ad1eee83dec20522f9"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def dynamic():
    return run_dynamic_acceleration(seed=0)


class TestFigurePins:
    def test_dynamic_acceleration_outputs(self, dynamic):
        outputs = {
            "mean_response_by_group": dynamic.mean_response_by_group(),
            "mean_response_by_window": dynamic.mean_response_by_window(),
            "success_rate": dynamic.success_rate(),
            "rows": dynamic.rows(),
            "stable_user_series": dynamic.user_series(dynamic.stable_user()),
            "fully_promoted_user_series": dynamic.user_series(
                dynamic.fully_promoted_user()
            ),
        }
        assert {name: _digest(value) for name, value in outputs.items()} == DYNAMIC_PINS

    def test_fig7_component_means(self):
        assert _digest(run_fig7_decomposition(seed=0).component_means_ms) == FIG7_PIN
