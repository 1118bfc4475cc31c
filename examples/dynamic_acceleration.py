"""Dynamic code acceleration for a population of mobile users (Section VI-C).

This example runs the full system — 100 mobile devices offloading the static
minimax task through the SDN-accelerator, the 1/50 client-side promotion rule,
and the adaptive model re-provisioning the back-end every hour — and prints
the user-perception results behind Fig. 9 and Fig. 10b/10c:

* the response time perceived by a user that was never promoted,
* the response time perceived by a user promoted to the top group,
* the population-wide trend as resources are allocated, and
* the promotion summary with the per-group mean response times.

Run with::

    python examples/dynamic_acceleration.py
"""

from repro.experiments import run_dynamic_acceleration


def main() -> None:
    print("Running the dynamic acceleration experiment (2 simulated hours, 100 users) ...")
    result = run_dynamic_acceleration(
        seed=1, users=100, duration_hours=2.0, target_requests=6000
    )

    print(f"\nProcessed {result.success.size} offloading requests "
          f"({100.0 * result.success_rate():.1f}% successful)")
    print(f"Provisioning cost for the run: ${result.total_cost:.2f}")

    print("\nMean perceived response time per acceleration group:")
    for group, mean in sorted(result.mean_response_by_group().items()):
        print(f"  group {group} ({result.group_types[group]}): {mean:.0f} ms")

    stable = result.stable_user()
    stable_series = result.user_series(stable)
    print(f"\nUser {stable} was never promoted (Fig. 9b analogue):")
    print(f"  {len(stable_series)} requests, "
          f"mean response {sum(p['response_time_ms'] for p in stable_series) / len(stable_series):.0f} ms")

    try:
        promoted = result.fully_promoted_user()
        series = result.user_series(promoted)
        print(f"\nUser {promoted} was promoted to the top group (Fig. 9c analogue):")
        for point in series[:: max(len(series) // 10, 1)]:
            print(f"  request {point['request_index']:>3}  group {point['acceleration_group']}  "
                  f"{point['response_time_ms']:.0f} ms")
    except ValueError:
        print("\nNo user reached the top group in this run (try a longer duration).")

    print("\nPopulation trend (mean response per progress window, Fig. 10b analogue):")
    for index, mean in enumerate(result.mean_response_by_window(8)):
        print(f"  window {index}: {mean:.0f} ms")

    promotions = sum(1 for device in result.devices.values() if device.promotions)
    print(f"\n{promotions} of {len(result.devices)} users were promoted at least once (Fig. 10c).")
    print("Hourly scaling actions taken by the adaptive model:")
    for action in result.scaling_actions:
        print(f"  hour {action.period_index + 1}: launched {dict(action.launched) or '{}'}, "
              f"terminated {dict(action.terminated) or '{}'}")


if __name__ == "__main__":
    main()
