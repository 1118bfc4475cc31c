"""Shared summary metrics for the evaluation experiments."""

from __future__ import annotations

from typing import Dict, Sequence


def federation_rollup(sites: Sequence[object]) -> Dict[str, float]:
    """Aggregate per-site results into one federation-wide summary.

    Accepts any objects exposing the
    :class:`~repro.scenarios.runner.SiteResult` fields (``requests_total``,
    ``requests_dropped``, ``mean_response_ms``, ``allocation_cost_usd``,
    optionally ``requests_spilled_in``) — exact values, not the rounded
    display rows, so single drops among many requests are never lost to
    rounding.  Request counts, spill counts and costs add up, the drop rate
    is recomputed from the summed counts, and the mean response time is
    weighted by each site's served (non-dropped) request count so empty
    sites do not skew it.

    Callers must pass one row per federation site, *including* sites that
    served zero requests (the multi-site runner always emits one row per
    site): the rollup's ``sites`` count is its contract with
    ``BrokeredPlan.site_ids`` — counting the requests of each site id in
    ``range(int(rollup["sites"]))`` plus the unrouted remainder always
    reaches every request, which silently breaks if empty sites are
    dropped before the rollup.
    """
    if not sites:
        raise ValueError("need at least one site result")
    requests = float(sum(site.requests_total for site in sites))
    dropped = float(sum(site.requests_dropped for site in sites))
    cost = float(sum(site.allocation_cost_usd for site in sites))
    spilled = float(
        sum(getattr(site, "requests_spilled_in", 0) for site in sites)
    )
    retried = float(sum(getattr(site, "requests_retried", 0) for site in sites))
    failed_over = float(
        sum(getattr(site, "requests_failed_over", 0) for site in sites)
    )
    degraded_local = float(
        sum(getattr(site, "requests_degraded_local", 0) for site in sites)
    )
    weighted_mean = 0.0
    served_total = 0.0
    for site in sites:
        served = site.requests_total - site.requests_dropped
        mean_ms = site.mean_response_ms
        if served > 0 and mean_ms == mean_ms:  # skip NaN (no successes)
            weighted_mean += served * float(mean_ms)
            served_total += served
    return {
        "sites": float(len(sites)),
        "requests": requests,
        "dropped": dropped,
        "spilled": spilled,
        "retried": retried,
        "failed_over": failed_over,
        "degraded_local": degraded_local,
        "drop_rate_pct": 100.0 * dropped / requests if requests else 0.0,
        "mean_ms": weighted_mean / served_total if served_total else float("nan"),
        "cost_usd": cost,
    }


def group_rollup_rows(sites: Sequence[object]) -> "list[Dict[str, object]]":
    """Per-(site, group) request/drop rows plus federation-wide group totals.

    Accepts any objects exposing ``name`` and a ``groups`` sequence of
    :class:`~repro.scenarios.runner.SiteGroupResult`-shaped entries
    (``group``, ``requests_total``, ``requests_dropped``).  One row per
    site and requesting acceleration group, in (site, group) order,
    followed by one ``site="*"`` summary row per group — the cohort-level
    view that shows a broker starving one promotion level even when the
    fleet-wide drop rate looks healthy.  Sites without per-group data
    (single-group legacy results) contribute no rows.
    """
    rows: "list[Dict[str, object]]" = []
    totals: Dict[int, "list[int]"] = {}
    for site in sites:
        for entry in getattr(site, "groups", ()) or ():
            rows.append(
                {
                    "site": site.name,
                    "group": entry.group,
                    "requests": entry.requests_total,
                    "dropped": entry.requests_dropped,
                    "drop_rate_pct": (
                        round(100.0 * entry.requests_dropped / entry.requests_total, 2)
                        if entry.requests_total
                        else 0.0
                    ),
                }
            )
            bucket = totals.setdefault(entry.group, [0, 0])
            bucket[0] += entry.requests_total
            bucket[1] += entry.requests_dropped
    for group in sorted(totals):
        requests, dropped = totals[group]
        rows.append(
            {
                "site": "*",
                "group": group,
                "requests": requests,
                "dropped": dropped,
                "drop_rate_pct": (
                    round(100.0 * dropped / requests, 2) if requests else 0.0
                ),
            }
        )
    return rows


def routing_share_rows(
    slot_site_requests: Sequence[Sequence[int]], site_names: Sequence[str]
) -> "list[Dict[str, object]]":
    """Per-slot routing shares as display rows (one row per control slot).

    ``slot_site_requests`` is the per-slot, per-site request-count matrix a
    multi-site :class:`~repro.scenarios.runner.ScenarioResult` records
    (``slot_site_requests``); each output row carries the slot index, the
    slot's routed total and one ``share_<site>`` column per site.  Slots
    that routed nothing report zero shares rather than NaN so tables and
    CSVs stay clean.
    """
    rows: "list[Dict[str, object]]" = []
    for index, counts in enumerate(slot_site_requests):
        counts = list(counts)
        if len(counts) != len(site_names):
            raise ValueError(
                f"slot {index} has {len(counts)} site counts for "
                f"{len(site_names)} sites"
            )
        total = sum(counts)
        row: Dict[str, object] = {"slot": index, "requests": total}
        for name, count in zip(site_names, counts):
            row[f"share_{name}"] = round(count / total, 4) if total else 0.0
        rows.append(row)
    return rows
