"""Global request brokering across federation sites.

The broker is the thin global layer of the federation.  It comes in two
shapes, both deterministic (no RNG draw ever decides a site):

**Plan-time pre-partition** (``nearest-rtt`` / ``cheapest`` /
``weighted-load`` / ``failover``): given one scenario's pre-drawn
:class:`~repro.scenarios.plan.RequestPlan`, :func:`broker_assign` assigns
every request to a site *before* execution starts, as plain numpy arrays.
Outage windows split the run into availability segments; within each segment
the policy picks among the available sites:

* ``nearest-rtt``   — per home site, the available site with the lowest
  expected RTT (serving site's mean access RTT + WAN penalty).
* ``cheapest``      — the available site with the lowest effective price per
  unit of serving capacity.
* ``weighted-load`` — weighted round-robin over the available sites
  (weights default to each site's instance cap); counters carry across
  segments so long-run shares match the weights.
* ``failover``      — the first available site in declaration order.

**Slot-loop dynamic brokering** (``dynamic-load``): the
:class:`DynamicBroker` defers assignment to the control-slot boundaries of
the run.  At every boundary it reads each site's *live* state — the (site ×
acceleration group) serving-rate matrix of the fleets the autoscalers
actually built, the broker's per-group fluid backlog estimate, outage
status — and re-weights the round-robin for the next slot per requesting
user group (declared weight × free-capacity fraction of the group that
would serve the request there).  With a
:class:`~repro.multisite.spec.SpilloverSpec` it additionally re-brokers
mid-slot: once a (site, group) queue exceeds its spill budget, overflow
requests divert to the cheapest/nearest available site whose eligible group
still has room, with the WAN penalty re-applied for the new serving site.
Single-group federations (and the spec's ``capacity_signal: "fleet"``
override) degenerate to the historical fleet-scalar protocol.

Both executors drive the same broker object through the same
slot-boundary step, so site assignment is identical across execution modes
by construction (it is never part of the queueing approximation).  Requests
arriving while *no* site is available are marked unrouted (site id ``-1``)
and dropped at the broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.multisite.federation import build_site_catalog
from repro.multisite.spec import MultiSiteSpec, SiteSpec, SpilloverSpec
from repro.scenarios.batched import groups_present
from repro.scenarios.plan import RequestPlan

#: Site id of a request no site could accept.
UNROUTED = -1

#: Site ids are one column per run; two bytes hold any federation a spec can
#: sensibly declare (:func:`unrouted_site_ids` checks the bound).
SITE_ID_DTYPE = np.int16


def unrouted_site_ids(count: int, site_count: int) -> np.ndarray:
    """A site-id column of ``count`` requests, all ``UNROUTED`` so far."""
    most = int(np.iinfo(SITE_ID_DTYPE).max)
    if site_count > most:
        raise ValueError(f"a federation has at most {most} sites, got {site_count}")
    return np.full(count, UNROUTED, dtype=SITE_ID_DTYPE)


@dataclass(frozen=True)
class BrokeredPlan:
    """The broker's verdict for one request plan, as parallel arrays."""

    site_ids: np.ndarray  # per request; UNROUTED when no site was available
    #: Per request WAN penalty (0 for home-site service); ``None`` when the
    #: federation's penalty matrix is all zero, so every entry would be 0.
    extra_rtt_ms: Optional[np.ndarray]
    home_site_of_user: np.ndarray  # per user

    def __post_init__(self) -> None:
        extra = self.extra_rtt_ms
        if extra is not None and self.site_ids.size != extra.size:
            raise ValueError(
                "site_ids and extra_rtt_ms must align, got "
                f"{self.site_ids.size} vs {extra.size}"
            )


def assign_home_sites(users: int, sites: Sequence[SiteSpec]) -> np.ndarray:
    """Deterministically home ``users`` at sites proportionally to population share.

    User ids are split into contiguous blocks whose sizes follow the
    normalised ``population_share`` weights — no RNG draw, so the mapping is
    identical across execution modes and campaign workers.
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    shares = np.asarray([site.population_share for site in sites], dtype=float)
    total = shares.sum()
    if total <= 0:
        raise ValueError("population shares must sum to a positive value")
    boundaries = np.cumsum(shares / total)
    positions = (np.arange(users) + 0.5) / users
    return np.searchsorted(boundaries, positions, side="left").astype(np.int64)


def wan_penalty_matrix(sites: Sequence[SiteSpec]) -> np.ndarray:
    """``penalty[h, s]``: extra RTT for a user homed at ``h`` served at ``s``."""
    wan = np.asarray([site.wan_rtt_ms for site in sites], dtype=float)
    penalty = wan[:, None] + wan[None, :]
    np.fill_diagonal(penalty, 0.0)
    return penalty


def site_price_scores(sites: Sequence[SiteSpec]) -> np.ndarray:
    """Effective $/hour per unit of serving capacity, per site (lower = cheaper).

    Prices come from each site's fully-priced catalog
    (:func:`repro.multisite.federation.build_site_catalog` — the same one the
    site's allocator optimises against, with the regional and per-type
    multipliers applied), normalised by effective core count so a site full
    of expensive-but-wide instances can still win.
    """
    scores = []
    for site in sites:
        per_type = []
        for instance_type in build_site_catalog(site):
            per_type.append(
                instance_type.price_per_hour / instance_type.profile.fluid_cores
            )
        scores.append(float(np.mean(per_type)))
    return np.asarray(scores, dtype=float)


def availability_segments(
    sites: Sequence[SiteSpec], duration_ms: float
) -> List[Tuple[float, float, np.ndarray]]:
    """Split ``[0, duration_ms)`` at outage edges into (start, end, available) runs."""
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    edges = {0.0, duration_ms}
    for site in sites:
        for window in site.outages:
            edges.add(window.start * duration_ms)
            edges.add(window.end * duration_ms)
    bounds = sorted(edge for edge in edges if 0.0 <= edge <= duration_ms)
    segments: List[Tuple[float, float, np.ndarray]] = []
    for start, end in zip(bounds, bounds[1:]):
        if end <= start:
            continue
        midpoint = (start + end) / 2.0
        available = np.asarray(
            [site.available_at(midpoint, duration_ms) for site in sites], dtype=bool
        )
        segments.append((start, end, available))
    return segments


def _weighted_round_robin(
    counts: np.ndarray, weights: np.ndarray, available: np.ndarray, size: int
) -> np.ndarray:
    """Assign ``size`` consecutive requests over the available sites by weight.

    Classic virtual-time WRR: site ``s`` receives its ``k``-th request at
    virtual time ``(counts[s] + k) / weights[s]``; merging all sites'
    sequences in virtual-time order yields the assignment.  ``counts`` is
    advanced in place so shares stay proportional across segments.
    """
    candidates = np.flatnonzero(available)
    if candidates.size == 1:
        only = int(candidates[0])
        counts[only] += size
        return np.full(size, only, dtype=np.int64)
    ks = np.arange(1, size + 1, dtype=float)
    virtual = np.concatenate(
        [(counts[site] + ks) / weights[site] for site in candidates]
    )
    owners = np.repeat(candidates, size)
    # Stable merge with declaration order as the tie-break.
    order = np.lexsort((owners, virtual))[:size]
    assigned = owners[order].astype(np.int64)
    taken = np.bincount(assigned, minlength=counts.size)
    counts += taken
    return assigned


#: First chunk of the vectorised spill walk; it doubles after every chunk
#: that needs no spill and drops back here after one that does.
_SPILL_CHUNK = 64


def _exclusive_rank(values: np.ndarray) -> np.ndarray:
    """Per entry, how many earlier entries hold the same value (as floats)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    positions = np.arange(values.size)
    new_run = np.r_[True, ordered[1:] != ordered[:-1]]
    run_start = np.maximum.accumulate(np.where(new_run, positions, 0))
    rank = np.empty(values.size, dtype=float)
    rank[order] = positions - run_start
    return rank


def broker_assign(
    *,
    arrival_ms: np.ndarray,
    user_ids: np.ndarray,
    users: int,
    federation: MultiSiteSpec,
    duration_ms: float,
    access_rtt_ms: Sequence[float],
) -> BrokeredPlan:
    """Assign every request of a plan to a federation site.

    ``access_rtt_ms`` is the expected access-network RTT of each site (the
    scenario runner derives it from each site's network profile); the
    ``nearest-rtt`` policy adds the WAN penalty on top of it.
    """
    sites = federation.sites
    count = int(arrival_ms.size)
    site_ids = unrouted_site_ids(count, len(sites))
    home = assign_home_sites(users, sites)
    penalty = wan_penalty_matrix(sites)
    access = np.asarray(access_rtt_ms, dtype=float)
    if access.size != len(sites):
        raise ValueError(
            f"need one access RTT per site, got {access.size} for {len(sites)} sites"
        )
    price = site_price_scores(sites)
    weights = np.asarray([site.broker_weight for site in sites], dtype=float)
    wrr_counts = np.zeros(len(sites), dtype=float)

    for start, end, available in availability_segments(sites, duration_ms):
        lo, hi = np.searchsorted(arrival_ms, [start, end], side="left")
        if hi <= lo:
            continue
        if not available.any():
            continue  # stays UNROUTED
        segment = slice(int(lo), int(hi))
        if federation.policy == "failover":
            site_ids[segment] = int(np.flatnonzero(available)[0])
        elif federation.policy == "cheapest":
            masked = np.where(available, price, np.inf)
            site_ids[segment] = int(np.argmin(masked))
        elif federation.policy == "nearest-rtt":
            # Per home site: the available site minimising expected RTT.
            scores = access[None, :] + penalty  # (home, site)
            scores = np.where(available[None, :], scores, np.inf)
            target_for_home = np.argmin(scores, axis=1).astype(np.int64)
            site_ids[segment] = target_for_home[home[user_ids[segment]]]
        else:  # weighted-load
            site_ids[segment] = _weighted_round_robin(
                wrr_counts, weights, available, int(hi - lo)
            )

    extra = None
    if penalty.any():
        routed = site_ids >= 0
        extra = np.zeros(count, dtype=float)
        extra[routed] = penalty[home[user_ids[routed]], site_ids[routed]]
    return BrokeredPlan(site_ids=site_ids, extra_rtt_ms=extra, home_site_of_user=home)


# ---------------------------------------------------------------------------
# Slot-loop brokering (live-state protocol + dynamic policy)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteLoadState:
    """One site's live state as seen by the broker at a slot boundary.

    This is the per-round state-exchange record of the federation: the
    executors publish it through the shared slot-boundary step and the
    dynamic broker bases every routing decision of the next slot on it.
    ``backlog_work_units`` and ``in_flight_requests`` are the broker's own
    fluid estimates (offered work minus fleet drain), which keeps the two
    execution modes byte-identical: both consume the same snapshots in the
    same order, so routing can never diverge through queueing noise.

    Under the (default) ``per-group`` capacity signal the record is
    acceleration-group-resolved: ``groups`` lists the broker's operating
    group axis and the ``*_by_group`` tuples align with it, while the
    legacy scalar fields carry the fleet sums.  Under the ``fleet`` signal
    the per-group fields stay empty — the protocol genuinely exchanges one
    aggregate number per site, which is exactly the mis-weighting the
    group-resolved signal exists to fix.
    """

    site_index: int
    available: bool
    capacity_work_per_ms: float
    backlog_work_units: float
    in_flight_requests: float
    remaining_instance_cap: int
    admission_capacity_requests: int = 0
    groups: Tuple[int, ...] = ()
    capacity_by_group: Tuple[float, ...] = ()
    backlog_by_group: Tuple[float, ...] = ()
    in_flight_by_group: Tuple[float, ...] = ()
    admission_by_group: Tuple[int, ...] = ()


class StaticSlotBroker:
    """Slot-loop adapter over a plan-time :class:`BrokeredPlan`.

    The static policies keep their pre-partition semantics (and their exact
    historical RNG draw order), but expose the same per-slot interface as
    :class:`DynamicBroker` so both executors run one code path: each
    ``broker_slot`` call just locates the slot window and records the
    routing share realised by the fixed partition.  It keeps no WAN penalty
    column: the penalty is on T1 since plan time, and failover reads it from
    the penalty matrix.
    """

    samples_network = False
    is_dynamic = False

    def __init__(
        self, *, plan: RequestPlan, brokered: BrokeredPlan, site_count: int
    ) -> None:
        self._arrival_ms = plan.arrival_ms
        self._site_count = int(site_count)
        self.site_ids = brokered.site_ids
        self.home_site_of_user = brokered.home_site_of_user
        self.spilled = np.zeros(len(plan), dtype=bool)
        self.requests_spilled = 0
        self.slot_site_requests: List[np.ndarray] = []
        self.slot_spilled: List[int] = []
        self.load_history: List[Tuple[SiteLoadState, ...]] = []

    def broker_slot(
        self,
        start_ms: float,
        end_ms: float,
        *,
        capacity_work_per_ms: Optional[np.ndarray] = None,
        remaining_instance_cap: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """Locate the slot window; assignment happened at plan time."""
        i0, i1 = np.searchsorted(self._arrival_ms, [start_ms, end_ms], side="left")
        window = self.site_ids[i0:i1]
        routed = window[window >= 0]
        self.slot_site_requests.append(
            np.bincount(routed, minlength=self._site_count)
        )
        self.slot_spilled.append(0)
        return int(i0), int(i1)


def clamp_column_table(
    sites: Sequence[SiteSpec], group_axis: Sequence[int]
) -> np.ndarray:
    """``table[s, g]``: group-axis column serving user group ``g`` at site ``s``.

    Mirrors the data plane's clamp semantics
    (:func:`repro.scenarios.batched.clamp_table`) over each site's *declared*
    groups: a user group the site serves maps to itself, otherwise to the
    lowest higher declared group, otherwise to the highest declared group.
    Declared groups (not the live backend levels) keep the table constant
    over the run, so routing stays deterministic across execution modes.
    """
    axis = [int(group) for group in group_axis]
    if not axis:
        raise ValueError("group axis must be non-empty")
    column = {group: index for index, group in enumerate(axis)}
    table = np.zeros((len(sites), max(axis) + 1), dtype=np.int64)
    for index, site in enumerate(sites):
        declared = sorted(int(group) for group in site.cloud.group_types)
        for group in range(max(axis) + 1):
            if group in declared:
                serving = group
            else:
                higher = [level for level in declared if level > group]
                serving = higher[0] if higher else declared[-1]
            table[index, group] = column[serving]
    return table


class DynamicBroker:
    """Load-aware in-slot broker with cross-site spillover (``dynamic-load``).

    Unlike the plan-time policies this broker assigns requests slot by slot:
    at each control-slot boundary the executors hand it the live (site ×
    acceleration group) serving-rate matrix of the fleets the autoscalers
    actually built, and it

    1. drains its per-(site, group) fluid backlog estimate by what each
       group's fleet could serve since the previous boundary,
    2. re-weights the round-robin for the upcoming slot **per acceleration
       group of the requesting user's promotion level** — each site's
       declared broker weight is scaled by the free-capacity fraction
       ``max(slot_capacity − backlog, 0) / slot_capacity`` of the group
       that would actually serve the request there (the site's clamp of the
       user's group) — so a site holding mostly high-tier instances no
       longer looks huge to un-promoted traffic that can only use its
       low-tier slice, and
    3. (with spillover enabled) walks the slot's requests in arrival order
       against a continuously draining fluid queue per (site, group) and
       re-brokers every request that would push its serving group's
       projected in-flight count past ``queue_limit_fraction`` of that
       group's live admission capacity — the level at which the group would
       start rejecting — to the cheapest/nearest available site whose
       eligible group still has room, re-applying the WAN penalty for the
       new serving site.  The walk runs a chunk at a time: a request's
       running count on its (site, group) cell is the cell's committed count
       plus its rank among the chunk's earlier requests there, so
       ``max(0, backlog + used − drain·t) + 1 ≤ limit`` is tested for the
       whole chunk in numpy.  This is exact, not an approximation: counts are
       whole numbers (exact in float64), the test keeps the scalar operation
       order, and the passing prefix is committed with ``np.add.at``, which
       applies updates in index order, so work sums accumulate as in a
       one-by-one loop.  Only the first failing request and the rest of its
       chunk take the scalar spill search.

    Single-group federations degenerate to the historical fleet-scalar
    behaviour exactly (one column, every user in it); the spec's
    ``capacity_signal: "fleet"`` knob forces that degenerate path even for
    multi-group fleets, for A/B comparison of the mis-weighting.

    Assignment depends only on the spec, the plan, the capacity snapshots
    and the user-group views published at the boundaries — never on an RNG
    draw — and both executors call ``broker_slot`` exactly once per slot in
    the same order, so given identical published views the event and
    batched modes produce identical per-slot routing by construction.
    With promotions *enabled* the two executors' boundary group views can
    differ by the long-documented promotion-timing approximation (batched
    applies a slot's promotions when it processes the slot, event at each
    delivery), so exact routing parity is pinned for promotion-off
    scenarios and the stochastic tolerances cover the rest.
    """

    samples_network = True
    is_dynamic = True

    def __init__(
        self,
        *,
        plan: RequestPlan,
        users: int,
        federation: MultiSiteSpec,
        duration_ms: float,
        access_rtt_ms: Sequence[float],
    ) -> None:
        sites = federation.sites
        count = len(plan)
        self.spec = federation
        self.sites = sites
        self.plan = plan
        self.duration_ms = float(duration_ms)
        self.site_ids = unrouted_site_ids(count, len(sites))
        self.spilled = np.zeros(count, dtype=bool)
        self.home_site_of_user = assign_home_sites(users, sites)
        self.penalty = wan_penalty_matrix(sites)
        self.access = np.asarray(access_rtt_ms, dtype=float)
        if self.access.size != len(sites):
            raise ValueError(
                f"need one access RTT per site, got {self.access.size} "
                f"for {len(sites)} sites"
            )
        self.price = site_price_scores(sites)
        self.declared_weights = np.asarray(
            [site.broker_weight for site in sites], dtype=float
        )
        self.spillover: Optional[SpilloverSpec] = federation.spillover
        # Spill preference: a ranked row of candidate sites per home site
        # (nearest-rtt) or one global row (cheapest).
        if self.spillover is not None and self.spillover.prefer == "cheapest":
            order = np.argsort(self.price, kind="stable").astype(np.int64)
            self._spill_rank = np.tile(order, (len(sites), 1))
        else:
            rtt = self.access[None, :] + self.penalty  # (home, site)
            self._spill_rank = np.argsort(rtt, axis=1, kind="stable").astype(np.int64)
        self._segments = availability_segments(sites, self.duration_ms)
        self._mean_work = float(np.mean(plan.work_units)) if count else 1.0
        # Group resolution of the live-state protocol: under "per-group" the
        # operating columns are the federation-wide group axis and requests
        # are keyed by their user's promotion level; under "fleet" there is
        # one aggregate column and every request shares it (the historical
        # scalar signal, kept as the degenerate case).
        self.signal = federation.capacity_signal
        self.group_axis: Tuple[int, ...] = federation.group_axis
        if self.signal == "per-group":
            self.groups: Tuple[int, ...] = self.group_axis
            self._clamp_col = clamp_column_table(sites, self.groups)
        else:
            self.groups = ()
            self._clamp_col = np.zeros(
                (len(sites), max(self.group_axis) + 1), dtype=np.int64
            )
        self._columns = max(len(self.groups), 1)
        # Un-promoted default: every user starts in its home site's lowest
        # declared group; executors override this view at each boundary.
        lowest = np.asarray(
            [min(site.cloud.group_types) for site in sites], dtype=np.int64
        )
        self._default_user_group = lowest[self.home_site_of_user]
        # Fluid live-state: queued work and queued request count per
        # (site, group) column, drained by the capacity that was current
        # during the elapsed interval.
        self.backlog_work = np.zeros((len(sites), self._columns), dtype=float)
        self.backlog_requests = np.zeros((len(sites), self._columns), dtype=float)
        self._drain_capacity = np.zeros((len(sites), self._columns), dtype=float)
        self._last_boundary_ms = 0.0
        self.requests_spilled = 0
        self.slot_site_requests: List[np.ndarray] = []
        self.slot_spilled: List[int] = []
        self.load_history: List[Tuple[SiteLoadState, ...]] = []

    # -- live-state protocol -------------------------------------------------

    def _normalize_snapshot(self, values, dtype, name: str) -> np.ndarray:
        """Coerce a live-state snapshot to the broker's (site × column) shape.

        Accepts the federation's (site × group-axis) matrices and, for the
        degenerate single-column case, plain per-site vectors.  Under the
        ``fleet`` signal a matrix is collapsed to its row sums — the scalar
        protocol by construction.
        """
        matrix = np.asarray(values, dtype=dtype)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        if matrix.ndim != 2 or matrix.shape[0] != len(self.sites):
            raise ValueError(
                f"{name} must carry one row per site "
                f"({len(self.sites)}), got shape {matrix.shape}"
            )
        if self.signal == "fleet" and matrix.shape[1] != 1:
            matrix = matrix.sum(axis=1, keepdims=True).astype(dtype)
        if matrix.shape[1] != self._columns:
            raise ValueError(
                f"{name} must have one column per operating group "
                f"{self.groups or ('fleet',)}, got shape {matrix.shape}"
            )
        return matrix

    def _snapshot(
        self,
        available: np.ndarray,
        capacity: np.ndarray,
        remaining_cap: np.ndarray,
        admission_capacity: np.ndarray,
    ) -> Tuple[SiteLoadState, ...]:
        states = []
        for index in range(len(self.sites)):
            per_group = {}
            if self.groups:
                per_group = dict(
                    groups=self.groups,
                    capacity_by_group=tuple(float(v) for v in capacity[index]),
                    backlog_by_group=tuple(float(v) for v in self.backlog_work[index]),
                    in_flight_by_group=tuple(
                        float(v) for v in self.backlog_requests[index]
                    ),
                    admission_by_group=tuple(
                        int(v) for v in admission_capacity[index]
                    ),
                )
            states.append(
                SiteLoadState(
                    site_index=index,
                    available=bool(available[index]),
                    capacity_work_per_ms=float(capacity[index].sum()),
                    backlog_work_units=float(self.backlog_work[index].sum()),
                    in_flight_requests=float(self.backlog_requests[index].sum()),
                    remaining_instance_cap=int(remaining_cap[index]),
                    admission_capacity_requests=int(admission_capacity[index].sum()),
                    **per_group,
                )
            )
        states = tuple(states)
        self.load_history.append(states)
        return states

    def _slot_weights(
        self, available: np.ndarray, slot_capacity_work: np.ndarray, group: int
    ) -> np.ndarray:
        """Round-robin weights for one slot and one requesting user group.

        Declared weight × free fraction of the capacity *eligible* for the
        group — each site contributes the column its clamp would serve the
        group with, so a site's idle high-tier slice never inflates the
        weight un-promoted traffic sees.
        """
        rows = np.arange(len(self.sites))
        cols = self._clamp_col[:, group]
        eligible_capacity = slot_capacity_work[rows, cols]
        eligible_backlog = self.backlog_work[rows, cols]
        free = np.maximum(eligible_capacity - eligible_backlog, 0.0)
        congestion = np.divide(
            free,
            eligible_capacity,
            out=np.zeros_like(free),
            where=eligible_capacity > 0,
        )
        for candidate in (
            self.declared_weights * congestion,
            eligible_capacity,
            self.declared_weights,
        ):
            weights = np.where(available, candidate, 0.0)
            if weights.sum() > 0:
                return weights
        return np.where(available, 1.0, 0.0)

    def _spill_walk(
        self,
        lo: int,
        proposals: np.ndarray,
        request_keys: np.ndarray,
        available: np.ndarray,
        elapsed_in_slot: np.ndarray,
        used_requests: np.ndarray,
        used_work: np.ndarray,
        queue_limit: np.ndarray,
        drain_rate: np.ndarray,
    ) -> None:
        """Step 3 over one segment, updating the proposals and counts in place.

        Requests go through in chunks.  A chunk is admitted in one vectorised
        step up to its first request that does not fit where proposed; the
        rest of the chunk is settled request by request, in order, on
        plain-Python copies of the small per-call tables and of the flat
        ``used`` counts, which are written back before the next chunk.  Under
        overload nearly every chunk holds a misfit, so nearly every request
        takes that scalar path; each check is the same float arithmetic on
        either path.
        """
        work = self.plan.work_units[lo:lo + proposals.size]
        homes = self.home_site_of_user[self.plan.user_ids[lo:lo + proposals.size]]
        columns = self._columns
        clamp = self._clamp_col.tolist()
        spill_rank = self._spill_rank.tolist()
        is_available = available.tolist()
        backlog_of, drain_of, limit_of = (
            m.reshape(-1).tolist()
            for m in (self.backlog_requests, drain_rate, queue_limit)
        )

        def fits(cell: int, t_rel: float) -> bool:
            # ``n_of`` is the scalar path's copy of ``used_n`` (bound below).
            queued = max(0.0, backlog_of[cell] + n_of[cell] - drain_of[cell] * t_rel)
            return queued + 1.0 <= limit_of[cell]

        routed = np.flatnonzero(proposals != UNROUTED)
        cells = proposals[routed] * columns + self._clamp_col[
            proposals[routed], request_keys[routed]
        ]
        # Flat views: the two ``used`` matrices are written through them.
        used_n, used_w, backlog, drain, limit = (
            m.reshape(-1)
            for m in (
                used_requests, used_work, self.backlog_requests, drain_rate, queue_limit
            )
        )
        start, chunk = 0, _SPILL_CHUNK
        while start < routed.size:
            ks, cs = routed[start:start + chunk], cells[start:start + chunk]
            queued = np.fmax(
                0.0,
                backlog[cs]
                + (used_n[cs] + _exclusive_rank(cs))
                - drain[cs] * elapsed_in_slot[ks],
            )
            passing = queued + 1.0 <= limit[cs]
            clean = ks.size if passing.all() else int(np.argmin(passing))
            np.add.at(used_n, cs[:clean], 1.0)
            np.add.at(used_w, cs[:clean], work[ks[:clean]])
            if clean < ks.size:
                tail = ks[clean:]
                n_of, w_of = used_n.tolist(), used_w.tolist()
                for k, cell, site, group, t_rel, units, home in zip(
                    tail.tolist(),
                    cs[clean:].tolist(),
                    proposals[tail].tolist(),
                    request_keys[tail].tolist(),
                    elapsed_in_slot[tail].tolist(),
                    work[tail].tolist(),
                    homes[tail].tolist(),
                ):
                    if not fits(cell, t_rel):
                        for candidate in spill_rank[home]:
                            if candidate == site or not is_available[candidate]:
                                continue
                            spill_cell = candidate * columns + clamp[candidate][group]
                            if fits(spill_cell, t_rel):
                                cell = spill_cell
                                proposals[k] = candidate
                                self.spilled[lo + k] = True
                                break
                        # Otherwise a federation-wide overload: nowhere to
                        # spill to, so it stays where it was proposed.
                    n_of[cell] += 1.0
                    w_of[cell] += units
                used_n[:] = n_of
                used_w[:] = w_of
            start += ks.size
            chunk = 2 * chunk if clean == ks.size else _SPILL_CHUNK

    # -- the slot-boundary step ----------------------------------------------

    def broker_slot(
        self,
        start_ms: float,
        end_ms: float,
        *,
        capacity_work_per_ms: Optional[np.ndarray] = None,
        remaining_instance_cap: Optional[np.ndarray] = None,
        admission_capacity: Optional[np.ndarray] = None,
        group_of_user: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """Assign the requests arriving in ``[start_ms, end_ms)`` to sites.

        ``capacity_work_per_ms`` and ``admission_capacity`` are (site ×
        group-axis) matrices (per-site vectors are accepted in the
        degenerate single-column case); ``group_of_user`` is the executors'
        per-user promotion-level view at this boundary, defaulting to the
        un-promoted home-site groups.
        """
        if capacity_work_per_ms is None:
            raise ValueError("the dynamic broker needs a live capacity snapshot")
        site_count = len(self.sites)
        capacity = self._normalize_snapshot(
            capacity_work_per_ms, float, "capacity_work_per_ms"
        )
        if remaining_instance_cap is None:
            remaining_cap = np.zeros(site_count, dtype=np.int64)
        else:
            remaining_cap = np.asarray(remaining_instance_cap, dtype=np.int64)
        if admission_capacity is None:
            admission = np.zeros((site_count, self._columns), dtype=np.int64)
        else:
            admission = self._normalize_snapshot(
                admission_capacity, np.int64, "admission_capacity"
            )
        if group_of_user is None:
            user_groups = self._default_user_group
        else:
            user_groups = np.asarray(group_of_user, dtype=np.int64)
            if user_groups.size != self._default_user_group.size:
                raise ValueError(
                    f"group_of_user must carry one group per user "
                    f"({self._default_user_group.size}), got {user_groups.size}"
                )
            user_groups = np.clip(user_groups, 0, self._clamp_col.shape[1] - 1)
        # The request key the broker resolves routing by: the user's own
        # promotion level under the per-group signal, one shared key under
        # the fleet signal (every request sees the same aggregate column).
        if self.signal == "per-group":
            user_keys = user_groups
        else:
            user_keys = np.zeros_like(user_groups)
        arrival = self.plan.arrival_ms
        i0, i1 = np.searchsorted(arrival, [start_ms, end_ms], side="left")
        i0, i1 = int(i0), int(i1)
        slot_len = end_ms - start_ms
        if slot_len <= 0:
            raise ValueError(f"empty slot [{start_ms}, {end_ms})")

        # 1. drain the backlog with the capacity of the elapsed interval.
        elapsed = start_ms - self._last_boundary_ms
        if elapsed > 0:
            self.backlog_work = np.maximum(
                self.backlog_work - self._drain_capacity * elapsed, 0.0
            )
            self.backlog_requests = np.maximum(
                self.backlog_requests
                - self._drain_capacity * elapsed / self._mean_work,
                0.0,
            )
        self._last_boundary_ms = start_ms
        self._drain_capacity = capacity

        slot_capacity_work = capacity * slot_len
        slot_available = np.asarray(
            [site.available_at(start_ms, self.duration_ms) for site in self.sites],
            dtype=bool,
        )
        self._snapshot(slot_available, capacity, remaining_cap, admission)

        # 2. re-weight the round-robin for this slot, per requesting group.
        counts_for: Dict[int, np.ndarray] = {}
        used_work = np.zeros((site_count, self._columns), dtype=float)
        used_requests = np.zeros((site_count, self._columns), dtype=float)
        drain_rate = capacity / self._mean_work  # requests per ms, per column
        if self.spillover is not None:
            queue_limit = self.spillover.queue_limit_fraction * admission.astype(float)
        else:
            queue_limit = np.full(capacity.shape, np.inf)

        for seg_start, seg_end, available in self._segments:
            lo = max(int(np.searchsorted(arrival, max(seg_start, start_ms), side="left")), i0)
            hi = min(int(np.searchsorted(arrival, min(seg_end, end_ms), side="left")), i1)
            if hi <= lo:
                continue
            if not available.any():
                continue  # stays UNROUTED
            request_keys = user_keys[self.plan.user_ids[lo:hi]]
            proposals = np.full(hi - lo, UNROUTED, dtype=np.int64)
            # One weighted round-robin stream per requesting user group, so
            # shares stay proportional to each group's *eligible* capacity;
            # counters live per group but reset per slot, as before.
            for group in groups_present(request_keys):
                weights = self._slot_weights(available, slot_capacity_work, group)
                routable = available & (weights > 0)
                if not routable.any():
                    continue
                counts = counts_for.setdefault(
                    group, np.zeros(site_count, dtype=float)
                )
                positions = np.flatnonzero(request_keys == group)
                proposals[positions] = _weighted_round_robin(
                    counts, weights, routable, positions.size
                )

            # 3. mid-slot spillover: divert overflow off saturated groups.
            # Each (site, group) column runs a fluid queue that drains
            # continuously at that group's serving rate; a request that
            # would push its serving group's projected in-flight count past
            # the admission-derived limit is re-brokered to the preferred
            # site whose eligible group has room.  Without spillover the
            # limit is infinite and every request is admitted where proposed.
            self._spill_walk(
                lo,
                proposals,
                request_keys,
                available,
                arrival[lo:hi] - start_ms,
                used_requests,
                used_work,
                queue_limit,
                drain_rate,
            )
            self.site_ids[lo:hi] = proposals

        # 4. settle the window: backlog, routing shares.  The WAN penalty of
        # each routed request is read from ``penalty`` when the window's
        # network is sampled, after any failover moved it.
        window_sites = self.site_ids[i0:i1]
        self.backlog_work += used_work
        self.backlog_requests += used_requests
        served = window_sites[window_sites >= 0]
        self.slot_site_requests.append(np.bincount(served, minlength=site_count))
        spilled_this_slot = int(np.count_nonzero(self.spilled[i0:i1]))
        self.slot_spilled.append(spilled_this_slot)
        self.requests_spilled += spilled_this_slot
        return i0, i1
