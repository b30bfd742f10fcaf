"""Structure-of-arrays cohort state and lockstep certificates
(DESIGN.md §12).

The cohort engine steps ONE exact member experiment (the *leader*)
and keeps every other member's device as rows of stacked
arrays: an ``[S, n]`` per-block cycle-limit matrix replayed from each
member's seed via :func:`repro.flash.package.endurance_draw`, its
row-wise minima, and boolean lockstep/demotion masks.  No follower
device objects exist during lockstep — followers are *data*, not
simulators.

Why that is sound: members of a cohort share every result-visible
observable of the trajectory — erase schedule, durations, byte counts,
wear-indicator crossings — because those depend only on free-list
lengths, span sizes, and total erase counts, none of which member
entropy touches (the member RNG picks *which* logical slots rewrite,
never *how many* pages that costs).  The one thing member entropy does
change is which physical blocks carry which wear, and the one way that
becomes result-visible is a member-specific divergence event: a block
retirement (per-member cycle limits), a wear-leveling migration, or a
GC relocation.  The certificates below bound those events from the
leader's exact state; a member that cannot be certified is *demoted* —
masked out of lockstep and later re-simulated exactly from a branch
made by :func:`repro.fleet.branch.branch_experiment`.  Demotion is
therefore a performance event, never a correctness event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.fleet.spec import CohortSpec, device_seed
from repro.flash.package import endurance_draw
from repro.ftl.ftl import PageMappedFTL

#: Demotion reason codes (CohortState.demote_reason values).
LOCKSTEP = 0          #: still following the leader
DEMOTE_RETIREMENT = 1  #: member's weakest block too close to the wear frontier
DEMOTE_CANARY = 2      #: leader-side canary fired (relocation/migration/gap)
DEMOTE_INELIGIBLE = 3  #: cohort configuration not certifiable at adoption

DEMOTE_REASON_NAMES = {
    LOCKSTEP: "lockstep",
    DEMOTE_RETIREMENT: "retirement-margin",
    DEMOTE_CANARY: "leader-canary",
    DEMOTE_INELIGIBLE: "ineligible",
}

#: Headroom added to the retirement bound for erases that can land
#: between static wear-leveling checks inside one advance (the check
#: cadence can overshoot by a GC run, and retirement triggers on the
#: post-erase count).  Generous on purpose: slack only ever demotes a
#: member early, which costs a scalar replay, never correctness.
RETIREMENT_SLACK = 64.0


def lockstep_ineligibility(spec: CohortSpec, experiment) -> Optional[str]:
    """Why this cohort cannot run certified lockstep at all, or None.

    An ineligible cohort still produces exact results — every member is
    demoted at adoption and runs scalar — so these conditions gate the
    fast path, not the feature.
    """
    ftl = experiment.device.ftl
    if type(ftl) is not PageMappedFTL:
        return "hybrid (two-pool) FTLs route writes through member-specific pools"
    wl = ftl.wl_config
    if not wl.static_enabled:
        return "static wear leveling disabled: no bound ties a member's max wear to the mean"
    if ftl.package.healing.recoverable_fraction != 0.0:
        return "recoverable wear (healing) makes effective P/E time-dependent per member"
    if ftl.package._num_bad != 0:
        return "device already has bad blocks at adoption"
    if ftl.read_only:
        return "device is read-only at adoption"
    page = experiment.filesystem.page_size if experiment.filesystem is not None else None
    rb = spec.request_bytes
    if page is not None and not (rb % page == 0 or page % rb == 0):
        return "request size not page-commensurate: per-request page span varies by offset"
    unit = ftl.unit_bytes
    if not (rb % unit == 0 or unit % rb == 0):
        return "request size not unit-commensurate: per-request unit span varies by offset"
    return None


@dataclass
class CohortState:
    """Stacked follower state for one cohort (leader excluded from the
    masks' semantics: row ``leader`` is always 'lockstep' — it IS the
    trajectory)."""

    seeds: List[int]
    #: [S, n] per-member per-block endurance limits (the replayed draw).
    limits: np.ndarray
    #: [S] row-wise minimum of ``limits`` — the only statistic the
    #: retirement certificate needs per advance.
    min_limit: np.ndarray
    #: [S] True while the member provably follows the leader.
    lockstep: np.ndarray
    #: [S] demotion reason codes (LOCKSTEP while lockstep).
    demote_reason: np.ndarray
    #: Static wear-leveling parameters captured at adoption.
    wl_threshold: float
    wl_interval: float
    #: Leader stats fields watched by the canary, with adoption values.
    canary_base: Dict[str, int] = field(default_factory=dict)
    #: True once the leader canary fired; certificates stop running.
    canary_fired: bool = False
    #: True when every member provably shares the leader's per-block
    #: wear trajectory (sequential pattern: no member entropy reaches
    #: the device, so follower P/E arrays equal the leader's until a
    #: retirement).  Enables the exact per-block frontier certificate
    #: and disables the statistical gap/relocation canaries.
    exact_pe: bool = False
    #: Row of the leader: the member the cohort engine steps.
    leader: int = 0

    @classmethod
    def adopt(cls, spec: CohortSpec, cohort_seed: int, experiment) -> "CohortState":
        """Build follower state around ``experiment``, any member's
        experiment at the cohort's branch point, and choose the leader.

        An exact-wear cohort is led by the member whose weakest block
        is strongest (ties to the lowest index): every other member
        reaches the retirement frontier first, so a weak member is
        demoted alone instead of ending lockstep for the whole cohort.
        Other cohorts are led by member 0, whose own entropy drives the
        statistical canaries.  The caller runs the leader and checks it
        with :meth:`check_leader`.
        """
        ftl = experiment.device.ftl
        pkg = ftl.package
        n = pkg.num_blocks
        population = spec.population
        seeds = [device_seed(cohort_seed, i) for i in range(population)]
        limits = np.empty((population, n), dtype=np.float64)
        for row, seed in enumerate(seeds):
            limits[row] = endurance_draw(
                seed, n, pkg.endurance_sigma, pkg.nominal_cycle_limit
            )
        min_limit = limits.min(axis=1)
        exact_pe = spec.pattern == "seq"
        wl = ftl.wl_config
        stats = ftl.stats
        return cls(
            seeds=seeds,
            limits=limits,
            min_limit=min_limit,
            lockstep=np.ones(population, dtype=bool),
            demote_reason=np.full(population, LOCKSTEP, dtype=np.int8),
            wl_threshold=float(wl.static_delta_threshold),
            wl_interval=float(wl.static_check_interval),
            canary_base={
                name: int(getattr(stats, name))
                for name in ("gc_pages_copied", "wl_pages_copied", "migration_pages")
            },
            exact_pe=exact_pe,
            leader=int(np.argmax(min_limit)) if exact_pe else 0,
        )

    def check_leader(self, experiment) -> None:
        """Row ``leader`` must be the leader experiment's own draw — the
        replay IS the constructor's code path, so inequality means the
        adoption wiring is broken, not the device."""
        limits = experiment.device.ftl.package._cycle_limit
        if not np.array_equal(self.limits[self.leader], limits):
            raise AssertionError(
                "leader cycle-limit replay mismatch — endurance_draw drifted "
                "from the FlashPackage constructor"
            )

    @classmethod
    def all_ineligible(cls, spec: CohortSpec, cohort_seed: int) -> "CohortState":
        """State for a cohort that cannot run certified lockstep at all
        (e.g. a hybrid FTL): every follower demoted at adoption, no
        package introspection required."""
        population = spec.population
        state = cls(
            seeds=[device_seed(cohort_seed, i) for i in range(population)],
            limits=np.zeros((population, 0), dtype=np.float64),
            min_limit=np.zeros(population, dtype=np.float64),
            lockstep=np.ones(population, dtype=bool),
            demote_reason=np.full(population, LOCKSTEP, dtype=np.int8),
            wl_threshold=0.0,
            wl_interval=0.0,
        )
        state.demote_all(DEMOTE_INELIGIBLE)
        return state

    @property
    def population(self) -> int:
        return len(self.seeds)

    @property
    def lockstep_count(self) -> int:
        return int(self.lockstep.sum())

    def demoted_indices(self) -> np.ndarray:
        """Member indices needing their own run (never the leader)."""
        return np.flatnonzero(~self.lockstep)

    def demote_all(self, reason: int) -> None:
        """Mask every follower out of lockstep (the leader's row stays —
        it is exact by construction)."""
        newly = self.lockstep.copy()
        newly[self.leader] = False
        self.lockstep[newly] = False
        self.demote_reason[newly] = reason

    def _retirement_frontier(self, pe: np.ndarray) -> np.ndarray:
        """[S] bool: True where the member *might* have retired a block
        at some point up to (and including) the advance that produced
        the leader wear array ``pe``.

        Exact mode (sequential pattern): follower P/E arrays equal the
        leader's element-wise, and per-block counts grow monotonically,
        so a member retired somewhere in history iff some block's limit
        is within one erase of the leader's *current* count.

        Statistical-entropy mode (random pattern): follower arrays
        differ block-for-block but share the mean; while a member runs
        static wear leveling without migrating, its maximum count stays
        within ``wl_threshold`` of the (member-independent) mean at
        every check and can grow by at most the check cadence plus one
        GC run between checks.  A member whose smallest limit clears
        ``mean + threshold + interval + slack`` therefore cannot have
        retired anywhere in the advance — retirement fires on
        post-erase counts, which the slack also covers.
        """
        if self.exact_pe:
            return (self.limits <= pe[None, :] + 1.0).any(axis=1)
        bound = (
            float(pe.mean()) + self.wl_threshold + self.wl_interval + RETIREMENT_SLACK
        )
        return self.min_limit <= bound

    def follower_slack(self, pe: np.ndarray) -> Optional[float]:
        """Fewest further erases of any block before a lockstep follower
        reaches the exact-mode retirement frontier, given the leader
        wear array ``pe``: the minimum of ``limit - 1 - pe`` over every
        block of every lockstep follower (the leader's row excluded).

        None outside exact mode, after the canary fired, or with no
        lockstep follower left: there is then no follower crossing the
        leader's windows could align to.
        """
        if not self.exact_pe or self.canary_fired:
            return None
        followers = self.lockstep.copy()
        followers[self.leader] = False
        rows = self.limits[followers]
        if not len(rows):
            return None
        return float((rows - pe[None, :]).min()) - 1.0

    def post_advance(self, experiment) -> Optional[str]:
        """Re-certify the whole cohort against the leader's current
        state; called after every leader advance and once after the run.

        Members failing the retirement frontier are demoted
        individually.  Leader-side events whose member counterparts the
        certificates cannot bound — the leader itself reaching the
        frontier, relocation/migration traffic, a wear gap past half
        the migration threshold (entropy mode only), bad blocks,
        read-only fallback — demote ALL followers; the firing reason is
        returned.
        """
        if self.canary_fired:
            return None
        ftl = experiment.device.ftl
        pkg = ftl.package
        reason = None
        if pkg._num_bad != 0:
            reason = "leader retired a block"
        elif ftl.read_only:
            reason = "leader went read-only"
        if reason is None and not self.exact_pe:
            stats = ftl.stats
            for name, base in self.canary_base.items():
                if int(getattr(stats, name)) != base:
                    reason = f"leader {name} changed (relocation/migration occurred)"
                    break
            if reason is None:
                pe = pkg.pe_counts
                gap = float(pe.max() - pe.min())
                if gap > self.wl_threshold / 2.0:
                    reason = (
                        f"leader wear gap {gap:.0f} exceeded half the migration "
                        f"threshold ({self.wl_threshold:.0f})"
                    )
        if reason is None:
            at_risk = self._retirement_frontier(pkg.pe_counts)
            if at_risk[self.leader]:
                # The leader is exempt from its own row's demotion (it
                # IS the trajectory), so a leader-side frontier breach
                # instead demotes everyone else: past this point the
                # trajectory may contain leader-specific retirements.
                reason = "leader endurance near the wear frontier"
            else:
                newly = self.lockstep & at_risk
                if newly.any():
                    self.lockstep[newly] = False
                    self.demote_reason[newly] = DEMOTE_RETIREMENT
        if reason is not None:
            self.canary_fired = True
            self.demote_all(DEMOTE_CANARY)
        return reason

    def summary(self) -> Dict[str, int]:
        """Demotion histogram by reason name (for telemetry/CLI)."""
        out: Dict[str, int] = {}
        for code, name in DEMOTE_REASON_NAMES.items():
            if code == LOCKSTEP:
                out[name] = self.lockstep_count
            else:
                out[name] = int((self.demote_reason == code).sum())
        return out
