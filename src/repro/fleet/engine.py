"""The cohort engine: one exact leader, S certified followers
(DESIGN.md §12).

``run_cohort`` advances a whole cohort by running ONE real
:class:`~repro.core.experiment.WearOutExperiment` — the *leader*,
built by the same :mod:`repro.fleet.branch` helper that defines every
member's scalar counterpart — while the follower population rides
along as structure-of-arrays state
(:class:`~repro.fleet.soa.CohortState`).  A stepper shim wrapped around
the leader's workload re-evaluates the lockstep certificates after
every fused burst (and every scalar fallback step) the experiment
executes; the leader itself still runs the plan-then-apply burst
kernel unchanged, so the per-advance overhead is a handful of numpy
reductions over a 64-element wear array and an ``S``-element limit
vector.

Members that lose their certificate are *demoted*: masked out of the
lockstep population and, after the leader finishes, re-simulated
exactly by their own experiment.  A member's reported result is
therefore always the result its scalar run produces — either literally
(demoted members run it) or provably (the certificates establish that
the member's run is observable-for-observable the leader's run).

Sharing by state: in an exact-wear (sequential) cohort a follower's
every per-block count equals the leader's until its own first
retirement, so a member demoted by some advance was, at that advance's
start, the leader's state with the member's own identity.  The leader
is snapshotted at the start of every advance, and a demoted member
branches from the snapshot of the advance that demoted it
(:func:`~repro.fleet.branch.branch_experiment` keeps the member's
cycle limits and re-stamps its fresh RNG streams), so it walks only
that advance and its tail.  This is the engine's only prefix sharing.
Re-stamping fresh streams there is exact only while none of them has
been drawn, so once one of the leader's member-specific streams has
moved, later members run from a fresh build instead, as
random-pattern and ineligible cohorts' members always do.

Crossing-aligned windows (DESIGN.md §12): in exact-wear cohorts the
leader ends its fused windows just before the weakest lockstep follower
can cross its retirement frontier, and plans margin-size windows around
the crossing, so the advance that demotes a member — which the member
walks again — starts close to its crossing.  Window size never changes
a result, only where advances start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.results import WearOutResult
from repro.fleet.branch import _capture_member_entropy, branch_experiment
from repro.fleet.soa import CohortState, lockstep_ineligibility
from repro.fleet.spec import CohortSpec, device_seed
from repro.state.snapshot import snapshot_experiment

#: Steps a cohort leader's window ends before the weakest lockstep
#: follower's predicted crossing, and the length of its windows within
#: two margins of it (DESIGN.md §12).
CROSSING_MARGIN_STEPS = 8


class _CohortStepper:
    """Workload shim around the leader's workload.

    The experiment loop resolves ``step_batch`` on the workload's
    *class* (DESIGN.md §11), so this shim defines it as a real method
    delegating to the inner workload's fused path.  Every advance,
    fused or scalar, runs ``on_start`` before and ``on_advance`` after
    it; ``window`` bounds each fused window before it reaches the inner
    workload.  Results are window-size invariant, so the trajectory is
    bit-identical with or without the shim; it only moves window edges
    and observes the leader's state.
    """

    def __init__(self, inner, window, on_start, on_advance):
        self._inner = inner
        self._window = window
        self._on_start = on_start
        self._on_advance = on_advance

    def step(self):
        self._on_start()
        out = self._inner.step()
        self._on_advance()
        return out

    def step_batch(self, max_steps, budget):
        self._on_start()
        out = self._inner.step_batch(self._window(max_steps), budget)
        self._on_advance()
        return out

    @property
    def description(self) -> str:
        return self._inner.description

    @property
    def step_bytes(self) -> int:
        return self._inner.step_bytes

    @property
    def space_utilization(self) -> float:
        return self._inner.space_utilization


class _LeaderWindows:
    """The leader's crossing-aligned window bound (DESIGN.md §12).

    Converts the cohort's :meth:`CohortState.follower_slack` (erases of
    one block left before the weakest lockstep follower's crossing) to
    steps with the leader's per-block erase rate, measured since the
    previous window: block erases per step over the number of blocks.
    Far from a crossing a window ends :data:`CROSSING_MARGIN_STEPS`
    before the predicted step; within two margins of it every window is
    margin-size.  The prediction is a heuristic — a wrong one costs
    time, never a bit.
    """

    def __init__(self, experiment, state: CohortState):
        self._experiment = experiment
        self._state = state
        self._package = experiment.device.ftl.package
        self._mark = (experiment.steps_completed, self._package.counters.block_erases)
        self._rate = 0.0

    def __call__(self, max_steps: int) -> int:
        package = self._package
        steps = self._experiment.steps_completed
        erases = package.counters.block_erases
        last_steps, last_erases = self._mark
        if steps > last_steps:
            self._rate = (erases - last_erases) / ((steps - last_steps) * package.num_blocks)
        self._mark = (steps, erases)
        n = max_steps
        slack = self._state.follower_slack(package.pe_counts)
        if slack is not None and self._rate > 0.0:
            ahead = slack / self._rate
            margin = CROSSING_MARGIN_STEPS
            n = min(n, margin if ahead <= 2 * margin else int(ahead) - margin)
        return n


class _AdvanceSnapshots:
    """The exact-wear leader's state at the start of its current
    advance, for the members that advance demotes to branch from.

    ``latest`` stays None outside exact-wear cohorts, and becomes None
    for good once one of the leader's member-specific RNG streams
    (workload, pattern, FTL read) has moved from its state in the
    leader's fresh build: a member branched past that point would get
    its fresh streams re-stamped where its own run had drawn from them.
    Snapshots stop once no follower is left in lockstep.
    """

    def __init__(self, experiment, state: CohortState):
        self._experiment = experiment
        self._workload = experiment.workload
        self._entropy = _capture_member_entropy(experiment)
        self._state = state
        self._active = state.exact_pe
        self.latest: Optional[Dict[str, Any]] = None

    def take(self) -> None:
        if not self._active or self._state.lockstep_count < 2:
            return
        experiment = self._experiment
        # Snapshot the inner workload, not the shim stepping it.
        shim, experiment.workload = experiment.workload, self._workload
        try:
            if _capture_member_entropy(experiment) != self._entropy:
                self._active = False
                self.latest = None
            else:
                self.latest = snapshot_experiment(experiment)
        finally:
            experiment.workload = shim


@dataclass
class CohortResult:
    """Every member's wear-out result, stored without per-member
    duplication.

    ``shared`` is the leader's result — and, by the lockstep
    certificates, the exact result of every non-demoted member.
    ``demoted`` maps member index to that member's own result.
    ``member_result(i)`` is the per-device view the spot-check
    contract compares against scalar runs.
    """

    spec: CohortSpec
    cohort_seed: int
    shared: WearOutResult
    demoted: Dict[int, WearOutResult] = field(default_factory=dict)
    demote_summary: Dict[str, int] = field(default_factory=dict)
    ineligible_reason: Optional[str] = None
    canary_reason: Optional[str] = None
    advances: int = 0

    @property
    def population(self) -> int:
        return self.spec.population

    @property
    def lockstep_count(self) -> int:
        return self.population - len(self.demoted)

    def member_result(self, index: int) -> WearOutResult:
        if not 0 <= index < self.population:
            raise IndexError(f"member {index} out of range for population {self.population}")
        return self.demoted.get(index, self.shared)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "cohort_seed": int(self.cohort_seed),
            "population": self.population,
            "shared": self.shared.to_dict(),
            "demoted": {str(i): r.to_dict() for i, r in sorted(self.demoted.items())},
            "demote_summary": dict(self.demote_summary),
            "ineligible_reason": self.ineligible_reason,
            "canary_reason": self.canary_reason,
            "advances": int(self.advances),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CohortResult":
        return cls(
            spec=CohortSpec.from_dict(data["spec"]),
            cohort_seed=int(data["cohort_seed"]),
            shared=WearOutResult.from_dict(data["shared"]),
            demoted={
                int(i): WearOutResult.from_dict(r)
                for i, r in data.get("demoted", {}).items()
            },
            demote_summary=dict(data.get("demote_summary", {})),
            ineligible_reason=data.get("ineligible_reason"),
            canary_reason=data.get("canary_reason"),
            advances=int(data.get("advances", 0)),
        )


def run_cohort(spec: CohortSpec, cohort_seed: int) -> CohortResult:
    """Simulate every device of one cohort; exact per-member results.

    The cost model: one full experiment for the leader, O(S) numpy
    reductions per leader advance for the certificates, and one
    experiment per *demoted* member — in an exact-wear cohort only from
    the start of the advance that demoted it, so its cost is its tail,
    not a full run.  A certifiable cohort of any population therefore
    costs one device-run plus array math.
    """
    seeds = [device_seed(cohort_seed, i) for i in range(spec.population)]
    leader = branch_experiment(spec, seeds[0])

    # Eligibility gates come first: adopt introspects the page-mapped
    # package, which an ineligible (e.g. hybrid) leader may not even
    # have.
    ineligible = lockstep_ineligibility(spec, leader)
    canary_reasons: List[str] = []
    advances = [0]
    # Member index -> the leader snapshot it branches from.
    branch_points: Dict[int, Dict[str, Any]] = {}
    if ineligible is None:
        state = CohortState.adopt(spec, cohort_seed, leader)
        if state.leader:
            leader = branch_experiment(spec, seeds[state.leader])
        state.check_leader(leader)
        snapshots = _AdvanceSnapshots(leader, state)

        def certify() -> None:
            lockstep = state.lockstep.copy()
            reason = state.post_advance(leader)
            if reason is not None:
                canary_reasons.append(reason)
            if snapshots.latest is not None:
                for index in np.flatnonzero(lockstep & ~state.lockstep):
                    branch_points[int(index)] = snapshots.latest

        def on_advance() -> None:
            advances[0] += 1
            certify()

        leader.workload = _CohortStepper(
            leader.workload, _LeaderWindows(leader, state), snapshots.take, on_advance
        )
        leader.run(until_level=spec.until_level)
        leader.workload = leader.workload._inner
        # Final pass: the last advance may have ended mid-burst on a
        # brick or retirement; the post-run state settles every
        # certificate for the whole trajectory.
        certify()
    else:
        state = CohortState.all_ineligible(spec, cohort_seed)
        leader.run(until_level=spec.until_level)

    demoted: Dict[int, WearOutResult] = {}
    for index in state.demoted_indices():
        index = int(index)
        member = branch_experiment(spec, seeds[index], branch_points.pop(index, None))
        demoted[index] = member.run(until_level=spec.until_level)

    return CohortResult(
        spec=spec,
        cohort_seed=cohort_seed,
        shared=leader.result,
        demoted=demoted,
        demote_summary=state.summary(),
        ineligible_reason=ineligible,
        canary_reason=canary_reasons[0] if canary_reasons else None,
        advances=advances[0],
    )


def scalar_member_result(spec: CohortSpec, cohort_seed: int, index: int) -> WearOutResult:
    """Member ``index``'s ground-truth scalar run — the reference side
    of the spot-check contract (DESIGN.md §12): for any member,
    ``run_cohort(...).member_result(i)`` must be bit-identical to this.
    It runs the whole trajectory from a fresh build.
    """
    member = branch_experiment(spec, device_seed(cohort_seed, index))
    return member.run(until_level=spec.until_level)
