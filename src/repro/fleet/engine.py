"""The cohort engine: one exact leader, S certified followers
(DESIGN.md §12).

``run_cohort`` advances a whole cohort by running ONE real
:class:`~repro.core.experiment.WearOutExperiment` — member 0, the
*leader*, built by the same :mod:`repro.fleet.branch` helper that
defines every member's scalar counterpart — while the follower
population rides along as structure-of-arrays state
(:class:`~repro.fleet.soa.CohortState`).  A stepper shim wrapped around
the leader's workload re-evaluates the lockstep certificates after
every fused burst (and every scalar fallback step) the experiment
executes; the leader itself still runs the PR-5 plan-then-apply burst
kernel unchanged, so the per-advance overhead is a handful of numpy
reductions over a 64-element wear array and an ``S``-element limit
vector.

Members that lose their certificate are *demoted*: masked out of the
lockstep population and, after the leader finishes, re-simulated
exactly from the branch point by their own scalar experiment.  A
member's reported result is therefore always the result its scalar run
produces — either literally (demoted members run it) or provably (the
certificates establish that the member's run is observable-for-
observable the leader's run).

Demoted replays ride the leader's megaburst plans (DESIGN.md §15): the
§14 plan cache validates per-block cycle limits structurally
(:func:`repro.ftl.plancache._limits_admit`) instead of probing them by
equality, so the fused windows the leader compiled replay for members
whose endurance draws differ — a member that drifted only in its stop
point pays one bisect per window instead of a fresh plan.  The first
window where a member's weak block actually retires misses the cache
(its wear passes the member's limit) and is planned fresh: the walk
retires the block inside the window, and the member's tail plans its
own windows — exactly the behavior a cold cache would produce, which is
why sharing never changes results.  ``run_cohort`` reports the cache
traffic it generated as a non-canonical ``plan_stats`` attribute on the
result.

Crossing-aligned windows (DESIGN.md §12, §15): in exact-wear cohorts
the leader ends its fused windows just before the weakest lockstep
follower can cross its retirement frontier, and plans margin-size windows
around the crossing.  Each demoted member follows the leader's window
schedule until its own package first retires a block, so up to that
point its windows carry the leader's probes and keys and replay the
leader's plans; only the window holding its crossing and its tail are
walked fresh.  Window size never changes a result, only where plans
start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.results import WearOutResult
from repro.fleet.branch import branch_experiment, build_cohort_experiment
from repro.ftl import plancache
from repro.fleet.soa import CohortState, lockstep_ineligibility
from repro.fleet.spec import CohortSpec, device_seed
from repro.rng import substream_seed
from repro.state import CheckpointManager, restore_experiment, warm_start_key
from repro.state.snapshot import CheckpointError, snapshot_experiment

#: Steps a cohort leader's window ends before the weakest lockstep
#: follower's predicted crossing, and the length of its windows within
#: two margins of it (DESIGN.md §12).  These windows run inside a
#: plan-sharing scope, so the cold window budget does not size them.
CROSSING_MARGIN_STEPS = 8

#: Fields of CohortSpec that do not shape the prototype's trajectory
#: (the prototype is one device run to ``warm_until``; population size
#: and the cohort's own stop level are irrelevant to it).
_PROTO_KEY_DROP = ("population", "warm_until")


class _CohortStepper:
    """Workload shim around a cohort experiment's workload.

    The experiment loop resolves ``step_batch`` on the workload's
    *class* (DESIGN.md §11), so this shim defines it as a real method
    delegating to the inner workload's fused path.  ``window`` bounds
    each fused window before it reaches the inner workload, and
    ``on_advance`` (if any) runs after every advance, fused or scalar.
    Results are window-size invariant, so the trajectory is
    bit-identical with or without the shim; it only moves window edges
    and observes device state.
    """

    def __init__(self, inner, window, on_advance=None):
        self._inner = inner
        self._window = window
        self._on_advance = on_advance

    def step(self):
        out = self._inner.step()
        if self._on_advance is not None:
            self._on_advance()
        return out

    def step_batch(self, max_steps, budget):
        out = self._inner.step_batch(self._window(max_steps), budget)
        if self._on_advance is not None:
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
    time, never a bit.  ``schedule`` records every length passed down,
    keyed by ``steps_completed`` at the window start, for demoted
    members to follow.
    """

    def __init__(self, experiment, state: CohortState):
        self._experiment = experiment
        self._state = state
        self._package = experiment.device.ftl.package
        self._mark = (experiment.steps_completed, self._package.counters.block_erases)
        self._rate = 0.0
        self.schedule: Dict[int, int] = {}

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
        self.schedule[steps] = n
        return n


def _scheduled_windows(experiment, schedule: Dict[int, int]):
    """A demoted member's window bound: the leader's window at the same
    step, until the member's package first retires a block — up to
    there its state is the leader's, so equal windows replay the
    leader's plans; past it the member's windows are its own."""
    package = experiment.device.ftl.package

    def window(max_steps: int) -> int:
        if package.num_bad_blocks:
            return max_steps
        return min(max_steps, schedule.get(experiment.steps_completed, max_steps))

    return window


@dataclass
class CohortResult:
    """Every member's wear-out result, stored without per-member
    duplication.

    ``shared`` is the leader's result — and, by the lockstep
    certificates, the exact result of every non-demoted member.
    ``demoted`` maps member index to that member's own scalar-replay
    result.  ``member_result(i)`` is the per-device view the spot-check
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

    # Plan-cache traffic this run generated (hits/misses/captures
    # deltas for the leader run and the demotion replays), attached by
    # ``run_cohort``.  Deliberately NOT a dataclass field and NOT in
    # ``to_dict``: cache traffic depends on what ran earlier in the
    # process (serial fleets share one cache; pool workers start cold),
    # so serializing it would break the worker-count-invariant store
    # fingerprint contract.  None on results rebuilt by ``from_dict``.
    plan_stats = None

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


def prototype_snapshot(
    spec: CohortSpec,
    cohort_seed: int,
    checkpoint_dir: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """The cohort's shared trajectory prefix, as a wear-state snapshot.

    Runs one prototype device (its own seed, derived from the cohort
    seed) to ``spec.warm_until`` and snapshots the end state.  With a
    checkpoint directory the prototype warm-starts from the PR-4
    content-addressed cache and saves its crossings back, so cohorts —
    or repeated runs of the same fleet — sharing a trajectory prefix
    simulate it once.  Returns None when the spec has no warm phase.
    """
    if spec.warm_until is None:
        return None
    proto_seed = substream_seed(cohort_seed, "fleet-prototype")
    experiment = build_cohort_experiment(spec, proto_seed)
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir)
        proto_fields = {
            k: v for k, v in spec.to_dict().items() if k not in _PROTO_KEY_DROP
        }
        proto_fields["kind"] = "fleet-prototype"
        key = warm_start_key(proto_fields, proto_seed)
        state = manager.best(key, until_level=spec.warm_until)
        if state is not None:
            try:
                restore_experiment(experiment, state)
            except CheckpointError:
                pass
        experiment.enable_checkpointing(
            manager, key, extra_meta={"cohort": spec.display}
        )
    experiment.run(until_level=spec.warm_until)
    return snapshot_experiment(experiment)


@plancache.sharing()
def run_cohort(
    spec: CohortSpec,
    cohort_seed: int,
    checkpoint_dir: Optional[str] = None,
) -> CohortResult:
    """Simulate every device of one cohort; exact per-member results.

    The cost model: one full scalar experiment for the leader, O(S)
    numpy reductions per leader advance for the certificates, one
    full scalar experiment per *demoted* member — and, with the plan
    cache on, the demoted replays hit the megaburst windows the leader
    just compiled (DESIGN.md §15), so their "full" runs collapse to
    cache probes plus the post-divergence tail.  A certifiable cohort
    of any population therefore costs one device-run plus array math.
    The whole cohort runs inside ``plancache.sharing()``: the demoted
    replays follow the leader.
    """
    snapshot = prototype_snapshot(spec, cohort_seed, checkpoint_dir)
    seeds = [device_seed(cohort_seed, i) for i in range(spec.population)]
    stats0 = plancache.stats()
    leader = branch_experiment(spec, seeds[0], snapshot)

    # Eligibility gates come first: from_leader introspects the
    # page-mapped package, which an ineligible (e.g. hybrid) leader may
    # not even have.
    ineligible = lockstep_ineligibility(spec, leader)
    canary_reasons: List[str] = []
    advances = [0]
    schedule: Optional[Dict[int, int]] = None
    if ineligible is None:
        state = CohortState.from_leader(spec, cohort_seed, leader)

        def on_advance() -> None:
            advances[0] += 1
            reason = state.post_advance(leader)
            if reason is not None:
                canary_reasons.append(reason)

        windows = _LeaderWindows(leader, state)
        leader.workload = _CohortStepper(leader.workload, windows, on_advance)
        leader.run(until_level=spec.until_level)
        leader.workload = leader.workload._inner
        # Final pass: the last advance may have ended mid-burst on a
        # brick or retirement; the post-run state settles every
        # certificate for the whole trajectory.
        reason = state.post_advance(leader)
        if reason is not None:
            canary_reasons.append(reason)
        if state.exact_pe:
            # Only exact-wear members can replay the leader at all: a
            # random member's pattern RNG is in the probe.
            schedule = windows.schedule
    else:
        state = CohortState.all_ineligible(spec, cohort_seed)
        leader.run(until_level=spec.until_level)

    stats_leader = plancache.stats()
    demoted: Dict[int, WearOutResult] = {}
    for index in state.demoted_indices():
        member = branch_experiment(spec, seeds[int(index)], snapshot)
        if schedule is not None:
            member.workload = _CohortStepper(
                member.workload, _scheduled_windows(member, schedule)
            )
        demoted[int(index)] = member.run(until_level=spec.until_level)
    stats_end = plancache.stats()

    result = CohortResult(
        spec=spec,
        cohort_seed=cohort_seed,
        shared=leader.result,
        demoted=demoted,
        demote_summary=state.summary(),
        ineligible_reason=ineligible,
        canary_reason=canary_reasons[0] if canary_reasons else None,
        advances=advances[0],
    )
    result.plan_stats = {
        "leader": {
            k: stats_leader[k] - stats0[k]
            for k in ("hits", "misses", "captures")
        },
        "demoted": {
            k: stats_end[k] - stats_leader[k]
            for k in ("hits", "misses", "captures")
        },
    }
    return result


@plancache.sharing()
def scalar_member_result(
    spec: CohortSpec,
    cohort_seed: int,
    index: int,
    checkpoint_dir: Optional[str] = None,
) -> WearOutResult:
    """Member ``index``'s ground-truth scalar run — the reference side
    of the spot-check contract (DESIGN.md §12): for any member,
    ``run_cohort(...).member_result(i)`` must be bit-identical to this.
    Like a demoted member, it runs inside ``plancache.sharing()`` and
    replays whatever windows its cohort left in the cache.
    """
    snapshot = prototype_snapshot(spec, cohort_seed, checkpoint_dir)
    member = branch_experiment(spec, device_seed(cohort_seed, index), snapshot)
    return member.run(until_level=spec.until_level)
