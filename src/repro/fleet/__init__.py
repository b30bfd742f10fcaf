"""Fleet-scale cohort simulation (DESIGN.md §12).

One leader experiment per cohort, structure-of-arrays follower state,
certificate-gated lockstep, exact scalar replays for anything the
certificates cannot cover — population wear curves for millions of
devices at the cost of a handful of device runs.
"""

from repro.fleet.branch import branch_experiment, build_cohort_experiment
from repro.fleet.curves import (
    cohort_events,
    crossing_times,
    render_survival,
    survival_curves,
    write_survival_jsonl,
)
from repro.fleet.detect import cohort_features, fleet_detection
from repro.fleet.engine import CohortResult, run_cohort, scalar_member_result
from repro.fleet.runner import FleetReport, FleetRunner, run_fleet_cohort
from repro.fleet.soa import CohortState, lockstep_ineligibility
from repro.fleet.spec import (
    CohortSpec,
    FleetSpec,
    attacker_prevalence_fleet,
    cohort_key,
    device_seed,
    resolve_cohort_seed,
)

__all__ = [
    "CohortResult",
    "CohortSpec",
    "CohortState",
    "FleetReport",
    "FleetRunner",
    "FleetSpec",
    "attacker_prevalence_fleet",
    "branch_experiment",
    "build_cohort_experiment",
    "cohort_events",
    "cohort_features",
    "cohort_key",
    "crossing_times",
    "device_seed",
    "fleet_detection",
    "lockstep_ineligibility",
    "render_survival",
    "resolve_cohort_seed",
    "run_cohort",
    "run_fleet_cohort",
    "scalar_member_result",
    "survival_curves",
    "write_survival_jsonl",
]
