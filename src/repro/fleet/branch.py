"""Build and branch cohort-member experiments (DESIGN.md §12).

A cohort member's *scalar counterpart* — the ground truth every fleet
result is defined against — is produced here and only here:

* :func:`build_cohort_experiment` builds a fresh member experiment from
  a :class:`~repro.fleet.spec.CohortSpec` and a device seed, through the
  campaign runner's wear-out build
  (:func:`repro.campaign.runner.rewrite_experiment`).
* :func:`branch_experiment` additionally moves the member onto a
  trajectory prefix it shares with the cohort leader: restore a leader
  snapshot into the member twin, then re-stamp the member's *own*
  entropy (workload pattern RNG, FTL read RNG) over the restored
  streams.

The branch semantics are: a member inherits the leader snapshot's
*position* (wear state, mapping tables, file extents, workload cursor)
but keeps its *identity* (its endurance draw — the twin's own
``_cycle_limit`` is never overwritten by restore — and its RNG
streams).  The cohort engine (:mod:`repro.fleet.engine`) steps its
leader of this exact construction, and branches demoted members from
snapshots of that leader, so "cohort result for member i" and "scalar
run of member i" agree by definition, not by convention.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional

import numpy as np

from repro.campaign.runner import rewrite_experiment
from repro.core.experiment import MAX_WINDOW_STEPS, WearOutExperiment
from repro.devices import build_device
from repro.fleet.spec import CohortSpec
from repro.state import CheckpointError, restore_experiment
from repro.state.snapshot import package_config_digest, pool_keys


def build_cohort_experiment(spec: CohortSpec, seed: int) -> WearOutExperiment:
    """A fresh member experiment: the campaign wear-out build
    (device → filesystem → rewrite workload → experiment) driven by a
    cohort spec and one member's device seed.

    Its fused windows plan :data:`~repro.core.experiment.MAX_WINDOW_STEPS`
    steps: a cohort leader's windows are cut near each follower's
    crossing anyway (DESIGN.md §12), and between crossings it gains from
    big ones.  Window size never changes a result.
    """
    device = build_device(
        spec.device, scale=spec.scale, seed=seed,
        endurance_sigma=spec.endurance_sigma,
    )
    experiment = rewrite_experiment(spec, device, seed)
    experiment.max_batch_steps = MAX_WINDOW_STEPS
    return experiment


def _capture_member_entropy(experiment: WearOutExperiment) -> Dict[str, Any]:
    """The member-identity RNG states of a *freshly built* twin, taken
    before restore overwrites them with the snapshot's.  Every random
    pattern of a rewrite workload draws from the workload's own
    Generator, so its state covers them all."""
    return {
        "workload_rng": copy.deepcopy(experiment.workload._rng.bit_generator.state),
        "read_rngs": [
            copy.deepcopy(pool._read_rng.bit_generator.state)
            for pool in experiment.device.pools.values()
        ],
    }


def _restamp_member_entropy(experiment: WearOutExperiment, entropy: Dict[str, Any]) -> None:
    """Re-apply the member's own RNG streams over the restored
    snapshot streams.  Trajectory *positions* (sequential-pattern
    cursors, the round-robin file cursor) stay at the snapshot's
    values — position is shared, entropy is not."""
    experiment.workload._rng.bit_generator.state = entropy["workload_rng"]
    for pool, state in zip(experiment.device.pools.values(), entropy["read_rngs"]):
        pool._read_rng.bit_generator.state = state


def _patch_package_digests(experiment: WearOutExperiment, state: Dict[str, Any]) -> Dict[str, Any]:
    """A shallow-per-level copy of ``state`` whose package config
    digests match the member twin's packages.

    The snapshot digest covers the leader's per-block cycle-limit draw;
    a member twin intentionally carries a *different* draw (its own
    seed), so restoring the shared snapshot must accept the twin's
    limits while still rejecting genuine geometry/spec mismatches —
    which the geometry half of the digest plus the shape checks in
    ``restore_ftl`` continue to enforce.  The input snapshot is shared
    across members, so it is never mutated; only the dict spine down to
    each digest is copied.
    """
    patched = dict(state)
    patched["device"] = dict(state["device"])
    ftl_state = dict(state["device"]["ftl"])
    patched["device"]["ftl"] = ftl_state
    device = experiment.device
    for mem, key in pool_keys(device).items():
        pool_state = dict(ftl_state[key])
        pool_state["package"] = dict(pool_state["package"])
        pool_state["package"]["config_digest"] = package_config_digest(device.pools[mem].package)
        ftl_state[key] = pool_state
    return patched


def branch_experiment(
    spec: CohortSpec,
    seed: int,
    snapshot: Optional[Dict[str, Any]] = None,
) -> WearOutExperiment:
    """A member experiment positioned at its branch point.

    Without a snapshot this is just :func:`build_cohort_experiment`.
    With one — the cohort leader's at the start of an advance — the
    snapshotted trajectory prefix is restored into the member twin and
    the member's own entropy is re-stamped on top.

    The branch is only well-defined while the snapshot's wear history
    is *compatible* with the member's endurance draw: no block may
    already exceed the member's limit (the member would have retired it
    earlier, diverging the prefix), and no bad blocks may exist yet.
    Violations raise :class:`~repro.state.CheckpointError`.
    """
    experiment = build_cohort_experiment(spec, seed)
    if snapshot is None:
        return experiment
    entropy = _capture_member_entropy(experiment)
    restore_experiment(experiment, _patch_package_digests(experiment, snapshot))
    _restamp_member_entropy(experiment, entropy)
    packages = experiment.device._packages()
    if any(pkg.num_bad_blocks for pkg in packages):
        raise CheckpointError(
            "snapshot has bad blocks — its trajectory prefix is "
            "not shareable across member endurance draws"
        )
    for pkg in packages:
        worn = pkg._pe_permanent + pkg._pe_recoverable
        if np.any(worn >= pkg._cycle_limit):
            raise CheckpointError(
                "snapshot wear exceeds a member block's cycle limit — "
                "the member would have diverged inside the shared prefix"
            )
    return experiment
