"""Build and branch cohort-member experiments (DESIGN.md §12).

A cohort member's *scalar counterpart* — the ground truth every fleet
result is defined against — is produced here and only here:

* :func:`build_cohort_experiment` builds a fresh member experiment from
  a :class:`~repro.fleet.spec.CohortSpec` and a device seed, mirroring
  the campaign runner's wear-out build sequence exactly.
* :func:`branch_experiment` additionally rewinds the member onto the
  cohort's shared trajectory prefix: restore the prototype snapshot
  into the member twin, then re-stamp the member's *own* entropy
  (workload pattern RNG, FTL read RNG) over the restored streams.

The branch semantics are: a member inherits the prototype's *position*
(wear state, mapping tables, file extents, workload cursor) but keeps
its *identity* (its endurance draw — the twin's own ``_cycle_limit`` is
never overwritten by restore — and its RNG streams).  The cohort engine
(:mod:`repro.fleet.engine`) steps its leader of this exact
construction, and branches demoted members from snapshots of that
leader, so "cohort result for member i" and "scalar run of member i"
agree by definition, not by convention.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.experiment import MAX_WINDOW_STEPS, WearOutExperiment
from repro.devices import DEVICE_SPECS, build_device
from repro.fleet.spec import CohortSpec
from repro.fs import make_filesystem
from repro.ftl.hybrid import HybridFTL
from repro.state import CheckpointError, restore_experiment
from repro.state.snapshot import package_config_digest
from repro.workloads import FileRewriteWorkload
from repro.workloads.patterns import RandomPattern


def _pools(ftl) -> Tuple[Any, ...]:
    if isinstance(ftl, HybridFTL):
        return (ftl.pool_a, ftl.pool_b)
    return (ftl,)


def build_cohort_experiment(spec: CohortSpec, seed: int) -> WearOutExperiment:
    """A fresh member experiment: the campaign wear-out build sequence
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
    fs_kind = spec.filesystem or DEVICE_SPECS[spec.device].default_fs
    fs = make_filesystem(fs_kind, device)
    workload = FileRewriteWorkload(
        fs,
        num_files=spec.num_files,
        request_bytes=spec.request_bytes,
        pattern=spec.pattern,
        seed=seed,
    )
    experiment = WearOutExperiment(device, workload, filesystem=fs)
    experiment.max_batch_steps = MAX_WINDOW_STEPS
    return experiment


def _capture_member_entropy(experiment: WearOutExperiment) -> Dict[str, Any]:
    """The member-identity RNG states of a *freshly built* twin, taken
    before restore overwrites them with the prototype's."""
    workload = experiment.workload
    entropy: Dict[str, Any] = {
        "workload_rng": copy.deepcopy(workload._rng.bit_generator.state),
        "generator_rngs": [],
    }
    for gen in workload._generators:
        if isinstance(gen, RandomPattern) and gen._rng is not workload._rng:
            entropy["generator_rngs"].append(
                copy.deepcopy(gen._rng.bit_generator.state)
            )
        else:
            entropy["generator_rngs"].append(None)
    pools = _pools(experiment.device.ftl)
    entropy["read_rngs"] = [
        copy.deepcopy(pool._read_rng.bit_generator.state) for pool in pools
    ]
    return entropy


def _restamp_member_entropy(experiment: WearOutExperiment, entropy: Dict[str, Any]) -> None:
    """Re-apply the member's own RNG streams over the restored
    prototype streams.  Trajectory *positions* (sequential-pattern
    cursors, the round-robin file cursor) stay at the prototype's
    values — position is shared, entropy is not."""
    workload = experiment.workload
    workload._rng.bit_generator.state = entropy["workload_rng"]
    for gen, state in zip(workload._generators, entropy["generator_rngs"]):
        if state is not None:
            gen._rng.bit_generator.state = state
    for pool, state in zip(_pools(experiment.device.ftl), entropy["read_rngs"]):
        pool._read_rng.bit_generator.state = state


def _patch_package_digests(experiment: WearOutExperiment, state: Dict[str, Any]) -> Dict[str, Any]:
    """A shallow-per-level copy of ``state`` whose package config
    digests match the member twin's packages.

    The snapshot digest covers the prototype's per-block cycle-limit
    draw; a member twin intentionally carries a *different* draw (its
    own seed), so restoring the shared snapshot must accept the twin's
    limits while still rejecting genuine geometry/spec mismatches —
    which the geometry half of the digest plus the shape checks in
    ``restore_ftl`` continue to enforce.  The input snapshot is shared
    across members (and cached on disk), so it is never mutated; only
    the dict spine down to each digest is copied.
    """
    patched = dict(state)
    patched["device"] = dict(state["device"])
    ftl_state = dict(state["device"]["ftl"])
    patched["device"]["ftl"] = ftl_state
    ftl = experiment.device.ftl
    if ftl_state.get("hybrid"):
        for pool_key, pool in (("pool_a", ftl.pool_a), ("pool_b", ftl.pool_b)):
            pool_state = dict(ftl_state[pool_key])
            pool_state["package"] = dict(pool_state["package"])
            pool_state["package"]["config_digest"] = package_config_digest(pool.package)
            ftl_state[pool_key] = pool_state
    else:
        pool_state = dict(ftl_state["pool"])
        pool_state["package"] = dict(pool_state["package"])
        pool_state["package"]["config_digest"] = package_config_digest(ftl.package)
        ftl_state["pool"] = pool_state
    return patched


def _snapshot_packages(state: Dict[str, Any]):
    ftl_state = state["device"]["ftl"]
    if ftl_state.get("hybrid"):
        return (ftl_state["pool_a"]["package"], ftl_state["pool_b"]["package"])
    return (ftl_state["pool"]["package"],)


def branch_experiment(
    spec: CohortSpec,
    seed: int,
    snapshot: Optional[Dict[str, Any]] = None,
) -> WearOutExperiment:
    """A member experiment positioned at the cohort's branch point.

    Without a snapshot this is just :func:`build_cohort_experiment`.
    With one — the cohort prototype's, or the cohort leader's at the
    start of an advance — the snapshotted trajectory prefix is restored
    into the member twin and the member's own entropy is re-stamped on
    top.

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
    patched = _patch_package_digests(experiment, snapshot)
    for pkg_state in _snapshot_packages(snapshot):
        if int(pkg_state["num_bad"]) != 0:
            raise CheckpointError(
                "cohort prototype has bad blocks — its trajectory prefix is "
                "not shareable across member endurance draws"
            )
    restore_experiment(experiment, patched)
    _restamp_member_entropy(experiment, entropy)
    for pool in _pools(experiment.device.ftl):
        pkg = pool.package
        worn = pkg._pe_permanent + pkg._pe_recoverable
        if np.any(worn >= pkg._cycle_limit):
            raise CheckpointError(
                "cohort prototype wear exceeds a member block's cycle limit — "
                "the member would have diverged inside the shared prefix"
            )
    return experiment
