"""Metrics-on runs take the fused path and count what the scalar loop
counts (DESIGN.md §9).

A second equivalence oracle beside the result digests.  With metrics
on, three runs of one configuration must give identical results *and*
identical registry snapshots: the fused run, the per-step loop
(``step_batching=False``), and a run replayed from the plan cache
inside ``plancache.sharing()`` after a first run captured its windows.
The burst commit counts the ``ftl.*``/``flash.*`` instruments from the
plan and the experiment loop counts its own per step, so every
instrument must land on the scalar loop's value — copy traffic
included: a merged-mode hybrid run and a 90%-fill static rewrite, whose
fused windows relocate and migrate live data, must match their scalar
twins snapshot for snapshot.  The one instrument
outside the oracle is ``experiment.increment_wall_s``, a wall-clock
histogram: only its observation count is compared.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.fs import Ext4Model, F2fsModel
from repro.ftl import burst, plancache
from repro.obs import MetricsRegistry, metrics_enabled
from repro.units import KIB
from repro.workloads import FileRewriteWorkload
from repro.workloads.wearout import fill_static_space
from tests.test_megaburst_fallback import _fused_steps
from tests.test_state_snapshot import device_fingerprint, result_json

SCALE = 2048

#: name -> (device, fs model, pattern, level, seed, endurance sigma).
#: "retiring" is a sequential run whose weakest block retires before
#: level 5, inside a fused window's plan, and later windows plan around
#: the bad block.
CASES = {
    "ext4-rand": ("emmc-8gb", Ext4Model, "rand", 3, 7, None),
    "ext4-seq": ("emmc-8gb", Ext4Model, "seq", 3, 7, None),
    "f2fs-rand": ("emmc-8gb", F2fsModel, "rand", 3, 7, None),
    "f2fs-seq": ("emmc-8gb", F2fsModel, "seq", 3, 7, None),
    "hybrid": ("emmc-16gb", Ext4Model, "rand", 2, 7, None),
    "retiring": ("emmc-8gb", Ext4Model, "seq", 5, 28, 0.35),
}


@pytest.fixture(autouse=True)
def fresh_cache():
    plancache.clear()
    plancache.cache().reset_stats()
    yield
    plancache.clear()


def _metered_run(case, step_batching=True):
    """Build and run ``case`` under a fresh registry; returns the
    experiment, its snapshot, and the step count of its fused windows."""
    device_name, fs_cls, pattern, level, seed, sigma = CASES[case]
    with metrics_enabled(MetricsRegistry()) as registry:
        device = build_device(device_name, scale=SCALE, seed=seed, endurance_sigma=sigma)
        fs = fs_cls(device)
        workload = FileRewriteWorkload(
            fs, num_files=4, request_bytes=4 * KIB, pattern=pattern, seed=seed
        )
        experiment = WearOutExperiment(device, workload, filesystem=fs)
    experiment.step_batching = step_batching
    fused = _fused_steps(experiment)
    experiment.run(until_level=level)
    return experiment, registry.snapshot(), sum(fused)


def _outcome(experiment):
    return (
        result_json(experiment),
        device_fingerprint(experiment.device),
        experiment.device.busy_seconds,
        experiment.clock.now,
        experiment.steps_completed,
        experiment.filesystem.app_bytes_written,
    )


def _comparable(snapshot):
    """The snapshot with the wall-clock histogram cut to its count."""
    snapshot = copy.deepcopy(snapshot)
    wall = snapshot.pop("experiment.increment_wall_s")
    snapshot["experiment.increment_wall_s:count"] = wall["count"]
    return json.dumps(snapshot, sort_keys=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_scalar_and_replayed_snapshots_match(case, monkeypatch):
    retiring = []
    commit = burst.commit_planned_burst

    def watched(ftl, plan):
        retiring.append(int(plan.retired.size))
        return commit(ftl, plan)

    monkeypatch.setattr(burst, "commit_planned_burst", watched)

    fused, fused_snap, fused_steps = _metered_run(case)
    fused_retired = sum(retiring)
    scalar, scalar_snap, scalar_steps = _metered_run(case, step_batching=False)
    with plancache.sharing():
        _, capture_snap, _ = _metered_run(case)
        before = plancache.stats()["hits"]
        replayed, replay_snap, _ = _metered_run(case)
        hits = plancache.stats()["hits"] - before

    # The metrics-on run took the fused path; the reference did not.
    assert fused_steps > 0
    assert scalar_steps == 0
    if plancache.cache().enabled and case != "hybrid":
        assert hits > 0  # hybrid windows are never cached (DESIGN.md §16)
    if case == "retiring":
        assert fused.device.ftl.package.num_bad_blocks > 0
        assert fused_retired > 0, "no committed plan retired a block"
        assert fused_snap["ftl.bad_blocks_retired"]["value"] > 0

    assert _outcome(fused) == _outcome(scalar) == _outcome(replayed)
    expected = _comparable(scalar_snap)
    assert _comparable(fused_snap) == expected
    assert _comparable(capture_snap) == expected
    assert _comparable(replay_snap) == expected

    # The oracle compares live instruments, not empty ones.
    assert fused_snap["experiment.steps"]["value"] == fused.steps_completed
    assert fused_snap["experiment.host_bytes"]["value"] == fused.result.total_host_bytes
    assert fused_snap["ftl.gc_runs"]["value"] > 0
    assert fused_snap["flash.block_erases"]["value"] == fused_snap["ftl.blocks_erased"]["value"]


def _relocating_run(case, step_batching):
    """A metrics-on run whose reclaims copy live data: the merged hybrid
    (Table 1's last phase, staging ring and GC relocation in both pools)
    or a page-mapped device rewriting static data at 90% fill."""
    device_name, fill = {"merged": ("emmc-16gb", 0.86), "fill-90": ("emmc-8gb", 0.90)}[case]
    with metrics_enabled(MetricsRegistry()) as registry:
        device = build_device(device_name, scale=SCALE, seed=7)
        fs = Ext4Model(device)
        workload = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=7)
        experiment = WearOutExperiment(device, workload, filesystem=fs)
    experiment.step_batching = step_batching
    experiment.run(until_level=2, max_steps=8)  # maps every workload file
    static = fill_static_space(fs, fill)
    experiment.workload = FileRewriteWorkload(
        fs, request_bytes=4 * KIB, target_files=static[:2], seed=8
    )
    fused = _fused_steps(experiment)
    experiment.run_one_increment("A", max_steps=40)
    return experiment, registry.snapshot(), sum(fused)


@pytest.mark.parametrize("case", ["merged", "fill-90"])
def test_relocating_snapshots_match(case):
    fused, fused_snap, fused_steps = _relocating_run(case, step_batching=True)
    scalar, scalar_snap, scalar_steps = _relocating_run(case, step_batching=False)
    assert fused_steps > 0 and scalar_steps == 0
    assert _outcome(fused) == _outcome(scalar)
    assert _comparable(fused_snap) == _comparable(scalar_snap)

    # The copies the oracle compares were counted from fused plans.
    assert fused_snap["ftl.gc_pages_copied"]["value"] > 0
    assert fused_snap["ftl.gc_victim_valid_units"]["sum"] > 0
    assert fused_snap["ftl.free_blocks"]["value"] > 0
    if case == "merged":
        assert fused.device.ftl.merged_mode
        assert fused_snap["ftl.migration_pages"]["value"] > 0
        assert fused_snap["ftl.wl_runs"]["value"] > 0
        assert fused_snap["ftl.wl_pages_copied"]["value"] > 0


class TestHostBytesCountedOnce:
    """``experiment.host_bytes`` adds only the volume written since the
    experiment last counted it."""

    def _experiment(self):
        with metrics_enabled(MetricsRegistry()) as registry:
            device = build_device("emmc-8gb", scale=SCALE, seed=7)
            fs = Ext4Model(device)
            workload = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=7)
            experiment = WearOutExperiment(device, workload, filesystem=fs)
        return experiment, registry

    def test_repeated_run_counts_the_device_total(self):
        experiment, registry = self._experiment()
        experiment.run(until_level=2)
        experiment.run(until_level=3)
        counted = registry.get("experiment.host_bytes").value
        assert counted == experiment.result.total_host_bytes
        assert counted == experiment.device.host_bytes_written * experiment.device.scale

    def test_run_one_increment_counts(self):
        experiment, registry = self._experiment()
        experiment.run_one_increment("A")
        first = registry.get("experiment.host_bytes").value
        assert first > 0
        experiment.run_one_increment("A")
        counted = registry.get("experiment.host_bytes").value
        assert first < counted == experiment.device.host_bytes_written * experiment.device.scale
