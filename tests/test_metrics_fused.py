"""Metrics-on runs take the fused path and count what the scalar loop
counts (DESIGN.md §9).

A second equivalence oracle beside the result digests.  With metrics
on, two runs of one configuration must give identical results *and*
identical registry snapshots: the fused run and the per-step loop
(``step_batching=False``).  The burst commit counts the
``ftl.*``/``flash.*`` instruments from the plan and the experiment loop
counts its own per step, so every instrument must land on the scalar
loop's value — copy traffic included: a merged-mode hybrid run and a
90%-fill static rewrite, whose fused windows relocate and migrate live
data, must match their scalar twins snapshot for snapshot.  The one
instrument outside the oracle is ``experiment.increment_wall_s``, a
wall-clock histogram: only its observation count is compared.
tests/test_execution_modes.py searches the same oracle over drawn runs
in every execution mode; the cases here are named regression cases of
that search.
"""

from __future__ import annotations

import pytest

from repro.ftl import burst
from repro.obs import MetricsRegistry, metrics_enabled
from tests.modes import fused_windows, make_experiment, metrics_snapshot, outcome, rewrite_static

#: name -> (device, filesystem, pattern, level, seed, endurance sigma).
#: "retiring" is a sequential run whose weakest block retires before
#: level 5, inside a fused window's plan, and later windows plan around
#: the bad block.
CASES = {
    "ext4-rand": ("emmc-8gb", "ext4", "rand", 3, 7, None),
    "ext4-seq": ("emmc-8gb", "ext4", "seq", 3, 7, None),
    "f2fs-rand": ("emmc-8gb", "f2fs", "rand", 3, 7, None),
    "f2fs-seq": ("emmc-8gb", "f2fs", "seq", 3, 7, None),
    "hybrid": ("emmc-16gb", "ext4", "rand", 2, 7, None),
    "retiring": ("emmc-8gb", "ext4", "seq", 5, 28, 0.35),
}


def _metered(device="emmc-8gb", **kwargs):
    """An experiment built under a fresh registry, and the registry."""
    with metrics_enabled(MetricsRegistry()) as registry:
        experiment = make_experiment(device=device, **kwargs)
    return experiment, registry


def _fused_steps(windows):
    return sum(executed for executed, _ in windows)


def _metered_run(case, step_batching=True):
    """Build and run ``case`` under a fresh registry; returns the
    experiment, its registry, and the step count of its fused windows."""
    device, fs_kind, pattern, level, seed, sigma = CASES[case]
    experiment, registry = _metered(
        device, fs_kind=fs_kind, pattern=pattern, seed=seed, endurance_sigma=sigma
    )
    experiment.step_batching = step_batching
    windows = fused_windows(experiment)
    experiment.run(until_level=level)
    return experiment, registry, _fused_steps(windows)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_and_scalar_snapshots_match(case, monkeypatch):
    retiring = []
    commit = burst.commit_planned_burst

    def watched(ftl, plan):
        retiring.append(int(plan.retired.size))
        return commit(ftl, plan)

    monkeypatch.setattr(burst, "commit_planned_burst", watched)

    fused, fused_reg, fused_steps = _metered_run(case)
    fused_retired = sum(retiring)
    scalar, scalar_reg, scalar_steps = _metered_run(case, step_batching=False)
    fused_snap = fused_reg.snapshot()

    # The metrics-on run took the fused path; the reference did not.
    assert fused_steps > 0
    assert scalar_steps == 0
    if case == "retiring":
        assert fused.device.ftl.package.num_bad_blocks > 0
        assert fused_retired > 0, "no committed plan retired a block"
        assert fused_snap["ftl.bad_blocks_retired"]["value"] > 0

    assert outcome(fused) == outcome(scalar)
    assert metrics_snapshot(fused_reg) == metrics_snapshot(scalar_reg)

    # The oracle compares live instruments, not empty ones.
    assert fused_snap["experiment.steps"]["value"] == fused.steps_completed
    assert fused_snap["experiment.host_bytes"]["value"] == fused.result.total_host_bytes
    assert fused_snap["ftl.gc_runs"]["value"] > 0
    assert fused_snap["flash.block_erases"]["value"] == fused_snap["ftl.blocks_erased"]["value"]


def _relocating_run(case, step_batching):
    """A metrics-on run whose reclaims copy live data: the merged hybrid
    (Table 1's last phase, staging ring and GC relocation in both pools)
    or a page-mapped device rewriting static data at 90% fill."""
    device, fill = {"merged": ("emmc-16gb", 0.86), "fill-90": ("emmc-8gb", 0.90)}[case]
    experiment, registry = _metered(device)
    experiment.step_batching = step_batching
    experiment.run(until_level=2, max_steps=8)  # maps every workload file
    rewrite_static(experiment, fill)
    windows = fused_windows(experiment)
    experiment.run_one_increment("A", max_steps=40)
    return experiment, registry, _fused_steps(windows)


@pytest.mark.parametrize("case", ["merged", "fill-90"])
def test_relocating_snapshots_match(case):
    fused, fused_reg, fused_steps = _relocating_run(case, step_batching=True)
    scalar, scalar_reg, scalar_steps = _relocating_run(case, step_batching=False)
    assert fused_steps > 0 and scalar_steps == 0
    assert outcome(fused) == outcome(scalar)
    assert metrics_snapshot(fused_reg) == metrics_snapshot(scalar_reg)

    # The copies the oracle compares were counted from fused plans.
    fused_snap = fused_reg.snapshot()
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
        return _metered()

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
