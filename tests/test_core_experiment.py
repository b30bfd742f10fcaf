"""Tests for the wear-out experiment runner and result records."""

import dataclasses

import pytest

from repro.core import IncrementRecord, WearOutExperiment, WearOutResult
from repro.core.experiment import COLD_WINDOW_BYTES
from repro.devices import DEVICE_SPECS, build_device
from repro.fs import Ext4Model
from repro.units import GIB, HOUR, KIB, MIB
from repro.workloads import FileRewriteWorkload
from tests import modes
from tests.modes import SCALE, ftl_fingerprint, result_json


def make_experiment(endurance=None, seed=7):
    spec = DEVICE_SPECS["emmc-8gb"]
    if endurance is not None:
        spec = dataclasses.replace(spec, endurance=endurance)
    dev = spec.build(scale=256, seed=seed)
    fs = Ext4Model(dev)
    wl = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=seed)
    return WearOutExperiment(dev, wl, filesystem=fs)


@pytest.fixture(scope="module")
def result3():
    """One shared run to level 3 (read-only for assertions)."""
    return make_experiment().run(until_level=3)


class TestIncrementRecord:
    def test_unit_conversions(self):
        rec = IncrementRecord(
            memory_type="A", from_level=1, to_level=2,
            host_bytes=2 * GIB, app_bytes=GIB, seconds=2 * HOUR,
        )
        assert rec.host_gib == pytest.approx(2.0)
        assert rec.app_gib == pytest.approx(1.0)
        assert rec.hours == pytest.approx(2.0)
        assert rec.label == "1-2"


class TestWearOutResult:
    def test_summary_and_filters(self):
        result = WearOutResult(device_name="dev", filesystem="ext4")
        result.increments.append(
            IncrementRecord("A", 1, 2, host_bytes=GIB, app_bytes=GIB, seconds=HOUR)
        )
        result.increments.append(
            IncrementRecord("B", 1, 2, host_bytes=GIB, app_bytes=GIB, seconds=HOUR)
        )
        assert len(result.increments_for("A")) == 1
        assert result.final_level == 2
        assert "dev" in result.summary()

    def test_empty_result_level_one(self):
        assert WearOutResult(device_name="d", filesystem=None).final_level == 1


class TestRunToLevel:
    def test_runs_until_target_level(self, result3):
        assert result3.final_level >= 3
        assert result3.increments
        assert not result3.bricked

    def test_increment_records_are_contiguous(self, result3):
        recs = result3.increments_for("A")
        for prev, cur in zip(recs, recs[1:]):
            assert cur.from_level == prev.to_level

    def test_volumes_rescaled_to_full_device(self, result3):
        """A scale-256 device must report full-device GiB (DESIGN §6)."""
        rec = result3.increments[0]
        # ~1 TiB per increment on the real 8 GB chip; far more than the
        # ~4 GiB that physically flowed through the scaled instance.
        assert rec.host_gib > 100

    def test_time_rescaled_consistently(self, result3):
        rec = result3.increments[0]
        # Implied app throughput must be physical (1..100 MiB/s), which
        # only holds if bytes and seconds are scaled together.
        mib_s = rec.app_gib * 1024 / max(rec.seconds, 1e-9)
        assert 1.0 < mib_s < 100.0

    def test_pattern_recorded(self, result3):
        assert result3.increments[0].io_pattern == "4 KiB rand"

    def test_total_accounting(self, result3):
        assert result3.total_app_bytes > 0
        assert result3.total_host_bytes >= result3.total_app_bytes
        assert result3.total_hours == pytest.approx(result3.total_seconds / 3600)


class TestRunOneIncrement:
    def test_successive_calls_advance(self):
        exp = make_experiment(endurance=400)
        first = exp.run_one_increment("A")
        assert first is not None
        assert first.memory_type == "A"
        assert first.from_level == 1
        second = exp.run_one_increment("A")
        assert second.from_level == first.to_level


class TestBrickPath:
    def test_worn_out_device_reports_bricked(self):
        exp = make_experiment(endurance=60)
        result = exp.run(until_level=99)  # unreachable: run to death
        assert result.bricked
        assert result.final_level == 11


class _ScriptedIndicator:
    """Stands in for a WearIndicator: just a mutable level."""

    def __init__(self, level=1):
        self.level = level


class _ScriptedDevice:
    """Deterministic device double for pinning the experiment loop.

    The wear indicator advances one level every ``steps_per_level``
    workload steps; ``host_bytes_written`` grows by a fixed amount per
    step.  ``scale`` is non-trivial so rescaling stays observable.
    """

    name = "scripted"
    scale = 4

    def __init__(self, steps_per_level=3, host_bytes_per_step=1000):
        self._indicator = _ScriptedIndicator()
        self._steps = 0
        self._steps_per_level = steps_per_level
        self._host_per_step = host_bytes_per_step
        self.host_bytes_written = 0

    def tick(self):
        self._steps += 1
        self.host_bytes_written += self._host_per_step
        self._indicator.level = 1 + self._steps // self._steps_per_level

    def wear_indicators(self):
        return {"A": self._indicator}


class _ScriptedWorkload:
    """Fixed (duration, bytes) per step; optionally bricks at a step."""

    description = "scripted"
    space_utilization = 0.5

    def __init__(self, device, brick_at=None):
        self._device = device
        self._step = 0
        self._brick_at = brick_at

    def step(self):
        from repro.errors import DeviceWornOut

        self._step += 1
        if self._brick_at is not None and self._step >= self._brick_at:
            raise DeviceWornOut("scripted death")
        self._device.tick()
        return 2.0, 500


class TestStepEquivalence:
    """Pin the one experiment loop behind both public methods.

    ``run`` and ``run_one_increment`` share one loop whose scalar and
    fused steps go through one post-advance block; these
    scripted-device assertions pin the exact accounting, recording, and
    brick semantics both must keep.
    """

    def make(self, brick_at=None, steps_per_level=3):
        device = _ScriptedDevice(steps_per_level=steps_per_level)
        workload = _ScriptedWorkload(device, brick_at=brick_at)
        return WearOutExperiment(device, workload), device

    def test_run_accounting_and_termination(self):
        exp, device = self.make()
        result = exp.run(until_level=3)
        # 6 steps: levels advance at steps 3 and 6; stop when level 3 hit.
        assert result.final_level == 3
        assert not result.bricked
        assert result.total_seconds == 6 * 2.0 * device.scale
        assert result.total_app_bytes == 6 * 500 * device.scale
        assert result.total_host_bytes == device.host_bytes_written * device.scale
        assert [rec.label for rec in result.increments] == ["1-2", "2-3"]
        # Per-increment volumes are deltas, rescaled to full device.
        assert [rec.host_bytes for rec in result.increments] == [
            3 * 1000 * device.scale, 3 * 1000 * device.scale,
        ]
        assert [rec.seconds for rec in result.increments] == [
            3 * 2.0 * device.scale, 3 * 2.0 * device.scale,
        ]
        assert all(rec.io_pattern == "scripted" for rec in result.increments)
        assert all(rec.space_utilization == 0.5 for rec in result.increments)

    def test_run_one_increment_matches_run_per_step_accounting(self):
        exp, device = self.make()
        rec = exp.run_one_increment("A")
        assert rec is not None and rec.label == "1-2"
        # Stops on the exact step the indicator moves: 3 steps.
        assert exp.result.total_seconds == 3 * 2.0 * device.scale
        assert exp.result.total_app_bytes == 3 * 500 * device.scale
        # run() after run_one_increment() continues the same accounting.
        result = exp.run(until_level=3)
        assert result is exp.result
        assert [r.label for r in result.increments] == ["1-2", "2-3"]
        assert result.total_seconds == 6 * 2.0 * device.scale

    def test_both_paths_set_bricked(self):
        exp, _ = self.make(brick_at=2)
        result = exp.run(until_level=99)
        assert result.bricked and result.total_seconds == 1 * 2.0 * 4

        exp2, _ = self.make(brick_at=2)
        assert exp2.run_one_increment("A") is None
        assert exp2.result.bricked
        assert exp2.result.total_seconds == 1 * 2.0 * 4

    def test_run_one_increment_sets_host_total(self):
        # The loop keeps total_host_bytes current, so an increment run
        # reports its host volume as run() does.
        exp, device = self.make()
        exp.run_one_increment("A")
        assert exp.result.total_host_bytes == device.host_bytes_written * device.scale > 0


class TestDefaultWindows:
    """With no ``max_batch_steps`` a fused window takes as many steps
    as the cold byte budget holds (DESIGN.md §14)."""

    @staticmethod
    def _window_sizes(exp):
        """Live list of the step counts of every window offered to the
        device's fused path."""
        device = exp.device
        inner = device.write_burst
        sizes = []

        def write_burst(data, request_bytes, meta, budget):
            sizes.append(len(data))
            return inner(data, request_bytes, meta, budget)

        device.write_burst = write_burst
        return sizes

    def test_cold_run_plans_small_windows(self):
        """16 steps of 4,096 4 KiB requests."""
        exp = modes.make_experiment()
        sizes = self._window_sizes(exp)
        exp.run(until_level=2)
        assert exp.workload.step_bytes == 16 * MIB
        assert max(sizes) == COLD_WINDOW_BYTES // exp.workload.step_bytes == 16

    def test_cold_128k_phase_after_a_swap_plans_the_floor(self):
        """Table 1's protocol: 4 KiB random rewrite, then 128 KiB
        sequential rewrite of the same files, 512 MiB a step, over the
        cold budget.  The loop reads the new workload's step size at
        the swap, so the second phase plans the 2-step floor, never
        more, and the run equals its per-step run."""
        def run(step_batching):
            device = build_device("emmc-8gb", scale=SCALE, seed=7)
            fs = Ext4Model(device)
            first = FileRewriteWorkload(fs, num_files=4, file_bytes=256 * MIB,
                                        request_bytes=4 * KIB, pattern="rand", seed=7)
            exp = WearOutExperiment(device, first, filesystem=fs)
            exp.step_batching = step_batching
            sizes = self._window_sizes(exp)
            exp.run_one_increment()
            before = list(sizes)
            sizes.clear()
            exp.workload = FileRewriteWorkload(fs, request_bytes=128 * KIB, pattern="seq",
                                               target_files=first.files, seed=7)
            exp.run_one_increment()
            return exp, before, sizes

        fused, before, after = run(step_batching=True)
        assert max(before) == 16
        assert fused.workload.step_bytes > COLD_WINDOW_BYTES
        assert after and max(after) == 2

        scalar, _, _ = run(step_batching=False)
        assert len(scalar.result.increments) == 2
        assert result_json(fused) == result_json(scalar)
        assert ftl_fingerprint(fused.device.ftl) == ftl_fingerprint(scalar.device.ftl)
