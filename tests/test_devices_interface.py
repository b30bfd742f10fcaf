"""Tests for the BlockDevice wrapper."""

import numpy as np
import pytest

from repro.devices import PerformanceModel, build_device
from repro.devices.interface import BlockDevice
from repro.errors import ReadOnlyError
from repro.flash import FlashGeometry, FlashPackage
from repro.fs import Ext4Model
from repro.ftl import PageMappedFTL
from repro.units import KIB, MIB
from repro.workloads import FileRewriteWorkload
from tests.test_burst_batching import SCALE, _experiment, _outcome
from tests.test_state_snapshot import device_fingerprint


@pytest.fixture
def device():
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
    pkg = FlashPackage(geom, seed=5)
    ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.85), seed=5)
    return BlockDevice("test-dev", ftl, PerformanceModel(peak_write_mib_s=40.0), scale=4)


class TestWrites:
    def test_write_returns_positive_duration(self, device):
        assert device.write(0, 4 * KIB) > 0

    def test_duration_matches_perf_model(self, device):
        d = device.write_many(np.arange(256) * 4 * KIB, 4 * KIB)
        expected = device.perf.write_duration(MIB, 4 * KIB, media_ratio=1.0)
        assert d == pytest.approx(expected, rel=0.05)

    def test_media_work_slows_requests(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
        pkg = FlashPackage(geom, seed=5)
        coarse = PageMappedFTL(
            pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.85),
            mapping_unit_pages=4, seed=5,
        )
        dev = BlockDevice("coarse", coarse, PerformanceModel(peak_write_mib_s=40.0))
        offsets = np.arange(64) * 16 * KIB  # distinct units
        d = dev.write_many(offsets, 4 * KIB)
        ideal = dev.perf.write_duration(64 * 4 * KIB, 4 * KIB, media_ratio=1.0)
        assert d == pytest.approx(4 * ideal, rel=0.05)

    def test_volume_accounting(self, device):
        device.write_many(np.arange(16) * 4 * KIB, 4 * KIB)
        assert device.host_bytes_written == 16 * 4 * KIB
        assert device.busy_seconds > 0

    def test_empty_batch_zero_duration(self, device):
        assert device.write_many(np.array([], dtype=np.int64), 4 * KIB) == 0.0


class TestReads:
    def test_read_returns_duration(self, device):
        device.write(0, 4 * KIB)
        assert device.read(0, 4 * KIB) > 0

    def test_read_volume_accounting(self, device):
        device.read_many(np.arange(8) * 4 * KIB, 4 * KIB)
        assert device.host_bytes_read == 8 * 4 * KIB


class TestTrim:
    def test_trim_is_free_and_unmaps(self, device):
        device.write(0, 64 * KIB)
        device.trim(0, 64 * KIB)
        assert (device.ftl._l2p[: 64 * KIB // (4 * KIB)] == -1).all()


class TestHealth:
    def test_health_report_fields(self, device):
        device.write_many(np.arange(32) * 4 * KIB, 4 * KIB)
        report = device.health_report()
        assert report.device_name == "test-dev"
        assert report.supported
        assert not report.read_only
        assert report.worst_level == 1
        assert report.host_bytes_written == 32 * 4 * KIB
        assert report.write_amplification >= 1.0

    def test_wear_indicators_single_pool_keyed_a(self, device):
        assert set(device.wear_indicators()) == {"A"}

    def test_describe_mentions_device(self, device):
        assert "test-dev" in device.health_report().describe()


class TestFailure:
    def test_read_only_device_rejects_writes(self, device):
        device.failed = True
        with pytest.raises(ReadOnlyError):
            device.write(0, 4 * KIB)

    def test_idle_delegates_to_packages(self, device):
        device.idle(3600.0)  # must not raise


class TestScaleAttribute:
    def test_scale_recorded(self, device):
        assert device.scale == 4

    def test_catalog_builds_carry_scale(self):
        dev = build_device("emmc-8gb", scale=64, seed=1)
        assert dev.scale == 64

    def test_catalog_scale_clamped_to_64mib_floor(self):
        """Requesting more scaling than the 64 MiB raw floor allows is
        clamped, and the recorded (effective) scale reflects that."""
        dev = build_device("emmc-8gb", scale=10_000, seed=1)
        assert dev.scale == 128  # 8 GiB / 64 MiB


class TestEraseStopFold:
    """``BlockDevice.erase_stops`` folds a poll budget into one erase
    stop per pool for the page-mapped and the hybrid burst alike."""

    @staticmethod
    def _workload(device_name, seed=7):
        device = build_device(device_name, scale=SCALE, seed=seed)
        return FileRewriteWorkload(Ext4Model(device), num_files=4, request_bytes=4 * KIB, seed=seed)

    @staticmethod
    def _foreign():
        return build_device("emmc-8gb", scale=SCALE, seed=8).ftl.package.counters

    @pytest.mark.parametrize("device_name", ["emmc-8gb", "emmc-16gb"])
    def test_foreign_counter_refuses_the_window(self, device_name):
        workload = self._workload(device_name)
        device = workload.fs.device
        own = device._packages()[0].counters
        foreign = self._foreign()
        budget = [(own, own.block_erases + 50), (foreign, foreign.block_erases + 50)]
        assert device.erase_stops(budget) is None
        before = device_fingerprint(device)
        assert workload.step_batch(8, budget) is None
        assert device_fingerprint(device) == before
        # Without the foreign pair the same window fuses.
        assert workload.step_batch(8, budget[:1]) is not None

    def test_counter_named_twice_takes_the_per_pool_minimum(self):
        paged = self._workload("emmc-8gb").fs.device
        c = paged.ftl.package.counters
        assert paged.erase_stops([(c, c.block_erases + 4), (c, c.block_erases + 9)]) == [4]
        assert paged.erase_stops(None) == [None]

        hybrid = self._workload("emmc-16gb").fs.device
        a, b = (package.counters for package in hybrid._packages())
        budget = [(a, a.block_erases + 7), (b, b.block_erases + 5), (a, a.block_erases + 3)]
        assert hybrid.erase_stops(budget) == [3, 5]
        assert hybrid.erase_stops([(b, b.block_erases + 2)]) == [None, 2]

        # The fused path stops where the tighter pair alone stops it.
        twins = []
        for doubled in (True, False):
            exp = _experiment()
            exp.run(until_level=1)
            c = exp.device.ftl.package.counters
            budget = [(c, c.block_erases + 2)]
            if doubled:
                budget.append((c, c.block_erases + 40))
            out = exp.workload.step_batch(64, budget)
            assert out is not None and 1 <= len(out[0]) < 64
            twins.append((out, _outcome(exp)))
        assert twins[0] == twins[1]
