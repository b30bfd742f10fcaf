"""Tests for the Ext4 and F2FS models (Figure 4 behaviour)."""

import numpy as np
import pytest

from repro.devices import PerformanceModel
from repro.devices.interface import BlockDevice
from repro.errors import ConfigurationError
from repro.flash import FlashGeometry, FlashPackage
from repro.fs import Ext4Model, F2fsModel
from repro.ftl import PageMappedFTL
from repro.units import KIB, MIB


def make_device(seed=9) -> BlockDevice:
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=96)
    pkg = FlashPackage(geom, seed=seed)
    ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.85), seed=seed)
    return BlockDevice("fs-dev", ftl, PerformanceModel(peak_write_mib_s=40.0))


class TestExt4:
    def test_journal_reserved_at_device_start(self):
        fs = Ext4Model(make_device())
        assert fs.metadata_reserve >= fs.journal_bytes
        f = fs.create_file("a", 64 * KIB)
        assert f.extent_start >= fs.journal_bytes

    def test_journal_commits_follow_data_volume(self):
        fs = Ext4Model(make_device(), commit_interval_pages=16, commit_pages=3)
        f = fs.create_file("a", MIB)
        fs.write_pages(f, np.arange(64))
        assert fs.journal_bytes_written == (64 // 16) * 3 * 4 * KIB

    def test_fs_write_amplification_is_small(self):
        """Ext4 ordered-mode rewrites add only a few percent (§4.3 calib)."""
        fs = Ext4Model(make_device())
        f = fs.create_file("a", MIB)
        rng = np.random.default_rng(0)
        for _ in range(20):
            fs.write_pages(f, rng.integers(0, 256, size=500))
        assert 1.0 < fs.fs_write_amplification() < 1.1

    def test_journal_wraps_circularly(self):
        fs = Ext4Model(make_device(), commit_interval_pages=1, commit_pages=3)
        f = fs.create_file("a", MIB)
        journal_pages = fs.journal_bytes // fs.page_size
        # Enough commits to wrap the journal several times.
        for _ in range(journal_pages):
            fs.write_pages(f, np.array([0]))
        assert fs._journal_cursor < journal_pages

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            Ext4Model(make_device(), commit_interval_pages=0)

    def test_fresh_fs_wa_is_unity(self):
        assert Ext4Model(make_device()).fs_write_amplification() == 1.0


class TestF2fs:
    def test_node_writes_double_device_io(self):
        """§4.4: F2FS 'doubles the amount of I/O reaching the storage
        device under 4KiB synchronous writes'."""
        fs = F2fsModel(make_device())
        f = fs.create_file("a", MIB)
        fs.write_pages(f, np.arange(200))
        assert fs.fs_write_amplification() == pytest.approx(2.0, rel=0.01)
        assert fs.node_bytes_written == fs.app_bytes_written

    def test_device_receives_twice_the_app_bytes(self):
        dev = make_device()
        fs = F2fsModel(dev)
        f = fs.create_file("a", MIB)
        fs.write_pages(f, np.arange(100))
        assert dev.host_bytes_written == pytest.approx(2 * fs.app_bytes_written, rel=0.01)

    def test_throughput_lower_than_ext4(self):
        """§4.4: 'the wear-out workload has lower throughput when using
        F2FS' — so the same app writes take longer."""
        ext4 = Ext4Model(make_device(seed=1))
        f2fs = F2fsModel(make_device(seed=1))
        durations = {}
        for fs in (ext4, f2fs):
            f = fs.create_file("a", MIB)
            rng = np.random.default_rng(0)
            durations[fs.name] = fs.write_pages(f, rng.integers(0, 256, size=1000))
        assert durations["f2fs"] > 1.5 * durations["ext4"]

    def test_node_area_reserved(self):
        fs = F2fsModel(make_device())
        assert fs.metadata_reserve >= fs.node_area_bytes
        f = fs.create_file("a", 64 * KIB)
        assert f.extent_start >= fs.node_area_bytes

    def test_node_cursor_wraps(self):
        fs = F2fsModel(make_device())
        f = fs.create_file("a", MIB)
        area_pages = fs.node_area_bytes // fs.page_size
        for _ in range(3):
            fs.write_pages(f, np.arange(area_pages))
        assert 0 <= fs._node_cursor < area_pages

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_burst_node_slots_are_the_scalar_slots_across_wraps(self, ratio):
        """The fused window's node offsets, built from contiguous runs
        of the node area, are the slots the per-step metadata writes
        take, step after step, across several wraps of the area."""
        dev = make_device()
        fs = F2fsModel(dev, node_pages_per_data_page=ratio)
        area_pages = fs.node_area_bytes // fs.page_size
        fs._node_cursor = area_pages - 3
        steps = [1, 2, area_pages, 0, 3 * area_pages + 5, 7]
        offsets, counts, states = fs._burst_metadata_plan(steps)

        written = []
        dev.write_many = lambda offs, size: written.append(np.array(offs)) or 0.0
        per_step = []
        for data_pages in steps:
            before = len(written)
            fs._metadata_overhead(None, data_pages)
            per_step.append(sum(w.size for w in written[before:]))
        assert counts == per_step
        assert np.array_equal(offsets, np.concatenate(written))
        assert states[-1][:2] == (fs._node_debt, fs._node_cursor)

    def test_configurable_node_ratio(self):
        fs = F2fsModel(make_device(), node_pages_per_data_page=0.5)
        f = fs.create_file("a", MIB)
        fs.write_pages(f, np.arange(200))
        assert fs.fs_write_amplification() == pytest.approx(1.5, rel=0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_area_fraction": 0.0},
            {"node_pages_per_data_page": -1},
            {"checkpoint_slowdown": 0.0},
            {"checkpoint_slowdown": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            F2fsModel(make_device(), **kwargs)


class TestFigure4Relationship:
    def test_f2fs_wears_device_in_half_the_app_volume(self):
        """The Figure 4 headline: same device wear needs ~half the app
        I/O under F2FS because the device sees double."""
        wear = {}
        for name, cls in (("ext4", Ext4Model), ("f2fs", F2fsModel)):
            dev = make_device(seed=3)
            fs = cls(dev)
            f = fs.create_file("a", MIB)
            rng = np.random.default_rng(0)
            for _ in range(20):
                fs.write_pages(f, rng.integers(0, 256, size=500))
            wear[name] = dev.ftl.life_used() / fs.app_bytes_written
        assert wear["f2fs"] == pytest.approx(2 * wear["ext4"], rel=0.15)
