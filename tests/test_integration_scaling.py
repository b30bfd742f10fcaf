"""Scaling-invariance tests (DESIGN.md §6).

The benchmark harness runs capacity-scaled devices and multiplies
volumes back up.  These tests verify the invariance claim: per-increment
full-scale volumes agree across different scale factors.

Scales are compared on both sides of the small-device FTL defaults: at
scale 128 the emmc-8gb media is 64 blocks (one reserved block, GC
watermarks 1 and 3), at scale 16 it is 256 blocks with the default
watermarks.  (Scale 512 would build the same 64-block device as 128,
because the catalog keeps at least 64 MiB of media.)  Seed 7's first
increment measures 984.1 GiB at 128 against 1,001.9 GiB at 16 (1.8%)
and 14.58 hours at both; the bounds below sit just outside those
numbers.
"""

import functools

import pytest

from repro.core import WearOutExperiment
from repro.devices import build_device
from repro.fs import Ext4Model
from repro.units import KIB
from repro.workloads import FileRewriteWorkload

#: The two scales compared, and the media blocks each builds.
SCALE_BLOCKS = {128: 64, 16: 256}


@functools.lru_cache(maxsize=None)
def first_run(scale: int, seed: int = 7):
    """The device and first increment of a 4 KiB random rewrite run,
    one run per scale."""
    dev = build_device("emmc-8gb", scale=scale, seed=seed)
    fs = Ext4Model(dev)
    wl = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=seed)
    return dev, WearOutExperiment(dev, wl, filesystem=fs).run(until_level=2).increments[0]


def first_increment(scale: int):
    return first_run(scale)[1]


class TestScaleInvariance:
    def test_scales_build_different_devices(self):
        for scale, blocks in SCALE_BLOCKS.items():
            assert first_run(scale)[0].ftl.package.num_blocks == blocks

    def test_volume_invariant_across_scales(self):
        rec_a = first_increment(scale=128)
        rec_b = first_increment(scale=16)
        assert rec_a.host_gib == pytest.approx(rec_b.host_gib, rel=0.025)

    def test_time_invariant_across_scales(self):
        rec_a = first_increment(scale=128)
        rec_b = first_increment(scale=16)
        assert rec_a.hours == pytest.approx(rec_b.hours, rel=0.001)

    def test_reported_volumes_are_full_scale(self):
        """A scaled 8GB chip still reports ~1 TiB per increment."""
        for scale in SCALE_BLOCKS:
            assert 0.5 * 1024 < first_increment(scale).host_gib < 2 * 1024
