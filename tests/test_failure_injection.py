"""Failure-injection tests: what breaks when flash runs past its life.

§4.3: a chip at indicator 11 "may introduce uncorrectable errors in
stored data, and should be considered unreliable"; §1: the phone
"finally gets into an unbootable state".  These tests drive devices
into those regimes on purpose.
"""

import dataclasses

import numpy as np
import pytest

from repro.devices import DEVICE_SPECS
from repro.errors import DeviceBricked, DeviceWornOut, ReadOnlyError, UncorrectableError
from repro.flash import CELL_SPECS, CellType, EccConfig, FlashGeometry, FlashPackage, HealingModel
from repro.ftl import PageMappedFTL
from repro.units import KIB


def tiny_endurance_ftl(endurance=25, seed=3, **kwargs):
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    pkg = FlashPackage(
        geom,
        cell_spec=CELL_SPECS[CellType.MLC].derated(endurance),
        endurance_sigma=0.02,
        seed=seed,
        **kwargs,
    )
    return pkg, PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.8), seed=seed)


def wear_to_death(ftl, span_divisor=4):
    rng = np.random.default_rng(0)
    page = ftl.geometry.page_size
    span = ftl.num_logical_units // span_divisor
    with pytest.raises(DeviceWornOut):
        for _ in range(50_000):
            lpns = rng.integers(0, span, size=500)
            ftl.write_requests(lpns * page, page)
    return ftl


class TestEndOfLifeBehaviour:
    def test_read_only_after_death_every_write_rejected(self):
        _, ftl = tiny_endurance_ftl()
        wear_to_death(ftl)
        for offset in (0, 4 * KIB, 64 * KIB):
            with pytest.raises(ReadOnlyError):
                ftl.write_requests(np.array([offset]), 4 * KIB)

    def test_indicator_pinned_at_11_after_death(self):
        _, ftl = tiny_endurance_ftl()
        wear_to_death(ftl)
        assert ftl.wear_indicator().level == 11
        assert ftl.wear_indicator().exceeded

    def test_pre_eol_degrades_before_death(self):
        """Spare consumption walks through WARNING/URGENT on the way out."""
        from repro.ftl.wear_indicator import PreEolState

        _, ftl = tiny_endurance_ftl()
        rng = np.random.default_rng(0)
        page = ftl.geometry.page_size
        span = ftl.num_logical_units // 4
        seen = set()
        try:
            for _ in range(50_000):
                lpns = rng.integers(0, span, size=500)
                ftl.write_requests(lpns * page, page)
                seen.add(ftl.wear_indicator().pre_eol)
        except DeviceWornOut:
            pass
        seen.add(ftl.wear_indicator().pre_eol)
        assert PreEolState.NORMAL in seen
        assert PreEolState.URGENT in seen or PreEolState.WARNING in seen

    def test_empty_free_list_is_end_of_life(self):
        """Retirements can empty the free list while more good blocks
        remain than the end-of-life check requires: the write that finds
        it empty puts the device in read-only mode, as that check does,
        and every later write is rejected."""
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        pkg = FlashPackage(
            geom, cell_spec=CELL_SPECS[CellType.MLC].derated(25), endurance_sigma=0.02, seed=3
        )
        ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.6), seed=3)
        rng = np.random.default_rng(1)
        page = ftl.geometry.page_size
        with pytest.raises(DeviceWornOut):
            for _ in range(5_000):
                lpns = rng.integers(0, ftl.num_logical_units, size=64)
                ftl.write_requests(lpns * page, page)
        assert not ftl._free_blocks
        assert geom.num_blocks - pkg.num_bad_blocks >= ftl._eol_min_usable
        assert ftl.read_only
        with pytest.raises(ReadOnlyError):
            ftl.write_requests(np.array([0]), page)

    def test_reads_near_death_can_be_uncorrectable(self):
        """A block sitting just under its retirement limit has a real
        per-read uncorrectable probability; repeated reads hit it."""
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        # Loose UBER limit: the firmware tolerates blocks whose reads
        # fail one time in ~1e4 before retiring them.
        pkg = FlashPackage(
            geom,
            cell_spec=CELL_SPECS[CellType.MLC].derated(60),
            ecc=EccConfig(correctable_bits=8, uber_limit=1e-4),
            endurance_sigma=0.0,
            seed=3,
        )
        ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.8), seed=3)
        ftl.write_span(0, 16)  # map one block's worth of data

        # Age every block to 99% of the retirement limit.
        limit = pkg.cycle_limits().min()
        pkg.set_permanent_wear(limit * 0.99)
        prob = pkg.uncorrectable_probability(int(ftl._l2p[0] // ftl.units_per_block))
        assert prob > 1e-6  # the regime is actually risky

        with pytest.raises(UncorrectableError):
            for _ in range(int(20 / prob)):
                ftl.read_requests(np.arange(16) * 4 * KIB, 4 * KIB)


class TestHealingRecovery:
    def test_annealing_restores_writability(self):
        """§2.2's heat-accelerated self-healing: a worn-out package can
        be annealed back into service (not deployed in practice, but the
        model supports the physics).  The FTL the end of life made
        read-only takes writes again once an anneal has healed enough
        blocks; one too cool to heal any leaves it read-only."""
        from tests.modes import check_mapping_invariants

        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        pkg = FlashPackage(
            geom,
            cell_spec=CELL_SPECS[CellType.MLC].derated(25),
            healing=HealingModel(recoverable_fraction=0.5, time_constant_days=10),
            endurance_sigma=0.02,
            seed=3,
        )
        ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.8), seed=3)
        wear_to_death(ftl)
        assert ftl.read_only
        bad_before = pkg.num_bad_blocks
        assert ftl.anneal(temp_c=25.0, duration_seconds=1.0).size == 0
        assert ftl.read_only
        with pytest.raises(ReadOnlyError):
            ftl.write_requests(np.array([0]), 4 * KIB)

        ftl.anneal(temp_c=250.0, duration_seconds=30 * 86400.0)
        assert pkg.num_bad_blocks < bad_before
        assert not ftl.read_only
        page = ftl.geometry.page_size
        lpns = np.random.default_rng(1).integers(0, ftl.num_logical_units, size=64)
        ftl.write_requests(lpns * page, page)
        check_mapping_invariants(ftl)

    def test_healed_blocks_rejoin_the_free_list(self):
        """Blocks the anneal resurrects go back to the FTL's free list:
        every block stays in exactly one state, and later writes
        allocate the healed blocks instead of running out of space."""
        from tests.modes import check_mapping_invariants

        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        pkg = FlashPackage(
            geom,
            cell_spec=CELL_SPECS[CellType.MLC].derated(25),
            healing=HealingModel(recoverable_fraction=0.5, time_constant_days=10),
            endurance_sigma=0.3,
            seed=3,
        )
        ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.6), seed=3)
        rng = np.random.default_rng(1)
        page = ftl.geometry.page_size

        def write_batch():
            lpns = rng.integers(0, ftl.num_logical_units, size=64)
            ftl.write_requests(lpns * page, page)

        while pkg.num_bad_blocks < 3:
            write_batch()
        retired = np.flatnonzero(pkg.bad_blocks)
        assert not ftl.read_only

        healed = ftl.anneal(temp_c=250.0, duration_seconds=30 * 86400.0)
        assert healed.tolist() == retired.tolist()
        assert pkg.num_bad_blocks == 0
        check_mapping_invariants(ftl)

        opened = set()
        for _ in range(100):
            write_batch()
            opened.add(ftl._active_block)
            if opened >= set(healed.tolist()):
                break
        assert opened >= set(healed.tolist())
        check_mapping_invariants(ftl)


class TestPhoneBrick:
    def test_worn_phone_fails_boot(self):
        from repro.android import ChargingSchedule, Phone, ScreenSchedule, WearAttackApp

        spec = dataclasses.replace(DEVICE_SPECS["moto-e-8gb"], endurance=60)
        phone = Phone(
            spec.build(scale=128, seed=3),
            filesystem="ext4",
            charging=ChargingSchedule.always(),
            screen=ScreenSchedule.always_off(),
        )
        phone.install(WearAttackApp(strategy="stealthy", seed=3))
        report = phone.run(hours=24 * 20, tick_seconds=300)
        assert report.bricked
        with pytest.raises(DeviceBricked):
            phone.write_boot_partition()
