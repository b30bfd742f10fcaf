"""Tests for the page-mapped FTL: mapping, GC, RMW, wear, end of life."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeviceWornOut, ReadOnlyError
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.ftl import PageMappedFTL
from repro.ftl.wear_leveling import WearLevelingConfig
from repro.units import KIB

from tests.conftest import write_random_pages
from tests.modes import check_mapping_invariants


class TestConstruction:
    def test_logical_capacity_respected(self, small_ftl):
        assert small_ftl.num_logical_units * small_ftl.unit_bytes >= small_ftl.logical_capacity_bytes

    def test_rejects_oversized_logical_space(self, small_package):
        with pytest.raises(ConfigurationError):
            PageMappedFTL(small_package, logical_capacity_bytes=small_package.geometry.capacity_bytes)

    def test_rejects_misaligned_unit(self, small_package):
        with pytest.raises(ConfigurationError):
            PageMappedFTL(
                small_package,
                logical_capacity_bytes=1024,
                mapping_unit_pages=3,  # does not divide 32
            )

    def test_rejects_bad_watermarks(self, small_package):
        with pytest.raises(ConfigurationError):
            PageMappedFTL(small_package, logical_capacity_bytes=1024, gc_low_water=4, gc_high_water=4)


class TestBasicWrites:
    def test_single_write_maps(self, small_ftl):
        small_ftl.write_requests(np.array([0]), 4 * KIB)
        assert small_ftl._l2p[0] >= 0
        check_mapping_invariants(small_ftl)

    def test_rewrite_moves_mapping(self, small_ftl):
        small_ftl.write_requests(np.array([0]), 4 * KIB)
        first = small_ftl._l2p[0]
        small_ftl.write_requests(np.array([0]), 4 * KIB)
        second = small_ftl._l2p[0]
        assert second != first
        assert not small_ftl._valid[first]
        check_mapping_invariants(small_ftl)

    def test_duplicates_within_batch_last_wins(self, small_ftl):
        offsets = np.array([0, 4096, 0, 0, 4096])
        small_ftl.write_requests(offsets, 4 * KIB)
        check_mapping_invariants(small_ftl)
        # Exactly two logical units mapped.
        assert (small_ftl._l2p >= 0).sum() == 2

    def test_large_span_write(self, small_ftl):
        small_ftl.write_span(0, 100)
        assert (small_ftl._l2p[:100] >= 0).all()
        check_mapping_invariants(small_ftl)

    def test_scattered_pages_helper(self, small_ftl):
        small_ftl.write_pages_scattered(np.array([5, 9, 13]))
        assert (small_ftl._l2p[[5, 9, 13]] >= 0).all()

    def test_empty_batch_is_noop(self, small_ftl):
        small_ftl.write_requests(np.array([], dtype=np.int64), 4 * KIB)
        assert small_ftl.stats.host_pages_requested == 0

    def test_out_of_range_rejected(self, small_ftl):
        beyond = small_ftl.num_logical_units * small_ftl.unit_bytes
        with pytest.raises(ConfigurationError):
            small_ftl.write_requests(np.array([beyond]), 4 * KIB)

    def test_zero_request_rejected(self, small_ftl):
        with pytest.raises(ConfigurationError):
            small_ftl.write_requests(np.array([0]), 0)


class TestMappingGranularity:
    def test_page_mapped_has_no_rmw(self, small_ftl):
        small_ftl.write_requests(np.arange(64) * 4 * KIB, 4 * KIB)
        assert small_ftl.stats.rmw_pages_programmed == 0
        assert small_ftl.stats.write_amplification == pytest.approx(1.0)

    def test_coarse_unit_pays_rmw_on_small_writes(self, coarse_ftl):
        """A 4 KiB write to an 8 KiB unit programs both pages."""
        offsets = np.arange(64) * 8 * KIB  # one write per distinct unit
        coarse_ftl.write_requests(offsets, 4 * KIB)
        assert coarse_ftl.stats.rmw_pages_programmed == 64
        assert coarse_ftl.stats.write_amplification == pytest.approx(2.0)

    def test_unit_aligned_writes_have_no_rmw(self, coarse_ftl):
        offsets = np.arange(32) * 8 * KIB
        coarse_ftl.write_requests(offsets, 8 * KIB)
        assert coarse_ftl.stats.rmw_pages_programmed == 0

    def test_rmw_charges_reads(self, coarse_ftl):
        coarse_ftl.write_requests(np.array([0]), 4 * KIB)
        assert coarse_ftl.stats.pages_read == 1

    def test_unaligned_request_touches_two_units(self, coarse_ftl):
        # 8 KiB write starting mid-unit covers two units = 4 pages.
        coarse_ftl.write_requests(np.array([4 * KIB]), 8 * KIB)
        assert coarse_ftl.stats.host_pages_programmed == 2
        assert coarse_ftl.stats.rmw_pages_programmed == 2


class TestGarbageCollection:
    def test_gc_reclaims_space_under_churn(self, small_ftl):
        span = small_ftl.num_logical_units // 4
        for seed in range(6):
            write_random_pages(small_ftl, 4000, span_pages=span, seed=seed)
        assert small_ftl.stats.gc_runs > 0
        assert small_ftl.free_block_count() >= 1
        check_mapping_invariants(small_ftl)

    def test_gc_preserves_all_mapped_data(self, small_ftl):
        span = small_ftl.num_logical_units // 4
        write_random_pages(small_ftl, 2000, span_pages=span, seed=1)
        mapped_before = set(np.nonzero(small_ftl._l2p >= 0)[0].tolist())
        write_random_pages(small_ftl, 8000, span_pages=span, seed=2)
        mapped_after = set(np.nonzero(small_ftl._l2p >= 0)[0].tolist())
        assert mapped_before <= mapped_after
        check_mapping_invariants(small_ftl)

    def test_low_utilization_wa_near_unity(self, small_ftl):
        span = small_ftl.num_logical_units // 16
        for seed in range(8):
            write_random_pages(small_ftl, 4000, span_pages=span, seed=seed)
        assert small_ftl.stats.write_amplification < 1.2

    def test_high_utilization_wa_grows(self, small_package):
        """§4.3: write amplification increases as free space shrinks."""
        logical = int(small_package.geometry.capacity_bytes * 0.88)
        ftl = PageMappedFTL(small_package, logical_capacity_bytes=logical, seed=1)
        for seed in range(10):
            write_random_pages(ftl, 5000, seed=seed)  # full-span churn
        assert ftl.stats.write_amplification > 1.5
        check_mapping_invariants(ftl)


class TestTrim:
    def test_trim_unmaps_whole_units(self, small_ftl):
        small_ftl.write_span(0, 16)
        small_ftl.trim_pages(0, 16)
        assert (small_ftl._l2p[:16] == -1).all()
        check_mapping_invariants(small_ftl)

    def test_partial_unit_trim_keeps_mapping(self, coarse_ftl):
        coarse_ftl.write_span(0, 2)  # one full unit
        coarse_ftl.trim_pages(0, 1)  # half the unit
        assert coarse_ftl._l2p[0] >= 0

    def test_trim_then_rewrite(self, small_ftl):
        small_ftl.write_span(0, 8)
        small_ftl.trim_pages(0, 8)
        small_ftl.write_span(0, 8)
        check_mapping_invariants(small_ftl)


class TestReads:
    def test_read_reports_mapped(self, small_ftl):
        small_ftl.write_span(0, 4)
        mapped = small_ftl.read_pages(np.array([0, 1, 100]))
        assert mapped.tolist() == [True, True, False]

    def test_reads_counted(self, small_ftl):
        small_ftl.write_span(0, 4)
        small_ftl.read_requests(np.array([0]), 4 * KIB)
        assert small_ftl.stats.pages_read >= 1

    def test_out_of_range_read_rejected(self, small_ftl):
        with pytest.raises(ConfigurationError):
            small_ftl.read_pages(np.array([10**9]))


class TestWearAndEol:
    def _tiny_endurance_ftl(self, endurance=30, wear_leveling=None):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        pkg = FlashPackage(
            geom,
            cell_spec=CELL_SPECS[CellType.MLC].derated(endurance),
            endurance_sigma=0.02,
            seed=3,
        )
        logical = int(geom.capacity_bytes * 0.8)
        return PageMappedFTL(
            pkg, logical_capacity_bytes=logical, wear_leveling=wear_leveling, seed=3
        )

    def test_life_used_advances_with_writes(self, small_ftl):
        assert small_ftl.life_used() == 0.0
        write_random_pages(small_ftl, 30_000, seed=1)
        assert small_ftl.life_used() > 0.0

    def test_indicator_reaches_11_before_death(self):
        ftl = self._tiny_endurance_ftl()
        rng = np.random.default_rng(0)
        page = ftl.geometry.page_size
        span = ftl.num_logical_units // 4
        saw_11 = False
        try:
            for _ in range(2000):
                lpns = rng.integers(0, span, size=1000)
                ftl.write_requests(lpns * page, page)
                if ftl.wear_indicator().level >= 11:
                    saw_11 = True
                    break
        except DeviceWornOut:
            pass
        assert saw_11, "indicator should reach 11 before spares run out"

    def test_device_eventually_wears_out_and_goes_read_only(self):
        ftl = self._tiny_endurance_ftl(endurance=15)
        rng = np.random.default_rng(0)
        page = ftl.geometry.page_size
        span = ftl.num_logical_units // 4
        with pytest.raises(DeviceWornOut):
            for _ in range(20_000):
                lpns = rng.integers(0, span, size=1000)
                ftl.write_requests(lpns * page, page)
        assert ftl.read_only
        with pytest.raises(ReadOnlyError):
            ftl.write_requests(np.array([0]), page)

    def test_wear_leveling_spreads_wear(self):
        ftl = self._tiny_endurance_ftl(endurance=2000)
        rng = np.random.default_rng(0)
        page = ftl.geometry.page_size
        span = ftl.num_logical_units // 8  # hot small region
        for _ in range(60):
            lpns = rng.integers(0, span, size=2000)
            ftl.write_requests(lpns * page, page)
        pe = ftl.package.pe_counts
        assert pe.max() <= pe.mean() * 2 + 20

    def test_disabled_wear_leveling_is_uneven(self):
        levelled = self._tiny_endurance_ftl(endurance=100_000)
        unlevelled = self._tiny_endurance_ftl(
            endurance=100_000, wear_leveling=WearLevelingConfig.disabled()
        )
        page = levelled.geometry.page_size
        for ftl in (levelled, unlevelled):
            rng = np.random.default_rng(0)
            span = ftl.num_logical_units // 8
            for _ in range(60):
                lpns = rng.integers(0, span, size=2000)
                ftl.write_requests(lpns * page, page)
        def spread(f):
            return f.package.pe_counts.std()

        assert spread(unlevelled) >= spread(levelled)

    def test_spare_consumption_bounds(self, small_ftl):
        assert small_ftl.spare_consumption() == 0.0

    def test_wear_indicator_pre_eol_fresh(self, small_ftl):
        ind = small_ftl.wear_indicator()
        assert ind.level == 1
        assert ind.pre_eol.name == "NORMAL"


class TestUtilization:
    def test_fresh_is_zero(self, small_ftl):
        assert small_ftl.utilization() == 0.0

    def test_grows_with_mapped_space(self, small_ftl):
        small_ftl.write_span(0, small_ftl.num_logical_units // 2 * small_ftl.unit_pages)
        assert small_ftl.utilization() == pytest.approx(0.5, abs=0.05)
