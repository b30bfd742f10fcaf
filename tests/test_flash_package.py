"""Tests for FlashPackage wear accounting and retirement."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, DeviceWornOut
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage, HealingModel
from repro.units import KIB


@pytest.fixture
def package():
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    return FlashPackage(geom, seed=1)


class TestWearAccounting:
    def test_fresh_package_has_zero_wear(self, package):
        assert package.pe_counts.sum() == 0
        assert package.mean_wear_fraction() == 0.0

    def test_erase_increments_pe(self, package):
        package.erase_blocks(np.array([0, 1, 2]))
        pe = package.pe_counts
        assert pe[0] == pytest.approx(1.0)
        assert pe[3] == 0.0

    def test_repeated_erase_accumulates(self, package):
        for _ in range(5):
            package.erase_blocks(np.array([7]))
        assert package.pe_counts[7] == pytest.approx(5.0)

    def test_counters_track_operations(self, package):
        package.erase_blocks(np.array([0]))
        package.record_page_programs(100)
        package.record_page_reads(50)
        assert package.counters.block_erases == 1
        assert package.counters.page_programs == 100
        assert package.counters.page_reads == 50
        assert package.counters.bytes_programmed(4096) == 409600

    def test_mean_wear_fraction(self, package):
        for _ in range(30):
            package.erase_blocks(np.arange(32))
        expected = 30 / package.cell_spec.endurance
        assert package.mean_wear_fraction() == pytest.approx(expected)

    def test_rejects_out_of_range_block(self, package):
        with pytest.raises(ConfigurationError):
            package.erase_blocks(np.array([999]))

    def test_rejects_negative_counts(self, package):
        with pytest.raises(ConfigurationError):
            package.record_page_programs(-1)


class TestRetirement:
    def test_blocks_go_bad_past_cycle_limit(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        spec = CELL_SPECS[CellType.MLC].derated(10)  # tiny endurance
        pkg = FlashPackage(geom, cell_spec=spec, endurance_sigma=0.0, seed=1)
        limit = pkg.cycle_limits()[0]
        went_bad = False
        for _ in range(int(limit) + 2):
            newly = pkg.erase_blocks(np.array([0]))
            if newly[0]:
                went_bad = True
                break
        assert went_bad
        assert pkg.num_bad_blocks == 1
        assert pkg.bad_blocks[0]

    def test_erasing_bad_block_raises(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        spec = CELL_SPECS[CellType.MLC].derated(2)
        pkg = FlashPackage(geom, cell_spec=spec, endurance_sigma=0.0, seed=1)
        for _ in range(100):
            if pkg.erase_blocks(np.array([0]))[0]:
                break
        with pytest.raises(DeviceWornOut):
            pkg.erase_blocks(np.array([0]))

    def test_endurance_variation_spreads_limits(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=256)
        pkg = FlashPackage(geom, endurance_sigma=0.1, seed=1)
        limits = pkg.cycle_limits()
        assert limits.std() > 0
        pkg_flat = FlashPackage(geom, endurance_sigma=0.0, seed=1)
        assert pkg_flat.cycle_limits().std() < 1e-6


class TestHealing:
    def test_idle_heals_recoverable_wear(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        pkg = FlashPackage(geom, healing=HealingModel(recoverable_fraction=0.5, time_constant_days=1), seed=1)
        pkg.erase_blocks(np.array([0]))
        before = pkg.pe_counts[0]
        pkg.idle(86400.0 * 10)
        after = pkg.pe_counts[0]
        assert after < before
        # Permanent damage never heals.
        assert after >= 0.5

    def test_disabled_healing_is_noop(self, package):
        package.erase_blocks(np.array([0]))
        before = package.pe_counts[0]
        package.idle(86400.0 * 1000)
        assert package.pe_counts[0] == before

    def test_anneal_can_resurrect_blocks(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        spec = CELL_SPECS[CellType.MLC].derated(10)
        pkg = FlashPackage(
            geom,
            cell_spec=spec,
            healing=HealingModel(recoverable_fraction=0.6, time_constant_days=1),
            endurance_sigma=0.0,
            seed=1,
        )
        while not pkg.bad_blocks[0]:
            pkg.erase_blocks(np.array([0]))
        pkg.anneal(temp_c=250.0, duration_seconds=86400.0 * 30)
        assert not pkg.bad_blocks[0]


class TestWearCache:
    """The cached effective-wear state must track every mutation path."""

    def test_pe_counts_is_shared_and_read_only(self, package):
        pe = package.pe_counts
        assert pe is package.pe_counts  # same buffer, no per-access copy
        with pytest.raises(ValueError):
            pe[0] = 99.0

    def test_scalar_erase_matches_array_erase(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
        healing = HealingModel(recoverable_fraction=0.3, time_constant_days=5)
        a = FlashPackage(geom, healing=healing, seed=1)
        b = FlashPackage(geom, healing=healing, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(200):
            block = int(rng.integers(0, 32))
            assert a.erase_block(block) == bool(b.erase_blocks(np.array([block]))[0])
        np.testing.assert_array_equal(a.pe_counts, b.pe_counts)
        assert a.max_pe_count == b.max_pe_count
        assert a.counters.block_erases == b.counters.block_erases

    def test_max_pe_count_tracks_erases(self, package):
        assert package.max_pe_count == 0.0
        package.erase_blocks(np.array([3]))
        package.erase_block(3)
        assert package.max_pe_count == pytest.approx(2.0)
        assert package.max_pe_count == float(package.pe_counts.max())

    def test_cache_invalidated_by_healing(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        pkg = FlashPackage(
            geom, healing=HealingModel(recoverable_fraction=0.5, time_constant_days=1), seed=1
        )
        for _ in range(4):
            pkg.erase_block(0)
        assert pkg.max_pe_count == pytest.approx(4.0)
        pkg.idle(86400.0 * 10)
        fresh = pkg._pe_permanent + pkg._pe_recoverable
        np.testing.assert_allclose(pkg.pe_counts, fresh)
        assert pkg.max_pe_count == pytest.approx(float(fresh.max()))

    def test_cache_invalidated_by_anneal(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        pkg = FlashPackage(
            geom, healing=HealingModel(recoverable_fraction=0.6, time_constant_days=1), seed=1
        )
        for _ in range(6):
            pkg.erase_block(1)
        pkg.anneal(temp_c=250.0, duration_seconds=86400.0 * 30)
        fresh = pkg._pe_permanent + pkg._pe_recoverable
        np.testing.assert_allclose(pkg.pe_counts, fresh)
        assert pkg.max_pe_count == pytest.approx(float(fresh.max()))

    def test_set_permanent_wear_refreshes_cache(self, package):
        package.erase_block(0)
        _ = package.pe_counts  # populate the cache
        package.set_permanent_wear(np.full(32, 7.0))
        assert package.pe_counts[5] == pytest.approx(7.0)
        assert package.max_pe_count == pytest.approx(7.0)

    def test_num_bad_blocks_batch_retirement_counts_every_block(self):
        """erase_blocks maintains the bad count incrementally; a batch
        retiring several blocks at once must add all of them."""
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        spec = CELL_SPECS[CellType.MLC].derated(3)
        pkg = FlashPackage(geom, cell_spec=spec, endurance_sigma=0.0, seed=1)
        batch = np.array([0, 2, 5])
        while pkg.num_bad_blocks < 3:
            good = ~pkg.bad_blocks_view[batch]
            pkg.erase_blocks(batch[good])
            assert pkg.num_bad_blocks == int(pkg.bad_blocks.sum())
        assert bool(pkg.bad_blocks_view[batch].all())

    def test_num_bad_blocks_tracks_both_erase_paths(self):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        spec = CELL_SPECS[CellType.MLC].derated(3)
        pkg = FlashPackage(geom, cell_spec=spec, endurance_sigma=0.0, seed=1)
        while not pkg.erase_block(0):
            pass
        while not pkg.erase_blocks(np.array([1]))[0]:
            pass
        assert pkg.num_bad_blocks == 2
        assert pkg.num_bad_blocks == int(pkg.bad_blocks.sum())

    def test_bad_blocks_view_is_shared_and_read_only(self, package):
        view = package.bad_blocks_view
        assert view is package.bad_blocks_view
        with pytest.raises(ValueError):
            view[0] = True
        # The documented copy-returning properties stay defensive.
        package.bad_blocks[0] = True
        assert not package.bad_blocks[0]
        package.permanent_pe_counts[0] = 5.0
        assert package.permanent_pe_counts[0] == 0.0
        package.cycle_limits()[0] = 1.0
        assert package.cycle_limits()[0] != 1.0


class TestCopies:
    """A copied or unpickled package reads its own live wear: the shared
    read-only views are rebuilt on the copy's arrays."""

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda pkg: pickle.loads(pickle.dumps(pkg))],
                             ids=["deepcopy", "pickle"])
    def test_copy_reads_its_own_wear(self, package, clone):
        package.pe_counts  # validate the cache before copying
        twin = clone(package)
        twin.erase_block(3)
        assert twin.pe_counts[3] == 1.0
        assert twin.max_pe_count == 1.0
        assert package.pe_counts[3] == 0.0
        with pytest.raises(ValueError):
            twin.pe_counts[0] = 99.0

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda pkg: pickle.loads(pickle.dumps(pkg))],
                             ids=["deepcopy", "pickle"])
    def test_copy_reads_its_own_bad_blocks(self, clone):
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=8)
        pkg = FlashPackage(geom, cell_spec=CELL_SPECS[CellType.MLC].derated(1), seed=1)
        twin = clone(pkg)
        while not twin.erase_block(2):
            pass
        assert twin.bad_blocks_view[2] and twin.bad_blocks_view.sum() == twin.num_bad_blocks
        assert not pkg.bad_blocks_view.any()
        with pytest.raises(ValueError):
            twin.bad_blocks_view[0] = True


class TestReliabilityQueries:
    def test_rber_grows_with_block_wear(self, package):
        for _ in range(2000):
            package.erase_blocks(np.array([0]))
        rber = package.rber()
        assert rber[0] > rber[1]

    def test_uncorrectable_probability_fresh_is_zero(self, package):
        assert package.uncorrectable_probability(0) < 1e-20

    def test_uncorrectable_probability_scalar_path_matches_array_path(self, package):
        """The scalar BerModel.rber fast path must agree bit-for-bit
        with the array path it replaced."""
        for _ in range(1500):
            package.erase_blocks(np.array([0]))
        for retention in (0.0, 30.0):
            got = package.uncorrectable_probability(0, retention_days=retention)
            rber_arr = package.ber_model.rber(
                package.pe_counts[np.array([0])],
                package.cell_spec.endurance,
                retention,
            )
            want = package.ecc.codeword_failure_probability(float(rber_arr[0]))
            assert got == want
