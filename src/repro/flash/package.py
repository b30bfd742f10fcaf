"""Physical flash package state.

Tracks per-block wear (permanent plus recoverable trapped charge), bad
blocks, and operation counters.  All per-block state lives in numpy
arrays so the FTL's batch paths stay fast even when a wear-out
experiment issues millions of page programs.

Wear accounting follows the P/E-cycle convention: a block's cycle count
advances when it is erased (every program of its pages belongs to the
cycle opened by the preceding erase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, DeviceWornOut
from repro.flash.ber import BerModel
from repro.flash.cell import CELL_SPECS, CellSpec, CellType
from repro.flash.ecc import EccConfig
from repro.flash.geometry import FlashGeometry
from repro.flash.healing import HealingModel
from repro.obs import FlashInstruments
from repro.rng import SeedLike, substream


@dataclass
class PackageCounters:
    """Lifetime operation counters for one flash package."""

    page_programs: int = 0
    block_erases: int = 0
    page_reads: int = 0

    def bytes_programmed(self, page_size: int) -> int:
        return self.page_programs * page_size


def endurance_draw(
    seed: SeedLike, num_blocks: int, sigma: float, nominal_limit: float = 1.0
) -> np.ndarray:
    """The per-block cycle-limit draw for a package built with ``seed``.

    This is the only seed-dependent state a :class:`FlashPackage`
    carries, factored out so fleet cohorts can replay any member
    device's limits from its seed alone — without building the device
    (``repro.fleet.soa``).  The constructor calls through here, which
    keeps the two bit-identical by construction.
    """
    rng = substream(seed, "package-endurance")
    if sigma > 0:
        variation = rng.lognormal(mean=0.0, sigma=sigma, size=num_blocks)
    else:
        variation = np.ones(num_blocks)
    return nominal_limit * variation


class FlashPackage:
    """One NAND package: geometry + cell spec + per-block wear state.

    The package is policy-free: it does not know about logical addresses,
    garbage collection, or wear leveling.  Those live in ``repro.ftl``.

    Args:
        geometry: Physical layout.
        cell_spec: Cell type and endurance (defaults to MLC, the common
            mobile eMMC media per §2.1).
        ber_model: Raw bit-error-rate model.
        ecc: ECC budget; determines the wear level at which blocks are
            retired.
        healing: Charge-detrapping model (recoverable wear decay).
        endurance_sigma: Lognormal sigma of per-block endurance variation
            (manufacturing spread).
        seed: Seed for the per-block endurance draw.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        cell_spec: Optional[CellSpec] = None,
        ber_model: Optional[BerModel] = None,
        ecc: Optional[EccConfig] = None,
        healing: Optional[HealingModel] = None,
        endurance_sigma: float = 0.05,
        seed: SeedLike = None,
    ):
        if endurance_sigma < 0:
            raise ConfigurationError("endurance_sigma must be non-negative")
        self.geometry = geometry
        self.cell_spec = cell_spec or CELL_SPECS[CellType.MLC]
        self.ber_model = ber_model or BerModel()
        self.ecc = ecc or EccConfig()
        self.healing = healing or HealingModel.none()
        self.counters = PackageCounters()

        n = geometry.num_blocks
        self._pe_permanent = np.zeros(n, dtype=np.float64)
        self._pe_recoverable = np.zeros(n, dtype=np.float64)
        self._bad = np.zeros(n, dtype=bool)

        # The firmware retires a block once its RBER would exceed the ECC
        # budget; manufacturing spread makes that limit vary block to block.
        rber_limit = self.ecc.max_tolerable_rber()
        nominal_limit = self.ber_model.cycles_at_rber(rber_limit, self.cell_spec.endurance)
        self.endurance_sigma = float(endurance_sigma)
        self.nominal_cycle_limit = float(nominal_limit)
        self._cycle_limit = endurance_draw(seed, n, endurance_sigma, nominal_limit)
        self._last_heal_time = 0.0

        # Effective-wear cache: ``_pe_permanent + _pe_recoverable`` is the
        # hottest array in the simulator (GC victim selection, dynamic
        # wear leveling, and the wear indicator all read it).  It is
        # recomputed lazily and patched in place by the erase paths, so
        # per-access allocation disappears from the FTL hot loop.
        self._pe_cache = np.zeros(n, dtype=np.float64)
        self._pe_cache_valid = True
        self._bind_views()
        self._num_bad = 0

        # Observability: None while metrics are disabled (DESIGN.md §9);
        # the erase fast path pays one attribute load + is-None test.
        self._obs = FlashInstruments.create()

    def _bind_views(self) -> None:
        """The shared read-only views the hot paths hand out."""
        self._pe_cache_ro = self._pe_cache.view()
        self._pe_cache_ro.flags.writeable = False
        self._bad_ro = self._bad.view()
        self._bad_ro.flags.writeable = False

    def __getstate__(self):
        state = self.__dict__.copy()
        # The views share their base arrays' buffers; a copy or unpickle
        # would turn them into stale snapshots, so they are rebuilt on
        # the new arrays instead.
        del state["_pe_cache_ro"], state["_bad_ro"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_views()

    # ------------------------------------------------------------------
    # Wear state
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.geometry.num_blocks

    @property
    def pe_counts(self) -> np.ndarray:
        """Effective P/E cycles per block (permanent + recoverable).

        Returns a *shared, read-only* cached array: the same buffer is
        handed out on every access and always reflects the current wear
        state.  The cache is patched in place by :meth:`erase_blocks` /
        :meth:`erase_block` and invalidated by :meth:`idle` and
        :meth:`anneal` (healing rescales the recoverable component).
        Callers that need a stable snapshot must copy.
        """
        if not self._pe_cache_valid:
            np.add(self._pe_permanent, self._pe_recoverable, out=self._pe_cache)
            self._pe_cache_valid = True
        return self._pe_cache_ro

    @property
    def max_pe_count(self) -> float:
        """Largest effective P/E count across all blocks."""
        return float(self.pe_counts.max()) if self.num_blocks else 0.0

    @property
    def permanent_pe_counts(self) -> np.ndarray:
        """Permanent (non-healable) P/E cycles per block; defensive copy."""
        return self._pe_permanent.copy()

    @property
    def bad_blocks(self) -> np.ndarray:
        """Boolean mask of retired blocks; defensive copy."""
        return self._bad.copy()

    @property
    def bad_blocks_view(self) -> np.ndarray:
        """Shared read-only view of the retired-block mask (hot paths)."""
        return self._bad_ro

    @property
    def num_bad_blocks(self) -> int:
        return self._num_bad

    def cycle_limits(self) -> np.ndarray:
        """Per-block P/E limit at which the firmware retires the block;
        defensive copy."""
        return self._cycle_limit.copy()

    def mean_wear_fraction(self) -> float:
        """Mean effective P/E over nominal endurance — the firmware's
        life-time estimate input."""
        return float(self.pe_counts.mean() / self.cell_spec.endurance)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def erase_blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """Erase blocks, advancing their P/E cycle counts.

        Returns the boolean mask (aligned with ``block_ids``) of blocks
        that crossed their cycle limit during this erase and were
        retired.  Raises if any target block is already bad.
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size == 0:
            return np.zeros(0, dtype=bool)
        if block_ids.min() < 0 or block_ids.max() >= self.num_blocks:
            raise ConfigurationError("block id out of range")
        if self._bad[block_ids].any():
            raise DeviceWornOut("erase issued to a retired block")
        frac = self.healing.recoverable_fraction
        self._pe_permanent[block_ids] += 1.0 - frac
        self._pe_recoverable[block_ids] += frac
        self.counters.block_erases += int(block_ids.size)
        if self._obs is not None:
            self._obs.block_erases.inc(int(block_ids.size))

        effective = self._pe_permanent[block_ids] + self._pe_recoverable[block_ids]
        if self._pe_cache_valid:
            self._pe_cache[block_ids] = effective
        newly_bad = effective >= self._cycle_limit[block_ids]
        if newly_bad.any():
            # block_ids never repeat within a batch (the FTL erases each
            # victim once), so the retired count advances by the batch's
            # newly-bad count — no O(num_blocks) rescan.
            self._bad[block_ids[newly_bad]] = True
            self._num_bad += int(newly_bad.sum())
            if self._obs is not None:
                self._obs.bad_blocks.inc(int(newly_bad.sum()))
        return newly_bad

    def erase_block(self, block_id: int) -> bool:
        """Scalar fast path of :meth:`erase_blocks` for a single block.

        The FTL's garbage collector erases exactly one block per victim;
        the array path's validation and fancy indexing dominate at that
        batch size.  Returns True when the block crossed its cycle limit
        and was retired.
        """
        block_id = int(block_id)
        if not 0 <= block_id < self.geometry.num_blocks:
            raise ConfigurationError("block id out of range")
        if self._bad[block_id]:
            raise DeviceWornOut("erase issued to a retired block")
        frac = self.healing.recoverable_fraction
        permanent = self._pe_permanent
        recoverable = self._pe_recoverable
        permanent[block_id] = perm = permanent[block_id] + (1.0 - frac)
        recoverable[block_id] = reco = recoverable[block_id] + frac
        self.counters.block_erases += 1
        if self._obs is not None:
            self._obs.block_erases.inc()

        effective = perm + reco
        if self._pe_cache_valid:
            self._pe_cache[block_id] = effective
        if effective >= self._cycle_limit[block_id]:
            self._bad[block_id] = True
            self._num_bad += 1
            if self._obs is not None:
                self._obs.bad_blocks.inc()
            return True
        return False

    def apply_erase_burst(
        self,
        block_ids: np.ndarray,
        permanent: np.ndarray,
        recoverable: np.ndarray,
        effective: np.ndarray,
        num_erases: int,
        retired: np.ndarray,
    ) -> None:
        """Commit the final wear state of a fused write burst's erases.

        The burst planner (:mod:`repro.ftl.burst`) guarantees that the
        per-block values are the exact floats the scalar
        :meth:`erase_block` sequence would have produced, and that
        ``retired`` lists exactly the erases that crossed their block's
        cycle limit — each a block's last erase, so its final wear is
        the crossing wear.  The ``flash.*`` instruments are bumped from
        the plan by the burst commit, not here.  ``block_ids`` are the
        unique erased blocks carrying their final wear; ``num_erases``
        counts every erase (a block may be erased more than once per
        burst).
        """
        self._pe_permanent[block_ids] = permanent
        self._pe_recoverable[block_ids] = recoverable
        self.counters.block_erases += num_erases
        if self._pe_cache_valid:
            self._pe_cache[block_ids] = effective
        self._bad[retired] = True
        self._num_bad += int(retired.size)

    def set_permanent_wear(self, pe_counts) -> None:
        """Overwrite permanent per-block wear (scalar or per-block array).

        Setup hook for tests and failure-injection scenarios.  Mutating
        ``_pe_permanent`` directly would bypass the effective-wear cache;
        this is the supported way to preload wear state.
        """
        self._pe_permanent[:] = pe_counts
        self._pe_cache_valid = False

    def record_page_programs(self, count: int) -> None:
        """Account ``count`` page programs (wear itself is charged at erase)."""
        if count < 0:
            raise ConfigurationError("program count must be non-negative")
        self.counters.page_programs += count
        if self._obs is not None:
            self._obs.page_programs.inc(count)

    def record_page_reads(self, count: int) -> None:
        if count < 0:
            raise ConfigurationError("read count must be non-negative")
        self.counters.page_reads += count
        if self._obs is not None:
            self._obs.page_reads.inc(count)

    def idle(self, elapsed_seconds: float, temp_c: float = 25.0) -> None:
        """Let trapped charge dissipate over an idle period (§2.2)."""
        if self.healing.disabled:
            return
        self._pe_recoverable = self.healing.heal(self._pe_recoverable, elapsed_seconds, temp_c)
        self._pe_cache_valid = False

    def anneal(self, temp_c: float, duration_seconds: float) -> np.ndarray:
        """Heat-accelerated healing of worn-out cells (§2.2).

        Clears recoverable wear quickly and may resurrect retired blocks
        whose effective wear drops back under the cycle limit.  Returns
        the resurrected block ids in id order; the FTL owning the
        package must take them back (:meth:`PageMappedFTL.anneal`).
        """
        if self.healing.disabled:
            return np.zeros(0, dtype=np.int64)
        self._pe_recoverable = self.healing.heal(self._pe_recoverable, duration_seconds, temp_c)
        self._pe_cache_valid = False
        effective = self._pe_permanent + self._pe_recoverable
        healed = np.flatnonzero(self._bad & (effective < self._cycle_limit))
        self._bad[healed] = False
        self._num_bad = int(self._bad.sum())
        return healed

    # ------------------------------------------------------------------
    # Reliability queries
    # ------------------------------------------------------------------

    def rber(self, block_ids=None, retention_days: float = 0.0):
        """Raw bit error rate for given blocks (or all blocks)."""
        pe = self.pe_counts if block_ids is None else self.pe_counts[np.asarray(block_ids)]
        return self.ber_model.rber(pe, self.cell_spec.endurance, retention_days)

    def uncorrectable_probability(self, block_id: int, retention_days: float = 0.0) -> float:
        """Per-codeword uncorrectable probability for a block's pages."""
        if self._obs is not None:
            self._obs.ecc_tail_evals.inc()
        # Scalar path: BerModel.rber returns a float for scalar inputs,
        # so one cached-array element read replaces the single-element
        # array allocation + fancy-index round trip.
        rber = self.ber_model.rber(
            float(self.pe_counts[block_id]), self.cell_spec.endurance, retention_days
        )
        return self.ecc.codeword_failure_probability(rber)
