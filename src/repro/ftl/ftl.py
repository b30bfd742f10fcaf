"""Page-mapped FTL with configurable mapping granularity.

High-end devices (the paper's UFS phone) map 4 KiB pages directly.
Cheap mobile controllers (eMMC, microSD) keep their RAM budget down by
mapping coarser units; a 4 KiB host write to an 8–64 KiB mapping unit
forces the controller to program the whole unit (read-modify-write),
which multiplies media wear.  This single knob reproduces both the
paper's Figure 1 random-write collapse on the microSD card and the
"roughly three times lower than back-of-the-envelope" endurance of §4.3.

All hot paths are vectorized over numpy arrays: a batch of host writes
resolves duplicate LPNs last-writer-wins up front, then places whole
spans of units across consecutive blocks in a handful of array ops
(chunking only at reclaim boundaries, where GC may have to run).

The hot path is built around incremental data structures rather than
per-call recomputation (see DESIGN.md "Performance"):

* duplicate resolution uses O(chunk) scatter/gather against a
  persistent position-scratch array — no sorting/`np.unique` per chunk;
* per-block wear comes from the package's cached effective-P/E array,
  patched in place by the single-block erase fast path.

GC candidates are the closed blocks (``_closed``: fully written, never
the active block, never a retired one — blocks only go bad at erase,
after they leave the set), scored by their ``_valid_count``.  The
reclaim asks the policy's array ``select`` for one victim at a time;
since fused bursts plan nearly every reclaim inside the walk
(:mod:`repro.ftl.burst`), this scalar path is the reference the walk is
tested against, not a hot path (DESIGN.md §7).
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, DeviceWornOut, ReadOnlyError, UncorrectableError
from repro.flash.package import FlashPackage
from repro.ftl import burst
from repro.obs import FtlInstruments
from repro.ftl.gc import GreedyVictimPolicy
from repro.ftl.stats import FtlStats
from repro.ftl.wear_indicator import MAX_LEVEL, PreEolState, WearIndicator, wear_level
from repro.ftl.wear_leveling import (
    WearLevelingConfig,
    pick_cold_victim,
    pick_free_block,
    wear_gap_exceeds,
)
from repro.rng import SeedLike, substream


class _Source(enum.Enum):
    HOST = "host"
    GC = "gc"
    WL = "wl"
    MIGRATION = "migration"


def _ragged_ranges(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Concatenate inclusive integer ranges [first[i], last[i]] vectorized.

    >>> _ragged_ranges(np.array([0, 5]), np.array([1, 5]))
    array([0, 1, 5])
    """
    counts = last - first + 1
    total = int(counts.sum())
    if total == counts.size:
        return first.copy()
    starts_repeated = np.repeat(first, counts)
    run_starts = np.repeat(counts.cumsum() - counts, counts)
    return starts_repeated + (np.arange(total, dtype=np.int64) - run_starts)


class PageMappedFTL:
    """Unit-granularity log-structured FTL over one flash package.

    Args:
        package: The physical media.
        logical_capacity_bytes: Host-visible capacity; the remainder of
            the package is over-provisioning.
        mapping_unit_pages: Pages per mapping unit (1 = true page
            mapping; >1 models coarse-grained controllers).
        gc_low_water: Run GC when free blocks drop to this count.
        gc_high_water: GC collects until this many blocks are free.
        reserve_blocks: Blocks that must stay usable beyond the logical
            space; the device goes read-only when spares run out.
        victim_policy: GC victim selection policy.
        wear_leveling: Wear-leveling configuration.
        read_error_checks: Sample uncorrectable read errors against the
            ECC model (disable for deterministic unit tests).
        seed: RNG seed for read-error sampling.
    """

    def __init__(
        self,
        package: FlashPackage,
        logical_capacity_bytes: int,
        mapping_unit_pages: int = 1,
        gc_low_water: int = 2,
        gc_high_water: int = 4,
        reserve_blocks: int = 2,
        victim_policy=None,
        wear_leveling: Optional[WearLevelingConfig] = None,
        read_error_checks: bool = True,
        seed: SeedLike = None,
    ):
        geom = package.geometry
        if mapping_unit_pages <= 0 or geom.pages_per_block % mapping_unit_pages:
            raise ConfigurationError(
                f"mapping_unit_pages={mapping_unit_pages} must divide pages_per_block={geom.pages_per_block}"
            )
        if gc_low_water < 1 or gc_high_water <= gc_low_water:
            raise ConfigurationError("need gc_high_water > gc_low_water >= 1")

        self.package = package
        self.geometry = geom
        self.unit_pages = mapping_unit_pages
        self.unit_bytes = mapping_unit_pages * geom.page_size
        self.units_per_block = geom.pages_per_block // mapping_unit_pages
        self.total_units = geom.num_blocks * self.units_per_block
        self._num_blocks = geom.num_blocks

        self.num_logical_units = -(-logical_capacity_bytes // self.unit_bytes)
        self.logical_capacity_bytes = logical_capacity_bytes
        min_blocks_needed = -(-self.num_logical_units // self.units_per_block)
        usable_needed = min_blocks_needed + reserve_blocks + gc_high_water
        if usable_needed > geom.num_blocks:
            raise ConfigurationError(
                f"logical capacity {logical_capacity_bytes} needs {usable_needed} blocks, "
                f"package has {geom.num_blocks}"
            )
        self._min_blocks_needed = min_blocks_needed
        self._reserve_blocks = reserve_blocks
        self._eol_min_usable = min_blocks_needed + reserve_blocks
        self._initial_spares = geom.num_blocks - min_blocks_needed - reserve_blocks

        self.gc_low_water = gc_low_water
        self.gc_high_water = gc_high_water
        self.victim_policy = victim_policy or GreedyVictimPolicy()
        self.wl_config = wear_leveling or WearLevelingConfig()
        self.stats = FtlStats()
        self.read_only = False

        self._l2p = np.full(self.num_logical_units, -1, dtype=np.int64)
        self._p2l = np.full(self.total_units, -1, dtype=np.int64)
        self._valid = np.zeros(self.total_units, dtype=bool)
        self._valid_count = np.zeros(geom.num_blocks, dtype=np.int64)
        self._closed = np.zeros(geom.num_blocks, dtype=bool)

        self._free_blocks: List[int] = list(range(geom.num_blocks))
        self._active_block: Optional[int] = None
        self._active_offset = 0
        self._erases_since_wl_check = 0
        self._in_reclaim = False
        # Set when a fused window was cut at end of life: the next one
        # would end it in its first group, so the planner refuses it
        # before its link pass and the scalar step bricks the device.
        # Any other write, an anneal or a restore forgets it.
        self._eol_ahead = False

        # The position-scratch used for O(span) duplicate resolution, and
        # reusable index buffers for the placement hot path.
        self._occ_scratch = np.zeros(self.num_logical_units, dtype=np.int64)
        self._iota = np.arange(self.units_per_block, dtype=np.int64)
        self._pos_buf = np.arange(max(self.units_per_block, 4096), dtype=np.int64)
        self._ppu_buf = np.empty(max(self.units_per_block, 4096), dtype=np.int64)

        self._read_error_checks = read_error_checks
        self._read_rng = substream(seed, "ftl-read-errors")

        # Observability: None while metrics are disabled, so the hot
        # paths below pay one attribute load + is-None test (DESIGN.md
        # §9).  Instruments only observe; they never steer simulation.
        self._obs = FtlInstruments.create()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def write_requests(
        self,
        offsets_bytes: np.ndarray,
        request_bytes: int,
        as_migration: bool = False,
    ) -> None:
        """Service a batch of equal-sized synchronous host writes.

        Each entry of ``offsets_bytes`` is one independent request of
        ``request_bytes``.  Every mapping unit a request touches is
        reprogrammed in full; requests narrower than a unit therefore
        pay read-modify-write, which is the wear-multiplying behaviour
        of coarse-mapped mobile controllers.

        Args:
            offsets_bytes: Byte offset of each request.
            request_bytes: Size of every request in the batch.
            as_migration: Account the programs as pool-migration traffic
                instead of host traffic (used by the hybrid FTL).
        """
        offsets = np.asarray(offsets_bytes, dtype=np.int64)
        if offsets.size == 0:
            return
        if request_bytes <= 0:
            raise ConfigurationError("request_bytes must be positive")
        page = self.geometry.page_size
        self._check_writable_bytes(offsets, request_bytes)

        first_unit = offsets // self.unit_bytes
        last_unit = (offsets + request_bytes - 1) // self.unit_bytes
        unit_lpns = _ragged_ranges(first_unit, last_unit)
        programs = int(unit_lpns.size) * self.unit_pages

        first_page = offsets // page
        last_page = (offsets + request_bytes - 1) // page
        host_pages = int((last_page - first_page + 1).sum())
        rmw_pages = programs - host_pages

        obs = self._obs
        if not as_migration:
            # Migration programs are counted wholesale by _write_units.
            self.stats.host_pages_requested += host_pages
            self.stats.host_pages_programmed += host_pages
            self.stats.rmw_pages_programmed += rmw_pages
            if obs is not None:
                obs.host_pages.inc(host_pages)
                if rmw_pages:
                    obs.rmw_pages.inc(rmw_pages)
        if rmw_pages > 0:
            # RMW reads the untouched pages of each unit before reprogram.
            self.stats.pages_read += rmw_pages
            self.package.record_page_reads(rmw_pages)
            if obs is not None:
                obs.pages_read.inc(rmw_pages)
        self._write_units(unit_lpns, _Source.MIGRATION if as_migration else _Source.HOST)

    def write_requests_batch(self, segments, num_groups, stop_erases=None):
        """Fused burst execution of many write calls (DESIGN.md §11).

        ``segments`` are :class:`repro.ftl.burst.BurstSegment` plans —
        one per would-be :meth:`write_requests` call — grouped into
        ``num_groups`` workload steps.  Returns the committed
        :class:`~repro.ftl.burst.BurstPlan`: its ``executed_groups``
        whole groups ran (the burst truncates at the group boundary
        where ``stop_erases`` further block erases have landed) and its
        ``seg_copies`` are the GC/WL copy pages each executed call
        caused.  Returns ``None`` with the FTL untouched when the burst
        cannot be proven equivalent to the scalar path — the caller must
        then replay the same writes through :meth:`write_requests`.
        The plan comes from :func:`repro.ftl.burst.plan_write_burst` and
        commits through :func:`repro.ftl.burst.commit_planned_burst`, as
        each pool of a device's fused burst does.
        """
        plan = burst.plan_write_burst(self, segments, num_groups, stop_erases)
        if plan is not None:
            burst.commit_planned_burst(self, plan)
        return plan

    def write_pages_scattered(self, page_lpns: np.ndarray) -> None:
        """Independent single-page sync writes (e.g. 4 KiB fsync ops)."""
        page_lpns = np.asarray(page_lpns, dtype=np.int64)
        if page_lpns.size == 0:
            return
        self.write_requests(page_lpns * self.geometry.page_size, self.geometry.page_size)

    def write_span(self, start_page: int, num_pages: int) -> None:
        """Service one contiguous host write of ``num_pages`` pages."""
        if num_pages <= 0:
            return
        page = self.geometry.page_size
        self.write_requests(np.array([start_page * page]), num_pages * page)

    def read_requests(self, offsets_bytes: np.ndarray, request_bytes: int) -> None:
        """Service a batch of equal-sized host reads (error sampling only)."""
        offsets = np.asarray(offsets_bytes, dtype=np.int64)
        if offsets.size == 0:
            return
        page = self.geometry.page_size
        pages = int(((offsets + request_bytes - 1) // page - offsets // page + 1).sum())
        self.stats.pages_read += pages
        self.package.record_page_reads(pages)
        if self._obs is not None:
            self._obs.pages_read.inc(pages)
        if self._read_error_checks:
            unit_lpns = np.unique(offsets // self.unit_bytes)
            unit_lpns = unit_lpns[unit_lpns < self.num_logical_units]
            ppus = self._l2p[unit_lpns]
            mapped = ppus[ppus >= 0]
            if mapped.size:
                self._sample_read_errors(mapped)

    def read_pages(self, page_lpns: np.ndarray) -> np.ndarray:
        """Read host pages; returns a bool mask of which were mapped.

        May raise :class:`UncorrectableError` on heavily-worn blocks.
        """
        page_lpns = np.asarray(page_lpns, dtype=np.int64)
        if page_lpns.size == 0:
            return np.zeros(0, dtype=bool)
        if page_lpns.min() < 0 or (page_lpns.max() // self.unit_pages) >= self.num_logical_units:
            raise ConfigurationError("logical page out of range")
        unit_lpns = page_lpns // self.unit_pages
        ppus = self._l2p[unit_lpns]
        mapped = ppus >= 0
        self.stats.pages_read += int(page_lpns.size)
        self.package.record_page_reads(int(page_lpns.size))
        if self._obs is not None:
            self._obs.pages_read.inc(int(page_lpns.size))
        if self._read_error_checks and mapped.any():
            self._sample_read_errors(ppus[mapped])
        return mapped

    def trim_pages(self, start_page: int, num_pages: int) -> None:
        """Discard a contiguous logical range (only whole units drop)."""
        if num_pages <= 0:
            return
        first_unit = -(-start_page // self.unit_pages)  # first fully-covered unit
        end_unit = (start_page + num_pages) // self.unit_pages
        if end_unit <= first_unit:
            return
        unit_lpns = np.arange(first_unit, end_unit, dtype=np.int64)
        self._invalidate_stale(self._l2p[unit_lpns])
        self._l2p[unit_lpns] = -1

    def anneal(self, temp_c: float, duration_seconds: float) -> np.ndarray:
        """Anneal the package (§2.2) and put the blocks it resurrects
        back on the free list, in id order; returns their ids.  A
        retired block was erased on its way out (its units unmapped),
        so it rejoins empty.  An FTL that went read-only at end of life
        is writable again once the anneal leaves it the good blocks the
        end-of-life check demands and a free block to write into."""
        healed = self.package.anneal(temp_c, duration_seconds)
        self._free_blocks.extend(healed.tolist())
        self._eol_ahead = False
        if (
            self.read_only
            and self._free_blocks
            and self._num_blocks - self.package.num_bad_blocks >= self._eol_min_usable
        ):
            self.read_only = False
        return healed

    # ------------------------------------------------------------------
    # Health / introspection
    # ------------------------------------------------------------------

    @property
    def media_pages_programmed(self) -> int:
        """Total flash pages programmed (host + RMW + GC + WL)."""
        return self.stats.total_pages_programmed

    def life_used(self) -> float:
        """Firmware's estimate of the fraction of lifetime consumed."""
        return self.package.mean_wear_fraction()

    def spare_consumption(self) -> float:
        """Fraction of spare blocks consumed by bad-block retirement."""
        if self._initial_spares <= 0:
            return 1.0
        return min(1.0, self.package.num_bad_blocks / self._initial_spares)

    def wear_indicator(self) -> WearIndicator:
        """JEDEC-style life-time estimation for this pool."""
        used = self.life_used()
        return WearIndicator(
            level=wear_level(used),
            life_used=used,
            pre_eol=PreEolState.from_spare_consumption(self.spare_consumption()),
        )

    def erases_until_next_level(self) -> float:
        """Conservative lower bound on further block erases before
        :meth:`wear_indicator`'s level can rise (``inf`` at the cap).

        Every erase adds exactly one effective P/E cycle to one block,
        so the mean wear fraction climbs by at most ``1 / (num_blocks *
        endurance)`` per erase; healing (idle/anneal) only ever *lowers*
        it.  The bound therefore stays valid however the erases are
        distributed, and the experiment loop may skip indicator polling
        until this many erases have landed (DESIGN.md §10).  A small
        slack absorbs float accumulation error in the mean.
        """
        pkg = self.package
        used = pkg.mean_wear_fraction()
        level = wear_level(used)
        if level >= MAX_LEVEL:
            return math.inf
        # wear_level(u) rises at the next multiple of 0.1 (or at 1.0,
        # which level 10 already targets since 10/10 == 1.0).
        need_fraction = level / 10.0 - used
        need = need_fraction * pkg.cell_spec.endurance * pkg.num_blocks
        return max(0.0, need * (1.0 - 1e-9) - 2.0)

    def utilization(self) -> float:
        """Fraction of logical units currently mapped."""
        return float((self._l2p >= 0).mean())

    def free_block_count(self) -> int:
        return len(self._free_blocks)

    # ------------------------------------------------------------------
    # Write machinery
    # ------------------------------------------------------------------

    def _check_writable_bytes(self, offsets: np.ndarray, request_bytes: int) -> None:
        if self.read_only:
            raise ReadOnlyError("device is in read-only (worn out) mode")
        if offsets.size == 0:
            return
        if offsets.min() < 0 or int(offsets.max()) + request_bytes > self.num_logical_units * self.unit_bytes:
            raise ConfigurationError("write beyond logical capacity")

    def _write_units(self, unit_lpns: np.ndarray, source: _Source) -> None:
        """Append mapping units to the log; the batch may repeat LPNs."""
        self._eol_ahead = False
        pages = int(unit_lpns.size) * self.unit_pages
        if source is _Source.GC:
            self.stats.gc_pages_copied += pages
        elif source is _Source.WL:
            self.stats.wl_pages_copied += pages
        elif source is _Source.MIGRATION:
            self.stats.migration_pages += pages
        self.package.record_page_programs(pages)
        obs = self._obs
        if obs is not None:
            obs.flash_pages.inc(pages)
            if source is _Source.GC:
                obs.gc_pages.inc(pages)
            elif source is _Source.WL:
                obs.wl_pages.inc(pages)
            elif source is _Source.MIGRATION:
                obs.migration_pages.inc(pages)

        allow_reclaim = source is _Source.HOST or source is _Source.MIGRATION
        upb = self.units_per_block
        idx = 0
        n = unit_lpns.size
        while idx < n:
            if self._active_block is None:
                self._open_new_block(allow_reclaim=allow_reclaim)
            # Units placeable before the next reclaim decision point: the
            # active block's remaining room plus every block that can be
            # opened without triggering GC.  No reclaim (hence no victim
            # selection, relocation, or erase) can run inside that window,
            # so the whole span is placed with one set of vectorized
            # operations instead of one per block-sized chunk.
            if allow_reclaim and not self._in_reclaim:
                safe_opens = len(self._free_blocks) - self.gc_low_water
            else:
                safe_opens = len(self._free_blocks)
            span = (upb - self._active_offset) + max(0, safe_opens) * upb
            end = min(idx + span, n)
            self._place_span(unit_lpns[idx:end])
            idx = end

    def _place_span(self, lpns: np.ndarray) -> None:
        """Map a span of unit LPNs into the active block and, when it
        fills, into freshly opened successors — closing filled blocks as
        it goes.  The caller guarantees the span fits without a reclaim
        decision, so placing it wholesale is state-for-state identical
        to the chunk-at-a-time log append.

        Duplicate LPNs within the span still consume log space (each is
        an independent sync program) but only the last write of an LPN
        stays valid.  The last-occurrence mask is built with O(span)
        scatter/gather against ``_occ_scratch`` — duplicate indices in a
        numpy fancy assignment resolve to the last value written.  One
        mask suffices: the last occurrences select the same unique-LPN
        set as the first occurrences, and stale-mapping invalidation is
        order-insensitive.  No sort, no ``np.unique``.
        """
        m = lpns.size
        upb = self.units_per_block
        iota = self._iota
        block = self._active_block
        offset = self._active_offset
        if m <= upb - offset:
            # Span fits in the active block: one segment, no buffer fill.
            ppus = iota[:m] + (block * upb + offset)
            segments = [(block, 0, m)]
            self._active_offset = offset + m
            if self._active_offset == upb:
                self._closed[block] = True
                self._active_block = None
                self._active_offset = 0
        else:
            buf = self._ppu_buf
            if buf.size < m:
                self._ppu_buf = buf = np.empty(max(m, buf.size * 2), dtype=np.int64)
            ppus = buf[:m]
            segments = []  # (block, start, end) index ranges into the span
            start = 0
            while True:
                take = min(upb - offset, m - start)
                seg_end = start + take
                np.add(iota[:take], block * upb + offset, out=ppus[start:seg_end])
                segments.append((block, start, seg_end))
                offset += take
                start = seg_end
                if offset == upb:
                    self._closed[block] = True
                    block = None
                    offset = 0
                    if start < m:
                        block = self._pop_free_block()
                        continue
                break
            self._active_block = block
            self._active_offset = offset

        pos_buf = self._pos_buf
        if pos_buf.size < m:
            self._pos_buf = pos_buf = np.arange(max(m, pos_buf.size * 2), dtype=np.int64)
        positions = pos_buf[:m]
        scratch = self._occ_scratch
        scratch[lpns] = positions
        last_mask = scratch[lpns] == positions
        counts = self._valid_count

        if np.count_nonzero(last_mask) == m:
            # No duplicates: every unit is both first and last of its LPN.
            self._invalidate_stale(self._l2p[lpns])
            self._valid[ppus] = True
            self._p2l[ppus] = lpns
            self._l2p[lpns] = ppus
            for block, seg_start, seg_end in segments:
                counts[block] += seg_end - seg_start
        else:
            survivors = lpns[last_mask]
            self._invalidate_stale(self._l2p[survivors])
            self._valid[ppus] = last_mask
            self._p2l[ppus] = lpns
            self._l2p[survivors] = ppus[last_mask]
            if len(segments) == 1:
                counts[segments[0][0]] += survivors.size
            else:
                # Per-segment survivor counts from one cumulative sum
                # instead of a count_nonzero per segment.  The bound
                # array method skips np.cumsum's dispatch wrapper —
                # this runs once per span in the scalar step path.
                csum = last_mask.cumsum()
                prev = 0
                for block, seg_start, seg_end in segments:
                    c = int(csum[seg_end - 1])
                    counts[block] += c - prev
                    prev = c

    def _invalidate_stale(self, old_ppus: np.ndarray) -> None:
        """Invalidate the physical units behind a set of old mappings.

        ``old_ppus`` must come from distinct LPNs (``_l2p`` is injective
        on mapped units, so the stale entries are distinct too).
        Per-block valid counts are updated with one bincount.
        """
        if old_ppus.size == 0:
            return
        if old_ppus.min() >= 0:
            # Steady state: every LPN was already mapped, skip the filter.
            stale = old_ppus
        else:
            stale = old_ppus[old_ppus >= 0]
            if stale.size == 0:
                return
        self._valid[stale] = False
        delta = np.bincount(stale // self.units_per_block, minlength=self._num_blocks)
        np.subtract(self._valid_count, delta, out=self._valid_count)

    def _pop_free_block(self) -> int:
        free = self._free_blocks
        if not free:
            # Retirements emptied the free list before the end-of-life
            # check at the end of the reclaim could run: this is end of
            # life too.
            self.read_only = True
            raise DeviceWornOut(
                f"no free blocks left ({self.package.num_bad_blocks} bad of "
                f"{self.geometry.num_blocks}); device is read-only"
            )
        block = pick_free_block(free, self.package.pe_counts, self.wl_config.dynamic)
        free.remove(block)
        return block

    def _open_new_block(self, allow_reclaim: bool) -> None:
        if allow_reclaim and len(self._free_blocks) <= self.gc_low_water and not self._in_reclaim:
            self._reclaim_space()
            if self._active_block is not None:
                # Reclaim relocations opened (and partially filled) a new
                # active block; keep appending to it instead of leaking it.
                return
        self._active_block = self._pop_free_block()
        self._active_offset = 0

    # ------------------------------------------------------------------
    # Reclaim: garbage collection + static wear leveling
    # ------------------------------------------------------------------

    def _reclaim_space(self) -> None:
        """Collect the victim policy's picks, one ``select`` per victim,
        until the free list is back at the high watermark; then run the
        periodic static wear-leveling check and the end-of-life check."""
        self._in_reclaim = True
        try:
            stall_guard = 0
            while len(self._free_blocks) < self.gc_high_water:
                victim = self.victim_policy.select(
                    self._closed, self._valid_count, self.package.pe_counts, self.units_per_block
                )
                if victim is None:
                    break
                freed = self._collect_block(victim, _Source.GC)
                self.stats.gc_runs += 1
                if self._obs is not None:
                    self._obs.gc_runs.inc()
                stall_guard = stall_guard + 1 if not freed else 0
                if stall_guard > 4:
                    break
            if self._obs is not None:
                self._obs.free_blocks.set(len(self._free_blocks))
            cfg = self.wl_config
            if cfg.static_enabled and self._erases_since_wl_check >= cfg.static_check_interval:
                self._maybe_static_wear_level()
            if self._num_blocks - self.package.num_bad_blocks < self._eol_min_usable:
                self._check_end_of_life()
        finally:
            self._in_reclaim = False

    def _collect_block(self, victim: int, source: _Source) -> bool:
        """Relocate a block's valid units and erase it.

        Returns True if the erase netted a new free (or at least usable)
        block, False when the block went bad.
        """
        obs = self._obs
        if obs is not None and source is _Source.GC:
            obs.gc_victim_valid.observe(int(self._valid_count[victim]))
        start = victim * self.units_per_block
        end = start + self.units_per_block
        if self._valid_count[victim]:
            live = start + np.nonzero(self._valid[start:end])[0]
            self._write_units(self._p2l[live], source)
            # Relocation invalidated every unit; the block is now empty,
            # but clear defensively in case a unit was somehow retained.
            self._valid[start:end] = False
            self._valid_count[victim] = 0
        self._p2l[start:end] = -1
        self._closed[victim] = False

        went_bad = self.package.erase_block(victim)
        self.stats.blocks_erased += 1
        self._erases_since_wl_check += 1
        if obs is not None:
            obs.blocks_erased.inc()
            if went_bad:
                obs.bad_blocks.inc()
        if not went_bad:
            self._free_blocks.append(victim)
        return not went_bad

    def _maybe_static_wear_level(self) -> None:
        cfg = self.wl_config
        if not cfg.static_enabled:
            return
        if self._erases_since_wl_check < cfg.static_check_interval:
            return
        self._erases_since_wl_check = 0
        good = ~self.package.bad_blocks_view
        if not wear_gap_exceeds(self.package.pe_counts, good, cfg.static_delta_threshold):
            return
        victim = pick_cold_victim(self._closed, self.package.pe_counts, self._valid_count)
        if victim is None:
            return
        self._collect_block(victim, _Source.WL)
        self.stats.wl_runs += 1
        if self._obs is not None:
            self._obs.wl_runs.inc()

    def _check_end_of_life(self) -> None:
        usable = self.geometry.num_blocks - self.package.num_bad_blocks
        if usable < self._min_blocks_needed + self._reserve_blocks:
            self.read_only = True
            raise DeviceWornOut(
                f"spare blocks exhausted ({self.package.num_bad_blocks} bad of "
                f"{self.geometry.num_blocks}); device is read-only"
            )

    # ------------------------------------------------------------------
    # Read errors
    # ------------------------------------------------------------------

    def _sample_read_errors(self, ppus: np.ndarray) -> None:
        blocks = np.unique(ppus // self.units_per_block)
        rber = self.package.rber(blocks)
        # Skip the ECC tail computation while wear is comfortably low.
        risky = blocks[np.asarray(rber) > self.package.ecc.max_tolerable_rber() * 0.5]
        obs = self._obs
        if obs is not None and risky.size:
            obs.ecc_risky_reads.inc(int(risky.size))
        for block in risky:
            prob = self.package.uncorrectable_probability(int(block))
            if prob > 0 and self._read_rng.random() < prob:
                if obs is not None:
                    obs.ecc_uncorrectable.inc()
                raise UncorrectableError(int(block) * self.units_per_block)
