"""Hybrid two-pool FTL: "Type A" + "Type B" memories (Table 1).

§4.3: "Some flash-based storage devices combine different types of
flash memories.  The faster, more expensive memory has a higher
lifetime, and is used sparingly for storing hot data and caching
purposes. [...] eMMC supports two different wear-out indicators, one
for each memory type."

We model the paper's eMMC 16GB as:

* **Type A** — a small SLC pool that serves the hottest LBA window
  (filesystem metadata / journal region).  Under normal operation only
  the metadata fraction of traffic lands here, so the A indicator moves
  roughly 6× slower than B's (Table 1, levels 1–2 vs B's 1–6).
* **Type B** — the large MLC pool serving the rest of the LBA space.

When the device is highly utilized *and* incoming writes target already
utilized space, the firmware "dynamically combines Type A and Type B
memories into a single storage pool": every host write is staged
through a FIFO ring in the A pool before migrating to B.  Type A then
absorbs the full write stream and its indicator advances an order of
magnitude faster (Table 1's 439 GiB/level phases), while Type B's
per-level volume stays unchanged and host throughput collapses.

Observability: both pools bind the same ``ftl.*`` instruments from the
active registry (DESIGN.md §9), so metrics aggregate device-wide —
staging-ring traffic lands under ``ftl.migration_pages`` rather than
host pages, keeping the metrics-derived write amplification honest.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.flash.package import FlashPackage
from repro.ftl.ftl import PageMappedFTL
from repro.ftl.stats import FtlStats
from repro.ftl.wear_indicator import WearIndicator
from repro.ftl.wear_leveling import WearLevelingConfig
from repro.rng import SeedLike


class HybridFTL:
    """Two-pool FTL with per-type wear indicators and pool merging.

    The host sees one logical space of ``logical_capacity_bytes``.  The
    lowest ``hot_window_bytes`` of that space live on the Type A pool;
    everything above lives on Type B.

    Args:
        package_a: Small, high-endurance (SLC) package.
        package_b: Large main (MLC) package.
        logical_capacity_bytes: Host-visible capacity.
        hot_window_bytes: Size of the LBA window served by Type A.
        staging_bytes: Extra Type A logical space used as the merged-mode
            staging ring.
        merge_utilization: Type B mapped fraction above which the pools
            merge and writes stage through A.
        mapping_unit_pages: Mapping granularity for both pools.
        seed: RNG seed forwarded to both pools.
    """

    def __init__(
        self,
        package_a: FlashPackage,
        package_b: FlashPackage,
        logical_capacity_bytes: int,
        hot_window_bytes: int,
        staging_bytes: Optional[int] = None,
        merge_utilization: float = 0.80,
        mapping_unit_pages: int = 1,
        wear_leveling: Optional[WearLevelingConfig] = None,
        seed: SeedLike = None,
        **pool_kwargs,
    ):
        if hot_window_bytes >= logical_capacity_bytes:
            raise ConfigurationError("hot window must be smaller than the logical space")
        if not 0.0 < merge_utilization <= 1.0:
            raise ConfigurationError("merge_utilization must be in (0, 1]")
        if staging_bytes is None:
            staging_bytes = hot_window_bytes

        self.hot_window_bytes = hot_window_bytes
        self.merge_utilization = merge_utilization
        self.logical_capacity_bytes = logical_capacity_bytes

        self.pool_a = PageMappedFTL(
            package_a,
            logical_capacity_bytes=hot_window_bytes + staging_bytes,
            mapping_unit_pages=mapping_unit_pages,
            wear_leveling=wear_leveling,
            seed=seed,
            **pool_kwargs,
        )
        self.pool_b = PageMappedFTL(
            package_b,
            logical_capacity_bytes=logical_capacity_bytes - hot_window_bytes,
            mapping_unit_pages=mapping_unit_pages,
            wear_leveling=wear_leveling,
            seed=seed,
            **pool_kwargs,
        )
        self._staging_bytes = staging_bytes
        self._staging_cursor = 0
        self.host_pages_requested = 0

    # ------------------------------------------------------------------
    # Write / read / trim
    # ------------------------------------------------------------------

    @property
    def merged_mode(self) -> bool:
        """True when the firmware has combined the pools (§4.3)."""
        return self.pool_b.utilization() >= self.merge_utilization

    @property
    def geometry(self):
        """Geometry of the main pool (page size is shared)."""
        return self.pool_b.geometry

    @property
    def read_only(self) -> bool:
        return self.pool_a.read_only or self.pool_b.read_only

    def write_requests(self, offsets_bytes: np.ndarray, request_bytes: int) -> None:
        """Route a batch of equal-sized writes to the two pools."""
        offsets = np.asarray(offsets_bytes, dtype=np.int64)
        if offsets.size == 0:
            return
        page = self.geometry.page_size
        first_page = offsets // page
        last_page = (offsets + request_bytes - 1) // page
        self.host_pages_requested += int((last_page - first_page + 1).sum())

        window = self.hot_window_bytes
        plain, straddling, cold = self.route(offsets, request_bytes)
        if plain.size:
            self.pool_a.write_requests(plain, request_bytes)
        # Requests straddling the window boundary split between pools.
        for off in straddling:
            a_len = int(window - off)
            self.pool_a.write_requests(np.array([off]), a_len)
            self.pool_b.write_requests(np.array([0]), request_bytes - a_len)
        if cold.size:
            if self.merged_mode:
                self._stage_through_a(cold.size, request_bytes)
            self.pool_b.write_requests(cold, request_bytes)

    def route(self, offsets: np.ndarray, request_bytes: int):
        """Split a batch of requests by pool, in call order.

        Returns ``(plain, straddling, cold)``: pool-A offsets of requests
        inside the hot window, offsets of requests straddling its
        boundary, and pool-B offsets (rebased past the window) of the
        rest.  The device's fused burst path (DESIGN.md §16) applies the
        same split to a whole window's calls at once and refuses any
        window with a straddler.
        """
        window = self.hot_window_bytes
        in_window = offsets < window
        hot = offsets[in_window]
        straddles = hot + request_bytes > window
        return hot[~straddles], hot[straddles], offsets[~in_window] - window

    def could_merge(self, b_lpns: np.ndarray) -> bool:
        """Whether mapping pool-B units ``b_lpns`` could bring the pools
        to :attr:`merged_mode` — the exact :meth:`utilization` test on
        an upper bound of the mapped count (writes only ever add
        mappings)."""
        l2p = self.pool_b._l2p
        fresh = b_lpns[l2p[b_lpns] < 0]
        mapped = np.count_nonzero(l2p >= 0) + np.unique(fresh).size
        return mapped / l2p.size >= self.merge_utilization

    def _stage_through_a(self, num_requests: int, request_bytes: int) -> None:
        """Stage merged-mode traffic through the Type A FIFO ring.

        Each staged request costs a Type A program; the data is
        immediately superseded by the ring's wraparound, so Type A's own
        GC stays cheap while its P/E budget drains at the host rate.
        """
        lpns, self._staging_cursor = self.staging_units(
            num_requests, request_bytes, self._staging_cursor
        )
        unit = self.pool_a.unit_bytes
        self.pool_a.write_requests(lpns * unit, unit, as_migration=True)

    def staging_units(self, num_requests: int, request_bytes: int, cursor: int):
        """The ring's pure function: the pool-A unit LPNs that staging
        ``num_requests`` requests of ``request_bytes`` writes from ring
        position ``cursor``, and the cursor after them.  The scalar
        staging path and the device's fused burst path (DESIGN.md §16)
        both go through here."""
        unit = self.pool_a.unit_bytes
        count = num_requests * max(1, -(-request_bytes // unit))
        ring_units = max(1, self._staging_bytes // unit)
        slots = (cursor + np.arange(count, dtype=np.int64)) % ring_units
        return self.hot_window_bytes // unit + slots, int((cursor + count) % ring_units)

    def read_requests(self, offsets_bytes: np.ndarray, request_bytes: int) -> None:
        offsets = np.asarray(offsets_bytes, dtype=np.int64)
        if offsets.size == 0:
            return
        in_window = offsets < self.hot_window_bytes
        if in_window.any():
            self.pool_a.read_requests(offsets[in_window], request_bytes)
        if (~in_window).any():
            self.pool_b.read_requests(offsets[~in_window] - self.hot_window_bytes, request_bytes)

    def trim_pages(self, start_page: int, num_pages: int) -> None:
        page = self.geometry.page_size
        window_pages = self.hot_window_bytes // page
        end_page = start_page + num_pages
        if start_page < window_pages:
            self.pool_a.trim_pages(start_page, min(end_page, window_pages) - start_page)
        if end_page > window_pages:
            lo = max(start_page, window_pages)
            self.pool_b.trim_pages(lo - window_pages, end_page - lo)

    def anneal(self, temp_c: float, duration_seconds: float) -> None:
        """Anneal both pools' packages; each pool takes its resurrected
        blocks back (:meth:`PageMappedFTL.anneal`)."""
        self.pool_a.anneal(temp_c, duration_seconds)
        self.pool_b.anneal(temp_c, duration_seconds)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    @property
    def media_pages_programmed(self) -> int:
        return self.pool_a.media_pages_programmed + self.pool_b.media_pages_programmed

    @property
    def stats(self) -> FtlStats:
        """Combined counters across both pools."""
        return self.pool_a.stats.merged_with(self.pool_b.stats)

    def life_used(self) -> float:
        """Main-pool estimate (what a single-indicator reading reports)."""
        return self.pool_b.life_used()

    def utilization(self) -> float:
        return self.pool_b.utilization()

    def wear_indicator(self) -> WearIndicator:
        return self.pool_b.wear_indicator()

    def wear_indicators(self) -> Dict[str, WearIndicator]:
        """Per-type health report: the two eMMC lifetime estimates."""
        return {
            "A": self.pool_a.wear_indicator(),
            "B": self.pool_b.wear_indicator(),
        }
