"""Block device base class.

A :class:`BlockDevice` binds an FTL (plain or hybrid) to a performance
model and exposes the host-facing operations the filesystems and
workloads use.  All write/read calls return the simulated duration in
seconds; the experiment engine advances its virtual clock by that much.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.devices.health import HealthReport
from repro.devices.perf import PerformanceModel
from repro.errors import DeviceWornOut, ReadOnlyError
from repro.ftl import burst, plancache
from repro.ftl.burst import BurstSegment
from repro.ftl.ftl import PageMappedFTL, _ragged_ranges
from repro.ftl.hybrid import HybridFTL

if TYPE_CHECKING:
    from repro.timing.backend import EventTimingBackend

AnyFtl = Union[PageMappedFTL, HybridFTL]


class BlockDevice:
    """A flash block device: FTL + performance model + health report.

    Args:
        name: Human-readable device name (catalog key).
        ftl: The translation layer managing the flash media.
        perf: Bandwidth curve.
        indicator_supported: False for budget devices whose firmware
            does not report reliable wear indicators (§4.4's BLU phones).
        scale: Capacity scale factor this instance was built at; volume
            reports from experiments multiply by it (DESIGN.md §6).
        timing: Optional event-driven timing backend (DESIGN.md §13).
            When set, request durations come from simulating channels,
            planes, and queue depth instead of the analytic ``perf``
            curve; wear accounting is unaffected — the FTL calls are
            identical under both backends.
    """

    def __init__(
        self,
        name: str,
        ftl: AnyFtl,
        perf: PerformanceModel,
        indicator_supported: bool = True,
        scale: int = 1,
        timing: Optional["EventTimingBackend"] = None,
    ):
        self.name = name
        self.ftl = ftl
        self.perf = perf
        self.indicator_supported = indicator_supported
        self.scale = scale
        self.timing = timing
        self.host_bytes_written = 0
        self.host_bytes_read = 0
        self.busy_seconds = 0.0
        self.failed = False

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def logical_capacity(self) -> int:
        return self.ftl.logical_capacity_bytes

    @property
    def page_size(self) -> int:
        return self.ftl.geometry.page_size

    @property
    def read_only(self) -> bool:
        return self.failed or self.ftl.read_only

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def write(self, offset: int, size: int) -> float:
        """One synchronous write; returns the simulated duration."""
        return self.write_many(np.array([offset], dtype=np.int64), size)

    def write_many(self, offsets: np.ndarray, request_bytes: int) -> float:
        """A batch of equal-sized synchronous writes.

        The batch is an efficiency device for the simulator; semantically
        each offset is an independent request.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return 0.0
        if self.read_only:
            raise ReadOnlyError(f"{self.name} is read-only (worn out)")
        before = self.ftl.media_pages_programmed
        erases_before = self._total_erases() if self.timing is not None else 0
        # Both timing backends see the write-combined stream.
        eff_offsets, eff_request_bytes = _write_combine(offsets, request_bytes)
        try:
            self.ftl.write_requests(eff_offsets, eff_request_bytes)
        except DeviceWornOut:
            self.failed = True
            raise
        media_pages = self.ftl.media_pages_programmed - before
        total_bytes = int(offsets.size) * request_bytes
        if self.timing is not None:
            duration = self.timing.time_writes(
                eff_offsets,
                eff_request_bytes,
                media_pages=media_pages,
                erases=self._total_erases() - erases_before,
            )
        else:
            host_pages = max(1, -(-total_bytes // self.page_size))
            duration = self.perf.write_duration(
                total_bytes, request_bytes, media_ratio=media_pages / host_pages
            )
        self.host_bytes_written += total_bytes
        self.busy_seconds += duration
        return duration

    def _total_erases(self) -> int:
        """Block erases across every flash package (timing accounting)."""
        return sum(pkg.counters.block_erases for pkg in self._packages())

    def burst_eligible(self) -> bool:
        """Static preconditions of :meth:`write_burst`.

        Cheap enough for callers to consult before pre-drawing a whole
        window of work: a device whose configuration can never take the
        fused path (read-only, event-timing backend, a duck-typed FTL)
        should cost nothing per window beyond this check.
        """
        fusable = type(self.ftl) in (PageMappedFTL, HybridFTL)
        return fusable and not self.read_only and self.timing is None

    def write_burst(self, groups, budget):
        """Fused write path covering many workload steps (DESIGN.md §11).

        Args:
            groups: One entry per workload step; each entry is a list of
                ``(offsets, request_bytes)`` pairs, each equivalent to one
                :meth:`write_many` call, in call order.
            budget: The experiment's poll budget — ``(counters, threshold)``
                pairs — or None for an unbounded burst.

        Returns:
            ``(m, seg_durations)`` where ``m`` is the number of whole steps
            executed (``m <= len(groups)``; the burst stops at the step
            whose erases exhaust the budget) and ``seg_durations`` lists the
            simulated duration of every executed call, in call order.
            Returns None when the fused path cannot run — the caller must
            fall back to per-step :meth:`write_many` calls, which reproduce
            the exact scalar behaviour (including raising the errors this
            path refuses to model).
        """
        # Statically ineligible devices refuse.  The event backend, for
        # one, must time each step's actual request stream, so callers
        # replay per-step calls (wear stays bit-identical either way —
        # the fallback is the exact scalar path).
        if not self.burst_eligible():
            return None
        ftl = self.ftl
        if type(ftl) is HybridFTL:
            return self._hybrid_burst(groups, budget)
        stops = self.erase_stops(budget)
        if stops is None:
            return None
        unit_bytes = ftl.unit_bytes
        unit_pages = ftl.unit_pages
        page = self.page_size
        limit = ftl.num_logical_units * unit_bytes
        calls = []
        buckets = {}
        for group, group_calls in enumerate(groups):
            for offsets, request_bytes in group_calls:
                offsets = np.asarray(offsets, dtype=np.int64)
                if offsets.size == 0 or request_bytes <= 0:
                    return None
                index = len(calls)
                calls.append((group, offsets, request_bytes))
                buckets.setdefault((int(offsets.size), request_bytes), []).append(index)
        if not calls:
            return None
        # unit/page sizes are powers of two in every catalog device;
        # shifts beat int64 division on the big offset matrices.
        pow2 = unit_bytes & (unit_bytes - 1) == 0 and page & (page - 1) == 0
        unit_shift = unit_bytes.bit_length() - 1
        segments = [None] * len(calls)
        for (count, request_bytes), indices in buckets.items():
            if len(indices) > 1 and pow2 and request_bytes <= page:
                stacked = np.stack([calls[i][1] for i in indices])
                fits = int(stacked.min()) >= 0 and int(stacked.max()) + request_bytes <= limit
                if fits and count > 1:
                    # A row that write-combines is one wider request.
                    # Cheap O(rows) screen — its first gap and its last
                    # offset must both fit the sequential run — so rows
                    # that wrap around their file never pay the full
                    # write-combining check.
                    first = stacked[:, 0]
                    maybe = (stacked[:, 1] - first) == request_bytes
                    maybe &= stacked[:, -1] == first + (count - 1) * request_bytes
                    if maybe.any():
                        sub = stacked[maybe]
                        fits = not ((sub[:, 1:] - sub[:, :-1]) == request_bytes).all(axis=1).any()
                # Checked last, so sequential windows, which combine,
                # never pay for this pass over the whole matrix.
                if fits and int((stacked & (page - 1)).max()) + request_bytes <= page:
                    # Stacked page-fit shape — every request fits inside
                    # one page (hence one mapping unit: unit boundaries
                    # are page boundaries).  No span math needed; host
                    # pages is one per request.
                    first_unit = stacked >> unit_shift
                    rmw_pages = count * unit_pages - count
                    for row, i in enumerate(indices):
                        segments[i] = BurstSegment(
                            unit_lpns=first_unit[row],
                            host_pages=count,
                            rmw_pages=rmw_pages,
                            group=calls[i][0],
                            total_bytes=count * request_bytes,
                            request_bytes=request_bytes,
                        )
                    continue
            for i in indices:
                # Per-call segment: exact write_many math for one call.
                group, offsets, request_bytes = calls[i]
                segment = _burst_segment(
                    ftl, group, *_write_combine(offsets, request_bytes),
                    int(offsets.size) * request_bytes, request_bytes, page,
                )
                if segment is None:
                    return None
                segments[i] = segment
        plan = ftl.write_requests_batch(segments, len(groups), stops[0])
        if plan is None:
            return None
        copies = plan.seg_copies or ()
        return self._burst_durations(
            ((s.group, s.total_bytes, s.request_bytes,
              int(s.unit_lpns.size) * unit_pages + (copies[i] if i < len(copies) else 0))
             for i, s in enumerate(segments)),
            plan.executed_groups,
        )

    def erase_stops(self, budget):
        """Fold a poll ``budget`` into one erase stop per flash pool.

        ``budget`` holds the experiment's ``(counters, threshold)``
        pairs, or None.  Returns one entry per pool, in
        :meth:`_packages` order: the fewest further erases any pair
        naming that pool's counters allows (the minimum when a pool is
        named twice), or None when no pair names it.  Returns None
        outright when a pair names a counter of no pool; the fused path
        then refuses, and so does the plan cache.
        """
        counters = [package.counters for package in self._packages()]
        stops = [None] * len(counters)
        for ctr, threshold in budget or ():
            for i, own in enumerate(counters):
                if ctr is own:
                    break
            else:
                return None
            remaining = threshold - ctr.block_erases
            if stops[i] is None or remaining < stops[i]:
                stops[i] = remaining
        return stops

    def _hybrid_burst(self, groups, budget):
        """:meth:`write_burst` on :class:`HybridFTL` pools (DESIGN.md §16).

        Each call is write-combined as :meth:`write_many` does and routed
        by :meth:`HybridFTL.route`; in merged mode its pool-B requests
        also stage through pool A's ring (:meth:`HybridFTL.staging_units`,
        a migration segment after the call's pool-A segment).  Each
        pool's share is planned under that pool's own erase stop, the
        pool with more executed groups is re-walked at the other's count,
        and both commit.  A request straddling the hot window, or an
        unmerged window whose new pool-B mappings could merge the pools,
        stays on the scalar path.
        """
        ftl = self.ftl
        page = self.page_size
        if ftl.hot_window_bytes % page:
            return None  # host pages would not split exactly by pool
        pools = (ftl.pool_a, ftl.pool_b)
        stops = self.erase_stops(budget)
        if stops is None:
            return None
        # Utilization only grows inside a window, so a window that
        # starts merged stays merged for every call.
        merged = ftl.merged_mode
        cursor = ftl._staging_cursor
        ring_pages = pools[0].unit_pages
        segments = ([], [])
        calls = []
        for group, group_calls in enumerate(groups):
            for offsets, request_bytes in group_calls:
                offsets = np.asarray(offsets, dtype=np.int64)
                if offsets.size == 0 or request_bytes <= 0:
                    return None
                total_bytes = int(offsets.size) * request_bytes
                eff_offsets, eff_bytes = _write_combine(offsets, request_bytes)
                plain, straddling, cold = ftl.route(eff_offsets, eff_bytes)
                if straddling.size:
                    return None
                programs = 0
                owned = []  # (pool, segment index) of each segment of the call
                for i, pool_offsets in ((0, plain), (1, cold)):
                    if not pool_offsets.size:
                        continue
                    if i == 1 and merged:
                        ring, cursor = ftl.staging_units(cold.size, eff_bytes, cursor)
                        owned.append((0, len(segments[0])))
                        segments[0].append(BurstSegment(
                            unit_lpns=ring, host_pages=0, rmw_pages=0, group=group,
                            total_bytes=total_bytes, request_bytes=request_bytes,
                            migration=True,
                        ))
                        programs += int(ring.size) * ring_pages
                    seg = _burst_segment(
                        pools[i], group, pool_offsets, eff_bytes, total_bytes,
                        request_bytes, page,
                    )
                    if seg is None:
                        return None
                    owned.append((i, len(segments[i])))
                    segments[i].append(seg)
                    programs += seg.host_pages + seg.rmw_pages
                calls.append((group, total_bytes, request_bytes, programs, owned, cursor))
        if not merged and segments[1] and ftl.could_merge(
            np.concatenate([s.unit_lpns for s in segments[1]])
        ):
            return None
        # Plan pool B (the data stream, whose budget usually stops first)
        # then pool A at B's executed count; whenever one pool stops
        # short, re-walk the other at the smaller count.  The walk is
        # deterministic group by group, so a re-walk at fewer groups
        # replays a prefix and never bails.
        m = len(groups)
        plans = [None, None]
        todo = [0, 1]
        while todo:
            i = todo.pop()
            segs = [s for s in segments[i] if s.group < m]
            plans[i] = burst.plan_write_burst(pools[i], segs, m, stops[i]) if segs else None
            if segs and plans[i] is None:
                return None
            if plans[i] is not None and plans[i].executed_groups < m:
                m = plans[i].executed_groups
                if plans[1 - i] is not None:
                    todo.append(1 - i)
        for pool, plan in zip(pools, plans):
            if plan is not None:
                burst.commit_planned_burst(pool, plan)
                # The page-aligned window splits each call's host pages
                # exactly between the pools' executed segments.
                ftl.host_pages_requested += plan.host_pages
        # Each call's media pages: its programs plus the GC and WL
        # copies its segments' reclaims made.
        copies = [plan.seg_copies if plan is not None else None for plan in plans]
        timed = []
        for group, total_bytes, request_bytes, programs, owned, cursor_after in calls:
            if group >= m:
                break
            for i, j in owned:
                if copies[i] is not None:
                    programs += copies[i][j]
            timed.append((group, total_bytes, request_bytes, programs))
            if merged:
                ftl._staging_cursor = cursor_after
        return self._burst_durations(timed, m)

    def _burst_durations(self, calls, m):
        """Account the executed prefix of a committed burst.

        ``calls`` yields ``(group, total_bytes, request_bytes,
        media_pages)`` per write call in call order; each call in the
        first ``m`` groups gets :meth:`write_many`'s duration, and the
        device counters advance exactly as per-call writes would.
        Returns :meth:`write_burst`'s ``(m, seg_durations)``.
        """
        page = self.page_size
        write_duration = self.perf.write_duration
        seg_durations = []
        host_bytes = 0
        busy = self.busy_seconds
        for group, total_bytes, request_bytes, media_pages in calls:
            if group >= m:
                break
            host_pages = max(1, -(-total_bytes // page))
            duration = write_duration(
                total_bytes, request_bytes, media_ratio=media_pages / host_pages
            )
            host_bytes += total_bytes
            busy += duration
            seg_durations.append(duration)
        self.host_bytes_written += host_bytes
        self.busy_seconds = busy
        cap = plancache.active_capture()
        if cap is not None:
            # Replays add host_delta and re-accumulate seg_durations in
            # this exact order from the then-current busy_seconds.
            cap.seg_durations = seg_durations
            cap.host_delta = host_bytes
        return m, seg_durations

    def read(self, offset: int, size: int) -> float:
        return self.read_many(np.array([offset], dtype=np.int64), size)

    def read_many(self, offsets: np.ndarray, request_bytes: int) -> float:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return 0.0
        self.ftl.read_requests(offsets, request_bytes)
        total_bytes = int(offsets.size) * request_bytes
        if self.timing is not None:
            duration = self.timing.time_reads(offsets, request_bytes)
        else:
            duration = self.perf.read_duration(total_bytes, request_bytes)
        self.host_bytes_read += total_bytes
        self.busy_seconds += duration
        return duration

    def trim(self, offset: int, size: int) -> None:
        """Discard a logical byte range (advisory, zero cost)."""
        page = self.page_size
        first = -(-offset // page)
        last = (offset + size) // page
        if last > first:
            self.ftl.trim_pages(first, last - first)

    def idle(self, seconds: float, temp_c: float = 25.0) -> None:
        """Idle period: trapped charge heals (§2.2)."""
        for package in self._packages():
            package.idle(seconds, temp_c)

    def _packages(self):
        if isinstance(self.ftl, HybridFTL):
            return [self.ftl.pool_a.package, self.ftl.pool_b.package]
        return [self.ftl.package]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def wear_indicators(self):
        if isinstance(self.ftl, HybridFTL):
            return self.ftl.wear_indicators()
        return {"A": self.ftl.wear_indicator()}

    def wear_poll_hints(self):
        """Per-memory-type ``(counters, min_further_erases)`` pairs.

        ``counters`` is the live :class:`~repro.flash.package.PackageCounters`
        of that pool (its ``block_erases`` field advances as the pool
        erases) and ``min_further_erases`` is a conservative lower bound
        on erases before that pool's indicator level can rise.  The
        experiment loop uses the pair to skip provably-uneventful
        ``wear_indicators()`` polls (DESIGN.md §10).
        """
        ftl = self.ftl
        if isinstance(ftl, HybridFTL):
            return {
                "A": (ftl.pool_a.package.counters, ftl.pool_a.erases_until_next_level()),
                "B": (ftl.pool_b.package.counters, ftl.pool_b.erases_until_next_level()),
            }
        return {"A": (ftl.package.counters, ftl.erases_until_next_level())}

    def health_report(self) -> HealthReport:
        indicators = self.wear_indicators()
        worst_pre_eol = max(
            (ind.pre_eol for ind in indicators.values()), key=lambda s: s.value
        )
        if isinstance(self.ftl, HybridFTL):
            host_pages = max(1, self.ftl.host_pages_requested)
        else:
            host_pages = max(1, self.ftl.stats.host_pages_requested)
        wa = self.ftl.media_pages_programmed / host_pages
        return HealthReport(
            device_name=self.name,
            indicators=indicators,
            pre_eol=worst_pre_eol,
            supported=self.indicator_supported,
            host_bytes_written=self.host_bytes_written,
            write_amplification=wa,
            read_only=self.read_only,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} capacity={self.logical_capacity}>"


def _write_combine(offsets: np.ndarray, request_bytes: int):
    """The device buffer's write combining: back-to-back sequential sync
    writes merge into one request spanning full mapping units, which is
    why Figure 1a's sequential small writes escape the RMW penalty that
    random ones (Figure 1b) pay.  Returns the effective
    ``(offsets, request_bytes)``."""
    if (
        offsets.size > 1
        and int(offsets[1]) - int(offsets[0]) == request_bytes
        and (np.diff(offsets) == request_bytes).all()
    ):
        return offsets[:1], request_bytes * int(offsets.size)
    return offsets, request_bytes


def _burst_segment(ftl, group, offsets, request_bytes, total_bytes, call_bytes, page):
    """The :class:`BurstSegment` of one ``ftl.write_requests(offsets,
    request_bytes)`` call on a page-mapped FTL — its exact scalar unit
    stream and page accounting — or None when a request is out of range.
    ``total_bytes``/``call_bytes`` describe the device call it belongs
    to."""
    unit_bytes = ftl.unit_bytes
    if int(offsets.min()) < 0 or int(offsets.max()) + request_bytes > ftl.num_logical_units * unit_bytes:
        return None
    last = offsets + (request_bytes - 1)
    unit_lpns = _ragged_ranges(offsets // unit_bytes, last // unit_bytes)
    host_pages = int((last // page - offsets // page + 1).sum())
    return BurstSegment(
        unit_lpns=unit_lpns,
        host_pages=host_pages,
        rmw_pages=int(unit_lpns.size) * ftl.unit_pages - host_pages,
        group=group,
        total_bytes=total_bytes,
        request_bytes=call_bytes,
    )
