"""Block device base class.

A :class:`BlockDevice` binds an FTL (plain or hybrid) to a performance
model and exposes the host-facing operations the filesystems and
workloads use.  All write/read calls return the simulated duration in
seconds; the experiment engine advances its virtual clock by that much.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.devices.health import HealthReport
from repro.devices.perf import PerformanceModel
from repro.errors import DeviceWornOut, ReadOnlyError
from repro.ftl import burst
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
        #: The flash pools by memory type, decided once here: a hybrid's
        #: Type A and Type B pools (Table 1 reports one wear indicator
        #: per type), else the FTL itself as Type A.  Fused bursts, wear
        #: polls, snapshots and cohort branching all read this map.
        self.pools: Dict[str, PageMappedFTL] = (
            {"A": ftl.pool_a, "B": ftl.pool_b} if isinstance(ftl, HybridFTL) else {"A": ftl}
        )
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

    def write_burst(self, data, request_bytes, meta, budget):
        """Fused write path covering many workload steps (DESIGN.md §11, §16).

        Args:
            data: ``(steps, requests)`` int64 matrix of device byte
                offsets; row ``i`` is one ``write_many(data[i],
                request_bytes)`` call, step ``i``'s data.  It is handed
                over: the device turns it into mapping units in place.
            meta: The filesystem metadata calls, or None for none:
                ``(offsets, counts, request_bytes)``, where step ``i``'s
                data call is followed by a ``write_many`` call of
                ``counts[i]`` requests (none when 0), taken in order
                from the flat ``offsets``.
            budget: The experiment's poll budget — ``(counters, threshold)``
                pairs — or None for an unbounded burst.

        The window's calls are write-combined as :meth:`write_many`
        does and, on a hybrid, split by the hot window as
        :meth:`HybridFTL.route` splits one call, all rows at once
        (:func:`_compile_window`); in merged mode each call's pool-B
        requests also stage through pool A's ring
        (:meth:`HybridFTL.staging_units`, a migration segment after the
        call's pool-A segment).  Each of :attr:`pools` is planned under
        its own erase stop, the pools planned before are re-walked
        whenever one stops short, and each commits.  A request
        straddling the hot window, or an unmerged window whose new
        pool-B mappings could merge the pools, stays on the scalar
        path.

        Returns:
            ``(m, seg_durations)`` where ``m`` is the number of whole steps
            executed (``m <= steps``; the burst stops at the step whose
            erases exhaust the budget) and ``seg_durations`` lists the
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
        steps, count = data.shape
        if not steps or not count or request_bytes <= 0:
            return None
        stops = self.erase_stops(budget)
        if stops is None:
            return None
        ftl = self.ftl
        pools = tuple(self.pools.values())
        hybrid = len(pools) > 1
        if hybrid and ftl.hot_window_bytes % self.page_size:
            return None  # host pages would not split exactly by pool
        # Utilization only grows inside a window, so a window that
        # starts merged stays merged for every call.
        merged = hybrid and ftl.merged_mode
        compiled = _compile_window(pools, ftl if merged else None, data, request_bytes, meta,
                                   window=ftl.hot_window_bytes if hybrid else None)
        if compiled is None:
            return None
        segments, calls = compiled
        if hybrid and not merged and segments[1] and ftl.could_merge(
            np.concatenate([s.unit_lpns for s in segments[1]])
        ):
            return None
        # Plan the last pool first (a hybrid's pool B, the data stream,
        # whose budget usually stops first), then the others at its
        # executed count; whenever one pool stops short, re-walk the
        # pools planned before it at the smaller count.  The walk is
        # deterministic group by group, so a re-walk at fewer groups
        # replays a prefix and never bails.
        m = steps
        plans = [None] * len(pools)
        todo = list(range(len(pools)))
        while todo:
            i = todo.pop()
            segs = [s for s in segments[i] if s.group < m]
            plans[i] = burst.plan_write_burst(pools[i], segs, m, stops[i]) if segs else None
            if segs and plans[i] is None:
                return None
            if plans[i] is not None and plans[i].executed_groups < m:
                m = plans[i].executed_groups
                todo += [j for j, plan in enumerate(plans) if plan is not None and j != i]
        for pool, plan in zip(pools, plans):
            if plan is not None:
                burst.commit_planned_burst(pool, plan)
                if hybrid:
                    # The page-aligned window splits each call's host
                    # pages exactly between the pools' executed segments.
                    ftl.host_pages_requested += plan.host_pages
        if merged:
            for call in reversed(calls):
                if call[0] < m:
                    ftl._staging_cursor = call[5]
                    break
        copies = [plan.seg_copies if plan is not None else None for plan in plans]
        return self._burst_durations(calls, copies, m)

    def erase_stops(self, budget):
        """Fold a poll ``budget`` into one erase stop per flash pool.

        ``budget`` holds the experiment's ``(counters, threshold)``
        pairs, or None.  Returns one entry per pool, in :attr:`pools`
        order: the fewest further erases any pair naming that pool's
        counters allows (the minimum when a pool is named twice), or
        None when no pair names it.  Returns None outright when a pair
        names a counter of no pool; the fused path then refuses.
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

    def _burst_durations(self, calls, copies, m):
        """Account the executed prefix of a committed burst.

        ``calls`` lists :func:`_compile_window`'s ``(group, total_bytes,
        request_bytes, programs, owned, cursor)`` per write call in
        call order, and ``copies`` each pool's plan ``seg_copies`` (or
        None); a call's media pages are its programs plus the GC and WL
        copies its segments' reclaims made.  Each call in the first
        ``m`` groups gets :meth:`write_many`'s duration, and the device
        counters advance exactly as per-call writes would.  Returns
        :meth:`write_burst`'s ``(m, seg_durations)``.
        """
        page = self.page_size
        write_duration = self.perf.write_duration
        seg_durations = []
        host_bytes = 0
        busy = self.busy_seconds
        for group, total_bytes, request_bytes, programs, owned, _ in calls:
            if group >= m:
                break
            for pool, j in owned:
                if copies[pool] is not None:
                    programs += copies[pool][j]
            host_pages = max(1, -(-total_bytes // page))
            duration = write_duration(
                total_bytes, request_bytes, media_ratio=programs / host_pages
            )
            host_bytes += total_bytes
            busy += duration
            seg_durations.append(duration)
        self.host_bytes_written += host_bytes
        self.busy_seconds = busy
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
        return [pool.package for pool in self.pools.values()]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def wear_indicators(self):
        """Each pool's wear indicator, by memory type."""
        return {mem: pool.wear_indicator() for mem, pool in self.pools.items()}

    def wear_poll_hints(self):
        """Per-memory-type ``(counters, min_further_erases)`` pairs.

        ``counters`` is the live :class:`~repro.flash.package.PackageCounters`
        of that pool (its ``block_erases`` field advances as the pool
        erases) and ``min_further_erases`` is a conservative lower bound
        on erases before that pool's indicator level can rise.  The
        experiment loop uses the pair to skip provably-uneventful
        ``wear_indicators()`` polls (DESIGN.md §10).
        """
        return {
            mem: (pool.package.counters, pool.erases_until_next_level())
            for mem, pool in self.pools.items()
        }

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


def _combining(flat: np.ndarray, counts: np.ndarray, request_bytes: int) -> np.ndarray:
    """Which of the calls laid out in ``flat`` (``counts`` requests
    each, call after call) :func:`_write_combine` merges.

    A call can combine only if its first gap is one request and its
    last offset is ``first + (count - 1) * request_bytes``: an O(calls)
    screen, so calls that wrap around their file never pay the full gap
    check."""
    ends = np.cumsum(counts)
    starts = ends - counts
    combines = counts > 1
    calls = np.flatnonzero(combines)
    first = flat[starts[calls]]
    combines[calls] = (flat[starts[calls] + 1] - first == request_bytes) & (
        flat[ends[calls] - 1] == first + (counts[calls] - 1) * request_bytes
    )
    calls = np.flatnonzero(combines)
    if calls.size:
        sub = flat if calls.size == counts.size else flat[np.repeat(combines, counts)]
        sub_counts = counts[calls]
        sub_ends = np.cumsum(sub_counts)
        gaps = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(np.diff(sub) == request_bytes)])
        combines[calls] = gaps[sub_ends - 1] - gaps[sub_ends - sub_counts] == sub_counts - 1
    return combines


def _call_sets(ids, flat, counts, request_bytes):
    """Calls of one request size as call sets ``(ids, offsets, size,
    counts)`` that segment together, write-combined as
    :meth:`BlockDevice.write_many` does: a combining call becomes one
    request spanning it (``size`` then holds one value per request)."""
    combines = _combining(flat, counts, request_bytes)
    if not combines.any():
        return [(ids, flat, request_bytes, counts)]
    calls = np.flatnonzero(combines)
    starts = np.cumsum(counts) - counts
    sets = [(ids[calls], flat[starts[calls]], counts[calls] * request_bytes,
             np.ones(calls.size, dtype=np.int64))]
    plain = ~combines
    if plain.any():
        sets.append((ids[plain], flat[np.repeat(plain, counts)], request_bytes, counts[plain]))
    return sets


def _window_calls(data, request_bytes, meta):
    """A window's write calls as call sets (:func:`_call_sets`) with
    call ids ``2 * step`` for data rows and ``2 * step + 1`` for
    metadata calls, so id order is call order.  Also returns each
    call's ``total_bytes`` and ``request_bytes`` by id; None for a
    metadata size the device cannot take."""
    steps, count = data.shape
    total_bytes = [count * request_bytes] * (2 * steps)
    call_bytes = [request_bytes] * (2 * steps)
    sets = _call_sets(2 * np.arange(steps), data.reshape(-1),
                      np.full(steps, count, dtype=np.int64), request_bytes)
    if meta is not None:
        offsets, counts, size = meta
        counts = np.asarray(counts, dtype=np.int64)
        calls = np.flatnonzero(counts)
        if calls.size:
            if size <= 0:
                return None
            counts = counts[calls]
            ids = 2 * calls + 1
            for call, n in zip(ids.tolist(), counts.tolist()):
                total_bytes[call] = n * size
                call_bytes[call] = size
            sets += _call_sets(ids, np.asarray(offsets, dtype=np.int64), counts, size)
    return sets, total_bytes, call_bytes


def _call_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-call sums of ``values``, laid out call after call with
    ``counts`` entries each."""
    ends = np.cumsum(counts)
    totals = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(values, dtype=np.int64)])
    return totals[ends] - totals[ends - counts]


def _pool_units(pool, offsets, size, counts, page):
    """Many ``pool.write_requests`` calls' unit streams in one pass.

    ``offsets`` holds every call's request offsets (pool-relative, call
    after call, ``counts`` per call; consumed — page-fit requests are
    shifted to units in place), ``size`` the request bytes, one value
    or one per request.  Returns ``(units, unit_counts, host_pages)`` —
    each call's unit stream as its own array, and per call its unit
    count and host pages, with the scalar ``write_requests`` arithmetic
    — or None when a request is out of range.
    """
    unit_bytes = pool.unit_bytes
    scalar = np.ndim(size) == 0
    high = int(offsets.max()) + size if scalar else int((offsets + size).max())
    if int(offsets.min()) < 0 or high > pool.num_logical_units * unit_bytes:
        return None
    # unit/page sizes are powers of two in every catalog device; shifts
    # beat int64 division on the big offset matrices.
    pow2 = unit_bytes & (unit_bytes - 1) == 0 and page & (page - 1) == 0
    if pow2 and scalar and size <= page and _fit_in_pages(offsets, size, page):
        # Every request fits inside one page, hence one mapping unit
        # (unit boundaries are page boundaries): one unit and one host
        # page per request.
        units = np.right_shift(offsets, unit_bytes.bit_length() - 1, out=offsets)
        unit_counts = host_pages = counts
    else:
        last = offsets + (size - 1)
        first_unit = offsets // unit_bytes
        last_unit = last // unit_bytes
        units = _ragged_ranges(first_unit, last_unit)
        unit_counts = _call_sums(last_unit - first_unit + 1, counts)
        host_pages = _call_sums(last // page - offsets // page + 1, counts)
    if int(unit_counts.min()) == int(unit_counts.max()):
        units = units.reshape(unit_counts.size, -1)
    else:
        units = np.split(units, np.cumsum(unit_counts)[:-1])
    return units, unit_counts.tolist(), host_pages.tolist()


def _fit_in_pages(offsets, size, page):
    """Whether every request of ``size`` bytes at ``offsets`` lies
    inside one page.  The OR of all offsets bounds each one's in-page
    offset from above, so aligned windows decide in one reduction
    without a temporary."""
    mask = page - 1
    if (int(np.bitwise_or.reduce(offsets)) & mask) + size <= page:
        return True
    return int((offsets & mask).max()) + size <= page


def _split_by_window(offsets, size, counts, window):
    """Route a call set by the hybrid's hot window, as
    :meth:`HybridFTL.route` routes one call: ``(pool A share, pool B
    share)``, each ``(offsets, size, counts)`` (pool B rebased past the
    window) or None when empty — or None when a request straddles the
    window."""
    hot = offsets < window
    n_hot = int(np.count_nonzero(hot))
    if not n_hot:
        offsets -= window
        return None, (offsets, size, counts)
    hot_size = size if np.ndim(size) == 0 else size[hot]
    if int((offsets[hot] + hot_size).max()) > window:
        return None
    if n_hot == offsets.size:
        return (offsets, size, counts), None
    cold = ~hot
    hot_counts = _call_sums(hot, counts)
    return (
        (offsets[hot], hot_size, hot_counts),
        (offsets[cold] - window, size if np.ndim(size) == 0 else size[cold], counts - hot_counts),
    )


def _compile_window(pools, staging, data, request_bytes, meta, window=None):
    """Segment a window's write calls for the fused FTL walk in one
    pass per call set and pool (DESIGN.md §11, §16).

    ``pools`` is the page-mapped FTL alone, or a hybrid's two pools,
    split by ``window`` (the hot window's size); ``staging`` is the
    hybrid in merged mode, whose pool-B requests also stage through
    pool A's ring, else None.  Returns ``(segments, calls)``: per pool
    its :class:`BurstSegment` list in call order, each exactly the
    scalar ``write_requests`` call it stands for, and per write call
    ``(group, total_bytes, request_bytes, programs, owned, cursor)``
    — its program pages, the ``(pool, segment index)`` of its
    segments, and the staging cursor after it.  None when the metadata
    request size is not positive, a request is out of range, or one
    straddles the window.
    """
    window_calls = _window_calls(data, request_bytes, meta)
    if window_calls is None:
        return None
    sets, total_bytes, call_bytes = window_calls
    num_calls = len(total_bytes)
    page = pools[0].geometry.page_size
    shares = [[None] * num_calls for _ in pools]  # (units, unit count, host pages)
    ring = [0] * num_calls  # staging-ring units of each call
    for ids, offsets, size, counts in sets:
        if window is None:
            split = ((offsets, size, counts),)
        else:
            split = _split_by_window(offsets, size, counts, window)
            if split is None:
                return None
        for i, share in enumerate(split):
            if share is None:
                continue
            share_offsets, share_size, share_counts = share
            if staging is not None and i == 1:
                per_request = np.maximum(1, -(-np.asarray(share_size) // pools[0].unit_bytes))
                if per_request.ndim:
                    units = _call_sums(per_request, share_counts)
                else:
                    units = share_counts * per_request
                for call, n_units in zip(ids.tolist(), units.tolist()):
                    ring[call] = n_units
            out = _pool_units(pools[i], share_offsets, share_size, share_counts, page)
            if out is None:
                return None
            pool_shares = shares[i]
            for call, units, n_units, host in zip(ids.tolist(), *out):
                if n_units:
                    pool_shares[call] = (units, n_units, host)
    cursor = staging._staging_cursor if staging is not None else None
    total = sum(ring)
    if total:
        # The ring is a FIFO: the window's staging writes, call after
        # call, are one run of ring slots from the current cursor, and
        # the cursor after a call is the slot the next write takes.
        ring_units, end = staging.staging_units(total, pools[0].unit_bytes, cursor)
        base = int(ring_units[0]) - cursor
        taken = 0
    unit_pages = [pool.unit_pages for pool in pools]
    segments = tuple([] for _ in pools)
    calls = []
    for call in range(num_calls):
        group = call >> 1
        programs = 0
        owned = []
        for i, pool_segments in enumerate(segments):
            share = shares[i][call]
            if share is not None:
                units, n_units, host = share
                owned.append((i, len(pool_segments)))
                pool_segments.append(BurstSegment(
                    unit_lpns=units, host_pages=host, rmw_pages=n_units * unit_pages[i] - host,
                    group=group, total_bytes=total_bytes[call], request_bytes=call_bytes[call],
                ))
                programs += n_units * unit_pages[i]
            if i == 0 and ring[call]:
                n_units = ring[call]
                lpns = ring_units[taken : taken + n_units]
                taken += n_units
                cursor = end if taken == total else int(ring_units[taken]) - base
                owned.append((0, len(pool_segments)))
                pool_segments.append(BurstSegment(
                    unit_lpns=lpns, host_pages=0, rmw_pages=0, group=group,
                    total_bytes=total_bytes[call], request_bytes=call_bytes[call],
                    migration=True,
                ))
                programs += n_units * unit_pages[0]
        if owned:
            calls.append((group, total_bytes[call], call_bytes[call], programs, owned, cursor))
    return segments, calls
