"""Fused burst-step execution (DESIGN.md §11, §14).

One call plans — and, when provably uneventful, applies — many host
write calls' worth of FTL work as whole-array numpy kernels, instead of
one Python dispatch chain per workload step.

The model is *plan-then-apply*: a read-only planning pass
(:func:`plan_write_burst`) mirrors the scalar write path (span
placement, GC victim selection, dynamic wear-leveling allocation, erase
wear arithmetic) over cheap Python scalars, proving that the burst
stays on the "clean" path — greedy GC only ever selects fully-invalid
victims, no block is retired, no static wear-leveling migration
triggers, no relocation runs.  Only then is the aggregate effect
committed in a handful of vectorized scatters
(:func:`commit_planned_burst`).  Any event the plan cannot reproduce
bit-for-bit makes it *bail with nothing planned* (return ``None``), and
the caller re-executes the same writes through the ordinary scalar path
— which therefore remains the reference semantics, exceptions included.

One bail is recoverable: a cycle-limit crossing.  Wear is monotone
within a window, so every group before the crossing erase is provably
clean — the planner re-walks with the window truncated at the crossing
group (a shorter fused window, bit-identical by the window-size
invariance the equivalence tests pin) and the scalar loop takes the
retiring erase itself.  Devices that already carry bad blocks keep
fusing: retired blocks sit outside every pool the walk touches (GC
candidates, free list, valid data), so the only mirror that must see
them is the static wear-leveling gap check, which — like the scalar
``wear_gap_exceeds`` — measures the spread over good blocks only.

The plan/commit split is what the megaburst plan cache
(:mod:`repro.ftl.plancache`, DESIGN.md §14) builds on: a finalized
:class:`~repro.ftl.plancache.BurstPlan` carries every commit input as
owned arrays, so a cached replay re-runs the *same* commit the fresh
path runs — bit identity between fresh and replayed windows holds by
construction, not by a separate code path.

Bit identity with the scalar path is the contract: every mirrored float
uses the same IEEE-754 operations on the same values, victim order is
proven equal to the scalar argmin (with a conservative bail when two
scores could round together), and the queue/min-hint end state follows
the scalar update rules exactly (tests/test_ftl_equivalence.py and
tests/test_burst_batching.py hold the line).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.ftl import plancache
from repro.ftl.gc import GreedyVictimPolicy
from repro.ftl.plancache import BurstPlan

#: Sentinel "no next occurrence" position; beyond any real stream index.
_NEVER = 1 << 62

#: Relative effective-P/E gap under which two GC tie-break scores could
#: round to the same float; the planner refuses to order such victims.
_SCORE_GUARD = 1e-12


@dataclass
class BurstSegment:
    """One device-level write call inside a burst plan.

    ``unit_lpns`` is the call's mapping-unit stream (duplicates allowed,
    in program order) — exactly what the scalar path would pass to
    ``_write_units``.  ``host_pages``/``rmw_pages`` carry the page
    accounting the scalar ``write_requests`` would record, and
    ``total_bytes``/``request_bytes`` feed the device-level duration
    model.  ``group`` ties the call to its workload step, so the burst
    can be truncated at step granularity.
    """

    unit_lpns: np.ndarray
    host_pages: int
    rmw_pages: int
    group: int
    total_bytes: int
    request_bytes: int


def execute_write_burst(
    ftl,
    segments: Sequence[BurstSegment],
    num_groups: int,
    stop_erases: Optional[int],
) -> Optional[int]:
    """Plan and apply a burst of host writes on a :class:`PageMappedFTL`.

    Returns the number of whole groups executed (truncation happens only
    at group boundaries, where the caller's poll budget expires), or
    ``None`` — with the FTL untouched — when the burst is ineligible or
    the plan hit an event only the scalar path can reproduce.  When a
    plan-cache capture is active, the finalized plan is deposited for
    memoization.
    """
    plan = plan_write_burst(ftl, segments, num_groups, stop_erases)
    if plan is None:
        return None
    commit_planned_burst(ftl, plan)
    cap = plancache.active_capture()
    if cap is not None:
        cap.plan = plan
    return plan.executed_groups


def plan_write_burst(
    ftl,
    segments: Sequence[BurstSegment],
    num_groups: int,
    stop_erases: Optional[int],
) -> Optional[BurstPlan]:
    """Derive a clean-path plan for the burst, mutating nothing.

    Returns None when the burst is ineligible or any planned step would
    leave the provably-uneventful path (see module docstring); the
    caller then replays through the scalar reference path.
    """
    if not segments or num_groups <= 0:
        return None
    if ftl.read_only or ftl._in_reclaim:
        return None
    pkg = ftl.package
    if type(ftl._victim_policy) is not GreedyVictimPolicy:
        return None

    upb = ftl.units_per_block
    n_blocks = ftl._num_blocks
    low = ftl.gc_low_water
    high = ftl.gc_high_water
    cfg = ftl.wl_config

    # Validate the lazy wear caches once, exactly as the scalar reclaim
    # path does on entry; the mirrors below read the same values.
    pe0 = pkg.pe_counts
    pkg.max_pe_count

    parts = [s.unit_lpns for s in segments]
    U = np.concatenate(parts) if len(parts) > 1 else parts[0]
    L = int(U.size)
    if L == 0:
        return None
    if int(U.min()) < 0 or int(U.max()) >= ftl.num_logical_units:
        return None  # out of range: the scalar path raises properly
    if ftl.num_logical_units >= 1 << 32:
        return None  # packed sort codes need LPN < 2**32

    # ------------------------------------------------------------------
    # Stream analysis: next-occurrence links and pre-burst mappings
    # ------------------------------------------------------------------
    nxt, first_pos = _next_links(U, ftl.num_logical_units)
    probe_lpns = U[first_pos]
    old_all = ftl._l2p[probe_lpns]
    hit = old_all >= 0
    old_ppu = old_all[hit]
    old_pos = first_pos[hit]
    old_blk = old_ppu // upb

    queue = ftl._gc_queue
    cof0 = queue._count_of
    tracked0 = cof0 >= 0
    vc0 = ftl._valid_count
    active0 = ftl._active_block
    a0 = ftl._active_offset
    b0_pre = active0 is not None

    # Exhaust events: a pre-existing block whose entire current valid
    # set is overwritten in-burst becomes a zero-valid GC candidate at
    # (last overwrite position + 1).  Positions past the eventual cut
    # simply never fire.
    exhaust_pos = {}
    if old_blk.size:
        bo = np.argsort(old_blk.astype(np.uint32), kind="stable")
        ob = old_blk[bo]
        op = old_pos[bo]
        bounds = np.nonzero(ob[:-1] != ob[1:])[0] + 1
        starts_u = np.concatenate([np.zeros(1, dtype=np.int64), bounds])
        ends_u = np.append(bounds, ob.size)
        blocks_u = ob[starts_u]
        counts_u = ends_u - starts_u
        ok = tracked0[blocks_u]
        if b0_pre:
            ok = ok | (blocks_u == active0)
        if not ok.all():
            return None  # valid data outside candidates + active: bail
        full = counts_u == vc0[blocks_u]
        # op is increasing within each block's run (old_pos is sorted and
        # the block sort is stable), so the run's last entry is the max.
        for b, last in zip(blocks_u[full].tolist(), op[ends_u[full] - 1].tolist()):
            exhaust_pos[b] = int(last) + 1

    # ------------------------------------------------------------------
    # Extent geometry: block-fill boundaries are fixed by the initial
    # active offset alone, independent of which block serves each extent.
    # ------------------------------------------------------------------
    r0 = upb - a0 if b0_pre else upb
    if r0 >= L:
        ext_starts = np.zeros(1, dtype=np.int64)
    else:
        ext_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.arange(r0, L, upb, dtype=np.int64)]
        )
    ext_ends = np.append(ext_starts[1:], L)
    # Per-extent max next-occurrence: the extent's block goes zero-valid
    # at ext_t + 1 (if that ever happens inside the burst).
    ext_t = np.maximum.reduceat(nxt, ext_starts)

    if b0_pre and vc0[active0] > 0:
        # The initial active block only empties once its pre-existing
        # valid units are exhausted too; fold that into its close event.
        b0_extra = exhaust_pos.pop(active0, _NEVER)
    else:
        b0_extra = 0
        if b0_pre:
            exhaust_pos.pop(active0, None)

    seg_lens = [int(s.unit_lpns.size) for s in segments]

    # ------------------------------------------------------------------
    # The walk: mirror _write_units/_place_span over stream positions,
    # group by group, truncating when the caller's erase budget expires.
    # Produces the burst's end state plus the per-group cumulative erase
    # prefix the plan cache needs to validate budget-matched replays.
    # ------------------------------------------------------------------
    def _do_walk(ng):
        return _walk(
            ftl, pkg, segments, seg_lens, ng, stop_erases, ext_t,
            exhaust_pos, cof0, pe0, active0, a0, b0_pre, b0_extra,
            low, high, cfg,
        )

    walked = _do_walk(num_groups)
    if isinstance(walked, int):
        # Retirement crossing inside 0-based group ``walked``: every
        # group before it is provably clean (wear is monotone within a
        # window, and the walk replays deterministically), so re-walk
        # with the window truncated at the crossing group and let the
        # scalar step loop take the retiring erase itself.  A crossing
        # in group 0 leaves nothing to fuse.
        if walked < 1:
            return None
        num_groups = walked
        walked = _do_walk(num_groups)
        if not isinstance(walked, tuple):
            return None
    if walked is None:
        return None
    (
        vic_u, vic_perm, vic_reco, vic_eff, n_erased,
        a_blocks, ks, cb, free_final, active, aoff, wl_ctr,
        m, C, erase_prefix, seg_cut,
    ) = walked

    # ------------------------------------------------------------------
    # Finalize: every commit input as owned arrays (never views of live
    # FTL state), so the plan can be cached and replayed.
    # ------------------------------------------------------------------
    exec_segs = segments[:seg_cut]
    host_pages = 0
    rmw_pages = 0
    for s in exec_segs:
        host_pages += s.host_pages
        rmw_pages += s.rmw_pages

    old_exec = old_ppu[old_pos < C] if old_ppu.size else old_ppu

    hb = None
    if old_exec.size:
        hb_arr = np.unique(old_exec // upb)
        hb_arr = hb_arr[tracked0[hb_arr]]
        if hb_arr.size:
            hb = hb_arr

    # Surviving in-burst placements, flattened per alive extent: the
    # placed units' physical slots, source stream positions, and
    # survivorship (the position's next occurrence is past the cut).
    starts = ext_starts[ks]
    ends = np.minimum(ext_ends[ks], C)
    lens = ends - starts
    slot0 = a_blocks * upb
    if b0_pre:
        slot0 = slot0 + np.where(ks == 0, a0, 0)
    red = lens.cumsum() - lens
    tot = int(lens.sum())
    intra = np.arange(tot, dtype=np.int64) - np.repeat(red, lens)
    ppus = np.repeat(slot0, lens) + intra
    sidx = np.repeat(starts, lens) + intra
    su = U[sidx]
    sv = nxt[sidx] >= C
    if n_blocks * upb < 1 << 32 and ftl.num_logical_units < 1 << 32:
        # Plans are cached whole; uint32 slot/LPN arrays halve the
        # resident bytes of a megaburst entry (scatter semantics are
        # unchanged — numpy fancy indexing accepts unsigned indices).
        ppus = ppus.astype(np.uint32, copy=False)
        su = su.astype(np.uint32, copy=False)

    return BurstPlan(
        executed_groups=m,
        num_groups=num_groups,
        units_executed=C,
        n_erased=n_erased,
        host_pages=host_pages,
        rmw_pages=rmw_pages,
        wl_ctr_final=wl_ctr,
        old_exec=old_exec,
        vic_u=vic_u,
        vic_perm=vic_perm,
        vic_reco=vic_reco,
        vic_eff=vic_eff,
        a_blocks=a_blocks,
        red=red,
        ppus=ppus,
        su=su,
        sv=sv,
        cb=cb,
        hb=hb,
        free_final=free_final,
        active_final=active,
        aoff_final=aoff,
        erase_prefix=erase_prefix,
        probe_lpns=probe_lpns,
        probe_old=old_all,
    )


def _next_links(U: np.ndarray, num_logical_units: int):
    """Next-occurrence links and first occurrences of a unit stream.

    Returns ``(nxt, first_pos)``: ``nxt[i]`` is the stream position of
    the next write to ``U[i]``'s LPN, or ``_NEVER`` when none follows
    (the unit's *data longevity*, in stream positions), and
    ``first_pos`` lists each LPN's first position in ascending order.

    Positions are grouped by LPN with one value sort of packed
    ``(LPN << pos_bits) | position`` codes — within a group positions
    ascend, so each one's successor is its next occurrence.  Codes are
    32-bit words while LPNs fit 16 bits (numpy's vectorized sort is
    fastest there) and 64-bit words on wider devices.  A 32-bit code
    holds ``2**pos_bits`` positions, so a longer stream is sorted chunk
    by chunk and each chunk's first write of an LPN links back to that
    LPN's last write in the chunks before it.
    """
    L = int(U.size)
    lpn_bits = max(1, (num_logical_units - 1).bit_length())
    word = np.uint32 if lpn_bits <= 16 else np.uint64
    pos_bits = 8 * np.dtype(word).itemsize - lpn_bits
    chunk = 1 << pos_bits
    shift = word(pos_bits)
    nxt = np.empty(L, dtype=np.int64)
    isfirst = np.zeros(L, dtype=bool)
    last = np.full(num_logical_units, -1, dtype=np.int64) if L > chunk else None
    for c0 in range(0, L, chunk):
        part = U[c0 : c0 + chunk]
        n = part.size
        code = part.astype(word)
        code <<= shift
        code |= np.arange(n, dtype=word)
        code.sort()
        pos = np.bitwise_and(code, word(chunk - 1), dtype=np.int64)
        if c0:
            pos += c0
        lpn = code
        lpn >>= shift
        # Each position's successor in sorted order is its next
        # occurrence, except at the last write of each LPN group.
        brk = np.flatnonzero(lpn[1:] != lpn[:-1])
        nxt[pos[:-1]] = pos[1:]
        nxt[pos[brk]] = _NEVER
        nxt[pos[-1]] = _NEVER
        heads = np.concatenate(([0], brk + 1))
        if last is None:
            isfirst[pos[heads]] = True
            continue
        head_lpn = lpn[heads].astype(np.int64)
        prev = last[head_lpn]
        seen = prev >= 0
        nxt[prev[seen]] = pos[heads[seen]]
        isfirst[pos[heads[~seen]]] = True
        last[head_lpn] = pos[np.append(brk, n - 1)]
    return nxt, np.flatnonzero(isfirst)


def _walk(
    ftl, pkg, segments, seg_lens, num_groups, stop_erases, ext_t,
    exhaust_pos, cof0, pe0, active0, a0, b0_pre, b0_extra,
    low, high, cfg,
):
    """The planning walk: Python-scalar mirrors of every structure the
    plan mutates.  Float arithmetic on list elements is bit-identical
    to the numpy float64 scalar ops of the real path.  The GC mirror
    (plan_reclaim: clean-path victim selection + erase wear arithmetic)
    and the free-block pull (pop_free: FIFO, or the least-worn scan
    under dynamic WL, strict-< first-of-ties like pick_free_block) are
    inlined — this loop runs once per block fill and is the simulator's
    true hot path.  Returns None on any event only the scalar path can
    reproduce — except a cycle-limit crossing, which instead returns
    the 0-based group containing the crossing erase (an int) so the
    planner can retry with the window truncated to the clean prefix.
    """
    upb = ftl.units_per_block
    n_blocks = ftl._num_blocks
    perm_l = pkg._pe_permanent.tolist()
    reco_l = pkg._pe_recoverable.tolist()
    eff_l = pe0.tolist()
    limit_l = pkg._cycle_limit.tolist()
    frac = pkg.healing.recoverable_fraction
    one_minus = 1.0 - frac
    num_bad = pkg._num_bad
    bad_l = pkg.bad_blocks_view.tolist() if num_bad else None
    free = list(ftl._free_blocks)
    dynamic = cfg.dynamic
    static_enabled = cfg.static_enabled
    wl_interval = cfg.static_check_interval
    wl_threshold = cfg.static_delta_threshold
    wl_ctr = ftl._erases_since_wl_check

    # Pending zero-valid events as ``(event << bits) | block`` ints: the
    # int order is the (event, block) order.
    bits = n_blocks.bit_length()
    mask = (1 << bits) - 1
    pending: List[int] = [(ev << bits) | b for b, ev in exhaust_pos.items()]
    heapq.heapify(pending)
    # Zero-valid GC candidates bucketed by effective wear: a heap of
    # block ids per distinct value (ascending lists are heaps already)
    # plus a min-heap of the distinct values.  Pops run in (wear, block)
    # order, the scalar argmin order, and the nearest larger wear — the
    # one the collision guard needs — is an O(1) lookup in ``wears``.
    buckets: dict = {}
    for b in np.flatnonzero(cof0 == 0).tolist():
        buckets.setdefault(eff_l[b], []).append(b)
    wears = list(buckets)
    heapq.heapify(wears)

    victims: List[int] = []
    n_erased = 0
    alive = [-1] * n_blocks  # extent ordinal of each block's in-burst extent
    closed = bytearray(n_blocks)  # closed in-burst (and not erased since)
    erase_prefix: List[int] = []

    heappush = heapq.heappush
    heappop = heapq.heappop
    free_append = free.append
    free_remove = free.remove
    victims_append = victims.append
    prefix_append = erase_prefix.append
    active = active0
    aoff = a0
    if b0_pre:
        alive[active0] = 0
        next_ext = 1
    else:
        next_ext = 0
    ext_tl = ext_t.tolist()
    n_segs = len(segments)
    pos = 0
    seg_i = 0
    m = 0
    for group in range(num_groups):
        while seg_i < n_segs and segments[seg_i].group == group:
            s_end = pos + seg_lens[seg_i]
            idx = pos
            while idx < s_end:
                if active is None:
                    nf = len(free)
                    if nf <= low:
                        # plan_reclaim(idx) — see module docstring for
                        # the bail conditions (every `return None` below
                        # is a dirty event the scalar path must replay).
                        due = (idx + 1) << bits
                        while pending and pending[0] < due:
                            b = heappop(pending) & mask
                            w = eff_l[b]
                            bucket = buckets.get(w)
                            if bucket is None:
                                buckets[w] = [b]
                                heappush(wears, w)
                            else:
                                heappush(bucket, b)
                        while nf < high:
                            if not wears:
                                # Scalar would pick a valid victim
                                # (relocation) or stall.
                                return None
                            w = wears[0]
                            bucket = buckets[w]
                            v = heappop(bucket)
                            # Victim order equals the scalar argmin iff
                            # no remaining candidate's score can round
                            # into v's.  Equal wear gives equal scores
                            # (id order == argmin index order); the
                            # nearest larger wear within _SCORE_GUARD
                            # could collide after the float divide — bail.
                            if bucket:
                                nw = len(wears)
                                if nw > 2:
                                    gap = wears[1] if wears[1] < wears[2] else wears[2]
                                else:
                                    gap = wears[1] if nw == 2 else None
                            else:
                                del buckets[w]
                                heappop(wears)
                                gap = wears[0] if wears else None
                            if gap is not None and gap - w <= (
                                gap if gap > 1.0 else 1.0
                            ) * _SCORE_GUARD:
                                return None
                            p_ = perm_l[v] + one_minus
                            r_ = reco_l[v] + frac
                            e_ = p_ + r_
                            if e_ >= limit_l[v]:
                                return group  # crossing: truncate here
                            perm_l[v] = p_
                            reco_l[v] = r_
                            eff_l[v] = e_
                            free_append(v)
                            nf += 1
                            alive[v] = -1
                            closed[v] = 0
                            victims_append(v)
                            n_erased += 1
                            wl_ctr += 1
                        if static_enabled and wl_ctr >= wl_interval:
                            wl_ctr = 0
                            if num_bad:
                                # Mirror wear_gap_exceeds: the gap is
                                # taken over good (non-bad) blocks only.
                                good_eff = [
                                    e2 for b2, e2 in enumerate(eff_l)
                                    if not bad_l[b2]
                                ]
                                gap_big = bool(good_eff) and (
                                    max(good_eff) - min(good_eff) > wl_threshold
                                )
                            else:
                                gap_big = max(eff_l) - min(eff_l) > wl_threshold
                            if gap_big:
                                return None  # static WL would migrate
                    # pop_free
                    if nf == 0:
                        return None  # OutOfSpaceError territory: bail
                    if not dynamic or nf == 1:
                        active = free.pop(0)
                    else:
                        active = free[0]
                        best_pe = eff_l[active]
                        for blk in free:
                            v_ = eff_l[blk]
                            if v_ < best_pe:
                                active = blk
                                best_pe = v_
                        free_remove(active)
                    aoff = 0
                    alive[active] = next_ext
                    next_ext += 1
                safe = len(free) - low
                if safe < 0:
                    safe = 0
                end = idx + (upb - aoff) + safe * upb
                if end > s_end:
                    end = s_end
                p = idx
                while True:
                    room = upb - aoff
                    take = end - p if end - p < room else room
                    aoff += take
                    p += take
                    if aoff == upb:
                        k = alive[active]
                        ev = ext_tl[k] + 1
                        if p > ev:
                            ev = p
                        if k == 0 and b0_pre and b0_extra > ev:
                            ev = b0_extra
                        if ev < _NEVER:
                            heappush(pending, (ev << bits) | active)
                        closed[active] = 1
                        active = None
                        aoff = 0
                        if p < end:
                            # pop_free (mid-span: no reclaim, the span
                            # sizing already proved the free blocks safe)
                            nf = len(free)
                            if nf == 0:
                                return None
                            if not dynamic or nf == 1:
                                active = free.pop(0)
                            else:
                                active = free[0]
                                best_pe = eff_l[active]
                                for blk in free:
                                    v_ = eff_l[blk]
                                    if v_ < best_pe:
                                        active = blk
                                        best_pe = v_
                                free_remove(active)
                            alive[active] = next_ext
                            next_ext += 1
                            continue
                    break
                idx = end
            pos = s_end
            seg_i += 1
        m = group + 1
        prefix_append(n_erased)
        if stop_erases is not None and n_erased >= stop_erases:
            break
    C = pos

    if victims:
        vic_u = np.unique(np.array(victims, dtype=np.int64))
        vl = vic_u.tolist()
        vic_perm = np.array([perm_l[v] for v in vl])
        vic_reco = np.array([reco_l[v] for v in vl])
        vic_eff = np.array([eff_l[v] for v in vl])
    else:
        vic_u = np.empty(0, dtype=np.int64)
        vic_perm = np.empty(0)
        vic_reco = np.empty(0)
        vic_eff = np.empty(0)
    ext_of = np.array(alive, dtype=np.int64)
    a_blocks = np.flatnonzero(ext_of >= 0)
    ks = ext_of[a_blocks]
    cb = np.flatnonzero(np.frombuffer(closed, dtype=np.uint8))
    return (
        vic_u, vic_perm, vic_reco, vic_eff, n_erased,
        a_blocks, ks, cb if cb.size else None, tuple(free), active, aoff,
        wl_ctr, m, C, erase_prefix, seg_i,
    )


def commit_planned_burst(ftl, plan: BurstPlan) -> None:
    """Commit a finalized plan's end state in vectorized passes.

    Shared verbatim between the fresh path (plan just derived) and the
    plan cache's replay path (plan validated by exact probe), which is
    what makes a replayed window bit-identical to a fresh one: the same
    scatters run on the same committed values, and anything derived from
    live state (P/E cache validity, queue hint infimum rules, float
    accumulation) is re-derived here, not replayed from a recording.
    """
    pkg = ftl.package
    upb = ftl.units_per_block
    n_blocks = ftl._num_blocks
    queue = ftl._gc_queue
    hint0 = queue._min_hint
    n_erased = plan.n_erased

    programs = plan.units_executed * ftl.unit_pages
    stats = ftl.stats
    stats.host_pages_requested += plan.host_pages
    stats.host_pages_programmed += plan.host_pages
    stats.rmw_pages_programmed += plan.rmw_pages
    stats.pages_read += plan.rmw_pages
    stats.gc_runs += n_erased
    stats.blocks_erased += n_erased
    counters = pkg.counters
    counters.page_programs += programs
    counters.page_reads += plan.rmw_pages
    ftl._erases_since_wl_check = plan.wl_ctr_final

    # Instruments count from the plan (DESIGN.md §9): the same totals
    # the scalar write and reclaim paths bump call by call.  Every
    # clean-path victim is fully invalid, and every clean reclaim stops
    # exactly at the high watermark, so that is the free-block gauge.
    obs = ftl._obs
    if obs is not None:
        obs.host_pages.inc(plan.host_pages)
        obs.rmw_pages.inc(plan.rmw_pages)
        obs.pages_read.inc(plan.rmw_pages)
        obs.flash_pages.inc(programs)
        if n_erased:
            obs.gc_runs.inc(n_erased)
            obs.blocks_erased.inc(n_erased)
            obs.gc_victim_valid.observe_repeat(0, n_erased)
            obs.free_blocks.set(ftl.gc_high_water)
    flash_obs = pkg._obs
    if flash_obs is not None:
        flash_obs.page_programs.inc(programs)
        flash_obs.page_reads.inc(plan.rmw_pages)
        flash_obs.block_erases.inc(n_erased)

    valid = ftl._valid
    vcount = ftl._valid_count

    # Pre-burst mappings overwritten by executed writes go invalid.
    old_exec = plan.old_exec
    if old_exec.size:
        valid[old_exec] = False
        delta = np.bincount(old_exec // upb, minlength=n_blocks)
        np.subtract(vcount, delta, out=vcount)

    # Erased blocks: final wear plus a full per-block state reset.
    vic_u = plan.vic_u
    if vic_u.size:
        pkg.apply_erase_burst(
            vic_u, plan.vic_perm, plan.vic_reco, plan.vic_eff, n_erased
        )
        ftl._p2l.reshape(n_blocks, upb)[vic_u] = -1
        valid.reshape(n_blocks, upb)[vic_u] = False
        vcount[vic_u] = 0
        ftl._closed[vic_u] = False

    # Scatter the surviving in-burst placements: per alive extent, the
    # placed units' reverse map, validity, per-block counts, and the
    # forward map of each LPN's last executed write.
    ppus = plan.ppus
    su = plan.su
    sv = plan.sv
    ftl._p2l[ppus] = su
    valid[ppus] = sv
    vcount[plan.a_blocks] += np.add.reduceat(sv.astype(np.int64), plan.red)
    ftl._l2p[su[sv]] = ppus[sv]
    cb = plan.cb
    if cb is not None:
        ftl._closed[cb] = True

    ftl._free_blocks[:] = plan.free_final
    ftl._active_block = plan.active_final
    ftl._active_offset = plan.aoff_final

    # Victim-queue end state.  Tracked counts always equal the valid
    # counts (add/apply_delta maintain that), so membership + counts
    # rebuild from the committed arrays.  The min hint follows the
    # scalar rules: any selection settles it at the zero bucket; with no
    # erase it is only ever lowered, by close-time counts and by updated
    # counts of delta-hit tracked blocks — whose infimum over the burst
    # is the final count of each contributing block.
    closed_now = ftl._closed
    np.copyto(queue._count_of, np.where(closed_now, vcount, -1))
    queue._tracked = int(np.count_nonzero(closed_now))
    if n_erased:
        queue._min_hint = 0
    else:
        hint = hint0
        hb = plan.hb
        if hb is not None:
            lowest = int(vcount[hb].min())
            if lowest < hint:
                hint = lowest
        if cb is not None:
            lowest = int(vcount[cb].min())
            if lowest < hint:
                hint = lowest
        queue._min_hint = hint
