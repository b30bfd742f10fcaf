"""Fused burst-step execution (DESIGN.md §11, §14, §16).

Many host write calls' worth of one page-mapped pool's FTL work are
planned (:func:`plan_write_burst`) and, when the plan reproduces them
exactly, committed (:func:`commit_planned_burst`) as whole-array numpy
kernels, instead of one Python dispatch chain per workload step.  A
device's fused burst plans and commits each of its pools through these
two functions, as ``PageMappedFTL.write_requests_batch`` does for a
lone FTL.

The model is *plan-then-apply*: a read-only planning walk
(:func:`plan_write_burst`) mirrors the scalar write path (span
placement, greedy GC victim selection and relocation, static and
dynamic wear leveling, erase wear arithmetic) over cheap Python scalars.
The walk links every unit of the window's stream to its next overwrite
(its *data longevity*), which is when the unit dies.  A block goes
zero-valid one position after its last unit dies, so fully-invalid
victims — the fast case, and in most windows the only one — come off a
release schedule, sorted once per window, without looking inside any
block.  Only when a reclaim finds
no zero-valid candidate, or static wear leveling migrates, does the
walk materialize per-slot contents (:class:`_Contents`): live counts
pick the greedy victim and its live units move, in slot order, into the
active block.  Only then is the aggregate effect committed in a handful
of vectorized scatters (:func:`commit_planned_burst`).  Any event the
plan cannot reproduce bit-for-bit (a score collision it cannot order,
no GC candidate left, an empty free list, a run of retiring victims
the reclaim's stall guard may end short) makes it *bail with nothing
planned* (return ``None``), and the caller re-executes the same writes
through the ordinary scalar path — which therefore remains the
reference semantics, exceptions included.

Retirement is modelled, not bailed on: an erase that takes a block to
its cycle limit retires it in the walk's erase mirror, as
``FlashPackage.erase_block`` does, and the block leaves every pool the
walk touches (GC candidates, free list, valid data); the plan carries
the retired ids to the commit.  The only mirror that must see a bad
block afterwards is the static wear-leveling gap check, which — like
the scalar ``wear_gap_exceeds`` — measures the spread over good blocks
only.  One event truncates instead: end of life, the reclaim after
which too few good blocks remain and the scalar path goes read-only.
Wear is monotone within a window and the walk is deterministic, so
every group before it replays identically — the planner re-walks with
the window truncated at that group (a shorter fused window,
bit-identical by the window-size invariance the equivalence tests pin)
and the scalar step raises ``DeviceWornOut`` itself.

A finalized :class:`BurstPlan` carries every commit input as owned
arrays, never views of live FTL state.

Bit identity with the scalar path is the contract: every mirrored float
uses the same IEEE-754 operations on the same values, zero-valid victim
order is proven equal to the scalar argmin (with a conservative bail
when two scores could round together), and relocating victims are
scored with the scalar's own float expression.  GC candidates are the
FTL's closed blocks and their counts its per-block valid counts, so the
commit's scatters leave no derived index to rebuild.
tests/test_execution_modes.py holds the line over whole runs in every
execution mode (relocating, retiring and merged-hybrid windows
included); tests/test_walk_properties.py and
tests/test_window_properties.py search the walk and whole windows
against per-call writes; tests/test_ftl_equivalence.py pins golden
digests; tests/test_burst_batching.py and tests/test_hybrid_burst.py
keep fixed run pairs (the relocating ones with
tests/test_megaburst_fallback.py and tests/test_metrics_fused.py) and
force the conditions a drawn run does not reach.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ftl.gc import GreedyVictimPolicy

#: Sentinel "no next occurrence" position; beyond any real stream index.
_NEVER = 1 << 62

#: Live count the walk gives blocks that are not GC candidates.
_UNTRACKED = 1 << 62

#: A link-pass chunk holds ``2**_LINK_CHUNK_BITS`` stream positions, so
#: the code and position buffers every chunk of a window reuses (128 and
#: 256 KiB at 32-bit codes) stay in L2 and under glibc's raised mmap
#: threshold.
_LINK_CHUNK_BITS = 15

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
    can be truncated at step granularity.  ``migration`` marks a hybrid
    staging-ring write (``write_requests(..., as_migration=True)``): its
    programs count as migration pages, not host pages.
    """

    unit_lpns: np.ndarray
    host_pages: int
    rmw_pages: int
    group: int
    total_bytes: int
    request_bytes: int
    migration: bool = False


@dataclass
class BurstPlan:
    """Finalized products of one fused-burst plan.

    Everything :func:`commit_planned_burst` needs to apply the burst.
    All arrays are owned by the plan (never views of live FTL state).

    ``n_erased`` counts every erase, ``wl_runs`` of them static
    wear-leveling migrations, and ``retired`` lists the blocks whose
    erase crossed their cycle limit; ``victim_valid`` lists the
    live-unit count of each GC victim that relocated (the rest held
    none), and ``seg_copies`` the GC and WL copy pages each executed
    segment caused — None for a plan that copied nothing.
    ``end_of_life`` marks a window cut at end of life: the group after
    its last ends life.
    """

    executed_groups: int
    num_groups: int
    units_executed: int
    n_erased: int
    host_pages: int
    rmw_pages: int
    migration_pages: int
    wl_ctr_final: int
    wl_runs: int
    gc_pages: int
    wl_pages: int
    victim_valid: Tuple[int, ...]
    seg_copies: Optional[List[int]]
    old_exec: np.ndarray
    vic_u: np.ndarray
    vic_perm: np.ndarray
    vic_reco: np.ndarray
    vic_eff: np.ndarray
    retired: np.ndarray
    a_blocks: np.ndarray
    red: np.ndarray
    ppus: np.ndarray
    su: np.ndarray
    sv: np.ndarray
    cb: Optional[np.ndarray]
    free_final: Tuple[int, ...]
    active_final: Optional[int]
    aoff_final: int
    end_of_life: bool


def plan_write_burst(
    ftl,
    segments: Sequence[BurstSegment],
    num_groups: int,
    stop_erases: Optional[int],
) -> Optional[BurstPlan]:
    """Derive a plan for the burst, mutating nothing.

    Returns None when the burst is ineligible or any planned step would
    leave the path the walk mirrors (see module docstring); the caller
    then replays through the scalar reference path.
    """
    if not segments or num_groups <= 0:
        return None
    if ftl.read_only or ftl._in_reclaim or ftl._eol_ahead:
        return None
    pkg = ftl.package
    if type(ftl.victim_policy) is not GreedyVictimPolicy:
        return None

    upb = ftl.units_per_block
    low = ftl.gc_low_water
    high = ftl.gc_high_water
    cfg = ftl.wl_config

    # Validate the lazy wear cache once; the mirrors below read the
    # same values the scalar path would.
    pe0 = pkg.pe_counts

    # The window's unit stream, read in place from its segments.
    parts = [s.unit_lpns for s in segments]
    L = sum(int(p.size) for p in parts)
    if L == 0:
        return None
    if ftl.num_logical_units >= 1 << 32 or L >= 1 << 31:
        return None  # packed sort codes need LPN < 2**32, position < 2**31

    # ------------------------------------------------------------------
    # Stream analysis: next-occurrence links and pre-burst mappings
    # ------------------------------------------------------------------
    links = _next_links(parts, ftl.num_logical_units)
    if links is None:
        return None  # out of range: the scalar path raises properly
    nxt, first_pos, probe_lpns = links
    old_all = ftl._l2p[probe_lpns]
    hit = old_all >= 0
    old_ppu = old_all[hit]
    old_pos = first_pos[hit]
    old_blk = old_ppu // upb

    closed0 = ftl._closed  # the GC candidates (read only while planning)
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
        ok = closed0[blocks_u]
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
    # Extent geometry: until a relocation shifts the log, block-fill
    # boundaries are fixed by the initial active offset alone,
    # independent of which block serves each extent.
    # ------------------------------------------------------------------
    r0 = upb - a0 if b0_pre else upb
    if r0 >= L:
        ext_starts = np.zeros(1, dtype=np.int64)
    else:
        ext_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.arange(r0, L, upb, dtype=np.int64)]
        )
    ext_ends = np.append(ext_starts[1:], L)

    # The release schedule: extent k's block goes zero-valid one position
    # after the latest next overwrite of its units, and not before it is
    # full.  The initial active block also waits for its pre-existing
    # valid units to be exhausted.  Releases at or past L never fire.
    rel = np.maximum.reduceat(nxt, ext_starts)
    rel += 1
    np.maximum(rel, ext_ends, out=rel)
    if b0_pre:
        if vc0[active0] > 0:
            b0_extra = exhaust_pos.pop(active0, _NEVER)
            if b0_extra > rel[0]:
                rel[0] = b0_extra
        else:
            exhaust_pos.pop(active0, None)
    order = np.argsort(rel, kind="stable")
    order = order[rel[order] < L]
    schedule = (rel[order], order)

    ends = _stream_ends(segments, num_groups)
    stream = (parts, nxt, old_ppu, old_pos, ext_starts, ext_ends)

    # ------------------------------------------------------------------
    # The walk: mirror _write_units/_place_span/_reclaim_space over
    # stream positions, block fill by block fill, truncating when the
    # caller's erase budget expires.  Produces the burst's end state.
    # ------------------------------------------------------------------
    def _do_walk(ng):
        return _walk(
            ftl, pkg, ng, stop_erases, stream, schedule, ends,
            exhaust_pos, pe0, active0, a0, b0_pre, low, high, cfg,
        )

    walked = _do_walk(num_groups)
    end_of_life = isinstance(walked, int)
    if end_of_life:
        # End of life inside 0-based group ``walked``: every group
        # before it replays deterministically, so re-walk with the
        # window truncated there and let the scalar step raise
        # DeviceWornOut itself.  End of life in group 0 leaves nothing
        # to fuse.
        if walked < 1:
            return None
        num_groups = walked
        walked = _do_walk(num_groups)
        if not isinstance(walked, tuple):
            return None
    if walked is None:
        return None
    (
        vic_u, vic_perm, vic_reco, vic_eff, n_erased, retired,
        alive, closed, free_final, active, aoff, wl_ctr,
        m, C, seg_cut, reloc,
    ) = walked

    # ------------------------------------------------------------------
    # Finalize: every commit input as owned arrays (never views of live
    # FTL state).
    # ------------------------------------------------------------------
    exec_segs = segments[:seg_cut]
    unit_pages = ftl.unit_pages
    host_pages = 0
    rmw_pages = 0
    migration_pages = 0
    for s in exec_segs:
        host_pages += s.host_pages
        rmw_pages += s.rmw_pages
        if s.migration:
            migration_pages += int(s.unit_lpns.size) * unit_pages

    old_exec = old_ppu[old_pos < C] if old_ppu.size else old_ppu
    # Blocks closed in-burst.  Once contents were materialized the
    # closed flags mark every candidate: drop the pre-burst ones never
    # erased.
    closed_now = np.frombuffer(closed, dtype=np.bool_)
    if reloc is not None:
        closed_now = closed_now & ~closed0
        closed_now[vic_u] = np.frombuffer(closed, dtype=np.bool_)[vic_u]
    cb = np.flatnonzero(closed_now)
    cb = cb if cb.size else None

    # Surviving in-burst placements, flattened per block written since
    # its last erase: the placed units' physical slots, LPNs, and
    # survivorship (the unit's next overwrite is past the cut).
    ext_of = np.array(alive, dtype=np.int64)
    a_blocks = np.flatnonzero(ext_of >= 0)
    ks = ext_of[a_blocks]
    first = np.zeros(a_blocks.size, dtype=np.int64)
    if b0_pre:
        first[ks == 0] = a0
    if reloc is None:
        # The log never shifted: extent k of the fixed geometry is the
        # block's whole in-burst content.
        starts = ext_starts[ks]
        lens = np.minimum(ext_ends[ks], C) - starts
    else:
        reloc[0].sync()
        starts = first
        lens = np.full(a_blocks.size, upb, dtype=np.int64) - first
        if active is not None:
            lens[a_blocks == active] = aoff - first[a_blocks == active]
    # Drop blocks that took no unit in-burst (the pre-burst active block
    # when the executed groups are empty).
    keep = lens > 0
    a_blocks, first, starts, lens = a_blocks[keep], first[keep], starts[keep], lens[keep]
    if reloc is None:
        ppus, sidx, red = _runs(a_blocks * upb + first, starts, lens)
        su = _stream_runs(parts, ends[1], starts, lens)
        sv = nxt[sidx] >= C
    else:
        ppus, _, red = _runs(a_blocks * upb + first, first, lens)
        su = reloc[0].lpns[ppus]
        sv = reloc[0].deaths[ppus] >= C

    if reloc is None:
        wl_runs = gc_pages = wl_pages = 0
        victim_valid = ()
        seg_copies = None
    else:
        _, wl_runs, gc_units, wl_units, victim_valid, copies = reloc
        gc_pages = gc_units * unit_pages
        wl_pages = wl_units * unit_pages
        seg_copies = [c * unit_pages for c in copies[:seg_cut]]

    return BurstPlan(
        executed_groups=m,
        num_groups=num_groups,
        units_executed=C,
        n_erased=n_erased,
        host_pages=host_pages,
        rmw_pages=rmw_pages,
        migration_pages=migration_pages,
        wl_ctr_final=wl_ctr,
        wl_runs=wl_runs,
        gc_pages=gc_pages,
        wl_pages=wl_pages,
        victim_valid=tuple(victim_valid),
        seg_copies=seg_copies,
        old_exec=old_exec,
        vic_u=vic_u,
        vic_perm=vic_perm,
        vic_reco=vic_reco,
        vic_eff=vic_eff,
        retired=np.array(retired, dtype=np.int64),
        a_blocks=a_blocks,
        red=red,
        ppus=ppus,
        su=su,
        sv=sv,
        cb=cb,
        free_final=free_final,
        active_final=active,
        aoff_final=aoff,
        end_of_life=end_of_life,
    )


def _stream_ends(segments: Sequence[BurstSegment], num_groups: int):
    """Where the walk's boundaries fall in the unit stream.

    Groups run in order from 0 and each takes the segments tagged with
    it, as a run of per-step calls would; the first segment out of that
    order ends the walkable stream.  Returns ``(group_ends, seg_ends,
    segs_through)``: the stream position where group ``g``'s units end,
    where segment ``i``'s units end, and how many segments groups
    ``0..g`` hold.
    """
    group_ends: List[int] = []
    seg_ends: List[int] = []
    segs_through: List[int] = []
    n_segs = len(segments)
    pos = 0
    i = 0
    for g in range(num_groups):
        while i < n_segs and segments[i].group == g:
            pos += int(segments[i].unit_lpns.size)
            seg_ends.append(pos)
            i += 1
        group_ends.append(pos)
        segs_through.append(i)
    return group_ends, seg_ends, segs_through


def _stream_runs(parts, part_ends: List[int], starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The units at stream positions ``starts[i]`` to ``starts[i] +
    lens[i]`` for every run ``i``, concatenated, read from the stream's
    consecutive ``parts``, which end at ``part_ends``."""
    out = np.empty(int(lens.sum()), dtype=np.int64)
    o = 0
    for p0, n in zip(starts.tolist(), lens.tolist()):
        i = bisect_right(part_ends, p0)
        while n > 0:
            part = parts[i]
            off = p0 - (part_ends[i] - part.size)
            take = part.size - off if part.size - off < n else n
            out[o : o + take] = part[off : off + take]
            o += take
            p0 += take
            n -= take
            i += 1
    return out


def _runs(slot0: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """Flatten runs: run ``i`` covers ``lens[i]`` consecutive slots from
    ``slot0[i]`` and as many stream positions from ``starts[i]``.
    Returns ``(slots, positions, run offsets)``."""
    red = lens.cumsum() - lens
    intra = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(red, lens)
    return np.repeat(slot0, lens) + intra, np.repeat(starts, lens) + intra, red


def _next_links(parts: Sequence[np.ndarray], num_logical_units: int):
    """Next-occurrence links and first occurrences of a unit stream,
    given as its consecutive ``parts`` (a window's segments).

    Returns ``(nxt, first_pos, first_lpns)``: ``nxt[i]`` is the stream
    position of the next write to unit ``i``'s LPN, or ``_NEVER`` when
    none follows (the unit's *data longevity*, in stream positions);
    ``first_pos`` lists each LPN's first position in ascending order
    and ``first_lpns`` the LPN written there.  Returns None when an LPN
    lies outside ``[0, num_logical_units)``.

    The stream is taken ``2**_LINK_CHUNK_BITS`` positions at a time,
    copied out of the parts.  A chunk's positions are grouped by LPN
    with one value sort of packed ``(LPN << _LINK_CHUNK_BITS) | offset``
    codes — within a group positions ascend, so each one's successor is
    its next occurrence — and each chunk's first write of an LPN links
    back to that LPN's last write in the chunks before it.  Codes are
    32-bit words while LPNs fit 16 bits (numpy's vectorized sort is
    fastest there) and 64-bit words on wider devices.  Every chunk
    reuses one code buffer and one position buffer, so the copy, the
    sort and the scatters run in L2.
    """
    L = sum(int(p.size) for p in parts)
    lpn_bits = max(1, (num_logical_units - 1).bit_length())
    word = np.uint32 if lpn_bits <= 16 else np.uint64
    chunk = 1 << _LINK_CHUNK_BITS
    shift = word(_LINK_CHUNK_BITS)
    offset_mask = word(chunk - 1)
    n0 = min(L, chunk)
    code_buf = np.empty(n0, dtype=word)
    pos_buf = np.empty(n0, dtype=np.int64)
    iota = np.arange(n0, dtype=word)
    nxt = np.empty(L, dtype=np.int64)
    firsts = []
    last = np.full(num_logical_units, -1, dtype=np.int64) if L > chunk else None
    pi = po = 0  # the next unit to copy: part index, offset in the part
    for c0 in range(0, L, chunk):
        n = min(chunk, L - c0)
        pos = pos_buf[:n]
        got = 0
        while got < n:
            part = parts[pi]
            take = min(part.size - po, n - got)
            pos[got : got + take] = part[po : po + take]
            got += take
            po += take
            if po == part.size:
                pi += 1
                po = 0
        if pos.view(np.uint64).max() >= num_logical_units:
            return None  # a negative LPN reads as 2**63 or more
        code = code_buf[:n]
        code[...] = pos
        code <<= shift
        code |= iota[:n]
        code.sort()
        np.bitwise_and(code, offset_mask, out=pos)
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
        head_lpn = lpn[heads].astype(np.int64)
        head_pos = pos[heads]
        if last is not None:
            prev = last[head_lpn]
            seen = prev >= 0
            nxt[prev[seen]] = head_pos[seen]
            last[head_lpn] = pos[np.append(brk, n - 1)]
            new = ~seen
            head_lpn = head_lpn[new]
            head_pos = head_pos[new]
        # The chunk's first writes in stream order: one value sort of
        # ``(position << 32) | LPN`` (the planner takes streams of under
        # 2**31 positions).
        first = head_pos << 32
        first |= head_lpn
        first.sort()
        firsts.append(first)
    first = np.concatenate(firsts)
    return nxt, first >> 32, first & 0xFFFFFFFF


def _pop_free(free: List[int], dynamic: bool, eff_l: List[float]) -> int:
    """Mirror ``_pop_free_block`` on a non-empty free list: FIFO, or
    under dynamic wear leveling the least-worn block (strict <, so the
    first of ties wins, like ``pick_free_block``)."""
    if not dynamic or len(free) == 1:
        return free.pop(0)
    best = free[0]
    best_pe = eff_l[best]
    for blk in free:
        if eff_l[blk] < best_pe:
            best = blk
            best_pe = eff_l[blk]
    free.remove(best)
    return best


class _Contents:
    """Per-slot contents of a pool, materialized by the walk at the first
    reclaim that has to look inside blocks (a relocating GC victim or a
    static wear-leveling migration) and kept current from then on.

    ``deaths[s]`` is the stream position of the next write to the LPN of
    the unit in slot ``s`` — its *data longevity* — so the unit is live
    at stream position ``p`` iff ``deaths[s] >= p`` (``_NEVER`` when no
    write follows, -1 for a slot never written); ``lpns[s]`` is its LPN.
    A relocated unit keeps its death.  Slots of erased blocks keep stale
    values: only GC candidates (closed, fully written blocks) are ever
    counted or relocated, and the final placements read written slots
    only.  ``pkey`` holds each block's pending heap event (a pre-burst
    block's exhaust event, or the close event of a block filled since)
    until it fires: an event left behind by a block relocated before it
    fired no longer matches and is skipped (a refill can re-push the same
    key, which then fires once).
    """

    __slots__ = (
        "deaths", "lpns", "rows", "upb", "bits", "dynamic", "free", "eff_l",
        "alive", "closed", "candidates", "pending", "pkey", "counts",
        "scanned", "queued", "runs", "filled", "stream", "host",
    )

    def __init__(self, ftl, stream, a0, b0_pre, walk_state):
        parts, nxt, old_ppu, old_pos, ext_starts, ext_ends = stream
        U = np.concatenate(parts) if len(parts) > 1 else parts[0]
        (self.bits, self.dynamic, self.free, self.eff_l, self.alive,
         self.closed, self.pending, victims) = walk_state
        upb = ftl.units_per_block
        # From here on the walk's closed flags mark every GC candidate,
        # pre-burst closed blocks not erased since included.
        self.candidates = np.frombuffer(self.closed, dtype=np.bool_)
        before = ftl._closed.copy()
        before[victims] = False
        self.candidates |= before
        deaths = np.where(ftl._valid, _NEVER, -1)
        deaths[old_ppu] = old_pos
        lpns = ftl._p2l.copy()
        # In-burst placements so far: the walk materializes inside a
        # reclaim, with no block open and no copy made yet, so every
        # block written since its last erase is full and holds exactly
        # its fixed-geometry extent.
        ext_of = np.array(self.alive, dtype=np.int64)
        blocks = np.flatnonzero(ext_of >= 0)
        ks = ext_of[blocks]
        slot0 = blocks * upb
        if b0_pre:
            slot0[ks == 0] += a0
        starts = ext_starts[ks]
        slots, pos, _ = _runs(slot0, starts, ext_ends[ks] - starts)
        deaths[slots] = nxt[pos]
        lpns[slots] = U[pos]
        self.deaths = deaths
        self.lpns = lpns
        self.rows = deaths.reshape(-1, upb)
        self.upb = upb
        # Until now no block was relocated, so no pending event is stale.
        mask = (1 << self.bits) - 1
        self.pkey = [-1] * len(self.closed)
        for key in self.pending:
            self.pkey[key & mask] = key
        self.counts = None
        self.scanned = -1  # stream position of the last count scan
        # Copies queued in the current reclaim: victims, destination
        # runs ``[block, offset, length]``, blocks the copies filled.
        self.queued: List[int] = []
        self.runs: List[list] = []
        self.filled: List[int] = []
        # Host fills not yet written: ``(slot, stream position, length)``.
        self.stream = (U, nxt)
        self.host: List[tuple] = []

    def sync(self) -> None:
        """Write the host fills placed since the last sync."""
        U, nxt = self.stream
        deaths = self.deaths
        lpns = self.lpns
        for s0, p0, n in self.host:
            deaths[s0 : s0 + n] = nxt[p0 : p0 + n]
            lpns[s0 : s0 + n] = U[p0 : p0 + n]
        self.host = []

    def counts_at(self, idx: int) -> np.ndarray:
        """Live units per block at stream position ``idx``, with every
        block that is not a GC candidate above any real count.  The
        first call of a reclaim scans the pool; later ones return the
        counts :meth:`move` kept current."""
        if self.scanned != idx:
            self.sync()
            self.counts = np.count_nonzero(self.rows >= idx, axis=1)
            self.counts[~self.candidates] = _UNTRACKED
            self.scanned = idx
        return self.counts

    def move(self, v, n, active, aoff, next_ext):
        """Mirror ``_collect_block``'s copy of block ``v``'s ``n`` live
        units: they go, in slot order, into the active block and fresh
        free blocks (opened without a reclaim, as ``_write_units`` does
        for GC and WL sources), and each block the copy fills closes
        into the candidates with every unit live.  The slots are written
        by :meth:`flush`, once per reclaim.  Returns the new ``(active,
        aoff, next_ext)``, or None when the free list runs dry (the
        scalar path goes read-only).
        """
        if v in self.filled:
            self.flush()  # the victim's own contents are still queued
        self.counts[v] = _UNTRACKED
        self.pkey[v] = -1
        self.queued.append(v)
        upb = self.upb
        runs = self.runs
        free = self.free
        j = 0
        while j < n:
            if active is None:
                if not free:
                    return None
                active = _pop_free(free, self.dynamic, self.eff_l)
                aoff = 0
                self.alive[active] = next_ext
                next_ext += 1
            take = upb - aoff if upb - aoff < n - j else n - j
            if runs and runs[-1][0] == active:
                runs[-1][2] += take
            else:
                runs.append([active, aoff, take])
            aoff += take
            j += take
            if aoff == upb:
                self.closed[active] = 1
                self.counts[active] = upb
                self.filled.append(active)
                active = None
                aoff = 0
        return active, aoff, next_ext

    def flush(self) -> None:
        """Write the queued copies — every queued victim's units live at
        the reclaim's stream position, victim by victim in slot order —
        into their destination runs in one pass, and queue the zero-valid
        event of each block they filled."""
        victims = self.queued
        upb = self.upb
        held = self.rows[victims]
        live = held >= self.scanned  # copies follow the reclaim's scan
        moved_d = held[live]
        moved_l = self.lpns.reshape(-1, upb)[victims][live]
        deaths = self.deaths
        lpns = self.lpns
        o = 0
        for b, off, n in self.runs:
            s0 = b * upb + off
            deaths[s0 : s0 + n] = moved_d[o : o + n]
            lpns[s0 : s0 + n] = moved_l[o : o + n]
            o += n
        filled = self.filled
        if filled:
            bits = self.bits
            for b, top in zip(filled, np.maximum.reduce(self.rows[filled], axis=1).tolist()):
                if top < _NEVER:
                    key = ((top + 1) << bits) | b
                    heapq.heappush(self.pending, key)
                    self.pkey[b] = key
        self.queued = []
        self.runs = []
        self.filled = []


def _walk(
    ftl, pkg, num_groups, stop_erases, stream, schedule, ends,
    exhaust_pos, pe0, active0, a0, b0_pre, low, high, cfg,
):
    """The planning walk: Python-scalar mirrors of every structure the
    plan mutates, one loop pass per block fill.  Float arithmetic on
    list elements is bit-identical to the numpy float64 scalar ops of
    the real path.  The GC mirror (victim selection, erase wear
    arithmetic), the static wear-leveling mirror — both share one erase
    block — and the free-block pulls (:func:`_pop_free`) are inlined:
    this loop is the simulator's true hot path.

    The scalar path reclaims only when it opens a block with the free
    list at or under the low watermark, so the walk does too; segment
    and group boundaries place nothing.  They are stream positions
    (``ends``, from :func:`_stream_ends`): the erase stop ends the walk
    at the end of the group whose reclaim spent it, and a relocating
    reclaim charges its copies to the segment holding its position.

    Until contents are materialized, zero-valid candidates come from
    ``schedule``: every fixed-geometry extent's release position, in
    order, and a reclaim releases the extents due by advancing a
    pointer — a release stands only while the extent's block still
    holds it (``alive[block] == k``), so a block relocated since skips
    its release.  Pre-burst blocks exhausted in-window release from the
    ``pending`` heap.  Per-slot contents (:class:`_Contents`) are
    materialized only when a reclaim finds no zero-valid candidate or
    static wear leveling migrates; from then on host fills are recorded
    into them, and each block filled since closes with a heap event
    checked against ``pkey``, since a copy shifted it off the fixed
    geometry.

    The erase mirror retires a victim whose new wear reaches its cycle
    limit, as ``erase_block``'s ``went_bad`` and ``_collect_block`` do:
    it keeps the new wear, is marked bad, and stays out of the free
    list.  Returns None on any event only the scalar path can reproduce
    — among them a run of more than four retiring victims, which the
    reclaim's stall guard may end short — and, at end of life (more bad
    blocks than ``_eol_min_usable`` leaves room for), the 0-based group
    of that reclaim (an int), so the planner can retry with the window
    truncated.
    """
    upb = ftl.units_per_block
    n_blocks = ftl._num_blocks
    nxt = stream[1]
    group_ends, seg_ends, segs_through = ends
    perm_l = pkg._pe_permanent.tolist()
    reco_l = pkg._pe_recoverable.tolist()
    eff_l = pe0.tolist()
    limit_l = pkg._cycle_limit.tolist()
    frac = pkg.healing.recoverable_fraction
    one_minus = 1.0 - frac
    num_bad = pkg._num_bad
    bad_l = pkg.bad_blocks_view.tolist() if num_bad else None
    max_bad = n_blocks - ftl._eol_min_usable  # more is end of life
    retired: List[int] = []
    stall = stall_at = 0  # the latest run of retiring victims
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
    # The release schedule, ending in a sentinel no position reaches.
    rel_a, rk_a = schedule
    rel_l = rel_a.tolist()
    rel_l.append(_NEVER)
    rk_l = rk_a.tolist()
    j = 0
    # Zero-valid GC candidates bucketed by effective wear: a heap of
    # block ids per distinct value (ascending lists are heaps already)
    # plus a min-heap of the distinct values.  Pops run in (wear, block)
    # order, the scalar argmin order, and the nearest larger wear — the
    # one the collision guard needs — is an O(1) lookup in ``wears``.
    buckets: dict = {}
    for b in np.flatnonzero(ftl._closed & (ftl._valid_count == 0)).tolist():
        buckets.setdefault(eff_l[b], []).append(b)
    wears = list(buckets)
    heapq.heapify(wears)

    victims: List[int] = []
    n_erased = 0
    alive = [-1] * n_blocks  # fill ordinal of each block's in-burst content
    # The block of each fixed-geometry fill ordinal.
    fill_blk: List[int] = []
    # Closed in-burst (and not erased since); once contents are
    # materialized, every GC candidate.
    closed = bytearray(n_blocks)
    # The walk's structures a materialized _Contents shares.
    shared = (bits, dynamic, free, eff_l, alive, closed, pending, victims)
    # Relocation state: per-slot contents once materialized, and what
    # the commit charges for copies.
    cont = None
    nxt_l = pkey = None
    n_wl = gc_units = wl_units = 0
    victim_valid: List[int] = []
    copies = None
    pe_max = None  # max wear over every block, as of ``pe_seen`` victims
    pe_seen = 0
    rmax = -1  # latest death among the active block's copied units

    heappush = heapq.heappush
    heappop = heapq.heappop
    free_append = free.append
    free_remove = free.remove
    victims_append = victims.append
    fill_append = fill_blk.append
    active = active0
    aoff = a0
    if b0_pre:
        alive[active0] = 0
        fill_append(active0)
    next_ext = len(fill_blk)
    # The walk ends with group m - 1: the last group, or the first whose
    # reclaims spend the stop (a stop of 0 or less ends group 0).
    m = num_groups
    stop_at = _NEVER if stop_erases is None else stop_erases
    if stop_at <= 0:
        m, stop_at = 1, _NEVER
    limit = group_ends[m - 1]
    score_guard = _SCORE_GUARD
    q = 0
    while q < limit:
        if active is None:
            nf = len(free)
            if nf <= low:
                # The reclaim — see module docstring for the bail
                # conditions (every `return None` below is an event the
                # scalar path must replay).
                # Every candidate due by position q joins the buckets.
                while rel_l[j] <= q:
                    k = rk_l[j]
                    j += 1
                    b = fill_blk[k]
                    if alive[b] == k:
                        w = eff_l[b]
                        bucket = buckets.get(w)
                        if bucket is None:
                            buckets[w] = [b]
                            heappush(wears, w)
                        else:
                            heappush(bucket, b)
                due = (q + 1) << bits
                while pending and pending[0] < due:
                    key = heappop(pending)
                    b = key & mask
                    if pkey is not None:
                        if pkey[b] != key:
                            continue  # relocated before it fired
                        pkey[b] = -1
                    w = eff_l[b]
                    bucket = buckets.get(w)
                    if bucket is None:
                        buckets[w] = [b]
                        heappush(wears, w)
                    else:
                        heappush(bucket, b)
                wl = False
                while True:
                    if nf < high and wears:
                        w = wears[0]
                        bucket = buckets[w]
                        v = heappop(bucket)
                        # Victim order equals the scalar argmin iff no
                        # remaining candidate's score can round into
                        # v's.  Equal wear gives equal scores (id order
                        # == argmin index order); the nearest larger
                        # wear within _SCORE_GUARD could collide after
                        # the float divide — bail.
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
                        ) * score_guard:
                            return None
                    else:
                        if nf >= high:
                            # GC is done; _maybe_static_wear_level may
                            # migrate one block.
                            if not static_enabled or wl_ctr < wl_interval:
                                break
                            wl_ctr = 0
                            if num_bad:
                                # Mirror wear_gap_exceeds: the gap is
                                # taken over good blocks only.
                                good_eff = [
                                    e2 for b2, e2 in enumerate(eff_l)
                                    if not bad_l[b2]
                                ]
                                if not good_eff or (
                                    max(good_eff) - min(good_eff) <= wl_threshold
                                ):
                                    break
                            elif max(eff_l) - min(eff_l) <= wl_threshold:
                                break
                            wl = True
                        # The victim holds live units: a static WL
                        # migration, or a greedy GC victim when no
                        # zero-valid candidate is left.
                        if cont is None:
                            cont = _Contents(ftl, stream, a0, b0_pre, shared)
                            pkey, nxt_l, copies = cont.pkey, nxt.tolist(), [0] * len(seg_ends)
                            # Blocks opened from here on leave the fixed
                            # geometry: only the releases of extents
                            # filled so far still stand.
                            keep = rk_a[j:] < next_ext
                            rel_l = rel_a[j:][keep].tolist()
                            rel_l.append(_NEVER)
                            rk_l = rk_a[j:][keep].tolist()
                            j = 0
                        counts = cont.counts_at(q)
                        if wl:
                            # pick_cold_victim: the least-worn candidate
                            # holding live units (lowest id on ties).
                            cold = np.flatnonzero((counts > 0) & (counts < _UNTRACKED)).tolist()
                            if not cold:
                                break
                            v = min(cold, key=eff_l.__getitem__)
                            n_mv = int(counts[v])
                            wl_units += n_mv
                        else:
                            v = int(counts.argmin())
                            n_mv = int(counts[v])
                            if n_mv >= _UNTRACKED:
                                return None  # no candidate: scalar stalls
                            counts[v] = _UNTRACKED
                            if counts[counts.argmin()] == n_mv:
                                # Tied counts: the scalar tie-break,
                                # same float ops, scaled by the max P/E
                                # over every block.
                                counts[v] = n_mv
                                tied = (counts == n_mv).nonzero()[0].tolist()
                                # Wear only rises, so the max moves only
                                # with blocks erased since.
                                if pe_max is None:
                                    pe_max = max(eff_l)
                                else:
                                    for b in victims[pe_seen:]:
                                        if eff_l[b] > pe_max:
                                            pe_max = eff_l[b]
                                pe_seen = len(victims)
                                scale = pe_max + 1.0
                                best = n_mv + eff_l[v] / scale * 0.5
                                for b in tied[1:]:
                                    score = n_mv + eff_l[b] / scale * 0.5
                                    if score < best:
                                        v = b
                                        best = score
                            victim_valid.append(n_mv)
                            gc_units += n_mv
                        moved = cont.move(v, n_mv, active, aoff, next_ext)
                        if moved is None:
                            return None
                        active, aoff, next_ext = moved
                        copies[bisect_right(seg_ends, q)] += n_mv
                        nf = len(free)
                    p_ = perm_l[v] + one_minus
                    r_ = reco_l[v] + frac
                    e_ = p_ + r_
                    perm_l[v] = p_
                    reco_l[v] = r_
                    eff_l[v] = e_
                    if e_ >= limit_l[v]:
                        # erase_block's went_bad: the block retires
                        # instead of rejoining the free list.
                        if bad_l is None:
                            bad_l = [False] * n_blocks
                        bad_l[v] = True
                        num_bad += 1
                        if num_bad > max_bad:
                            # End of life: truncate at q's group.
                            return bisect_right(group_ends, q)
                        # More than four retiring victims in a row: the
                        # scalar stall guard may end the reclaim short
                        # (it counts GC victims, and a row spans
                        # reclaims only through a migration), so bail.
                        at = len(victims)
                        stall = stall + 1 if stall_at == at - 1 else 1
                        stall_at = at
                        if stall > 4:
                            return None
                        retired.append(v)
                    else:
                        free_append(v)
                        nf += 1
                    alive[v] = -1
                    closed[v] = 0
                    victims_append(v)
                    n_erased += 1
                    wl_ctr += 1
                    if wl:
                        n_wl += 1
                        break
                if cont is not None and cont.queued:
                    cont.flush()
                    if active is not None:
                        # Opened by this reclaim's copies.
                        rmax = int(cont.rows[active, :aoff].max())
                if n_erased >= stop_at:
                    # The stop is spent: the walk ends with q's group.
                    m = bisect_right(group_ends, q) + 1
                    limit = group_ends[m - 1]
                    stop_at = _NEVER
                nf = len(free)
            if active is None:
                # pop_free (a relocation may have opened a block
                # already; the host appends to it).  _pop_free inlined:
                # this runs once per block fill.
                if nf == 0:
                    return None  # end of life on the scalar path: bail
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
                if cont is None:
                    fill_append(active)
                else:
                    rmax = -1
                next_ext += 1
        room = upb - aoff
        if limit - q < room:
            # The last fill leaves the block open.
            if cont is not None:
                cont.host.append((active * upb + aoff, q, limit - q))
            aoff += limit - q
            break
        if cont is not None:
            # Off the fixed geometry, the block's event is the latest
            # death of its host units and copies, written as it closes.
            cont.host.append((active * upb + aoff, q, room))
            ev = max(nxt_l[q : q + room]) + 1
            if rmax >= ev:
                ev = rmax + 1
            if q + room > ev:
                ev = q + room
            if ev < _NEVER:
                key = (ev << bits) | active
                heappush(pending, key)
                pkey[active] = key
        q += room
        closed[active] = 1
        active = None
        aoff = 0
    C = limit

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
    reloc = None
    if cont is not None:
        reloc = (cont, n_wl, gc_units, wl_units, victim_valid, copies)
    return (
        vic_u, vic_perm, vic_reco, vic_eff, n_erased, retired,
        alive, closed, tuple(free), active, aoff, wl_ctr,
        m, C, segs_through[m - 1], reloc,
    )


def commit_planned_burst(ftl, plan: BurstPlan) -> None:
    """Commit a finalized plan's end state in vectorized passes.

    Anything derived from live state (P/E cache validity, float
    accumulation) is re-derived here from the committed values.
    """
    pkg = ftl.package
    upb = ftl.units_per_block
    n_blocks = ftl._num_blocks
    n_erased = plan.n_erased
    # A window cut at end of life leaves the next window to end it in
    # its first group: refuse that one before its link pass.
    ftl._eol_ahead = plan.end_of_life
    n_gc = n_erased - plan.wl_runs
    n_retired = int(plan.retired.size)

    copies = plan.gc_pages + plan.wl_pages
    programs = plan.units_executed * ftl.unit_pages + copies
    stats = ftl.stats
    stats.host_pages_requested += plan.host_pages
    stats.host_pages_programmed += plan.host_pages
    stats.rmw_pages_programmed += plan.rmw_pages
    stats.pages_read += plan.rmw_pages
    stats.gc_pages_copied += plan.gc_pages
    stats.wl_pages_copied += plan.wl_pages
    stats.migration_pages += plan.migration_pages
    stats.gc_runs += n_gc
    stats.wl_runs += plan.wl_runs
    stats.blocks_erased += n_erased
    counters = pkg.counters
    counters.page_programs += programs
    counters.page_reads += plan.rmw_pages
    ftl._erases_since_wl_check = plan.wl_ctr_final

    # Instruments count from the plan (DESIGN.md §9): the same totals
    # the scalar write and reclaim paths bump call by call.  Every
    # reclaim stops exactly at the high watermark (each victim returns
    # one free block after its copies took theirs), so that is the
    # free-block gauge.
    obs = ftl._obs
    if obs is not None:
        obs.host_pages.inc(plan.host_pages)
        obs.rmw_pages.inc(plan.rmw_pages)
        obs.pages_read.inc(plan.rmw_pages)
        obs.flash_pages.inc(programs)
        if n_erased:
            obs.gc_runs.inc(n_gc)
            obs.blocks_erased.inc(n_erased)
            valid_counts = plan.victim_valid
            obs.gc_victim_valid.observe_repeat(0, n_gc - len(valid_counts))
            obs.gc_victim_valid.observe_many(valid_counts)
            obs.free_blocks.set(ftl.gc_high_water)
        if plan.gc_pages:
            obs.gc_pages.inc(plan.gc_pages)
        if plan.wl_runs:
            obs.wl_runs.inc(plan.wl_runs)
            obs.wl_pages.inc(plan.wl_pages)
        if plan.migration_pages:
            obs.migration_pages.inc(plan.migration_pages)
        if n_retired:
            obs.bad_blocks.inc(n_retired)
    flash_obs = pkg._obs
    if flash_obs is not None:
        flash_obs.page_programs.inc(programs)
        flash_obs.page_reads.inc(plan.rmw_pages)
        flash_obs.block_erases.inc(n_erased)
        if n_retired:
            flash_obs.bad_blocks.inc(n_retired)

    valid = ftl._valid
    vcount = ftl._valid_count

    # Pre-burst mappings overwritten by executed writes go invalid.
    old_exec = plan.old_exec
    if old_exec.size:
        valid[old_exec] = False
        delta = np.bincount(old_exec // upb, minlength=n_blocks)
        np.subtract(vcount, delta, out=vcount)

    # Erased blocks: final wear plus a full per-block state reset (a
    # relocated unit's old slot goes with its block).
    vic_u = plan.vic_u
    if vic_u.size:
        pkg.apply_erase_burst(
            vic_u, plan.vic_perm, plan.vic_reco, plan.vic_eff, n_erased, plan.retired
        )
        ftl._p2l.reshape(n_blocks, upb)[vic_u] = -1
        valid.reshape(n_blocks, upb)[vic_u] = False
        vcount[vic_u] = 0
        ftl._closed[vic_u] = False

    # Scatter the surviving in-burst placements: per written block, the
    # placed units' reverse map, validity, per-block counts, and the
    # forward map of each LPN's last placement (host write or copy).
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
