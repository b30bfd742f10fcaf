"""Megaburst plan cache (DESIGN.md §14).

Steady-state wear-out trajectories execute the same fused burst over and
over: the proof and placement plan that
:mod:`repro.ftl.burst` derives from scratch on every ``write_burst``
call are a *pure function* of a small set of simulator state components
— the pattern-RNG phase, the FTL's free-list order, closed blocks,
per-block valid counts and wear, and the filesystem's journal/node
cursors.  This module memoizes whole ``step_batch`` windows on an
**exact-equality probe** of precisely those components, so a repeated
trajectory pays only the vectorized apply.

Soundness is by construction, not by hashing: a cached plan replays
only when *every value the planner reads* compares equal to the value
it read at capture time (the probe), and the replay re-executes the
same vectorized commit the fresh path runs
(:func:`repro.ftl.burst.commit_planned_burst`), so any state the commit
derives from current values — P/E cache validity, float accumulation
order on the device clock — behaves exactly as a fresh plan would.
One planner input is validated structurally instead of by equality:
per-block cycle limits are read only at the per-erase retirement
check, so :func:`_limits_admit` re-proves that check against the
*current* device's limits at find time — which is what lets fused
windows compiled for a fleet cohort's leader replay across members
whose endurance draws differ (DESIGN.md §15).
Anything the probe does not cover is either never read by the fused
path (read-set audit in DESIGN.md §14) or makes the fused path bail
before a plan exists.  Conservative invalidation therefore falls out
for free: a mutation to any probed component changes the probe and
misses; a mutation to an unprobed component cannot change the outcome.

The cache is process-global (steady-state reuse spans experiments: a
warm-start grid's deeper points replay the shallower points' windows)
and size-capped by plan bytes with LRU eviction.  It is consulted only
inside a :class:`sharing` scope, which callers open where a replay
follows; elsewhere no window is probed or captured.
``REPRO_PLAN_CACHE=0`` in the environment, or :func:`configure`,
disables it; captures are orchestrated through a single active slot
(the simulator is single-threaded per process; campaign workers each
own a process).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import OrderedDict
from contextlib import ContextDecorator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Bytes of host writes a fused window carries outside every
#: :class:`sharing` scope, where no plan is replayed (DESIGN.md §14):
#: the cold window's budget.  A window's working set and its per-unit
#: cost follow the bytes it writes, not its step count.
COLD_WINDOW_BYTES = 256 * 1024 * 1024

#: Fused-window cap inside a :class:`sharing` scope, where one probe
#: replays a whole window; it caps cold windows too.
_SHARING_WINDOW_STEPS = 1024


@dataclass
class BurstPlan:
    """Finalized products of one fused-burst plan (repro.ftl.burst).

    Everything :func:`repro.ftl.burst.commit_planned_burst` needs to
    apply the burst, plus the probe data (``probe_lpns``/``probe_old``,
    ``erase_prefix``) the cache needs to validate a replay.  All arrays
    are owned by the plan (never views of live FTL state).

    ``n_erased`` counts every erase, ``wl_runs`` of them static
    wear-leveling migrations, and ``retired`` lists the blocks whose
    erase crossed their cycle limit; ``victim_valid`` lists the
    live-unit count of each GC victim that relocated (the rest held
    none), and ``seg_copies`` the GC and WL copy pages each executed
    segment caused — None for a plan that copied nothing.  The cache
    keeps only plans that copied and retired nothing.
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
    erase_prefix: List[int]
    probe_lpns: np.ndarray
    probe_old: np.ndarray

    def nbytes(self) -> int:
        total = 512  # object + scalar overhead, roughly
        for arr in (
            self.old_exec, self.vic_u, self.vic_perm, self.vic_reco,
            self.vic_eff, self.a_blocks, self.red, self.ppus, self.su,
            self.sv, self.cb, self.probe_lpns, self.probe_old,
        ):
            if arr is not None:
                total += arr.nbytes
        total += 8 * (len(self.free_final) + len(self.erase_prefix))
        return total


@dataclass(eq=False)
class _Entry:
    """One cached ``step_batch`` window: probe + every replay product.
    Compared and hashed by identity (the LRU keys on the entry)."""

    probe: tuple
    plan: BurstPlan
    seg_durations: List[float]
    durations: List[float]
    host_delta: int
    app_delta: int
    fs_state: tuple
    pattern_end: tuple
    next_file_end: int
    nbytes: int


class _Capture:
    """Active capture slot: layers deposit their contributions here
    while a cache-miss window executes through the fresh path.

    The probe was taken at lookup time; nothing between the lookup and
    the FTL kernel mutates probed state (pattern draws and segment
    compilation are read-only over it), so it is also the capture-time
    probe.
    """

    __slots__ = ("key", "probe", "plan", "seg_durations", "host_delta",
                 "fs_state", "app_delta")

    def __init__(self, key: tuple, probe: tuple):
        self.key = key
        self.probe = probe
        self.plan: Optional[BurstPlan] = None
        self.seg_durations: Optional[List[float]] = None
        self.host_delta = 0
        self.fs_state: Optional[tuple] = None
        self.app_delta = 0


@dataclass
class PlanCache:
    """Exact-probe memo of fused burst windows, byte-capped LRU.

    ``_entries`` buckets the entries by static key for lookup; ``_lru``
    orders every entry by last use, so eviction drops single windows —
    a trajectory's early windows of one length stay while the byte cap
    allows, however many windows of that length follow them.
    """

    max_bytes: int = 256 * 1024 * 1024
    enabled: bool = True
    _entries: Dict[tuple, List[_Entry]] = field(default_factory=dict)
    _lru: "OrderedDict[_Entry, tuple]" = field(default_factory=OrderedDict)
    _bytes: int = 0
    hits: int = 0
    misses: int = 0
    captures: int = 0
    evictions: int = 0

    def clear(self) -> None:
        self._entries.clear()
        self._lru.clear()
        self._bytes = 0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.captures = self.evictions = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "captures": self.captures,
            "evictions": self.evictions,
            "entries": len(self._lru),
            "bytes": self._bytes,
        }

    def find(
        self, key: tuple, probe: tuple, l2p, stop_rel, cycle_limit
    ) -> Optional[_Entry]:
        bucket = self._entries.get(key)
        if bucket is None:
            self.misses += 1
            return None
        for entry in bucket:
            if entry.probe != probe:
                continue
            plan = entry.plan
            if not _stop_matches(plan, stop_rel):
                continue
            if not _limits_admit(plan, cycle_limit):
                continue
            if plan.probe_lpns.size and not np.array_equal(
                l2p[plan.probe_lpns], plan.probe_old
            ):
                continue
            self._lru.move_to_end(entry)
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def insert(self, key: tuple, entry: _Entry) -> None:
        """Store ``entry``, then evict least recently used entries until
        the cache fits ``max_bytes`` (the new entry always stays)."""
        self._entries.setdefault(key, []).append(entry)
        self._lru[entry] = key
        self._bytes += entry.nbytes
        self.captures += 1
        while self._bytes > self.max_bytes and len(self._lru) > 1:
            dropped, old_key = self._lru.popitem(last=False)
            bucket = self._entries[old_key]
            bucket.remove(dropped)
            if not bucket:
                del self._entries[old_key]
            self._bytes -= dropped.nbytes
            self.evictions += 1


def _limits_admit(plan: BurstPlan, cycle_limit) -> bool:
    """True when every erase the plan performs stays strictly under the
    device's per-block cycle limits.

    Cycle limits are the one planner input that is *structural* rather
    than positional: the walk reads ``_cycle_limit[v]`` only at the
    per-erase retirement check (``e_ >= limit`` retires the block), and
    per-block effective wear grows monotonically within a window, so a
    plan whose *final* per-victim wear (``vic_eff``) clears a device's
    limits would have cleared every intermediate check too — it retired
    nothing there.  Cached plans retired nothing where they were
    captured (``execute_write_burst`` never deposits one that did), so
    this predicate is exactly "the same plan on this device".  That
    lets the limits live outside the equality probe: a fleet cohort
    member with its own endurance draw (DESIGN.md §15) replays the
    leader's plans as long as this predicate holds, and a member whose
    limit would be crossed misses here — its fresh plan then retires
    the block at that erase, exactly as re-planning from scratch would.

    A plan with no erases never read the limits; it is valid for any
    draw (``.all()`` on an empty comparison is True).
    """
    return bool((plan.vic_eff < cycle_limit[plan.vic_u]).all())


def _stop_matches(plan: BurstPlan, stop_rel: Optional[int]) -> bool:
    """True when a fresh walk under ``stop_rel`` would truncate at the
    plan's recorded group count.

    The walk reads the erase budget only at group boundaries, so its
    placement decisions are independent of the budget up to the cut;
    the cut itself is determined by the recorded cumulative erase
    prefix.  Equal cut == identical fresh outcome.
    """
    m = plan.executed_groups
    if stop_rel is None:
        return m == plan.num_groups
    g = bisect_left(plan.erase_prefix, stop_rel)
    if g < m:
        return g == m - 1
    return m == plan.num_groups


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------


def _freeze(obj: Any) -> Any:
    """Canonical hashable form of a (possibly nested) snapshot: the
    workload's pattern state with its RNG state dicts."""
    if isinstance(obj, dict):
        return tuple((k, _freeze(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    return obj


def _ftl_probe(ftl) -> tuple:
    """Exact values of every FTL/flash component the planner reads."""
    pkg = ftl.package
    return (
        ftl.read_only,
        ftl._in_reclaim,
        pkg._num_bad,
        type(ftl.victim_policy).__name__,
        tuple(ftl._free_blocks),
        ftl._active_block,
        ftl._active_offset,
        ftl._erases_since_wl_check,
        ftl._closed.tobytes(),
        ftl._valid_count.tobytes(),
        pkg._pe_permanent.tobytes(),
        pkg._pe_recoverable.tobytes(),
        # _cycle_limit is deliberately NOT probed: the planner reads it
        # only at the per-erase retirement check, which _limits_admit
        # re-validates structurally at find time — so plans compiled on
        # a cohort leader replay across members whose endurance draws
        # differ (DESIGN.md §15).
        pkg.healing.recoverable_fraction,
    )


def workload_probe(workload) -> Optional[tuple]:
    """Dynamic probe for a FileRewriteWorkload window: pattern phases,
    round-robin cursor, filesystem cursors, and the FTL/flash probe."""
    fs = workload.fs
    fs_probe = fs._plan_probe()
    if fs_probe is None:
        return None
    device = fs.device
    if getattr(device, "timing", None) is not None:
        return None
    if getattr(device, "failed", False):
        return None  # write_burst would refuse; never replay into it
    return (
        _freeze(workload._pattern_state()),
        workload._next_file,
        fs_probe,
        _ftl_probe(device.ftl),
    )


def static_key(workload, n: int) -> tuple:
    """Configuration identity of a window: everything immutable that
    shapes the plan (geometry, perf curve, file layout, window length)."""
    fs = workload.fs
    device = fs.device
    ftl = device.ftl
    cfg = ftl.wl_config
    perf = device.perf
    return (
        n,
        workload.request_bytes,
        workload.batch_requests,
        tuple((f.extent_start, f.size) for f in workload.files),
        tuple(type(g).__name__ for g in workload._generators),
        type(fs).__name__,
        device.name,
        device.scale,
        device.page_size,
        ftl.unit_bytes,
        ftl.unit_pages,
        ftl.units_per_block,
        ftl._num_blocks,
        ftl.gc_low_water,
        ftl.gc_high_water,
        ftl.num_logical_units,
        cfg.dynamic,
        cfg.static_enabled,
        cfg.static_check_interval,
        cfg.static_delta_threshold,
        perf.peak_write_mib_s,
        perf.write_half_size,
    )


# ----------------------------------------------------------------------
# Module-global cache + capture orchestration
# ----------------------------------------------------------------------

_cache = PlanCache(
    enabled=os.environ.get("REPRO_PLAN_CACHE", "1").lower() not in ("0", "off", "false"),
)
_active: Optional[_Capture] = None


def cache() -> PlanCache:
    return _cache


def configure(enabled: Optional[bool] = None, max_bytes: Optional[int] = None) -> None:
    if enabled is not None:
        _cache.enabled = enabled
        if not enabled:
            abort_capture()
    if max_bytes is not None:
        _cache.max_bytes = max_bytes


def clear() -> None:
    _cache.clear()


def stats() -> Dict[str, int]:
    return _cache.stats()


class disabled:
    """Context manager: run a block with the plan cache off (benches
    and differential tests)."""

    def __enter__(self):
        self._prev = _cache.enabled
        configure(enabled=False)
        return self

    def __exit__(self, *exc):
        configure(enabled=self._prev)
        return False


class sharing(ContextDecorator):
    """Re-entrant scope (or decorator) in which fused windows are
    probed, captured and replayed (DESIGN.md §14).

    Outside every scope :func:`lookup` declines at once and the
    experiment loop plans windows of a bounded byte volume
    (:func:`window_steps`): a plan nobody replays is pure cost.
    Callers open it where a replay follows.  ``depth`` counts open
    scopes.
    """

    depth = 0

    def __enter__(self):
        sharing.depth += 1
        return self

    def __exit__(self, *exc):
        sharing.depth -= 1
        return False


def window_steps(step_bytes: Optional[int]) -> int:
    """Default fused-window cap (DESIGN.md §14) for steps that each
    write ``step_bytes``.

    Inside :class:`sharing`, 1024 steps.  Outside, as many steps as
    :data:`COLD_WINDOW_BYTES` holds, capped at the sharing window and
    at least 2.  The cap only sizes the attempt: the experiment loop
    fuses any smaller bound too, a one-step window included, and the
    FTL cuts every window at the erase budget.  A step of unknown size
    (a workload that reports no ``step_bytes``) gets the floor.
    """
    if sharing.depth:
        return _SHARING_WINDOW_STEPS
    steps = COLD_WINDOW_BYTES // step_bytes if step_bytes else 0
    return min(_SHARING_WINDOW_STEPS, max(2, steps))


def active_capture() -> Optional[_Capture]:
    return _active


def abort_capture() -> None:
    global _active
    _active = None


def lookup(workload, n: int, budget):
    """Try to serve a whole ``step_batch(n, budget)`` window from cache.

    Returns the ``(durations, byte_counts, bricked)`` triple with every
    layer's state advanced exactly as the fresh fused path would, or
    None on a miss — in which case a capture slot is armed when the
    window is cacheable, and the caller must run the fresh path and
    finish with :func:`finish_capture` (success) or
    :func:`abort_capture` (fallback to scalar).  Outside a
    :class:`sharing` scope it returns None at once.
    """
    global _active
    _active = None
    if not _cache.enabled or not sharing.depth:
        return None
    stops = workload.fs.device.erase_stops(budget)
    if stops is None or len(stops) > 1:
        # A foreign budget counter (the device would refuse the fused
        # path) or a hybrid's two pools (never cached, DESIGN.md §16).
        return None
    probe = workload_probe(workload)
    if probe is None:
        return None
    key = static_key(workload, n)
    ftl = workload.fs.device.ftl
    entry = _cache.find(key, probe, ftl._l2p, stops[0], ftl.package._cycle_limit)
    if entry is None:
        _active = _Capture(key, probe)
        return None
    _replay(workload, entry)
    m = entry.plan.executed_groups
    return list(entry.durations), [workload.step_bytes] * m, False


def _replay(workload, entry: _Entry) -> None:
    """Advance every layer to the window's end state.

    Mirrors the fresh path's mutation set exactly: the FTL/flash commit
    re-runs the shared vectorized apply, device/fs/workload counters
    advance by the recorded deltas, and the device clock accumulates
    per-segment durations in the fresh path's float order.
    """
    from repro.ftl.burst import commit_planned_burst

    fs = workload.fs
    device = fs.device
    ftl = device.ftl
    pkg = ftl.package
    # Prologue cache validation, exactly as the fresh planner's entry.
    pkg.pe_counts
    commit_planned_burst(ftl, entry.plan)
    device.host_bytes_written += entry.host_delta
    busy = device.busy_seconds
    for d in entry.seg_durations:
        busy += d
    device.busy_seconds = busy
    fs.app_bytes_written += entry.app_delta
    fs._burst_commit((entry.fs_state,), 1)
    workload._set_pattern_state(entry.pattern_end)
    workload._next_file = entry.next_file_end


def finish_capture(cap: _Capture, durations: List[float], workload) -> None:
    """Store a completed window captured through the fresh path.

    Silently drops the capture when any layer failed to deposit its
    contribution (a scalar fallback taken after the plan, a filesystem
    without burst hooks, ...) — caching is best-effort, correctness
    lives in the probes.
    """
    global _active
    if cap is not _active:
        return
    _active = None
    if cap.plan is None or cap.seg_durations is None or cap.fs_state is None:
        return
    entry = _Entry(
        probe=cap.probe,
        plan=cap.plan,
        seg_durations=cap.seg_durations,
        durations=list(durations),
        host_delta=cap.host_delta,
        app_delta=cap.app_delta,
        fs_state=cap.fs_state,
        pattern_end=workload._pattern_state(),
        next_file_end=workload._next_file,
        nbytes=cap.plan.nbytes() + 16 * (len(durations) + len(cap.seg_durations)) + 512,
    )
    _cache.insert(cap.key, entry)
