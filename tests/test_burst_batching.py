"""Differential tests for fused burst-step execution (DESIGN.md §11).

The burst path amortizes Python dispatch by executing whole runs of
provably-uneventful workload steps as one vectorized batch.  Its
contract is bit-identity: a batched run must be indistinguishable —
FTL end state, increments, simulated clock, checkpoint files — from
the per-step loop it replaces.  tests/test_execution_modes.py searches
that over whole runs in every execution mode.  The fixed run pairs
here are named regression cases of that search (ext4/f2fs x rand/seq,
naive polling, byte-identical checkpoint files, a healing trajectory,
a retiring one, a static rewrite at 86% fill); the other tests force
conditions a drawn run does not reach (wrapped and duck-typed
workloads, victim-score collisions, retiring reclaims, end of life,
relocating churn, wide LPNs) and pin the window protocol and the link
pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.flash.healing import HealingModel
from repro.fs import Ext4Model, F2fsModel
from repro.ftl import PageMappedFTL, burst
from repro.ftl.burst import _NEVER, BurstSegment, _next_links, plan_write_burst
from repro.ftl.wear_leveling import WearLevelingConfig
from repro.state.checkpoint import CheckpointManager
from repro.errors import DeviceWornOut
from repro.state.snapshot import capture_ftl, restore_ftl, save_state
from repro.units import KIB, MIB
from repro.workloads import FileRewriteWorkload, generic_step_batch
from tests.modes import (
    ftl_fingerprint,
    fused_windows,
    make_experiment,
    outcome,
    result_json,
    rewrite_static,
)


class TestBatchedRunEquivalence:
    """Batched runs must be bit-identical to per-step runs."""

    @pytest.mark.parametrize(
        "fs_cls,pattern",
        [(Ext4Model, "rand"), (Ext4Model, "seq"), (F2fsModel, "rand"), (F2fsModel, "seq")],
    )
    def test_matches_scalar_fast_poll_loop(self, fs_cls, pattern):
        batched = make_experiment(fs_kind=fs_cls.name, pattern=pattern)
        batched.run(until_level=3)

        scalar = make_experiment(fs_kind=fs_cls.name, pattern=pattern)
        scalar.step_batching = False
        scalar.run(until_level=3)

        assert outcome(batched) == outcome(scalar)
        assert len(batched.result.increments) >= 2  # non-trivial run

    def test_matches_naive_polling_reference(self):
        """Naive per-step polling (``fast_poll=False``) is a reference
        oracle; the fused loop must match it."""
        batched = make_experiment()
        batched.run(until_level=3)

        naive = make_experiment(fast_poll=False)
        naive.run(until_level=3)

        assert outcome(batched) == outcome(naive)

    def test_repeated_run_at_reached_level_takes_one_step(self):
        """A second run() at an already-reached level executes exactly
        one step in the scalar loop; the fused loop must do the same."""
        batched = make_experiment()
        batched.run(until_level=2)
        scalar = make_experiment()
        scalar.step_batching = False
        scalar.run(until_level=2)

        batched.run(until_level=2)
        scalar.run(until_level=2)
        assert outcome(batched) == outcome(scalar)

    def test_duck_typed_workload_uses_generic_batcher(self):
        """A workload without step_batch runs through
        generic_step_batch and still matches the scalar loop."""

        class DuckWorkload:
            def __init__(self, inner):
                self._inner = inner
                self.description = inner.description

            @property
            def space_utilization(self):
                return self._inner.space_utilization

            def step(self):
                return self._inner.step()

        batched = make_experiment()
        batched.workload = DuckWorkload(batched.workload)
        batched.run(until_level=2)

        scalar = make_experiment()
        scalar.step_batching = False
        scalar.run(until_level=2)
        # A duck-typed workload has no snapshot: compare results and
        # FTL state.
        assert result_json(batched) == result_json(scalar)
        assert ftl_fingerprint(batched.device.ftl) == ftl_fingerprint(scalar.device.ftl)

    def test_delegating_wrapper_is_not_bypassed(self):
        """A wrapper forwarding unknown attributes to an inner workload
        exposes the inner step_batch; the fused loop must NOT take it
        (it would skip the wrapper's per-step behaviour) — every step
        must still go through the wrapper's own step()."""

        class Wrapper:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def step(self):
                self.calls += 1
                return self._inner.step()

            def __getattr__(self, name):
                return getattr(self._inner, name)

        batched = make_experiment()
        wrapper = Wrapper(batched.workload)
        batched.workload = wrapper
        batched.run(until_level=2)
        assert wrapper.calls == batched.steps_completed

    @pytest.mark.slow
    def test_retirement_inside_a_window_matches_scalar(self, committed):
        """A block whose cycle limit an erase crosses retires inside the
        fused walk (DESIGN.md §15): with a wide endurance spread one
        block retires mid-run, and the batched trajectory — the plan
        that retires it and every later window planned around the bad
        block — must still match the scalar loop bit-for-bit."""

        def experiment():
            return make_experiment(scale=512, seed=127, endurance_sigma=0.35, pattern="seq")

        batched = experiment()
        batched.run(until_level=5)
        scalar = experiment()
        scalar.step_batching = False
        scalar.run(until_level=5)

        assert batched.device.ftl.package.bad_blocks_view.any()
        assert any(plan.retired.size for plan in committed)
        assert outcome(batched) == outcome(scalar)

    def test_wrapper_resolves_to_generic_stepper(self):
        """The idle-healing wrapper has no class-level ``step_batch``, so
        the generic per-step batcher carries it."""
        exp = make_experiment(idle_seconds=1800.0)
        stepper = exp._resolve_stepper()
        # A functools.partial over generic_step_batch, not the inner
        # workload's bound fused method.
        assert getattr(stepper, "func", None) is generic_step_batch

    def test_generic_step_batch_stops_at_budget(self):
        exp = make_experiment()
        exp.run(until_level=1)
        counters = exp.device.ftl.package.counters
        budget = [(counters, counters.block_erases + 1)]
        out = generic_step_batch(exp.workload, 64, budget)
        durations, byte_counts, bricked = out
        assert not bricked
        assert 1 <= len(durations) < 64
        assert len(byte_counts) == len(durations)
        assert counters.block_erases >= budget[0][1]


class TestCheckpointEquivalence:
    """Interval and crossing checkpoints written by a batched run must
    be byte-identical to the ones an unbatched run writes at the same
    ``steps_completed``, and a crossing one warm-starts a run that
    lands on the cold scalar trajectory."""

    def _run_with_checkpoints(self, root, step_batching):
        exp = make_experiment()
        exp.step_batching = step_batching
        manager = CheckpointManager(root)
        exp.enable_checkpointing(manager, key="burst-equiv", interval_steps=50)
        exp.run(until_level=3)
        return exp, sorted(path.name for path in manager.root.iterdir())

    def test_snapshots_byte_identical(self, tmp_path):
        batched_exp, batched_files = self._run_with_checkpoints(
            tmp_path / "batched", step_batching=True
        )
        scalar_exp, scalar_files = self._run_with_checkpoints(
            tmp_path / "scalar", step_batching=False
        )
        # outcome() compares every checkpoint file's bytes.
        assert outcome(batched_exp, tmp_path / "batched") == outcome(scalar_exp, tmp_path / "scalar")
        # Same crossing files (same steps_completed at each crossing)
        # plus the rolling interval wip file.
        assert batched_files == scalar_files
        assert any(name.endswith("-wip.npz") for name in batched_files)
        assert sum(1 for name in batched_files if "-s" in name) >= 2

    def test_restored_crossing_continues_on_trajectory(self, tmp_path):
        """Warm-starting from a batched run's crossing checkpoint and
        continuing (batched) reproduces the cold scalar run."""
        from repro.state.snapshot import load_state, restore_experiment

        _, files = self._run_with_checkpoints(tmp_path / "ck", step_batching=True)
        crossing = sorted(name for name in files if "-s" in name)[0]

        resumed = make_experiment()
        restore_experiment(resumed, load_state(tmp_path / "ck" / crossing))
        resumed.run(until_level=3)

        cold = make_experiment()
        cold.step_batching = False
        cold.run(until_level=3)
        assert ftl_fingerprint(resumed.device.ftl) == ftl_fingerprint(cold.device.ftl)
        assert resumed.steps_completed == cold.steps_completed
        assert resumed.clock.now == cold.clock.now


class TestStepBatchProtocol:
    """FileRewriteWorkload.step_batch: rewind-and-replay semantics."""

    def test_fallback_rewinds_pattern_state(self):
        """A refused burst must leave generator state untouched: the
        next scalar step draws exactly what it would have drawn."""
        broken = make_experiment()
        twin = make_experiment()
        # Disable the filesystem's metadata planner: write_requests_burst
        # returns None and step_batch must rewind.
        broken.filesystem._burst_metadata_plan = lambda sizes: None

        assert broken.workload.step_batch(6) is None
        assert broken.workload._next_file == twin.workload._next_file
        for g_broken, g_twin in zip(
            broken.workload._generators, twin.workload._generators
        ):
            assert np.array_equal(g_broken.next_batch(16), g_twin.next_batch(16))

    @pytest.mark.parametrize("pattern", ["rand", "seq"])
    def test_truncated_batch_replays_prefix(self, pattern):
        """A budget-truncated batch (m < n) must leave the workload in
        the exact state of m scalar steps: same durations, same device
        state, same future draws."""
        burst = make_experiment(pattern=pattern)
        scalar = make_experiment(pattern=pattern)
        burst.run(until_level=1)
        scalar.step_batching = False
        scalar.run(until_level=1)

        counters = burst.device.ftl.package.counters
        budget = [(counters, counters.block_erases + 2)]
        out = burst.workload.step_batch(64, budget)
        assert out is not None
        durations, byte_counts, bricked = out
        m = len(durations)
        assert not bricked
        assert 1 <= m < 64

        scalar_durations = [scalar.workload.step()[0] for _ in range(m)]
        assert durations == scalar_durations
        assert byte_counts == [
            scalar.workload.batch_requests * scalar.workload.request_bytes
        ] * m
        assert ftl_fingerprint(burst.device.ftl) == ftl_fingerprint(scalar.device.ftl)
        assert burst.workload._next_file == scalar.workload._next_file
        for g_burst, g_scalar in zip(
            burst.workload._generators, scalar.workload._generators
        ):
            assert np.array_equal(g_burst.next_batch(16), g_scalar.next_batch(16))

    def test_one_step_estimate_plans_a_fused_window(self, monkeypatch):
        """An erase-rate estimate that fits one step before the budget
        bounds the window at one step; that step still goes through
        ``step_batch`` fused (the FTL cuts it at the budget), and the
        run equals the per-step loop."""
        windows = []
        step_batch = FileRewriteWorkload.step_batch

        def watched(workload, n, budget=None):
            out = step_batch(workload, n, budget)
            windows.append((n, None if out is None else len(out[0])))
            return out

        monkeypatch.setattr(FileRewriteWorkload, "step_batch", watched)
        # 64 KiB requests: 256 MiB per step, so cold windows are two
        # steps and the budget's last stretch is often under one step.
        fused = make_experiment(pattern="seq", request_bytes=64 * KIB)
        fused.run(until_level=2)
        scalar = make_experiment(pattern="seq", request_bytes=64 * KIB)
        scalar.step_batching = False
        scalar.run(until_level=2)
        assert (1, 1) in windows
        assert result_json(fused) == result_json(scalar)
        assert ftl_fingerprint(fused.device.ftl) == ftl_fingerprint(scalar.device.ftl)

    def test_unbudgeted_batch_executes_all_steps(self):
        burst = make_experiment()
        scalar = make_experiment()
        out = burst.workload.step_batch(8, None)
        assert out is not None
        durations, byte_counts, bricked = out
        assert len(durations) == 8 and not bricked
        scalar_durations = [scalar.workload.step()[0] for _ in range(8)]
        assert durations == scalar_durations
        assert ftl_fingerprint(burst.device.ftl) == ftl_fingerprint(scalar.device.ftl)


# ----------------------------------------------------------------------
# The plan walk: victim collision guard, non-integral wear, link pass
# ----------------------------------------------------------------------

PAGE = 4 * KIB
PE_MAX = 2000.0


def _colliding_wear(pe_max):
    """The first wear value from 1020 up whose GC tie-break score (as
    the scalar greedy policy computes it) equals the score of the next
    float above it."""

    def score(wear):
        return wear / (pe_max + 1.0) * 0.5

    wear = 1020.0
    while score(wear) != score(np.nextafter(wear, np.inf)):
        wear = np.nextafter(wear, np.inf)
    return wear, np.nextafter(wear, np.inf)


def _guard_ftl(low_wear, high_wear):
    """An FTL whose next allocation reclaims exactly one block, with
    two zero-valid candidates worn ``high_wear`` (the lower block id)
    and ``low_wear``, every other block at 1500 or ``PE_MAX``."""
    geom = FlashGeometry(page_size=PAGE, pages_per_block=32, num_blocks=64)
    ftl = PageMappedFTL(
        FlashPackage(geom, seed=42),
        logical_capacity_bytes=geom.capacity_bytes // 2,
        gc_low_water=1,
        gc_high_water=2,
        wear_leveling=WearLevelingConfig(dynamic=False, static_enabled=False),
        seed=42,
    )
    lpns = np.arange(ftl.num_logical_units, dtype=np.int64)
    for _ in range(3):  # every block of the earlier passes closes fully invalid
        ftl.write_requests(lpns * PAGE, PAGE)
    zero_valid = np.flatnonzero(ftl._closed & (ftl._valid_count == 0))
    assert zero_valid.size > 2 and len(ftl._free_blocks) == ftl.gc_low_water
    wear = np.full(geom.num_blocks, 1500.0)
    wear[-1] = PE_MAX
    wear[zero_valid[0]] = high_wear
    wear[zero_valid[1]] = low_wear
    ftl.package.set_permanent_wear(wear)
    return ftl


#: Three blocks' worth of fresh 4 KiB writes: one burst segment.
GUARD_LPNS = np.arange(96, dtype=np.int64)
GUARD_SEGMENT = BurstSegment(
    unit_lpns=GUARD_LPNS, host_pages=GUARD_LPNS.size, rmw_pages=0, group=0,
    total_bytes=GUARD_LPNS.size * PAGE, request_bytes=PAGE,
)


def _guard_burst(ftl, fused):
    """Write ``GUARD_LPNS``, through the fused burst when ``fused``
    (replaying through the scalar path if it refuses)."""
    if fused and ftl.write_requests_batch([GUARD_SEGMENT], 1) is not None:
        return
    ftl.write_requests(GUARD_LPNS * PAGE, PAGE)


class TestVictimScoreGuard:
    """The walk pops zero-valid victims in (wear, block id) order; the
    scalar greedy policy takes the argmin of ``wear / (pe_max + 1) *
    0.5``.  Wear values one ulp apart can round to one score, and the
    scalar then takes the lower block id even if it is the more worn
    one, so the planner must refuse such a window."""

    def test_colliding_scores_refuse_the_window(self):
        low, high = _colliding_wear(PE_MAX)
        assert plan_write_burst(_guard_ftl(low, high), [GUARD_SEGMENT], 1, None) is None

        fused, scalar = _guard_ftl(low, high), _guard_ftl(low, high)
        _guard_burst(fused, fused=True)
        _guard_burst(scalar, fused=False)
        assert ftl_fingerprint(fused) == ftl_fingerprint(scalar)

    def test_separated_scores_plan(self):
        low, _ = _colliding_wear(PE_MAX)
        plan = plan_write_burst(_guard_ftl(low, low + 1.0), [GUARD_SEGMENT], 1, None)
        assert plan is not None and plan.n_erased >= 1

        fused, scalar = _guard_ftl(low, low + 1.0), _guard_ftl(low, low + 1.0)
        _guard_burst(fused, fused=True)
        _guard_burst(scalar, fused=False)
        assert ftl_fingerprint(fused) == ftl_fingerprint(scalar)


def _unit_segments(draws):
    """One 4 KiB-unit segment per group, group ``g`` writing ``draws[g]``."""
    return [
        BurstSegment(unit_lpns=lpns, host_pages=lpns.size, rmw_pages=0, group=g,
                     total_bytes=lpns.size * PAGE, request_bytes=PAGE)
        for g, lpns in enumerate(draws)
    ]


def _retiring_ftl(k):
    """An FTL whose next allocation reclaims, with wear preloaded so
    that the first ``k`` zero-valid candidates in the scalar's pick
    order are one erase from their cycle limits and every later one is
    not."""
    ftl = _guard_ftl(0.0, 0.0)
    pkg = ftl.package
    limits = pkg.cycle_limits()
    zero_valid = np.flatnonzero(ftl._closed & (ftl._valid_count == 0))
    order = zero_valid[np.argsort(limits[zero_valid], kind="stable")]
    retiring, rest = order[:k], order[k:]
    wear = np.zeros(pkg.num_blocks)
    wear[retiring] = np.ceil(limits[retiring]) - 1.0  # the next erase crosses
    # Every other candidate is more worn, so it is picked later, and
    # stays more than one erase under its limit.
    wear[rest] = wear[retiring].max() + 0.5
    assert (wear[rest] + 1.0 < limits[rest]).all()
    pkg.set_permanent_wear(wear)
    return ftl, retiring


class TestRetiringWalk:
    """The erase mirror retires a block that reaches its cycle limit, as
    the scalar ``erase_block`` does (DESIGN.md §11): the plan carries it
    to the commit, and only end of life truncates the window."""

    @pytest.mark.parametrize("k", [4, 5])
    def test_stall_guard(self, k):
        """Four retiring GC victims in one reclaim plan; a fifth fires
        the scalar reclaim's stall guard, so the plan bails and the
        scalar path decides."""
        ftl, retiring = _retiring_ftl(k)
        plan = plan_write_burst(ftl, [GUARD_SEGMENT], 1, None)
        if k == 4:
            assert plan is not None
            assert sorted(plan.retired.tolist()) == sorted(retiring.tolist())
        else:
            assert plan is None

        fused, _ = _retiring_ftl(k)
        scalar, _ = _retiring_ftl(k)
        reclaim = scalar._reclaim_space
        free_after = []

        def watched():
            reclaim()
            free_after.append(len(scalar._free_blocks))

        scalar._reclaim_space = watched
        _guard_burst(fused, fused=True)
        _guard_burst(scalar, fused=False)
        assert ftl_fingerprint(fused) == ftl_fingerprint(scalar)
        assert sorted(np.flatnonzero(scalar.package.bad_blocks).tolist()) == sorted(retiring.tolist())
        # The first reclaim stops at the high watermark unless the stall
        # guard breaks it with candidates left.
        assert free_after[0] == (scalar.gc_high_water if k == 4 else scalar.gc_low_water)

    @staticmethod
    def _window_cut_at_end_of_life(monkeypatch):
        """A 32-block package derated to 25 cycles with a wide endurance
        spread, written in 8-group windows of random 4 KiB units until
        one is cut at end of life.  Returns the FTL, the cut window's
        group draws and executed groups, and the link passes run so far
        (a list the link pass appends to)."""
        links = []
        next_links = burst._next_links

        def counted(*args):
            links.append(args)
            return next_links(*args)

        monkeypatch.setattr(burst, "_next_links", counted)
        geom = FlashGeometry(page_size=PAGE, pages_per_block=8, num_blocks=32)
        package = FlashPackage(
            geom, cell_spec=CELL_SPECS[CellType.MLC].derated(25), endurance_sigma=0.3, seed=0
        )
        ftl = PageMappedFTL(
            package, logical_capacity_bytes=int(geom.capacity_bytes * 0.6),
            wear_leveling=WearLevelingConfig(static_enabled=False), seed=0,
        )
        rng = np.random.default_rng(0)
        for _ in range(40):
            draws = [rng.integers(0, ftl.num_logical_units, size=32) for _ in range(8)]
            plan = ftl.write_requests_batch(_unit_segments(draws), 8)
            if plan is None:
                for lpns in draws:
                    ftl.write_requests(lpns * PAGE, PAGE)
            elif plan.executed_groups < 8:
                return ftl, draws, plan.executed_groups, links
        pytest.fail("no window reached end of life")

    def test_end_of_life_refuses_the_next_window_before_linking(self, monkeypatch):
        """After a window cut at end of life the next window would end
        life in its first group: it is refused before its link pass, and
        the scalar step bricks the device."""
        ftl, draws, m, links = self._window_cut_at_end_of_life(monkeypatch)
        assert m >= 1
        linked = len(links)
        assert ftl.write_requests_batch(_unit_segments(draws[m:]), 8 - m) is None
        with pytest.raises(DeviceWornOut):
            ftl.write_requests(draws[m] * PAGE, PAGE)
        assert len(links) == linked and ftl.read_only

    @pytest.mark.parametrize("forget", ["anneal", "restore"])
    def test_anneal_or_restore_forgets_the_refusal(self, monkeypatch, forget):
        """An anneal (one that heals nothing) or a snapshot restore
        forgets the refusal: the next window links again, and still
        finds end of life in its first group."""
        ftl, draws, m, links = self._window_cut_at_end_of_life(monkeypatch)
        if forget == "anneal":
            assert not ftl.anneal(25.0, 1.0).size
        else:
            restore_ftl(ftl, capture_ftl(ftl))
        linked = len(links)
        assert ftl.write_requests_batch(_unit_segments(draws[m:]), 8 - m) is None
        assert len(links) == linked + 1
        with pytest.raises(DeviceWornOut):
            ftl.write_requests(draws[m] * PAGE, PAGE)

    @pytest.mark.slow
    def test_end_of_life_inside_a_window(self, committed, monkeypatch):
        """A wide endurance spread run to level 11: blocks retire inside
        fused plans until the reclaim that leaves too few good blocks,
        where the window truncates and the scalar step bricks the
        device."""
        windows = []
        plan_write_burst = burst.plan_write_burst

        def run(step_batching):
            device = build_device("emmc-8gb", scale=512, seed=3, endurance_sigma=0.6)
            fs = Ext4Model(device)
            workload = FileRewriteWorkload(
                fs, num_files=4, request_bytes=4 * KIB, pattern="seq", seed=3
            )
            exp = WearOutExperiment(device, workload, filesystem=fs)
            exp.step_batching = step_batching

            def watched(ftl, segments, num_groups, stop_erases):
                plan = plan_write_burst(ftl, segments, num_groups, stop_erases)
                if plan is not None:
                    windows.append((exp.steps_completed, num_groups, plan))
                return plan

            monkeypatch.setattr(burst, "plan_write_burst", watched)
            exp.run(until_level=11)
            return exp

        fused = run(True)
        scalar = run(False)
        assert fused.result.bricked and fused.device.ftl.read_only
        assert outcome(fused) == outcome(scalar)
        assert any(plan.retired.size for plan in committed)
        # The last fused window stopped short at the end-of-life group,
        # and the device bricked on the step after it.
        start, planned, plan = windows[-1]
        assert plan.executed_groups == plan.num_groups < planned
        assert fused.steps_completed == start + plan.executed_groups


class TestFusedWalkEquivalence:
    """A fused healing trajectory, and fused runs the execution-mode
    search does not reach."""

    def test_healing_wear_fuses_and_matches_scalar(self):
        """Healing without idle periods keeps the fused loop, and its
        fractional erase increments make effective wear non-integral:
        the walk's victim order and guard run on arbitrary floats."""
        healing = HealingModel(recoverable_fraction=0.3)
        fused, scalar = make_experiment(healing=healing), make_experiment(healing=healing)
        windows = fused_windows(fused)
        scalar.step_batching = False
        for exp in (fused, scalar):
            exp.run(until_level=3)
        assert windows
        assert outcome(fused) == outcome(scalar)
        pe = fused.device.ftl.package.pe_counts
        assert (pe != np.round(pe)).any()

    def test_device_wider_than_16_bit_lpns(self):
        """emmc-8gb at scale 8 maps 122,071 units: the link pass takes
        its 64-bit branch (no committed workload does)."""
        fused, scalar = make_experiment(scale=8), make_experiment(scale=8)
        windows = fused_windows(fused)
        scalar.step_batching = False
        for exp in (fused, scalar):
            exp.run(until_level=3, max_steps=300)
        assert fused.device.ftl.num_logical_units > 1 << 16
        assert windows
        assert outcome(fused) == outcome(scalar)

    def test_aligned_requests_spanning_pages_inside_one_unit(self):
        """8 KiB aligned random rewrites on emmc-8gb's 2-page units:
        every request spans two pages but stays inside one mapping
        unit, a segment shape the page-fit stacking does not build."""

        def run(step_batching):
            device = build_device("emmc-8gb", scale=512, seed=11)
            fs = Ext4Model(device)
            # 100 MiB files scale to whole units, so every file (and
            # every request) starts on a unit boundary.
            workload = FileRewriteWorkload(
                fs, num_files=4, file_bytes=100 * MIB, request_bytes=8 * KIB,
                pattern="rand", seed=11,
            )
            exp = WearOutExperiment(device, workload, filesystem=fs)
            exp.step_batching = step_batching
            windows = fused_windows(exp)
            exp.run(until_level=3)
            return exp, windows

        fused, windows = run(True)
        scalar, scalar_windows = run(False)
        ftl = fused.device.ftl
        assert ftl.unit_pages == 2 and ftl.unit_bytes == 8 * KIB
        assert all(f.extent_start % ftl.unit_bytes == 0 for f in fused.workload.files)
        assert windows and not scalar_windows
        assert len(fused.result.increments) >= 2
        assert outcome(fused) == outcome(scalar)


def _state_bytes(tmp_path, name, state):
    """A snapshot's bytes as :func:`save_state` writes them."""
    return save_state(tmp_path / f"{name}.npz", state).read_bytes()


@pytest.fixture
def committed(monkeypatch):
    """Every plan the fused path commits, in commit order."""
    plans = []
    commit = burst.commit_planned_burst

    def recording(ftl, plan):
        plans.append(plan)
        return commit(ftl, plan)

    monkeypatch.setattr(burst, "commit_planned_burst", recording)
    return plans


def _full_ftl(pages_per_block, num_blocks, fill, wear=None):
    """A page-mapped FTL with every logical unit written once."""
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=pages_per_block, num_blocks=num_blocks)
    pkg = FlashPackage(geom, cell_spec=CELL_SPECS[CellType.MLC].derated(100_000), seed=5)
    ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * fill), seed=5)
    if wear is not None:
        pkg.set_permanent_wear(wear)
    for start in range(0, ftl.num_logical_units, 2048):
        ftl.write_span(start, min(2048, ftl.num_logical_units - start))
    return ftl


def _churn(ftl, fused, steps, per_step, hot, window=4):
    """``steps`` calls of ``per_step`` random 4 KiB writes over the first
    ``hot`` LPNs: per call through ``write_requests``, or ``window``
    calls per ``write_requests_batch`` (each must fuse whole)."""
    rng = np.random.default_rng(5)
    draws = [rng.integers(0, hot, size=per_step, dtype=np.int64) for _ in range(steps)]
    if not fused:
        for lpns in draws:
            ftl.write_requests(lpns * 4096, 4096)
        return
    for w0 in range(0, steps, window):
        segments = [
            BurstSegment(unit_lpns=lpns, host_pages=per_step, rmw_pages=0, group=g,
                         total_bytes=per_step * 4096, request_bytes=4096)
            for g, lpns in enumerate(draws[w0 : w0 + window])
        ]
        plan = ftl.write_requests_batch(segments, len(segments))
        assert plan is not None and plan.executed_groups == len(segments)


class TestRelocatingWalk:
    """Windows whose reclaims copy live data (DESIGN.md §11): greedy GC
    relocation and static wear-leveling migration run inside the walk,
    and each fused run must equal the scalar one in results, device
    fingerprint and snapshot bytes."""

    def _pair(self, tmp_path, build, churn):
        fused, scalar = build(), build()
        churn(fused, True)
        churn(scalar, False)
        assert ftl_fingerprint(fused) == ftl_fingerprint(scalar)
        assert _state_bytes(tmp_path, "fused", capture_ftl(fused)) == _state_bytes(
            tmp_path, "scalar", capture_ftl(scalar)
        )
        return fused

    def test_static_rewrite_at_86_percent_fill(self, committed):
        """A page-mapped device rewriting static data at 86% fill: GC
        victims hold live units in nearly every window."""

        def run(step_batching):
            exp = make_experiment()
            exp.step_batching = step_batching
            exp.run(until_level=2, max_steps=8)  # maps every workload file
            rewrite_static(exp, 0.86)
            exp.run_one_increment("A", max_steps=60)
            return exp

        assert outcome(run(True)) == outcome(run(False))
        assert sum(plan.gc_pages for plan in committed) > 0

    def test_gc_heavy_churn(self, tmp_path, committed):
        """``bench_perf_ftl.py``'s gc_heavy shape — 90% utilization,
        uniform random churn — through ``write_requests_batch``."""
        self._pair(
            tmp_path,
            lambda: _full_ftl(64, 256, 0.90),
            lambda ftl, fused: _churn(ftl, fused, 24, 2048, ftl.num_logical_units),
        )
        assert committed and all(plan.gc_pages > 0 for plan in committed)

    def test_static_wear_leveling_migrates(self, tmp_path, committed):
        """A preloaded wear gap over cold blocks makes static wear
        leveling migrate inside fused windows."""
        wear = np.where(np.arange(64) % 2 == 0, 0.0, 300.0)
        fused = self._pair(
            tmp_path,
            lambda: _full_ftl(16, 64, 0.80, wear),
            lambda ftl, fused: _churn(ftl, fused, 40, 256, ftl.num_logical_units // 4),
        )
        assert sum(plan.wl_runs for plan in committed) == fused.stats.wl_runs > 0
        assert sum(plan.wl_pages for plan in committed) == fused.stats.wl_pages_copied > 0

    def test_copy_spills_past_the_active_block(self, tmp_path, committed, monkeypatch):
        """Copies larger than the active block's remaining room open
        fresh blocks mid-copy, which then close into the candidates."""
        spills = []
        move = burst._Contents.move

        def watched(self, v, n, active, aoff, next_ext):
            if active is not None and n > self.upb - aoff:
                spills.append(n)
            return move(self, v, n, active, aoff, next_ext)

        monkeypatch.setattr(burst._Contents, "move", watched)
        self._pair(
            tmp_path,
            lambda: _full_ftl(8, 128, 0.85),
            lambda ftl, fused: _churn(ftl, fused, 16, 512, ftl.num_logical_units),
        )
        assert spills and sum(plan.gc_pages for plan in committed) > 0


    def test_relocating_victim_retires(self, tmp_path, committed, monkeypatch):
        """At 90% fill GC victims hold live units: blocks one erase from
        their cycle limits retire after the walk copies their units."""
        copied = []
        move = burst._Contents.move

        def watched(self, v, n, active, aoff, next_ext):
            if n:
                copied.append(v)
            return move(self, v, n, active, aoff, next_ext)

        monkeypatch.setattr(burst._Contents, "move", watched)

        def build():
            ftl = _full_ftl(64, 256, 0.90)
            weak = np.arange(0, 224, 32)  # blocks holding data
            ftl.package._cycle_limit[weak] = ftl.package.pe_counts[weak] + 0.5
            return ftl

        self._pair(
            tmp_path, build,
            lambda ftl, fused: _churn(ftl, fused, 24, 2048, ftl.num_logical_units),
        )
        retired = {int(b) for plan in committed for b in plan.retired}
        assert retired & set(copied)


def _last_seen_links(stream):
    """Reference link pass: one backward scan remembering where each
    LPN was last seen."""
    nxt = [_NEVER] * len(stream)
    seen = {}
    for i in range(len(stream) - 1, -1, -1):
        nxt[i] = seen.get(stream[i], _NEVER)
        seen[stream[i]] = i
    return nxt, sorted(seen.values())


def _check_links(stream, num_logical_units, cuts=()):
    """Link ``stream``, handed over as the parts its ``cuts`` make (empty
    parts included), and compare with the last-seen scan."""
    parts = np.split(np.asarray(stream, dtype=np.int64), sorted(cuts))
    nxt, first_pos, first_lpns = _next_links(parts, num_logical_units)
    want_nxt, want_first = _last_seen_links(list(stream))
    assert nxt.dtype == np.int64
    assert nxt.tolist() == want_nxt
    assert first_pos.tolist() == want_first
    assert first_lpns.tolist() == [stream[p] for p in want_first]


@st.composite
def _streams(draw):
    """(stream, num_logical_units, cuts) across both code widths: LPNs
    drawn over the whole range, streams all-distinct or with repeats
    from one LPN (all-same) up, split into parts anywhere."""
    num_logical_units = draw(st.sampled_from(
        [1, 2, 112, 7630, 1 << 16, (1 << 16) + 1, 122_071, (1 << 32) - 1]
    ))
    lpns = draw(st.lists(
        st.integers(min_value=0, max_value=num_logical_units - 1),
        min_size=1, max_size=60, unique=True,
    ))
    if draw(st.booleans()):
        stream = draw(st.permutations(lpns))
    else:
        stream = draw(st.lists(st.sampled_from(lpns), min_size=1, max_size=300))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=len(stream)), max_size=4))
    return stream, num_logical_units, cuts


class TestNextLinks:
    """``burst._next_links`` against a pure-Python last-seen scan."""

    @settings(max_examples=150, deadline=None)
    @given(case=_streams())
    @example(case=([5], 7630))
    @example(case=([3] * 50, 7630))
    @example(case=(list(range(200)), 1 << 16))
    @example(case=([1 << 16, 0, 1 << 16, 0], 122_071))
    @example(case=([1 << 31, 0, 1 << 31, 0], (1 << 32) - 1))
    def test_matches_last_seen_scan(self, case):
        _check_links(*case)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=(1 << 16) + 1, max_value=(1 << 17) + 1000),
        alphabet=st.sampled_from([1, 3, 500, 1 << 16]),
    )
    def test_streams_longer_than_one_32_bit_chunk(self, seed, length, alphabet):
        """Streams of three to five link-pass chunks, with 16-bit LPNs:
        each chunk sorts alone and links through each LPN's last write."""
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, alphabet, size=length).tolist()
        _check_links(stream, 1 << 16)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunks=st.integers(min_value=2, max_value=4),
        tail=st.integers(min_value=0, max_value=(1 << burst._LINK_CHUNK_BITS) - 1),
        num_logical_units=st.sampled_from([7630, 122_071]),
        alphabet=st.sampled_from([1, 3, 500, None]),
    )
    def test_lpns_recurring_across_chunk_edges(
        self, seed, chunks, tail, num_logical_units, alphabet
    ):
        """Several chunks at either code width (7,630 LPNs take 32-bit
        codes, 122,071 64-bit ones), the stream cut into parts that
        straddle chunk edges, and the units just before every chunk edge
        written again, in reverse, just after it."""
        chunk = 1 << burst._LINK_CHUNK_BITS
        rng = np.random.default_rng(seed)
        length = chunks * chunk + tail
        stream = rng.integers(0, alphabet or num_logical_units, size=length)
        for edge in range(chunk, length, chunk):
            span = min(3, length - edge)
            stream[edge : edge + span] = stream[edge - span : edge][::-1]
        cuts = rng.integers(0, length + 1, size=8).tolist()
        _check_links(stream.tolist(), num_logical_units, cuts)

    @pytest.mark.parametrize("bad", [-1, 7630])
    def test_out_of_range_lpn_refuses(self, bad):
        """An LPN outside the logical space, in any chunk, refuses the
        stream: the scalar path raises the proper error."""
        chunk = 1 << burst._LINK_CHUNK_BITS
        stream = np.zeros(2 * chunk + 5, dtype=np.int64)
        stream[chunk + 1] = bad
        assert _next_links([stream[:7], stream[7:]], 7630) is None
