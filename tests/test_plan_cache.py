"""Differential tests for the megaburst plan cache (DESIGN.md §14).

The plan cache memoizes whole fused-burst windows keyed on an exact
probe of every value the planner reads.  Its contract is the same as
the burst path it caches: bit-identity.  A replayed window must leave
every layer — FTL, flash counters, device clock, filesystem cursors,
workload RNG — in exactly the state a freshly planned window would,
and any state the probe cannot vouch for must force a miss, never a
wrong replay.  These tests run identical and perturbed trajectories
with the cache on, off, and size-capped, and require every observable
to match the uncached reference exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import CampaignRunner, ResultStore
from repro.campaign.runner import _worker_init
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.fleet import CohortSpec, resolve_cohort_seed, run_cohort
from repro.fs import Ext4Model, F2fsModel
from repro.ftl import burst, plancache
from repro.units import KIB, MIB
from repro.workloads import FileRewriteWorkload
from tests.test_burst_batching import SCALE, _experiment, _outcome
from tests.test_ftl_equivalence import ftl_fingerprint
from tests.test_megaburst_fallback import _fused_steps
from tests.test_state_snapshot import device_fingerprint, result_json


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty, enabled, default-sized cache."""
    plancache.clear()
    plancache.cache().reset_stats()
    plancache.configure(enabled=True, max_bytes=256 * 1024 * 1024)
    yield
    plancache.clear()
    plancache.configure(enabled=True, max_bytes=256 * 1024 * 1024)


@pytest.fixture
def shared_plans():
    """Run the test inside ``plancache.sharing()``: outside a scope the
    cache is never probed and windows stay small (DESIGN.md §14)."""
    with plancache.sharing():
        yield


@pytest.mark.usefixtures("shared_plans")
class TestCacheBitIdentity:
    """Cached replays must be indistinguishable from fresh planning."""

    def test_cache_off_matches_cache_on(self):
        cached = _experiment()
        cached.run(until_level=3)
        assert plancache.stats()["captures"] > 0

        with plancache.disabled():
            fresh = _experiment()
            fresh.run(until_level=3)

        assert _outcome(cached) == _outcome(fresh)

    def test_identical_rerun_hits_and_matches(self):
        first = _experiment()
        first.run(until_level=3)
        captures = plancache.stats()["captures"]
        assert captures > 0

        second = _experiment()
        second.run(until_level=3)

        stats = plancache.stats()
        assert stats["hits"] > 0
        assert stats["captures"] == captures  # nothing new to capture
        assert _outcome(first) == _outcome(second)

    def test_hits_replay_budget_truncated_windows(self):
        """A trajectory to level 3 crosses increments, so some cached
        windows were truncated by the erase budget; replaying them must
        stop at the same step and reproduce the whole outcome."""
        first = _experiment()
        first.run(until_level=3)
        assert len(first.result.increments) >= 2

        second = _experiment()
        second.run(until_level=3)
        assert plancache.stats()["hits"] > 0
        assert [r.to_dict() for r in first.result.increments] == [
            r.to_dict() for r in second.result.increments
        ]

    def test_deeper_run_reuses_shallower_runs_windows(self):
        """Runs to different levels share a trajectory prefix; the
        deeper run must replay the shallower run's windows and still
        match an uncached deep run exactly."""
        shallow = _experiment()
        shallow.run(until_level=2)

        deep = _experiment()
        deep.run(until_level=4)
        assert plancache.stats()["hits"] > 0

        with plancache.disabled():
            reference = _experiment()
            reference.run(until_level=4)
        assert _outcome(deep) == _outcome(reference)

    @pytest.mark.parametrize("fs_cls", [Ext4Model, F2fsModel])
    def test_filesystem_state_replay(self, fs_cls):
        """Replayed windows advance the fs cursors (journal / node
        debt) exactly as fresh execution does, for both fs models."""
        first = _experiment(fs_cls)
        first.run(until_level=3)
        second = _experiment(fs_cls)
        second.run(until_level=3)
        assert plancache.stats()["hits"] > 0
        assert _outcome(first) == _outcome(second)


@pytest.mark.usefixtures("shared_plans")
class TestCacheInvalidation:
    """Any state the probe covers must force a miss when it drifts."""

    def test_perturbed_ftl_state_misses(self):
        """An extra write before the run shifts the FTL state; every
        cached window must miss and the run must match an uncached
        reference of the same perturbed sequence."""
        first = _experiment()
        first.run(until_level=3)
        plancache.cache().reset_stats()

        def perturbed():
            exp = _experiment()
            exp.device.write_many(np.array([0], dtype=np.int64), 4 * KIB)
            exp.run(until_level=3)
            return exp

        cached = perturbed()
        with plancache.disabled():
            reference = perturbed()
        # Soundness over hit rate: whatever the perturbed run replayed
        # (usually nothing — the probe catches the drift), the outcome
        # must equal the uncached reference of the same sequence.
        assert _outcome(cached) == _outcome(reference)

    def test_different_seed_misses(self):
        first = _experiment(seed=7)
        first.run(until_level=2)
        plancache.cache().reset_stats()
        other = _experiment(seed=8)
        other.run(until_level=2)
        assert plancache.stats()["hits"] == 0

    def test_different_pattern_misses(self):
        first = _experiment(pattern="rand")
        first.run(until_level=2)
        plancache.cache().reset_stats()
        other = _experiment(pattern="seq")
        other.run(until_level=2)
        with plancache.disabled():
            reference = _experiment(pattern="seq")
            reference.run(until_level=2)
        assert _outcome(other) == _outcome(reference)


class TestCachePolicy:
    """Size caps, disabling, and worker hygiene."""

    @pytest.mark.usefixtures("shared_plans")
    def test_lru_byte_cap_evicts_and_stays_correct(self):
        plancache.configure(max_bytes=1)  # every insert immediately over cap
        first = _experiment()
        first.run(until_level=3)
        stats = plancache.stats()
        assert stats["evictions"] > 0

        second = _experiment()
        second.run(until_level=3)
        assert _outcome(first) == _outcome(second)

    @pytest.mark.usefixtures("shared_plans")
    def test_many_windows_of_one_length_all_replay(self):
        """Eviction is by bytes and by entry, never by a count per
        static key: a trajectory with more than 32 windows of one length
        keeps its early windows, and an identical rerun replays every
        window."""
        first = _experiment(pattern="seq")
        first.max_batch_steps = 8
        first.run(until_level=3)
        buckets = plancache.cache()._entries.values()
        assert max(len(bucket) for bucket in buckets) > 32

        plancache.cache().reset_stats()
        second = _experiment(pattern="seq")
        second.max_batch_steps = 8
        second.run(until_level=3)
        stats = plancache.stats()
        assert stats["misses"] == 0
        assert stats["hits"] > 32
        assert stats["evictions"] == 0
        assert _outcome(first) == _outcome(second)

    @pytest.mark.usefixtures("shared_plans")
    def test_disabled_context_manager(self):
        with plancache.disabled():
            exp = _experiment()
            exp.run(until_level=2)
            assert plancache.stats()["captures"] == 0
        assert plancache.cache().enabled

    @pytest.mark.usefixtures("shared_plans")
    def test_configure_disable_aborts_capture(self):
        plancache.configure(enabled=False)
        exp = _experiment()
        exp.run(until_level=2)
        assert plancache.stats()["captures"] == 0
        assert plancache.active_capture() is None
        plancache.configure(enabled=True)

    @pytest.mark.parametrize("raw,enabled", [("0", False), ("off", False), ("1", True)])
    def test_env_var_controls_cache(self, raw, enabled):
        """REPRO_PLAN_CACHE is read at import: check in a fresh
        interpreter so the module-level init actually runs."""
        import os
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.ftl import plancache; print(plancache.cache().enabled)"],
            env={**os.environ, "REPRO_PLAN_CACHE": raw},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == str(enabled)

    @pytest.mark.usefixtures("shared_plans")
    def test_worker_init_clears_inherited_cache(self):
        exp = _experiment()
        exp.run(until_level=2)
        assert plancache.stats()["entries"] > 0
        _worker_init()
        assert plancache.stats()["entries"] == 0

    @pytest.mark.slow
    def test_cohort_lru_eviction_stays_correct(self):
        """Satellite: forcing the byte cap down to nothing while a
        demotion-heavy cohort shares plans between its leader and its
        demoted replays must evict constantly and change no result bit —
        the cohort record equals the cache-disabled run exactly."""
        spec = CohortSpec(device="emmc-8gb", population=4, scale=512,
                          pattern="seq", request_bytes=4 * KIB,
                          until_level=5, endurance_sigma=0.5)
        seed = resolve_cohort_seed(spec, 7)

        plancache.configure(max_bytes=1)  # every insert immediately over cap
        capped = run_cohort(spec, seed)
        assert plancache.stats()["evictions"] > 0

        plancache.clear()
        with plancache.disabled():
            reference = run_cohort(spec, seed)
        assert capped.demoted and reference.demoted
        assert json.dumps(capped.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    @pytest.mark.usefixtures("shared_plans")
    def test_ineligible_device_captures_nothing(self):
        """A statically ineligible device (event timing backend) never
        arms a capture, so ineligible runs cost no cache traffic."""
        device = build_device("emmc-8gb", scale=SCALE, seed=7, timing="event")
        assert not device.burst_eligible()
        fs = Ext4Model(device)
        workload = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=7)
        exp = WearOutExperiment(device, workload, filesystem=fs)
        # A burst-eligible device would arm a capture in its first
        # fused window, right after the opening poll step.
        exp.run(until_level=2, max_steps=10)
        assert exp.steps_completed == 10
        stats = plancache.stats()
        assert stats["captures"] == 0
        assert stats["misses"] == 0

    @pytest.mark.usefixtures("shared_plans")
    def test_hybrid_windows_fuse_but_never_capture(self):
        """Hybrid windows fuse (DESIGN.md §16) but stay out of the
        cache: lookup declines the two-pool budget before arming a
        capture, and no figure point repeats a hybrid window."""
        device = build_device("emmc-16gb", scale=SCALE, seed=7)
        fs = Ext4Model(device)
        workload = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=7)
        exp = WearOutExperiment(device, workload, filesystem=fs)
        fused = _fused_steps(exp)
        exp.run(until_level=2)
        assert sum(fused) > 0
        # No miss means lookup never reached the cache, so no capture
        # was ever armed.
        stats = plancache.stats()
        assert stats["captures"] == 0
        assert stats["misses"] == 0
        assert stats["hits"] == 0


class TestSharingScope:
    """Plans are probed, captured and replayed only inside
    ``plancache.sharing()``; the window cap follows the scope."""

    @staticmethod
    def _window_sizes(exp):
        """Live list of the step counts of every window offered to the
        device's fused path."""
        device = exp.device
        inner = device.write_burst
        sizes = []

        def write_burst(data, request_bytes, meta, budget):
            sizes.append(len(data))
            return inner(data, request_bytes, meta, budget)

        device.write_burst = write_burst
        return sizes

    def test_cold_run_never_probes_and_plans_small_windows(self):
        """Outside a scope a window takes as many steps as the cold
        byte budget holds: 16 steps of 4,096 4 KiB requests."""
        exp = _experiment()
        sizes = self._window_sizes(exp)
        exp.run(until_level=2)
        stats = plancache.stats()
        assert stats["captures"] == 0
        assert stats["misses"] == 0
        assert stats["hits"] == 0
        assert exp.workload.step_bytes == 16 * MIB
        assert max(sizes) == plancache.COLD_WINDOW_BYTES // exp.workload.step_bytes == 16

    def test_cold_128k_phase_after_a_swap_plans_the_floor(self):
        """Table 1's protocol: 4 KiB random rewrite, then 128 KiB
        sequential rewrite of the same files, 512 MiB a step, over the
        cold budget.  The loop reads the new workload's step size at
        the swap, so the second phase plans the 2-step floor, never
        more, and the run equals its per-step run."""

        def run(step_batching):
            device = build_device("emmc-8gb", scale=SCALE, seed=7)
            fs = Ext4Model(device)
            first = FileRewriteWorkload(fs, num_files=4, file_bytes=256 * MIB,
                                        request_bytes=4 * KIB, pattern="rand", seed=7)
            exp = WearOutExperiment(device, first, filesystem=fs)
            exp.step_batching = step_batching
            sizes = self._window_sizes(exp)
            exp.run_one_increment()
            before = list(sizes)
            sizes.clear()
            exp.workload = FileRewriteWorkload(fs, request_bytes=128 * KIB, pattern="seq",
                                               target_files=first.files, seed=7)
            exp.run_one_increment()
            return exp, before, sizes

        fused, before, after = run(step_batching=True)
        assert max(before) == 16
        assert fused.workload.step_bytes > plancache.COLD_WINDOW_BYTES
        assert after and max(after) == 2

        scalar, _, _ = run(step_batching=False)
        assert len(scalar.result.increments) == 2
        assert result_json(fused) == result_json(scalar)
        assert ftl_fingerprint(fused.device.ftl) == ftl_fingerprint(scalar.device.ftl)

    def test_scope_is_reentrant_and_plans_big_windows(self):
        with plancache.sharing():
            with plancache.sharing():
                exp = _experiment()
                sizes = self._window_sizes(exp)
                exp.run(until_level=2)
            assert plancache.sharing.depth == 1
        assert plancache.sharing.depth == 0
        assert plancache.stats()["captures"] > 0
        assert max(sizes) > 8

    @staticmethod
    def _campaign(seeds, levels):
        points = [
            PointSpec(kind="wearout", device="emmc-8gb", scale=SCALE, seed=seed,
                      filesystem="ext4", until_level=level)
            for seed, level in zip(seeds, levels)
        ]
        return CampaignRunner(CampaignSpec(name="sharing", points=points), ResultStore(None))

    def test_points_sharing_a_warm_key_replay(self):
        runner = self._campaign(seeds=(7, 7), levels=(2, 3))
        assert all(p["share_plans"] for p in runner.pending_points())
        runner.run()
        assert plancache.stats()["hits"] > 0

    def test_points_without_a_shared_warm_key_never_look_up(self):
        runner = self._campaign(seeds=(7, 8), levels=(2, 2))
        assert not any(p["share_plans"] for p in runner.pending_points())
        runner.run()
        stats = plancache.stats()
        assert stats["captures"] == stats["misses"] == stats["hits"] == 0


class TestEraseStopFold:
    """``BlockDevice.erase_stops`` folds a poll budget into one erase
    stop per pool for the page-mapped burst, the hybrid burst and the
    plan-cache lookup alike."""

    @staticmethod
    def _workload(device_name, seed=7):
        device = build_device(device_name, scale=SCALE, seed=seed)
        return FileRewriteWorkload(Ext4Model(device), num_files=4, request_bytes=4 * KIB, seed=seed)

    @staticmethod
    def _foreign():
        return build_device("emmc-8gb", scale=SCALE, seed=8).ftl.package.counters

    @pytest.mark.parametrize("device_name", ["emmc-8gb", "emmc-16gb"])
    def test_foreign_counter_refuses_the_window(self, device_name):
        workload = self._workload(device_name)
        device = workload.fs.device
        own = device._packages()[0].counters
        foreign = self._foreign()
        budget = [(own, own.block_erases + 50), (foreign, foreign.block_erases + 50)]
        assert device.erase_stops(budget) is None
        before = device_fingerprint(device)
        assert workload.step_batch(8, budget) is None
        assert device_fingerprint(device) == before
        # Without the foreign pair the same window fuses.
        assert workload.step_batch(8, budget[:1]) is not None

    def test_lookup_declines_a_foreign_counter_without_capture(self):
        workload = self._workload("emmc-8gb")
        own = workload.fs.device.ftl.package.counters
        foreign = self._foreign()
        with plancache.sharing():
            assert plancache.lookup(workload, 8, [(foreign, foreign.block_erases + 50)]) is None
            assert plancache.active_capture() is None
            assert plancache.stats()["misses"] == 0
            # Under its own counter the same window probes and arms one.
            assert plancache.lookup(workload, 8, [(own, own.block_erases + 50)]) is None
            assert plancache.active_capture() is not None
            plancache.abort_capture()

    def test_counter_named_twice_takes_the_per_pool_minimum(self):
        paged = self._workload("emmc-8gb").fs.device
        c = paged.ftl.package.counters
        assert paged.erase_stops([(c, c.block_erases + 4), (c, c.block_erases + 9)]) == [4]
        assert paged.erase_stops(None) == [None]

        hybrid = self._workload("emmc-16gb").fs.device
        a, b = (package.counters for package in hybrid._packages())
        budget = [(a, a.block_erases + 7), (b, b.block_erases + 5), (a, a.block_erases + 3)]
        assert hybrid.erase_stops(budget) == [3, 5]
        assert hybrid.erase_stops([(b, b.block_erases + 2)]) == [None, 2]

        # The fused path stops where the tighter pair alone stops it.
        twins = []
        for doubled in (True, False):
            exp = _experiment()
            exp.run(until_level=1)
            c = exp.device.ftl.package.counters
            budget = [(c, c.block_erases + 2)]
            if doubled:
                budget.append((c, c.block_erases + 40))
            out = exp.workload.step_batch(64, budget)
            assert out is not None and 1 <= len(out[0]) < 64
            twins.append((out, _outcome(exp)))
        assert twins[0] == twins[1]


@pytest.mark.usefixtures("shared_plans")
class TestMemberLimitRevalidation:
    """Per-block cycle limits live outside the equality probe; `find`
    re-proves the retirement check structurally via `_limits_admit`
    (DESIGN.md §15), so plans captured on one device replay on a twin
    with looser limits and miss on a twin whose limit a planned erase
    would cross — whose fresh plan then retires the block inside the
    walk and is never captured."""

    def test_limits_admit_is_structural(self):
        exp = _experiment(pattern="seq")
        exp.run(until_level=3)
        entries = [e for b in plancache.cache()._entries.values() for e in b]
        erasing = [e.plan for e in entries if e.plan.vic_u.size]
        assert erasing, "no cached window performed an erase"

        limits = exp.device.ftl.package._cycle_limit
        plan = erasing[0]
        # The capturing device's own limits admit (the walk proved every
        # intermediate check), and looser limits always admit.
        assert plancache._limits_admit(plan, limits)
        assert plancache._limits_admit(plan, limits + 1000.0)
        # A limit at the plan's final wear on any victim refuses: the
        # fresh walk would retire the block at that erase.
        tight = limits.copy()
        pos = int(np.argmax(plan.vic_eff))
        tight[int(plan.vic_u[pos])] = plan.vic_eff[pos]
        assert not plancache._limits_admit(plan, tight)
        # An erase-free plan never read the limits: any draw admits.
        erase_free = [e.plan for e in entries if not e.plan.vic_u.size]
        for plan in erase_free:
            assert plancache._limits_admit(plan, np.zeros_like(limits))

    def test_looser_member_replays_leader_plans(self):
        leader = _experiment(pattern="seq")
        leader.run(until_level=3)
        assert plancache.stats()["captures"] > 0

        def loosened():
            exp = _experiment(pattern="seq")
            pkg = exp.device.ftl.package
            pkg._cycle_limit = pkg._cycle_limit + 50.0
            return exp

        plancache.cache().reset_stats()
        member = loosened()
        member.run(until_level=3)
        assert plancache.stats()["hits"] > 0
        with plancache.disabled():
            reference = loosened()
            reference.run(until_level=3)
        assert _outcome(member) == _outcome(reference)

    def test_tighter_member_misses_and_retires_exactly(self, monkeypatch):
        leader = _experiment(pattern="seq")
        leader.run(until_level=3)
        entries = [e for b in plancache.cache()._entries.values() for e in b]
        erasing = [e.plan for e in entries if e.plan.vic_u.size]
        assert erasing
        # Clamp one victim's limit to the final wear the hottest cached
        # plan records for it: `find` must refuse that plan, and the
        # fresh walk retires the block inside the window — identically
        # to never having cached anything.
        plan = max(erasing, key=lambda p: float(p.vic_eff.max()))
        pos = int(np.argmax(plan.vic_eff))
        victim = int(plan.vic_u[pos])
        ceiling = float(plan.vic_eff[pos])

        def tightened():
            exp = _experiment(pattern="seq")
            pkg = exp.device.ftl.package
            pkg._cycle_limit = pkg._cycle_limit.copy()
            pkg._cycle_limit[victim] = ceiling
            return exp

        # The member's windows in order: a hit, or a miss and the plan
        # its fresh walk committed, with the capture armed for it.
        windows = []
        lookup = plancache.lookup
        commit = burst.commit_planned_burst

        def looked_up(workload, n, budget):
            out = lookup(workload, n, budget)
            windows.append(["hit" if out is not None else "miss", None, None])
            return out

        def committed(ftl, fresh):
            if windows and windows[-1][0] == "miss":
                windows[-1][1:] = [fresh, plancache.active_capture()]
            return commit(ftl, fresh)

        monkeypatch.setattr(plancache, "lookup", looked_up)
        monkeypatch.setattr(burst, "commit_planned_burst", committed)
        plancache.cache().reset_stats()
        member = tightened()
        member.run(until_level=3)
        monkeypatch.undo()
        with plancache.disabled():
            reference = tightened()
            reference.run(until_level=3)
        assert _outcome(member) == _outcome(reference)
        # The tightened limit must actually bite (the refused plan was
        # re-planned fresh, not replayed): the member's trajectory
        # diverges from the leader's at the retirement crossing.
        assert _outcome(member) != _outcome(leader)

        # The member replays the leader's windows up to its crossing
        # window, whose fresh plan retires the block under an armed
        # capture and is never cached.
        crossing = next(i for i, w in enumerate(windows) if w[0] == "miss")
        assert crossing > 0
        _, retiring, capture = windows[crossing]
        assert retiring is not None and victim in retiring.retired.tolist()
        assert capture is not None
        cached = [e.plan for b in plancache.cache()._entries.values() for e in b]
        assert all(not p.retired.size for p in cached)
