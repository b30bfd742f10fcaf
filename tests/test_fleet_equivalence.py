"""The spot-check contract, exhaustively at small scale: every cohort
member's reported result must be JSON-identical to the scalar
``WearOutExperiment`` run the member abbreviates (DESIGN.md §12)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import (
    CohortResult,
    CohortSpec,
    engine,
    resolve_cohort_seed,
    run_cohort,
    scalar_member_result,
)
from repro.fleet.soa import CohortState
from repro.ftl import plancache
from repro.units import KIB
from repro.workloads import FileRewriteWorkload

BASE_SEED = 7

#: A sequential cohort with a clean leader (weakest cycle limit ~1275)
#: and two weak followers (~782 and ~879).  Both followers retire a
#: block inside the same leader window when the leader's windows are
#: not crossing-aligned: its last window then runs from step 1407 to the
#: end at 1875, and the crossings fall near steps 1495 and 1680.
CROSSING_SPEC = CohortSpec(device="emmc-8gb", population=3, scale=512,
                           pattern="seq", request_bytes=4 * KIB,
                           until_level=5, endurance_sigma=0.45)
CROSSING_BASE_SEED = 24


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_all_members_equivalent(spec, checkpoint_dir=None):
    seed = resolve_cohort_seed(spec, BASE_SEED)
    cohort = run_cohort(spec, seed, checkpoint_dir=checkpoint_dir)
    for index in range(spec.population):
        scalar = scalar_member_result(spec, seed, index, checkpoint_dir=checkpoint_dir)
        assert result_json(cohort.member_result(index)) == result_json(scalar), (
            f"member {index} diverged from its scalar run"
        )
    return cohort


class TestMemberEquivalence:
    def test_rand_cohort_all_members(self):
        # The entropy-certificate mode: member workload entropy differs,
        # the certificates prove the observables are shared.
        spec = CohortSpec(device="emmc-8gb", population=4, scale=512,
                         pattern="rand", until_level=3)
        cohort = assert_all_members_equivalent(spec)
        assert cohort.lockstep_count == 4
        assert cohort.ineligible_reason is None

    @pytest.mark.slow
    def test_seq_cohort_all_members(self):
        # The exact-P/E mode: no workload entropy reaches the device, so
        # follower wear arrays equal the leader's element-wise.
        spec = CohortSpec(device="emmc-8gb", population=3, scale=512,
                         filesystem="f2fs", pattern="seq",
                         request_bytes=128 * KIB, until_level=3)
        cohort = assert_all_members_equivalent(spec)
        assert cohort.lockstep_count == 3

    def test_warm_started_cohort_all_members(self, tmp_path):
        # Branching from a cached prototype snapshot must not change a
        # single bit of any member's result.
        spec = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=3, warm_until=2)
        cold = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=3)
        warm_cohort = assert_all_members_equivalent(spec, checkpoint_dir=str(tmp_path))
        assert warm_cohort.lockstep_count == 2
        # warm_until is part of the cohort's identity (and seed), so
        # only compare structure, not bits, against the cold variant.
        assert cold.warm_until is None

    @pytest.mark.slow
    def test_ineligible_cohort_demotes_all_and_stays_exact(self):
        # Hybrid (two-pool) devices cannot be certified; the engine must
        # fall back to all-scalar execution, not refuse or approximate.
        spec = CohortSpec(device="emmc-16gb", population=2, scale=512,
                         pattern="rand", until_level=2)
        cohort = assert_all_members_equivalent(spec)
        assert cohort.ineligible_reason is not None
        assert cohort.lockstep_count == 1  # only the leader itself
        assert set(cohort.demoted) == {1}
        assert cohort.demote_summary.get("ineligible") == 1


class TestDemotionHeavyPlanSharing:
    @pytest.mark.slow
    def test_demotion_heavy_seq_cohort_shares_leader_plans(self):
        """DESIGN.md §15: a wide endurance spread demotes members whose
        weak blocks retire mid-run.  Their replays must ride the
        leader's fused windows (demoted plan-cache hits) up to their own
        crossing window, retire the block inside its fresh plan, and
        still be bit-identical to their scalar runs — as must every
        lockstep member."""
        spec = CohortSpec(device="emmc-8gb", population=4, scale=512,
                          pattern="seq", request_bytes=4 * KIB,
                          until_level=5, endurance_sigma=0.5)
        prev_enabled = plancache.cache().enabled
        plancache.configure(enabled=True)
        plancache.clear()
        plancache.cache().reset_stats()
        try:
            cohort = assert_all_members_equivalent(spec)
        finally:
            plancache.clear()
            plancache.configure(enabled=prev_enabled)
        assert cohort.demoted, "endurance spread produced no demotions"
        assert 0 < len(cohort.demoted) < spec.population
        assert cohort.plan_stats["demoted"]["hits"] > 0, (
            "demoted replays never hit the leader's plans"
        )
        # plan_stats is session telemetry, not part of the canonical
        # record: serialization drops it and a deserialized clone
        # carries none, so fingerprints stay worker-count invariant.
        assert "plan_stats" not in cohort.to_dict()
        assert CohortResult.from_dict(cohort.to_dict()).plan_stats is None


class TestCohortResultRecord:
    def test_dict_roundtrip(self):
        spec = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=2)
        seed = resolve_cohort_seed(spec, BASE_SEED)
        cohort = run_cohort(spec, seed)
        clone = CohortResult.from_dict(cohort.to_dict())
        assert clone.spec == cohort.spec
        assert clone.cohort_seed == cohort.cohort_seed
        assert result_json(clone.shared) == result_json(cohort.shared)
        assert clone.demote_summary == cohort.demote_summary
        assert clone.advances == cohort.advances

    def test_member_result_bounds(self):
        spec = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=2)
        cohort = run_cohort(spec, resolve_cohort_seed(spec, BASE_SEED))
        with pytest.raises(IndexError):
            cohort.member_result(2)
        with pytest.raises(IndexError):
            cohort.member_result(-1)


def _record_windows(monkeypatch):
    """Log every window of a cohort run's shimmed experiments: one list
    per experiment, in run order (the leader first), of ``(start step,
    the loop's bound, length passed down, steps executed, replayed,
    bad blocks after)``."""
    runs = {}
    steps = {}
    passed = []
    shim_step = engine._CohortStepper.step
    shim_batch = engine._CohortStepper.step_batch
    inner_batch = FileRewriteWorkload.step_batch

    def step(self):
        steps[self] = steps.get(self, 0) + 1
        return shim_step(self)

    def step_batch(self, max_steps, budget):
        hits = plancache.stats()["hits"]
        out = shim_batch(self, max_steps, budget)
        executed = len(out[0]) if out is not None else 0
        start = steps.get(self, 0)
        steps[self] = start + executed
        bad = self._inner.fs.device.ftl.package.num_bad_blocks
        runs.setdefault(self, []).append(
            (start, max_steps, passed.pop(), executed, plancache.stats()["hits"] > hits, bad)
        )
        return out

    def inner(self, n, budget=None):
        passed.append(n)
        return inner_batch(self, n, budget)

    monkeypatch.setattr(engine._CohortStepper, "step", step)
    monkeypatch.setattr(engine._CohortStepper, "step_batch", step_batch)
    monkeypatch.setattr(FileRewriteWorkload, "step_batch", inner)
    return runs


class TestCrossingAlignedWindows:
    """DESIGN.md §12, §15: an exact-wear leader ends its windows just
    before a follower can cross, and each demoted member follows the
    leader's window schedule up to its own first retirement — replaying
    the leader's plans there and walking only the crossing window and
    its tail fresh."""

    @pytest.fixture
    def cache_on(self):
        prev_enabled = plancache.cache().enabled
        plancache.configure(enabled=True)
        plancache.clear()
        yield
        plancache.clear()
        plancache.configure(enabled=prev_enabled)

    @pytest.mark.parametrize("enabled", [True, False], ids=["cache-on", "cache-off"])
    def test_demoted_members_equal_their_scalar_runs(self, enabled):
        prev_enabled = plancache.cache().enabled
        plancache.configure(enabled=enabled)
        plancache.clear()
        try:
            seed = resolve_cohort_seed(CROSSING_SPEC, CROSSING_BASE_SEED)
            cohort = run_cohort(CROSSING_SPEC, seed)
            assert sorted(cohort.demoted) == [1, 2]
            for index in range(CROSSING_SPEC.population):
                scalar = scalar_member_result(CROSSING_SPEC, seed, index)
                assert result_json(cohort.member_result(index)) == result_json(scalar), (
                    f"member {index} diverged from its scalar run"
                )
        finally:
            plancache.clear()
            plancache.configure(enabled=prev_enabled)

    @pytest.mark.usefixtures("cache_on")
    def test_members_replay_the_leader_up_to_their_crossing(self, monkeypatch):
        runs = _record_windows(monkeypatch)
        seed = resolve_cohort_seed(CROSSING_SPEC, CROSSING_BASE_SEED)
        cohort = run_cohort(CROSSING_SPEC, seed)
        assert sorted(cohort.demoted) == [1, 2]
        leader, *members = runs.values()
        assert len(members) == 2
        assert not leader[-1][5], "the leader retired a block"
        schedule = {start: n for start, _, n, *_ in leader}
        margin = engine.CROSSING_MARGIN_STEPS
        assert margin in schedule.values(), "no margin-size leader window"
        for log in members:
            k = next(i for i, window in enumerate(log) if window[5])
            before, crossing, after = log[:k], log[k], log[k + 1:]
            # Up to its crossing a member runs the leader's windows and
            # replays every one of them.
            assert before
            assert all(n == schedule[start] and hit for start, _, n, _, hit, _ in before)
            # The window holding its first retirement is the leader's
            # too, walked fresh, and at most two margins long: no
            # more than that is walked fresh before the crossing.
            start, _, n, executed, hit, _ = crossing
            assert n == schedule[start] and not hit
            assert executed <= 2 * margin
            # Past its first retirement the member's windows are its
            # own: the loop's bound passes through, and they leave the
            # leader's schedule.
            assert after
            assert all(n == bound for _, bound, n, *_ in after)
            assert any(schedule.get(start) != n for start, _, n, *_ in after)

    def test_random_cohort_windows_are_not_capped(self, monkeypatch):
        """A random member's pattern RNG is in the probe, so it can
        never replay the leader: a random cohort's leader passes its
        loop's bound through and its members follow no schedule."""
        runs = _record_windows(monkeypatch)
        spec = replace(CROSSING_SPEC, pattern="rand", until_level=4)
        cohort = run_cohort(spec, resolve_cohort_seed(spec, CROSSING_BASE_SEED))
        assert cohort.demoted
        # Advances as counted before crossing-aligned windows existed.
        assert cohort.advances == 6
        (leader,) = runs.values()
        assert all(n == bound for _, bound, n, *_ in leader)


class TestFollowerSlack:
    """``CohortState.follower_slack``: erases of one block left before
    the weakest lockstep follower reaches the exact-mode frontier."""

    @staticmethod
    def _state(**overrides):
        limits = np.array([[2.0, 2.0], [5.0, 7.0], [6.0, 4.0]])
        fields = dict(
            seeds=[0, 1, 2],
            limits=limits,
            min_limit=limits.min(axis=1),
            lockstep=np.ones(3, dtype=bool),
            demote_reason=np.zeros(3, dtype=np.int8),
            wl_threshold=0.0,
            wl_interval=0.0,
            exact_pe=True,
        )
        fields.update(overrides)
        return CohortState(**fields)

    def test_minimum_over_lockstep_followers(self):
        state = self._state()
        pe = np.array([1.0, 2.0])
        # Row 0 is the leader and never counts (its slack here is 0).
        assert state.follower_slack(pe) == 1.0  # member 2, block 1
        state.lockstep[2] = False
        assert state.follower_slack(pe) == 3.0  # member 1, block 0

    def test_none_outside_exact_mode(self):
        assert self._state(exact_pe=False).follower_slack(np.zeros(2)) is None

    def test_none_after_the_canary(self):
        assert self._state(canary_fired=True).follower_slack(np.zeros(2)) is None

    def test_none_without_a_lockstep_follower(self):
        state = self._state()
        state.lockstep[1:] = False
        assert state.follower_slack(np.zeros(2)) is None
