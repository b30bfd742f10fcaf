"""The spot-check contract, exhaustively at small scale: every cohort
member's reported result must be JSON-identical to the scalar
``WearOutExperiment`` run the member abbreviates (DESIGN.md §12)."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    CohortResult,
    CohortSpec,
    branch_experiment,
    device_seed,
    engine,
    resolve_cohort_seed,
    run_cohort,
    scalar_member_result,
)
from repro.fleet.soa import CohortState
from repro.state import snapshot_experiment
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


def assert_all_members_equivalent(spec):
    seed = resolve_cohort_seed(spec, BASE_SEED)
    cohort = run_cohort(spec, seed)
    for index in range(spec.population):
        scalar = scalar_member_result(spec, seed, index)
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


@st.composite
def _sequential_cohorts(draw):
    """A small exact-wear cohort whose endurance spread is wide enough
    that most draws demote a member (30 of 30 in a 30-example run of
    population 3–6)."""
    spec = CohortSpec(
        device="emmc-8gb", population=draw(st.integers(min_value=3, max_value=5)),
        scale=512, filesystem=draw(st.sampled_from(["ext4", "f2fs"])), pattern="seq",
        request_bytes=4 * KIB, until_level=draw(st.integers(min_value=4, max_value=5)),
        endurance_sigma=draw(st.floats(min_value=0.6, max_value=0.8)),
    )
    return spec, resolve_cohort_seed(spec, draw(st.integers(min_value=0, max_value=2**16)))


@settings(max_examples=4, deadline=None)
@given(case=_sequential_cohorts())
def test_sequential_cohorts_match_scalar_runs(case):
    """Every demoted member — branched from the leader mid-run or built
    fresh — and one lockstep member serialize exactly as their own
    scalar runs."""
    spec, seed = case
    cohort = run_cohort(spec, seed)
    event(f"demoted members: {'yes' if cohort.demoted else 'no'}")
    lockstep = next(i for i in range(spec.population) if i not in cohort.demoted)
    for index in sorted(cohort.demoted) + [lockstep]:
        scalar = scalar_member_result(spec, seed, index)
        assert result_json(cohort.member_result(index)) == result_json(scalar), (
            f"member {index} diverged from its scalar run"
        )


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
    """Log the leader's fused windows: ``(the loop's bound, length
    passed down)`` per window."""
    windows = []
    passed = []
    shim_batch = engine._CohortStepper.step_batch
    inner_batch = FileRewriteWorkload.step_batch

    def step_batch(self, max_steps, budget):
        out = shim_batch(self, max_steps, budget)
        windows.append((max_steps, passed.pop()))
        return out

    def inner(self, n, budget=None):
        passed.append(n)
        return inner_batch(self, n, budget)

    monkeypatch.setattr(engine._CohortStepper, "step_batch", step_batch)
    monkeypatch.setattr(FileRewriteWorkload, "step_batch", inner)
    return windows


def _record_branches(monkeypatch):
    """Log every experiment the engine builds: ``{device seed: the
    snapshot it branched from}`` (None: a fresh build), plus, per
    member, the start step of the leader advance that demoted it."""
    branches = {}
    demoted_at = {}
    branch = engine.branch_experiment
    post_advance = CohortState.post_advance

    def branched(spec, seed, snapshot=None):
        branches[seed] = snapshot
        return branch(spec, seed, snapshot)

    def certified(state, experiment):
        lockstep = state.lockstep.copy()
        reason = post_advance(state, experiment)
        # Certificates run inside the advance, before the loop counts
        # its steps: steps_completed is where the advance started.
        for index in np.flatnonzero(lockstep & ~state.lockstep):
            demoted_at[int(index)] = experiment.steps_completed
        return reason

    monkeypatch.setattr(engine, "branch_experiment", branched)
    monkeypatch.setattr(CohortState, "post_advance", certified)
    return branches, demoted_at


def _assert_members_match(spec, seed, cohort, members=None):
    for index in range(spec.population) if members is None else members:
        scalar = scalar_member_result(spec, seed, index)
        assert result_json(cohort.member_result(index)) == result_json(scalar), (
            f"member {index} diverged from its scalar run"
        )


class TestCrossingAlignedWindows:
    """DESIGN.md §12: an exact-wear leader ends its windows just before
    a follower can cross, and each demoted member branches from the
    leader's snapshot at the start of the advance that demoted it, so it
    walks only that advance and its tail."""

    def test_demoted_members_equal_their_scalar_runs(self):
        seed = resolve_cohort_seed(CROSSING_SPEC, CROSSING_BASE_SEED)
        cohort = run_cohort(CROSSING_SPEC, seed)
        assert sorted(cohort.demoted) == [1, 2]
        _assert_members_match(CROSSING_SPEC, seed, cohort)

    def test_members_branch_at_the_advance_that_demoted_them(self, monkeypatch):
        branches, demoted_at = _record_branches(monkeypatch)
        seed = resolve_cohort_seed(CROSSING_SPEC, CROSSING_BASE_SEED)
        cohort = run_cohort(CROSSING_SPEC, seed)
        assert sorted(cohort.demoted) == sorted(demoted_at) == [1, 2]
        margin = engine.CROSSING_MARGIN_STEPS
        for index in cohort.demoted:
            snapshot = branches[device_seed(seed, index)]
            assert snapshot["steps_completed"] == demoted_at[index] > 0
            # Step a twin of the member from its branch, per step, to
            # the step that retires its first block: at most two margins.
            twin = branch_experiment(CROSSING_SPEC, device_seed(seed, index), snapshot)
            package = twin.device.ftl.package
            walked = 0
            while not package.num_bad_blocks:
                twin.workload.step()
                walked += 1
            assert walked <= 2 * margin

    def test_random_cohort_windows_are_not_capped(self, monkeypatch):
        """A random cohort has no exact per-block frontier: its leader
        passes its loop's bound through."""
        windows = _record_windows(monkeypatch)
        spec = replace(CROSSING_SPEC, pattern="rand", until_level=4)
        cohort = run_cohort(spec, resolve_cohort_seed(spec, CROSSING_BASE_SEED))
        assert cohort.demoted
        # Advances as counted before crossing-aligned windows existed.
        assert cohort.advances == 6
        assert windows and all(n == bound for bound, n in windows)


class TestBranchGuard:
    """A member branched mid-run gets its *fresh* RNG streams
    re-stamped, which is exact only while none of the leader's
    member-specific streams has been drawn; past a draw, demoted
    members run from the cohort's branch point.  (Undrawn streams
    branch mid-run: ``test_members_branch_at_the_advance_that_demoted_them``.)"""

    def test_drawn_stream_branches_from_the_cohort_branch_point(self, monkeypatch):
        branches, _ = _record_branches(monkeypatch)
        step_batch = FileRewriteWorkload.step_batch

        def drawing(self, n, budget=None):
            # Draw the FTL read-error stream: it moves the member
            # identity without changing any result (nothing is read).
            self.fs.device.ftl._read_rng.random()
            return step_batch(self, n, budget)

        monkeypatch.setattr(FileRewriteWorkload, "step_batch", drawing)
        seed = resolve_cohort_seed(CROSSING_SPEC, CROSSING_BASE_SEED)
        cohort = run_cohort(CROSSING_SPEC, seed)
        assert sorted(cohort.demoted) == [1, 2]
        assert all(branches[device_seed(seed, i)] is None for i in cohort.demoted)
        monkeypatch.undo()
        _assert_members_match(CROSSING_SPEC, seed, cohort, [1])


class TestHybridBranch:
    """A two-pool member branches pool by pool.  The engine never
    branches one (hybrid cohorts are lockstep-ineligible, so every
    member runs from a fresh build), so the branch is built here from a
    mid-run snapshot of an ``emmc-16gb`` leader."""

    def test_both_pools_take_the_position_and_keep_the_identity(self):
        spec = CohortSpec(device="emmc-16gb", population=2, scale=512,
                          pattern="rand", until_level=2)
        seed = resolve_cohort_seed(spec, BASE_SEED)
        leader = branch_experiment(spec, device_seed(seed, 0))
        leader.run(until_level=2, max_steps=40)
        fresh = branch_experiment(spec, device_seed(seed, 1))
        member = branch_experiment(spec, device_seed(seed, 1), snapshot_experiment(leader))
        assert list(member.device.pools) == ["A", "B"]
        for mem, pool in member.device.pools.items():
            led, own = leader.device.pools[mem], fresh.device.pools[mem]
            # The leader's position: both pools mapped and worn mid-run.
            assert np.count_nonzero(led._l2p >= 0) and led.package.counters.block_erases
            assert np.array_equal(pool._l2p, led._l2p)
            assert np.array_equal(pool._p2l, led._p2l)
            assert np.array_equal(pool.package.pe_counts, led.package.pe_counts)
            # The member's identity: its own cycle limits and fresh
            # read-error stream, not the leader's.
            assert np.array_equal(pool.package.cycle_limits(), own.package.cycle_limits())
            assert not np.array_equal(pool.package.cycle_limits(), led.package.cycle_limits())
            assert pool._read_rng.bit_generator.state == own._read_rng.bit_generator.state
            assert pool._read_rng.bit_generator.state != led._read_rng.bit_generator.state


class TestLeaderChoice:
    """An exact-wear cohort is led by the member whose weakest block is
    strongest, so a weak member 0 is demoted alone."""

    #: Members 0 and 1 retire a block before level 5 (weakest cycle
    #: limits ~913 and ~943); member 2 (~1298) is the strongest.
    SPEC = replace(CROSSING_SPEC, population=4)
    BASE_SEED = 12

    def test_weak_member_0_is_demoted_alone(self, monkeypatch):
        leaders = []
        check_leader = CohortState.check_leader

        def checked(state, experiment):
            leaders.append(state.leader)
            return check_leader(state, experiment)

        monkeypatch.setattr(CohortState, "check_leader", checked)
        seed = resolve_cohort_seed(self.SPEC, self.BASE_SEED)
        cohort = run_cohort(self.SPEC, seed)
        assert leaders == [2]
        assert sorted(cohort.demoted) == [0, 1]
        assert cohort.canary_reason is None
        assert cohort.demote_summary["retirement-margin"] == 2
        _assert_members_match(self.SPEC, seed, cohort, [0, 3])


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

    def test_the_leader_row_never_counts(self):
        state = self._state(leader=2)
        pe = np.array([1.0, 2.0])
        assert state.follower_slack(pe) == -1.0  # member 0, block 1
        state.lockstep[0] = False
        assert state.follower_slack(pe) == 3.0  # member 1, block 0
