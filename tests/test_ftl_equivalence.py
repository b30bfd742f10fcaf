"""Bit-identity tests for the vectorized FTL hot paths.

The FTL's write/GC/wear-leveling paths were rewritten for speed
(batch duplicate resolution, span placement, cached wear state, the
fused burst walk).  A perf "optimization" that drifts the simulation
is worse than a slow simulator, so these tests pin the complete
observable end state — mapping tables, validity, free-list, per-block
wear, bad blocks, stats, package counters — to sha256 digests captured
from the pre-optimization implementation (commit 4c627d2) on
randomized workloads, and cross-check the fast paths against their
in-tree reference implementations.

GC victim selection has one scalar implementation, the policies'
array ``select`` over the FTL's closed blocks; the ``SEED_FINGERPRINTS``
scenarios pin it (``rand-*`` and ``dup-*`` for greedy, ``seq-cb-*`` for
cost-benefit).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.ftl import PageMappedFTL
from repro.ftl.gc import CostBenefitVictimPolicy, GreedyVictimPolicy
from repro.state.snapshot import (
    capture_ftl,
    capture_package,
    load_state,
    restore_ftl,
    restore_package,
    save_state,
)
from repro.units import KIB
from tests.test_ftl_core import check_mapping_invariants


def ftl_fingerprint(ftl) -> str:
    """Digest the FTL's complete observable end state."""
    h = hashlib.sha256()
    for arr in (ftl._l2p, ftl._p2l, ftl._valid, ftl._valid_count, ftl._closed):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.array(sorted(ftl._free_blocks), dtype=np.int64).tobytes())
    pkg = ftl.package
    h.update(np.ascontiguousarray(pkg.pe_counts).tobytes())
    h.update(np.ascontiguousarray(pkg.bad_blocks).tobytes())
    h.update(repr(sorted(vars(ftl.stats).items())).encode())
    h.update(repr(sorted(vars(pkg.counters).items())).encode())
    return h.hexdigest()


def run_scenario(unit_pages, pattern, endurance=500, with_trim=True, seed=7,
                 victim_policy=None):
    """A GC-heavy randomized workload exercising every hot path.

    40 steps of 600 writes at 87% utilization on heavily derated media:
    thousands of reclaim cycles, block retirements, dynamic and static
    wear leveling, plus trims and unaligned spans sprinkled in.
    """
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
    pkg = FlashPackage(
        geom, cell_spec=CELL_SPECS[CellType.MLC].derated(endurance),
        endurance_sigma=0.05, seed=seed,
    )
    if victim_policy is None:
        victim_policy = GreedyVictimPolicy() if pattern != "seq" else CostBenefitVictimPolicy()
    ftl = PageMappedFTL(
        pkg,
        logical_capacity_bytes=int(geom.capacity_bytes * 0.87),
        mapping_unit_pages=unit_pages,
        victim_policy=victim_policy,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    page = geom.page_size
    pages_total = ftl.num_logical_units * ftl.unit_pages
    for step in range(40):
        if pattern == "rand":
            lpns = rng.integers(0, pages_total, size=600, dtype=np.int64)
        elif pattern == "dup":
            # Heavy in-batch duplication: a small hot span.
            lpns = rng.integers(0, max(8, pages_total // 16), size=600, dtype=np.int64)
        else:  # seq
            start = (step * 571) % max(1, pages_total - 600)
            lpns = np.arange(start, start + 600, dtype=np.int64)
        ftl.write_requests(lpns * page, page)
        if with_trim and step % 7 == 3:
            ftl.trim_pages(int(rng.integers(0, pages_total // 2)), 64)
        if step % 5 == 2:
            ftl.write_span(int(rng.integers(0, pages_total - 40)), 37)
    return ftl


# sha256 end-state digests captured by running run_scenario on the
# pre-optimization implementation (commit 4c627d2).
SEED_FINGERPRINTS = {
    "rand-u1": "4a10b95766173e3567259f7050dabf07f602fa7c8d81e84344117ae90df03122",
    "rand-u8": "205087b4bebe9d1df66166e2fa1832b21137126807b10cae8f7cd0dcc42f0d11",
    "dup-u1": "0fbc73455e0abbd76c74c9dc4e182aa2e2fb20ac3f2a9875e168333c1931a56b",
    "dup-u8": "5a640ea6e399190f9974fb5247027161d7bc57f63fd727e59d245f104336da7d",
    "seq-cb-u1": "3b23cfa1ced8a54d82ecab42a3a2ed36fa99c8a8e199047d1c17ae25ed1c9fcd",
    "seq-cb-u8": "9d317a5c9d7ec5fe13fcee2d867559de1d2c199503cc9940dcbe37f9493d753c",
    "rand-u2-notrim": "8a686907b7638c38fcf010deeed3132932d55556ba2f884374041bdfb4c77108",
}

SCENARIOS = {
    "rand-u1": dict(unit_pages=1, pattern="rand"),
    "rand-u8": dict(unit_pages=8, pattern="rand"),
    "dup-u1": dict(unit_pages=1, pattern="dup"),
    "dup-u8": dict(unit_pages=8, pattern="dup"),
    "seq-cb-u1": dict(unit_pages=1, pattern="seq"),
    "seq-cb-u8": dict(unit_pages=8, pattern="seq"),
    "rand-u2-notrim": dict(unit_pages=2, pattern="rand", with_trim=False, seed=11),
}


class TestSeedEquivalence:
    """End state must be bit-identical to the pre-optimization FTL."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_seed_implementation(self, name):
        ftl = run_scenario(**SCENARIOS[name])
        assert ftl_fingerprint(ftl) == SEED_FINGERPRINTS[name], (
            f"scenario {name}: optimized hot paths changed simulation results"
        )
        # GC-heavy end states, most with retired blocks: the closed
        # blocks (the GC candidates) stay disjoint from free, active
        # and bad.
        check_mapping_invariants(ftl)


class TestCheckpointRoundTripDigests:
    """Snapshot/restore must preserve the golden end states: capturing
    a scenario's FTL into a wear-state snapshot and restoring it into a
    freshly built twin reproduces the pinned digest — and continuing
    the workload from the restore point stays on the trajectory."""

    @pytest.mark.parametrize("name", ["rand-u1", "dup-u8", "seq-cb-u8"])
    def test_restored_twin_matches_golden_digest(self, name):
        ftl = run_scenario(**SCENARIOS[name])
        pkg_state = capture_package(ftl.package)
        ftl_state = capture_ftl(ftl)

        twin = _fresh_twin_for(name)
        restore_package(twin.package, pkg_state)
        restore_ftl(twin, ftl_state)
        assert ftl_fingerprint(twin) == SEED_FINGERPRINTS[name]

    def test_checkpoint_with_legacy_victim_queue_keys_restores(self, tmp_path):
        # Checkpoints written while the FTL kept a separate GC victim
        # queue carry its per-block counts, tracked total and min hint.
        # Restore ignores them (the closed blocks and valid counts hold
        # the same state), so existing warm-start checkpoint files load.
        ftl = run_scenario(**SCENARIOS["dup-u1"])
        ftl_state = capture_ftl(ftl)
        assert not any(key.startswith("gc_") for key in ftl_state)
        closed = ftl._closed
        ftl_state["gc_count_of"] = np.where(closed, ftl._valid_count, -1)
        ftl_state["gc_tracked"] = int(closed.sum())
        ftl_state["gc_min_hint"] = int(ftl._valid_count[closed].min())
        legacy = load_state(save_state(tmp_path / "legacy.npz", {"pool": ftl_state}))

        twin = _fresh_twin_for("dup-u1")
        restore_package(twin.package, capture_package(ftl.package))
        restore_ftl(twin, legacy["pool"])
        assert ftl_fingerprint(twin) == SEED_FINGERPRINTS["dup-u1"]
        check_mapping_invariants(twin)

    def test_mid_scenario_restore_continues_on_trajectory(self):
        # Stop the rand-u1 scenario halfway, snapshot, restore into a
        # twin, replay the second half on BOTH, and require the golden
        # end digest from each — the snapshot carries everything the
        # remaining steps depend on (RNG states included).
        source = run_scenario(unit_pages=1, pattern="rand")  # golden end state
        assert ftl_fingerprint(source) == SEED_FINGERPRINTS["rand-u1"]

        halted = _run_scenario_halves(first_half_only=True)
        twin = _fresh_twin_for("rand-u1")
        restore_package(twin.package, capture_package(halted.package))
        restore_ftl(twin, capture_ftl(halted))
        finished = _run_scenario_halves(first_half_only=False, resume_ftl=twin)
        assert ftl_fingerprint(finished) == SEED_FINGERPRINTS["rand-u1"]


def _fresh_twin_for(name: str) -> PageMappedFTL:
    """A just-built FTL with the same spec as run_scenario's (no
    workload applied) — the restore target."""
    opts = SCENARIOS[name]
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
    pkg = FlashPackage(
        geom, cell_spec=CELL_SPECS[CellType.MLC].derated(opts.get("endurance", 500)),
        endurance_sigma=0.05, seed=opts.get("seed", 7),
    )
    pattern = opts["pattern"]
    policy = GreedyVictimPolicy() if pattern != "seq" else CostBenefitVictimPolicy()
    return PageMappedFTL(
        pkg,
        logical_capacity_bytes=int(geom.capacity_bytes * 0.87),
        mapping_unit_pages=opts["unit_pages"],
        victim_policy=policy,
        seed=opts.get("seed", 7),
    )


def _run_scenario_halves(first_half_only: bool, resume_ftl=None):
    """run_scenario's rand-u1 workload split at step 20.  The host-side
    RNG is replayed deterministically; the FTL either runs the first 20
    steps fresh or resumes a restored twin for the last 20."""
    ftl = _fresh_twin_for("rand-u1") if resume_ftl is None else resume_ftl
    geom = ftl.geometry
    rng = np.random.default_rng(7)
    page = geom.page_size
    pages_total = ftl.num_logical_units * ftl.unit_pages
    for step in range(40):
        lpns = rng.integers(0, pages_total, size=600, dtype=np.int64)
        trim = int(rng.integers(0, pages_total // 2)) if step % 7 == 3 else None
        span = int(rng.integers(0, pages_total - 40)) if step % 5 == 2 else None
        if first_half_only and step >= 20:
            break
        if not first_half_only and step < 20:
            continue  # host RNG replayed; device work skipped
        ftl.write_requests(lpns * page, page)
        if trim is not None:
            ftl.trim_pages(trim, 64)
        if span is not None:
            ftl.write_span(span, 37)
    return ftl


class TestFastPathCrossChecks:
    def test_batched_writes_match_sequential_writes(self):
        """One batch == the same requests issued one at a time.

        Run below GC pressure so reclaim timing cannot differ between
        call granularities; this isolates the batch duplicate-resolution
        and span-placement logic.
        """
        def fresh():
            geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
            pkg = FlashPackage(geom, seed=9)
            return PageMappedFTL(
                pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.5), seed=9
            )

        rng = np.random.default_rng(9)
        pages = 200
        # In-batch duplicates included: last writer must win either way.
        batches = [rng.integers(0, pages, size=64, dtype=np.int64) for _ in range(6)]

        batched = fresh()
        for lpns in batches:
            batched.write_requests(lpns * 4 * KIB, 4 * KIB)

        sequential = fresh()
        for lpns in batches:
            for lpn in lpns:
                sequential.write_requests(np.array([lpn * 4 * KIB]), 4 * KIB)

        assert ftl_fingerprint(batched) == ftl_fingerprint(sequential)

    def test_duplicate_lpns_last_writer_wins(self):
        """Regression test for batch duplicate resolution (issue item):
        the LAST occurrence of a duplicated LPN must own the mapping."""
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
        pkg = FlashPackage(geom, seed=1)
        ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.5), seed=1)

        lpns = np.array([5, 9, 5], dtype=np.int64)
        ftl.write_requests(lpns * 4 * KIB, 4 * KIB)

        ppu_5, ppu_9 = int(ftl._l2p[5]), int(ftl._l2p[9])
        # Placement is append-order, so LPN 5's mapping must be the unit
        # programmed AFTER LPN 9's (the batch's last occurrence).
        assert ppu_5 == ppu_9 + 1
        # The first occurrence's unit was programmed but superseded in-batch.
        assert not ftl._valid[ppu_9 - 1]
        assert ftl._valid[ppu_5] and ftl._valid[ppu_9]
        assert int(np.count_nonzero(ftl._valid)) == 2
        # All three requests still hit the media (duplicates are not
        # elided from wear accounting).
        assert ftl.stats.host_pages_programmed == 3
        assert pkg.counters.page_programs == 3
        assert int(ftl._p2l[ppu_5]) == 5 and int(ftl._p2l[ppu_9]) == 9


def run_burst_scenario(fused: bool, steps: int = 120, chunk: int = 8, seed: int = 5):
    """The batched-vs-scalar differential workload: a stream of 4 KiB
    write batches that crosses from fill into GC steady state, driven
    either through ``write_burst`` (with
    per-step ``write_many`` fallback for any step the fused path
    refuses) or purely through ``write_many``.  Both must land on the
    same pinned end state."""
    from repro.devices import build_device

    device = build_device("emmc-8gb", scale=1024, seed=seed)
    rng = np.random.default_rng(seed)
    page = 4 * KIB
    span = device.logical_capacity // page
    batches = [
        rng.integers(0, span, size=96, dtype=np.int64) * page for _ in range(steps)
    ]
    durations = []
    if fused:
        for start in range(0, steps, chunk):
            window = batches[start : start + chunk]
            out = device.write_burst(np.stack(window), page, None, budget=None)
            executed = 0
            if out is not None:
                executed, seg_durations = out
                durations.extend(seg_durations)
            for offsets in window[executed:]:
                durations.append(device.write_many(offsets, page))
    else:
        for offsets in batches:
            durations.append(device.write_many(offsets, page))
    return device, durations


# End-state digest of run_burst_scenario on the scalar write_many path
# (the burst path must reproduce it bit for bit).
BURST_SCENARIO_FINGERPRINT = (
    "4f430cfc66eab07145a9e6a43d97548e189de80b403b74700ca0d7ed99e20f6c"
)


class TestWriteBurstEquivalence:
    """The fused device burst path (repro.ftl.burst) must be
    indistinguishable from per-step write_many calls."""

    def test_burst_matches_sequential_write_many(self):
        fused_device, fused_durations = run_burst_scenario(fused=True)
        scalar_device, scalar_durations = run_burst_scenario(fused=False)
        assert fused_durations == scalar_durations
        assert fused_device.busy_seconds == scalar_device.busy_seconds
        assert fused_device.host_bytes_written == scalar_device.host_bytes_written
        assert ftl_fingerprint(fused_device.ftl) == ftl_fingerprint(scalar_device.ftl)

    def test_scalar_scenario_matches_golden_digest(self):
        device, _ = run_burst_scenario(fused=False)
        assert ftl_fingerprint(device.ftl) == BURST_SCENARIO_FINGERPRINT

    def test_budget_truncates_burst_exactly(self):
        """The burst must stop at the step whose erases exhaust the
        budget — the step a scalar run would poll at."""
        from repro.devices import build_device

        fused = build_device("emmc-8gb", scale=1024, seed=5)
        scalar = build_device("emmc-8gb", scale=1024, seed=5)
        rng = np.random.default_rng(5)
        unit = fused.ftl.unit_bytes
        # Rewrite a hot region wholesale each step: previous passes'
        # blocks go fully invalid, so GC stays on the clean path the
        # burst can prove (the FileRewriteWorkload regime) while the
        # erase rate is high enough to spend a small budget mid-burst.
        region = np.arange(3000, dtype=np.int64) * unit
        batches = [rng.permutation(region) for _ in range(14)]
        # Prime both devices into GC steady state identically.
        for offsets in batches[:6]:
            fused.write_many(offsets, unit)
            scalar.write_many(offsets, unit)
        counters = fused.ftl.package.counters
        assert counters.block_erases > 0
        budget = [(counters, counters.block_erases + 30)]

        window = batches[6:]
        out = fused.write_burst(np.stack(window), unit, None, budget)
        assert out is not None
        m, seg_durations = out
        assert 1 <= m < len(window)
        assert counters.block_erases >= budget[0][1]

        scalar_durations = [scalar.write_many(offsets, unit) for offsets in batches[6 : 6 + m]]
        assert seg_durations == scalar_durations
        assert ftl_fingerprint(fused.ftl) == ftl_fingerprint(scalar.ftl)

    @pytest.mark.parametrize("rows", ["combining", "stacked"])
    def test_stacked_bucket_write_combining_screen(self, rows):
        """A window's rows are screened for write combining by each
        row's first gap and last offset.  A row that combines
        (sequential 4 KiB requests) becomes one request spanning the
        row; rows that wrap around their file, and a row whose first
        gap and last offset fit a sequential run but whose middle gaps
        do not, stay page-fit rows of the window matrix.  Either way
        every segment, duration and the device state equal per-call
        ``write_many``."""
        from repro.devices import build_device
        from repro.devices.interface import _write_combine
        from repro.ftl.ftl import _ragged_ranges
        from tests.test_state_snapshot import device_fingerprint

        def scalar_segment(ftl, offsets, request_bytes):
            # PageMappedFTL.write_requests' unit stream and page counts.
            last = offsets + request_bytes - 1
            units = _ragged_ranges(offsets // ftl.unit_bytes, last // ftl.unit_bytes)
            host = int((last // page - offsets // page + 1).sum())
            return units, host, int(units.size) * ftl.unit_pages - host

        page = 4 * KIB
        wrapped = np.array([40, 44, 0, 4, 8], dtype=np.int64) * KIB
        middle = np.array([0, 4, 12, 8, 16], dtype=np.int64) * KIB
        scattered = np.array([100, 12, 52, 200, 8], dtype=np.int64) * KIB
        sequential = 64 * KIB + np.arange(5, dtype=np.int64) * page
        calls = [wrapped, middle, scattered]
        if rows == "combining":
            calls.insert(1, sequential)

        fused = build_device("emmc-8gb", scale=1024, seed=5)
        scalar = build_device("emmc-8gb", scale=1024, seed=5)
        assert fused.ftl.unit_pages == 2  # combining changes the unit stream
        built = []
        batch = fused.ftl.write_requests_batch

        def recording(segments, num_groups, stop_erases=None):
            built.extend(segments)
            return batch(segments, num_groups, stop_erases)

        fused.ftl.write_requests_batch = recording
        out = fused.write_burst(np.stack(calls), page, None, None)
        assert out is not None and out[0] == len(calls)

        for group, (offsets, segment) in enumerate(zip(calls, built)):
            units, host, rmw = scalar_segment(scalar.ftl, *_write_combine(offsets, page))
            assert np.array_equal(segment.unit_lpns, units)
            assert (segment.host_pages, segment.rmw_pages, segment.group) == (
                host, rmw, group
            )
            assert (segment.total_bytes, segment.request_bytes) == (
                int(offsets.size) * page, page
            )
        assert out[1] == [scalar.write_many(offsets, page) for offsets in calls]
        assert device_fingerprint(fused) == device_fingerprint(scalar)

    def test_foreign_budget_counters_refuse_burst(self):
        """A budget naming another device's counters cannot be honoured;
        the burst must refuse rather than guess."""
        from repro.devices import build_device

        device = build_device("emmc-8gb", scale=1024, seed=5)
        other = build_device("emmc-8gb", scale=1024, seed=5)
        page = 4 * KIB
        data = np.array([[0, page]], dtype=np.int64)
        budget = [(other.ftl.package.counters, 10)]
        assert device.write_burst(data, page, None, budget) is None


class TestEmptyBatches:
    """Zero-request batches must be exact no-ops at every layer."""

    def test_ftl_empty_offsets(self, small_ftl):
        before = ftl_fingerprint(small_ftl)
        small_ftl.write_requests(np.array([], dtype=np.int64), 4 * KIB)
        small_ftl.read_requests(np.array([], dtype=np.int64), 4 * KIB)
        assert ftl_fingerprint(small_ftl) == before

    def test_device_empty_batch_costs_nothing(self):
        from repro.devices import build_device

        device = build_device("emmc-8gb", scale=256, seed=7)
        assert device.write_many(np.array([], dtype=np.int64), 4 * KIB) == 0.0
        assert device.read_many(np.array([], dtype=np.int64), 4 * KIB) == 0.0
        assert device.host_bytes_written == 0
        assert device.busy_seconds == 0.0

    def test_filesystem_empty_batch(self):
        from repro.devices import build_device
        from repro.fs import Ext4Model

        device = build_device("emmc-8gb", scale=256, seed=7)
        fs = Ext4Model(device)
        f = fs.create_file("victim.db", 1 << 20)
        assert fs.write_requests(f, np.array([], dtype=np.int64), 4 * KIB) == 0.0
        assert fs.app_bytes_written == 0
        assert device.host_bytes_written == 0


# ----------------------------------------------------------------------
# Cross-increment megaburst path (DESIGN.md §14)
# ----------------------------------------------------------------------

def run_trajectory(max_batch_steps=None, step_batching=True):
    """One full wear-out trajectory to level 3 through the megaburst
    loop — increments, polls, checkpoint boundaries and all — with a
    selectable window cap (``step_batching=False``: the per-step
    reference loop)."""
    from repro.core.experiment import WearOutExperiment
    from repro.devices import build_device
    from repro.fs import Ext4Model
    from repro.workloads import FileRewriteWorkload

    device = build_device("emmc-8gb", scale=2048, seed=7)
    fs = Ext4Model(device)
    workload = FileRewriteWorkload(
        fs, num_files=4, request_bytes=4 * KIB, pattern="rand", seed=7
    )
    experiment = WearOutExperiment(device, workload, filesystem=fs)
    if max_batch_steps is not None:
        experiment.max_batch_steps = max_batch_steps
    experiment.step_batching = step_batching
    experiment.run(until_level=3)
    return experiment


# End-state digest of run_trajectory — identical for every window cap
# (captured on the scalar/per-step reference loop).
TRAJECTORY_FINGERPRINT = (
    "ea1a1dc82f5b4e8858392c082db78ebf790f1aaf3c1cdc1dfbdb4959c9368022"
)


class TestMegaburstEquivalence:
    """The cross-increment megaburst loop must be window-size invariant:
    the FTL truncates every fused window exactly at the erase budget, so
    polls, increments and checkpoints land at the same steps_completed
    no matter how the plan is chopped."""

    def test_megaburst_matches_golden_digest(self):
        experiment = run_trajectory()
        assert experiment.steps_completed == 938
        assert len(experiment.result.increments) == 2
        assert ftl_fingerprint(experiment.device.ftl) == TRAJECTORY_FINGERPRINT

    @pytest.mark.parametrize("window", [1, 7, 8, 64, 1024])
    def test_window_size_invariance(self, window):
        experiment = run_trajectory(max_batch_steps=window)
        assert ftl_fingerprint(experiment.device.ftl) == TRAJECTORY_FINGERPRINT

    def test_scalar_reference_matches_golden_digest(self):
        experiment = run_trajectory()
        experiment_scalar = run_trajectory(step_batching=False)
        assert (
            ftl_fingerprint(experiment_scalar.device.ftl)
            == ftl_fingerprint(experiment.device.ftl)
            == TRAJECTORY_FINGERPRINT
        )
