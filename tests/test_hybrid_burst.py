"""Differential tests for fused bursts on the hybrid FTL (DESIGN.md §16).

A two-pool device fuses like a page-mapped one: every write call is
routed to its pool, each pool is planned under its own erase stop, and
both are cut at the shorter plan.  Merged pools fuse too: each call's
pool-B requests also stage through pool A's ring, and both pools' GC
relocates live data inside the walk.  The contract is the same
bit-identity as everywhere else — a batched run must equal the
``step_batching=False`` loop in result JSON, device fingerprint, and
the hybrid's own ``host_pages_requested`` — whichever pool stops a
window, when a weak block retires inside one pool's fused plan, through Table 1's
merged phases, and when a window is refused (a request straddling the
hot window, fresh pool-B mappings that could merge the pools).  Table
1's phases on the catalog hybrid, merged pools included, are also
searched in every execution mode by tests/test_execution_modes.py.
"""

from __future__ import annotations

import numpy as np

from repro.core.experiment import WearOutExperiment
from repro.devices.interface import BlockDevice
from repro.devices.perf import PerformanceModel
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.fs import Ext4Model
from repro.ftl import HybridFTL, burst
from repro.units import KIB, MIB
from repro.workloads import FileRewriteWorkload
from repro.workloads.wearout import fill_static_space
from tests.modes import device_fingerprint, result_json


def _device(endurance_a=20_000, endurance_b=1_000, hot_window=256 * KIB,
            merge_utilization=0.8, endurance_sigma=0.05, seed=3):
    """A small hybrid: 2 MiB SLC pool A, 12 MiB MLC pool B, 10 MiB host
    space whose lowest ``hot_window`` bytes route to pool A."""
    geom_a = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    geom_b = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=96)
    pkg_a = FlashPackage(geom_a, cell_spec=CELL_SPECS[CellType.SLC].derated(endurance_a),
                         seed=seed, endurance_sigma=endurance_sigma)
    pkg_b = FlashPackage(geom_b, cell_spec=CELL_SPECS[CellType.MLC].derated(endurance_b),
                         seed=seed, endurance_sigma=endurance_sigma)
    ftl = HybridFTL(pkg_a, pkg_b, logical_capacity_bytes=10 * MIB,
                    hot_window_bytes=hot_window, staging_bytes=512 * KIB,
                    merge_utilization=merge_utilization, mapping_unit_pages=2, seed=seed)
    return BlockDevice("hybrid-test", ftl,
                       PerformanceModel(peak_write_mib_s=60.0, write_half_size=2 * KIB))


def _experiment(step_batching=True, request_bytes=4 * KIB, pattern="rand",
                file_bytes=512 * KIB, batch_requests=256, **device_kwargs):
    device = _device(**device_kwargs)
    fs = Ext4Model(device)
    workload = FileRewriteWorkload(
        fs, num_files=4, file_bytes=file_bytes, request_bytes=request_bytes,
        pattern=pattern, batch_requests=batch_requests, seed=3,
    )
    exp = WearOutExperiment(device, workload, filesystem=fs)
    exp.step_batching = step_batching
    return exp


def _outcome(exp):
    """Every observable the batched and scalar loops must agree on."""
    return (
        result_json(exp),
        device_fingerprint(exp.device),
        exp.device.ftl.host_pages_requested,
        exp.clock.now,
        exp.steps_completed,
        exp.filesystem.app_bytes_written,
    )


def _windows(exp):
    """Log every fused window: None for a refused window, else
    ``(executed, planned, pools whose budget the window spent)``."""
    device = exp.device
    inner = device.write_burst
    pools = (("A", device.ftl.pool_a), ("B", device.ftl.pool_b))
    log = []

    def traced(data, request_bytes, meta, budget):
        out = inner(data, request_bytes, meta, budget)
        if out is None:
            log.append(None)
        else:
            spent = "".join(
                name for name, pool in pools
                if any(c is pool.package.counters and c.block_erases >= t for c, t in budget or ())
            )
            log.append((out[0], len(data), spent))
        return out

    device.write_burst = traced
    return log


def _differential(until_level=3, max_steps=1_000_000, max_batch_steps=None, **kwargs):
    batched = _experiment(**kwargs)
    batched.max_batch_steps = max_batch_steps
    log = _windows(batched)
    batched.run(until_level=until_level, max_steps=max_steps)
    scalar = _experiment(step_batching=False, **kwargs)
    scalar.run(until_level=until_level, max_steps=max_steps)
    assert _outcome(batched) == _outcome(scalar)
    return batched, log


class TestPoolStops:
    def test_pool_b_budget_stops_first(self):
        exp, log = _differential()
        assert exp.device.burst_eligible()
        assert any(w and w[2] == "B" for w in log)
        assert None not in log

    def test_pool_a_budget_stops_first(self):
        """A low-endurance pool A spends its budget first: pool B's
        longer plan is re-walked at A's executed group count."""
        exp, log = _differential(endurance_a=300, max_batch_steps=1024)
        assert [r.memory_type for r in exp.result.increments] == ["A", "A"]
        assert any(w and w[2] == "A" and w[0] < w[1] for w in log)

    def test_retirement_crossing_in_one_pool(self, monkeypatch):
        """A weak pool-B block retires mid-window: the fused pool-B plan
        retires it inside the walk, no window is refused, and later
        windows fuse around it."""
        retiring = []
        commit = burst.commit_planned_burst

        def recording(pool, plan):
            if plan.retired.size:
                retiring.append(pool)
            return commit(pool, plan)

        monkeypatch.setattr(burst, "commit_planned_burst", recording)
        exp, log = _differential(endurance_sigma=0.8, seed=9)
        ftl = exp.device.ftl
        assert ftl.pool_b.package.bad_blocks_view.any()
        assert not ftl.pool_a.package.bad_blocks_view.any()
        assert retiring and all(pool is ftl.pool_b for pool in retiring)
        assert None not in log


class TestEndOfLife:
    def test_end_of_life_refuses_the_next_window_before_linking(self, monkeypatch):
        """A weak pool B run until it bricks: the window cut at end of
        life is followed by one refused before its link pass, and the
        scalar step bricks the device."""
        exp = _experiment(endurance_b=60, endurance_sigma=0.3)
        log = _windows(exp)
        linked = []  # the window each link pass ran in
        next_links = burst._next_links

        def counted(*args):
            linked.append(len(log))
            return next_links(*args)

        monkeypatch.setattr(burst, "_next_links", counted)
        exp.run(until_level=11)
        assert exp.result.bricked and exp.device.ftl.pool_b.read_only
        cut, refused = log[-2:]
        assert cut is not None and cut[0] < cut[1] and refused is None
        assert linked[-1] < len(log) - 1


class TestRefusedWindows:
    def test_straddling_request_leaves_device_untouched(self):
        device = _device()
        before = device_fingerprint(device)
        window = device.ftl.hot_window_bytes
        data = np.array([[window - 4 * KIB]], dtype=np.int64)
        assert device.write_burst(data, 8 * KIB, None, None) is None
        assert device_fingerprint(device) == before

    def test_straddling_requests_match_scalar(self):
        """128 KiB sequential rewrites cross a hot window that ends
        mid-request: those windows stay scalar."""
        exp, log = _differential(hot_window=320 * KIB, request_bytes=128 * KIB,
                                 pattern="seq", batch_requests=8, max_steps=60)
        assert log and None in log

    def test_fresh_pool_b_mappings_near_merge_match_scalar(self, monkeypatch):
        """Sequential first writes map pool B up past merge_utilization:
        a window that could merge the pools stays scalar, and once
        merged the windows fuse again."""
        merges = []
        could_merge = HybridFTL.could_merge

        def traced(self, b_lpns):
            merges.append(could_merge(self, b_lpns))
            return merges[-1]

        monkeypatch.setattr(HybridFTL, "could_merge", traced)
        exp, log = _differential(file_bytes=2 * MIB, pattern="seq", batch_requests=16,
                                 until_level=2, max_steps=200)
        assert log[0] is not None and None in log
        assert True in merges
        assert exp.device.ftl.merged_mode and exp.device.burst_eligible()
        assert log[-1] is not None


class TestPhaseProtocol:
    @staticmethod
    def _table1(step_batching):
        """Table 1's phase protocol (campaign runner ``_run_table1``)
        on the small hybrid: 4 KiB rand, 128 KiB seq, then a rand
        rewrite of static data that merges the pools."""
        device = _device(endurance_a=1_000, endurance_b=500)
        fs = Ext4Model(device)
        exp = WearOutExperiment(device, FileRewriteWorkload(
            fs, num_files=4, file_bytes=512 * KIB, batch_requests=256, seed=3,
        ), filesystem=fs)
        exp.step_batching = step_batching
        log = _windows(exp)
        for _ in range(2):
            exp.run_one_increment("B")
        exp.workload = FileRewriteWorkload(
            fs, request_bytes=128 * KIB, pattern="seq", batch_requests=256,
            target_files=exp.workload.files, seed=3,
        )
        exp.run_one_increment("B")
        fused = sum(w[0] for w in log if w)
        static = fill_static_space(fs, 0.86)
        exp.workload = FileRewriteWorkload(
            fs, request_bytes=4 * KIB, batch_requests=256, target_files=static[:2], seed=4,
        )
        assert device.ftl.merged_mode and device.burst_eligible()
        exp.run_one_increment("A")
        exp.run_one_increment("A")
        merged_fused = sum(w[0] for w in log if w) - fused
        return exp, fused, merged_fused

    def test_matches_scalar(self):
        batched, fused, merged_fused = self._table1(step_batching=True)
        scalar, _, _ = self._table1(step_batching=False)
        assert fused > 0
        assert merged_fused > 0
        assert _outcome(batched) == _outcome(scalar)
        assert [r.memory_type for r in batched.result.increments].count("A") >= 2
        ftl = batched.device.ftl
        # The merged phases staged through pool A's ring, migrated cold
        # pool-A data, and relocated in pool B's GC.
        assert ftl.pool_a.stats.migration_pages > 0
        assert ftl.pool_a.stats.wl_pages_copied > 0
        assert ftl.pool_b.stats.gc_pages_copied > 0

    def test_first_window_after_workload_swap_is_a_pilot(self):
        """The erase rate learned on 4 KiB rand says nothing about the
        128 KiB seq phase: the first fused window after the swap is a
        pilot, not a window sized from the stale rate."""
        exp = _experiment()
        exp.max_batch_steps = 1024  # a stale-rate window would exceed the pilot
        exp.run_one_increment("B")
        assert exp._erase_rate
        seq = FileRewriteWorkload(
            exp.filesystem, request_bytes=128 * KIB, pattern="seq", batch_requests=256,
            target_files=exp.workload.files, seed=3,
        )
        sizes = []
        step_batch = seq.step_batch

        def traced(n, budget=None):
            sizes.append(n)
            return step_batch(n, budget)

        seq.step_batch = traced
        exp.workload = seq
        exp.run_one_increment("B")
        assert sizes and sizes[0] <= exp._pilot_batch_steps
