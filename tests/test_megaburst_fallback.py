"""Fallbacks and the hybrid fused path under the megaburst compiler.

The megaburst loop (DESIGN.md §14) may only ever *accelerate* a
configuration the fused path can prove; everything else must take the
scalar reference path and land bit-identically on it.  These tests pin
healing models with idle periods and ``fast_poll=False`` against both
the per-step loop and golden end-state digests, so a future megaburst
change that silently widens eligibility (or worse, drifts a fallback)
fails loudly.  Hybrid devices fuse (DESIGN.md §16), merged pools
included: their golden digest, pinned when they still ran scalar, must
come out of fused windows unchanged, and merged-mode windows — staging
ring and relocating GC — must match the per-step loop.
"""

from __future__ import annotations

import pytest

from repro.flash.healing import HealingModel
from repro.ftl import plancache
from repro.units import KIB
from repro.workloads import FileRewriteWorkload
from repro.workloads.wearout import fill_static_space
from tests.test_state_snapshot import device_fingerprint, make_experiment, result_json

SCALE = 2048

# End-state digests of the batched (default) runs below, equal by
# construction to the scalar reference path's digests — pinned so
# eligibility widening that drifts any config fails loudly.
GOLDEN = {
    "hybrid": "aedf807c63d8f84ad4c0c1a642127c3209355da2896d0b5669c3799b71123d0d",
    "healing": "359bfa6d612d1effe73a588c8ce9e28983029ef62912dd8e18c6cce5746910a2",
    "naive_poll": "089e5d4871ec3050c384dcf933462f3ef4bb5b10672463c0966a4a1f7d3f7a9c",
}


@pytest.fixture(autouse=True)
def fresh_cache():
    plancache.clear()
    plancache.cache().reset_stats()
    yield
    plancache.clear()


def _hybrid_experiment(**kwargs):
    return make_experiment(device="emmc-16gb", scale=SCALE, **kwargs)


def _healing_experiment(**kwargs):
    healing = HealingModel(recoverable_fraction=0.3, time_constant_days=2.0)
    return make_experiment(scale=SCALE, healing=healing, idle_seconds=1800.0, **kwargs)


def _fused_steps(exp):
    """Live list of the step counts the device executed fused."""
    device = exp.device
    inner = device.write_burst
    fused = []

    def write_burst(data, request_bytes, meta, budget):
        out = inner(data, request_bytes, meta, budget)
        if out is not None:
            fused.append(out[0])
        return out

    device.write_burst = write_burst
    return fused


class TestHybridFused:
    """Unmerged hybrid (two-pool) FTLs take the fused path, with each
    pool planned under its own erase stop (DESIGN.md §16)."""

    def test_batched_is_fused_and_matches_scalar_and_golden(self):
        batched = _hybrid_experiment()
        assert batched.device.burst_eligible() is True
        fused = _fused_steps(batched)
        batched.run(until_level=2)

        scalar = _hybrid_experiment()
        scalar.step_batching = False
        scalar.run(until_level=2)

        assert sum(fused) > 0
        assert result_json(batched) == result_json(scalar)
        assert batched.device.ftl.host_pages_requested == scalar.device.ftl.host_pages_requested
        assert device_fingerprint(batched.device) == device_fingerprint(scalar.device)
        assert device_fingerprint(batched.device) == GOLDEN["hybrid"]

    def test_merged_pools_fuse_and_match_scalar(self):
        """Merged mode stages every write through pool A's ring; its
        windows fuse, GC relocation included, and match the scalar
        path."""

        def experiment(step_batching):
            exp = _hybrid_experiment()
            exp.step_batching = step_batching
            exp.run(until_level=2, max_steps=8)  # maps every workload file
            static = fill_static_space(exp.filesystem, 0.86)
            exp.workload = FileRewriteWorkload(
                exp.filesystem, request_bytes=4 * KIB, target_files=static[:2], seed=8
            )
            return exp

        batched = experiment(True)
        assert batched.device.ftl.merged_mode
        assert batched.device.burst_eligible() is True
        fused = _fused_steps(batched)
        batched.run_one_increment("A", max_steps=20)

        scalar = experiment(False)
        scalar.run_one_increment("A", max_steps=20)

        assert sum(fused) > 0
        assert batched.device.ftl.stats.gc_pages_copied > 0
        assert result_json(batched) == result_json(scalar)
        assert device_fingerprint(batched.device) == device_fingerprint(scalar.device)

    def test_no_cache_traffic(self):
        with plancache.sharing():
            exp = _hybrid_experiment()
            exp.run(until_level=2)
        stats = plancache.stats()
        assert stats["captures"] == 0 and stats["misses"] == 0


class TestHealingFallback:
    """Idle-healing workloads are wrapped (per-step idle between
    writes); the wrapper has no class-level step_batch, so the generic
    per-step batcher must carry it — never the inner fused path."""

    def test_batched_matches_scalar_and_golden(self):
        batched = _healing_experiment()
        batched.run(until_level=2)

        scalar = _healing_experiment()
        scalar.step_batching = False
        scalar.run(until_level=2)

        assert result_json(batched) == result_json(scalar)
        assert device_fingerprint(batched.device) == device_fingerprint(scalar.device)
        assert device_fingerprint(batched.device) == GOLDEN["healing"]

    def test_wrapper_resolves_to_generic_stepper(self):
        from repro.workloads import generic_step_batch  # noqa: F401 — doc import

        exp = _healing_experiment()
        stepper = exp._resolve_stepper()
        # A functools.partial over generic_step_batch, not the inner
        # workload's bound fused method.
        assert getattr(stepper, "func", None) is not None
        assert stepper.func.__name__ == "generic_step_batch"


class TestNaivePollFallback:
    """fast_poll=False never builds a poll budget, so the batched loop
    degenerates to the scalar reference loop step for step."""

    def test_batched_matches_scalar_and_golden(self):
        batched = make_experiment(scale=SCALE, fast_poll=False)
        batched.run(until_level=3)

        scalar = make_experiment(scale=SCALE, fast_poll=False)
        scalar.step_batching = False
        scalar.run(until_level=3)

        assert result_json(batched) == result_json(scalar)
        assert device_fingerprint(batched.device) == device_fingerprint(scalar.device)
        assert device_fingerprint(batched.device) == GOLDEN["naive_poll"]

    def test_matches_fast_poll_trajectory(self):
        """And the naive reference still agrees with the fused
        fast-poll loop — the invariant the whole stack rests on."""
        fast = make_experiment(scale=SCALE)
        fast.run(until_level=3)
        naive = make_experiment(scale=SCALE, fast_poll=False)
        naive.run(until_level=3)
        assert result_json(fast) == result_json(naive)
        assert device_fingerprint(fast.device) == device_fingerprint(naive.device)
