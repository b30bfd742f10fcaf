"""Shared builders and observables for the equivalence tests.

Pytest does not collect this module (its name does not match
``test_*.py``).  Test modules import the run builder, the
fingerprints, the fused-window counter and :func:`outcome` from here,
so no test module imports another and deleting one breaks no other.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.fs import make_filesystem
from repro.ftl import HybridFTL
from repro.state.snapshot import save_state, snapshot_experiment
from repro.units import KIB
from repro.workloads import FileRewriteWorkload
from repro.workloads.wearout import fill_static_space

#: Catalog devices at this scale (or any down to 512) sit at their
#: 64 MiB floor: a few hundred steps per wear level.
SCALE = 2048


def ftl_fingerprint(ftl) -> str:
    """Digest a page-mapped FTL's complete observable end state."""
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


def pools(ftl):
    """The page-mapped FTLs behind a device's FTL (both hybrid pools)."""
    return (ftl.pool_a, ftl.pool_b) if isinstance(ftl, HybridFTL) else (ftl,)


def device_fingerprint(device) -> str:
    """End-state digest across all of a device's FTL pools + host
    counters (hybrid-safe extension of ``ftl_fingerprint``)."""
    h = hashlib.sha256()
    for pool in pools(device.ftl):
        h.update(ftl_fingerprint(pool).encode())
    h.update(repr((device.host_bytes_written, round(device.busy_seconds, 9))).encode())
    return h.hexdigest()


def result_json(experiment) -> str:
    return json.dumps(experiment.result.to_dict(), sort_keys=True)


def check_mapping_invariants(ftl) -> None:
    """The structural invariants every page-mapped FTL state must satisfy."""
    l2p, p2l, valid = ftl._l2p, ftl._p2l, ftl._valid
    mapped = l2p[l2p >= 0]
    # Every mapped unit points at a valid physical unit, and back.
    assert valid[mapped].all()
    assert (p2l[mapped] == np.nonzero(l2p >= 0)[0]).all()
    # No physical unit is valid without a logical owner.
    assert valid.sum() == (l2p >= 0).sum()
    # Per-block valid counts match the bitmap.
    counts = np.bincount(
        (mapped // ftl.units_per_block).astype(np.int64), minlength=ftl.geometry.num_blocks
    )
    assert (counts == ftl._valid_count).all()
    # Block states partition the package: closed (the GC candidates),
    # free, active and bad are disjoint and cover every block.
    n = ftl.geometry.num_blocks
    closed = ftl._closed
    bad = ftl.package.bad_blocks
    free = np.zeros(n, dtype=bool)
    free[ftl._free_blocks] = True
    assert len(ftl._free_blocks) == int(free.sum())  # no block listed twice
    active = np.zeros(n, dtype=bool)
    if ftl._active_block is not None:
        active[ftl._active_block] = True
    states = closed.astype(int) + free + active + bad
    assert (states == 1).all()


def make_experiment(device="emmc-8gb", fs_kind="ext4", seed=7, scale=SCALE, healing=None,
                    idle_seconds=0.0, fast_poll=True, pattern="rand", request_bytes=4 * KIB,
                    num_files=4, endurance_sigma=None):
    """A small catalog-device wear-out experiment (optionally with a
    healing model swapped in and per-step idle periods)."""
    dev = build_device(device, scale=scale, seed=seed, endurance_sigma=endurance_sigma)
    if healing is not None:
        for pkg in dev._packages():
            pkg.healing = healing
    fs = make_filesystem(fs_kind, dev)
    workload = FileRewriteWorkload(
        fs, num_files=num_files, request_bytes=request_bytes, pattern=pattern, seed=seed
    )
    if idle_seconds:
        workload = IdleBetweenSteps(workload, dev, idle_seconds)
    return WearOutExperiment(dev, workload, filesystem=fs, fast_poll=fast_poll)


class IdleBetweenSteps:
    """Workload wrapper: every step is followed by an idle (healing)
    period — wear moves *down* between polls, exercising the budget's
    conservative side.  It has no class-level ``step_batch``, so the
    experiment loop steps it through the generic per-step batcher."""

    def __init__(self, inner, device, idle_seconds):
        self._inner = inner
        self._device = device
        self._idle = idle_seconds

    def step(self):
        out = self._inner.step()
        self._device.idle(self._idle, temp_c=60.0)
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def rewrite_static(exp, fill):
    """Fill ``fill`` of the device with static data (on a hybrid, 86%
    merges the pools) and swap in 4 KiB random rewrites of two of its
    files.  Run the experiment a few steps first so every workload file
    is mapped."""
    static = fill_static_space(exp.filesystem, fill)
    exp.workload = FileRewriteWorkload(
        exp.filesystem, request_bytes=4 * KIB, target_files=static[:2], seed=8
    )


def fused_windows(exp):
    """Live list of ``(executed, planned)`` step counts, one per window
    the experiment's device executed fused."""
    device = exp.device
    inner = device.write_burst
    windows = []

    def write_burst(data, request_bytes, meta, budget):
        planned = len(data)
        out = inner(data, request_bytes, meta, budget)
        if out is not None:
            windows.append((out[0], planned))
        return out

    device.write_burst = write_burst
    return windows


def metrics_snapshot(registry) -> str:
    """A registry's snapshot as JSON, with the wall-clock histogram
    ``experiment.increment_wall_s`` cut to its observation count: every
    other instrument must match across execution modes."""
    snapshot = registry.snapshot()
    snapshot["experiment.increment_wall_s"] = snapshot["experiment.increment_wall_s"]["count"]
    return json.dumps(snapshot, sort_keys=True)


def outcome(exp, checkpoint_dir=None):
    """Every observable two execution modes of one run must agree on:
    results, device and FTL state, clocks and volumes, the end
    snapshot's bytes as :func:`save_state` writes them, and the bytes of
    every checkpoint file in ``checkpoint_dir``.  Each FTL pool must
    also pass :func:`check_mapping_invariants`."""
    device = exp.device
    for pool in pools(device.ftl):
        check_mapping_invariants(pool)
    with tempfile.TemporaryDirectory() as tmp:
        end_state = save_state(Path(tmp) / "end.npz", snapshot_experiment(exp)).read_bytes()
    checkpoints = {}
    if checkpoint_dir is not None:
        checkpoints = {path.name: path.read_bytes() for path in sorted(Path(checkpoint_dir).iterdir())}
    return (
        result_json(exp),
        device_fingerprint(device),
        device.busy_seconds,
        getattr(device.ftl, "host_pages_requested", None),
        exp.clock.now,
        exp.steps_completed,
        exp.filesystem.app_bytes_written,
        end_state,
        checkpoints,
    )
