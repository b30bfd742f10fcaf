"""One property search over the experiment's execution modes.

A wear-out run must reach the same trajectory bit for bit however it
executes (DESIGN.md §10, §11, §14, §16).  Hypothesis draws a run and
executes it four ways: naive (``fast_poll=False``: every step scalar
and polled), scalar (``step_batching=False``: polls skipped behind the
erase budget), fused (the default loop, stopped at a drawn step and
continued in place), and restored (the fused run's state at that step,
written with ``save_state``, restored into a fresh twin with
``restore_experiment`` and continued: the restore a demoted cohort
member's branch runs, DESIGN.md §12).

The draw: a page-mapped ``emmc-8gb`` or hybrid ``emmc-16gb`` at scale
2048; ext4 or f2fs; rand, seq or stride rewrites of 4, 8 or 128 KiB
requests over one to four files; no endurance spread, or 0.35 on seeds
whose weakest block retires before level 3; no healing, healing, or
healing with idle periods (a wrapped workload that never fuses); an
interval checkpoint every 0, 5 or 13 steps; a window cap; metrics on
or off; and a phase: a run to level 2 or 3, Table 1's switch from 4 to
128 KiB sequential requests, or its static-fill rewrite to one Type A
increment (merged pools on the hybrid).  Hybrid and idle-healing
stages stop early: their reference modes cost several times more.

Every mode must give one :func:`tests.modes.outcome` (results, device
fingerprint, clocks and volumes, end-snapshot and checkpoint-file
bytes, mapping invariants on every pool) and all but the restored
twin, whose registry starts empty, one metrics snapshot.  A draw the
fused path can take must fuse a window; the reference modes fuse none.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.flash.healing import HealingModel
from repro.ftl import burst
from repro.obs import MetricsRegistry, metrics_enabled
from repro.state import CheckpointManager, load_state, restore_experiment, save_state, snapshot_experiment
from repro.units import KIB
from repro.workloads import FileRewriteWorkload
from repro.workloads.wearout import fill_static_space
from tests.modes import (
    IdleBetweenSteps,
    device_fingerprint,
    fused_windows,
    make_experiment,
    metrics_snapshot,
    outcome,
)

#: Seeds whose weakest ``emmc-8gb`` block, at scale 2048 and
#: ``endurance_sigma=0.35``, has a cycle limit under 490: it retires
#: between level 2 and level 3 (found by scanning ``endurance_draw``
#: over a million seeds; a typical seed's weakest block lasts to level 6).
WEAK_SEEDS = (957875, 299931, 364172, 551844, 336091)

HEALING = HealingModel(recoverable_fraction=0.3, time_constant_days=2.0)

#: Idle seconds after every step of an idle-healing draw.
IDLE_SECONDS = 1800.0

#: Steps a stage may take when it has no tighter bound of its own.
UNBOUNDED = 1_000_000


@st.composite
def _runs(draw):
    device = draw(st.sampled_from(["emmc-8gb", "emmc-16gb"]))
    sigma = draw(st.sampled_from([None, 0.35]))
    phase = draw(st.sampled_from(["level", "switch", "static"]))
    return {
        "device": device,
        "fs": draw(st.sampled_from(["ext4", "f2fs"])),
        "pattern": draw(st.sampled_from(["rand", "seq", "stride"])),
        "request": draw(st.sampled_from([4, 8, 128])) * KIB,
        "files": draw(st.integers(min_value=1, max_value=4)),
        "sigma": sigma,
        "seed": draw(st.sampled_from(WEAK_SEEDS) if sigma else st.integers(0, 2**16)),
        "healing": draw(st.sampled_from([None, "heal", "idle"])),
        "interval": draw(st.sampled_from([0, 5, 13])),
        "cap": draw(st.sampled_from([None, 1, 7, 64, 1024])),
        "metrics": draw(st.booleans()),
        "phase": phase,
        # A spread draw runs deep enough for its weak block to retire.
        "level": 3 if sigma else draw(st.integers(min_value=2, max_value=3)),
        "split": draw(st.integers(min_value=1, max_value=99)),
    }


def _build(case, mode):
    exp = make_experiment(
        device=case["device"], fs_kind=case["fs"], seed=case["seed"],
        healing=HEALING if case["healing"] else None,
        idle_seconds=IDLE_SECONDS if case["healing"] == "idle" else 0.0,
        fast_poll=mode != "naive", pattern=case["pattern"], request_bytes=case["request"],
        num_files=case["files"], endurance_sigma=case["sigma"],
    )
    exp.step_batching = mode != "scalar"
    exp.max_batch_steps = case["cap"]
    return exp


def _rewrite(exp, case, **kwargs):
    """Swap in a rewrite workload on the experiment's filesystem,
    wrapped for idle periods as the first one was."""
    workload = FileRewriteWorkload(exp.filesystem, **kwargs)
    if case["healing"] == "idle":
        workload = IdleBetweenSteps(workload, exp.device, IDLE_SECONDS)
    exp.workload = workload


def _switch(exp, case):
    """Table 1's second phase: 128 KiB sequential rewrites of the same files."""
    _rewrite(exp, case, request_bytes=128 * KIB, pattern="seq",
             target_files=exp.workload.files, seed=case["seed"])


def _static(exp, case):
    """Table 1's last phase: static data to 86% of the device (which
    merges the hybrid's pools), then 4 KiB random rewrites of two of
    its files."""
    static = fill_static_space(exp.filesystem, 0.86)
    _rewrite(exp, case, request_bytes=4 * KIB, target_files=static[:2], seed=case["seed"] + 1)


def _stages(case):
    """The run as stages ``(swap, method, argument, max_steps)``: each
    replaces the workload with ``swap`` (when not None), then calls
    ``method(argument, max_steps=...)`` on the experiment."""
    hybrid = case["device"] == "emmc-16gb"
    # A hybrid or idle-healing step costs the reference modes two to
    # four page-mapped ones (a merged rewrite at 86% fill, thirty):
    # their stages stop early, after ``bound`` steps' worth of 4 KiB
    # requests.
    bound = 80 if case["healing"] == "idle" else 150 if hybrid else UNBOUNDED

    def steps(request, bound=bound):
        return max(1, bound * 4 * KIB // request)

    mem = "B" if hybrid else "A"
    if case["phase"] == "switch":
        return [(None, "run_one_increment", mem, steps(case["request"])),
                (_switch, "run_one_increment", mem, steps(128 * KIB))]
    if case["phase"] == "static":
        # Two steps' worth a file map every workload file first.
        return [(None, "run", 2, case["files"] * steps(case["request"], 2)),
                (_static, "run_one_increment", "A", steps(4 * KIB, 10 if hybrid else bound))]
    return [(None, "run", case["level"], steps(case["request"]))]


def _play(exp, case, start=(0, 0), stop=None):
    """Play the run's stages from position ``start`` up to ``stop``
    (the end when None).  A position is ``(stage, steps taken in it)``;
    a stage's swap is made on entering it.  Returns the
    ``steps_completed`` at each stage's end."""
    stages = _stages(case)
    k, done = start
    stop = stop or (len(stages), 0)
    ends = []
    while (k, done) < stop:
        swap, method, argument, max_steps = stages[k]
        if swap is not None and done == 0:
            swap(exp, case)
        getattr(exp, method)(argument, max_steps=(max_steps if k < stop[0] else stop[1]) - done)
        ends.append(exp.steps_completed)
        k, done = k + 1, 0
    return ends


class _Mode:
    """One execution of the drawn run: its experiment (built under its
    own registry when metrics are on), checkpoint directory (seeded with
    a copy of ``checkpoints``) and fused windows."""

    def __init__(self, case, mode, root, checkpoints=None):
        self.registry = MetricsRegistry() if case["metrics"] else None
        with metrics_enabled(self.registry) if case["metrics"] else contextlib.nullcontext():
            self.exp = _build(case, mode)
        self.checkpoints = Path(root) / mode if case["interval"] else None
        if self.checkpoints is not None:
            if checkpoints is not None and checkpoints.exists():
                shutil.copytree(checkpoints, self.checkpoints)
            manager = CheckpointManager(self.checkpoints)
            self.exp.enable_checkpointing(manager, "modes", interval_steps=case["interval"])
        self.windows = fused_windows(self.exp)

    def outcome(self):
        return outcome(self.exp, self.checkpoints)

    def metrics(self):
        """The registry snapshot, with the wall-clock histogram cut to its count."""
        return None if self.registry is None else metrics_snapshot(self.registry)


def _split(case, ends):
    """The drawn step strictly inside a run whose stages end at
    ``ends``, as a position ``(stage, steps taken in it)``."""
    total = ends[-1]
    assert total >= 2
    s = min(max(1, total * case["split"] // 100), total - 1)
    k = next(k for k, end in enumerate(ends) if s < end)
    return k, s - (ends[k - 1] if k else 0)


def _saved(exp):
    """The experiment's snapshot, written with ``save_state`` and read back."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_state(save_state(Path(tmp) / "split.npz", snapshot_experiment(exp)))


def _case(**changes):
    """A run for an ``@example``: the default configuration with ``changes``."""
    return {
        "device": "emmc-8gb", "fs": "ext4", "pattern": "rand", "request": 4 * KIB, "files": 4,
        "sigma": None, "seed": 7, "healing": None, "interval": 0, "cap": None, "metrics": False,
        "phase": "level", "level": 2, "split": 50, **changes,
    }


@settings(max_examples=12, deadline=None)
@given(case=_runs())
# A restore through the idle-healing wrapper must restore the workload
# it wraps, whose file cursor the wrapper does not own (the search's
# shrunk counterexample).
@example(case=_case(files=2, sigma=0.35, seed=WEAK_SEEDS[0], healing="idle", level=3, split=1))
# Table 1's merged pools: staging-ring writes and relocating GC in both
# pools inside fused windows.
@example(case=_case(device="emmc-16gb", phase="static", metrics=True, interval=13))
# A block retires inside a fused plan and later windows plan around it;
# a 1024-step window is cut at the budget.
@example(case=_case(files=1, sigma=0.35, seed=WEAK_SEEDS[0], level=3, split=1, cap=1024, metrics=True))
def test_modes_reach_one_outcome(case):
    plans = []
    commit = burst.commit_planned_burst

    def recording(ftl, plan):
        plans.append(plan)
        return commit(ftl, plan)

    with tempfile.TemporaryDirectory() as root:
        naive, scalar = _Mode(case, "naive", root), _Mode(case, "scalar", root)
        ends = _play(naive.exp, case)
        _play(scalar.exp, case)
        want = naive.outcome()
        assert scalar.outcome() == want
        assert scalar.metrics() == naive.metrics()
        assert not naive.windows and not scalar.windows

        # The fused run stops at the split and writes its state there:
        # a twin enters the stages the run had entered, takes the state
        # and plays on from a copy of the run's checkpoint files.
        split = _split(case, ends)
        fused = _Mode(case, "fused", root)
        with mock.patch.object(burst, "commit_planned_burst", recording):
            _play(fused.exp, case, stop=split)
            state = _saved(fused.exp)
            twin = _Mode(case, "restored", root, checkpoints=fused.checkpoints)
            _play(fused.exp, case, start=split)
        assert fused.outcome() == want
        assert fused.metrics() == naive.metrics()
        # The fused path takes every draw but the idle-healing wrapper,
        # and then fuses at least one window.
        assert bool(fused.windows) == (case["healing"] != "idle")
        # Static data to 86% merges a hybrid's pools.
        assert getattr(fused.exp.device.ftl, "merged_mode", False) == _merged(case)

        for swap, *_ in _stages(case)[: split[0] + (split[1] > 0)]:
            if swap is not None:
                swap(twin.exp, case)
        restore_experiment(twin.exp, state)
        _play(twin.exp, case, start=split)
        assert twin.outcome() == want
        _events(case, fused.windows + twin.windows, plans, fused.checkpoints)


#: Device fingerprints (:func:`tests.modes.device_fingerprint`) of three
#: runs, pinned when they still ran scalar: the default run under naive
#: polling to level 3, the idle-healing wrapper to level 2, and the
#: unmerged hybrid to level 2.  The search above holds every other mode
#: of a run to the same state.
GOLDEN = {
    "naive_poll": (_case(level=3), "naive",
                   "089e5d4871ec3050c384dcf933462f3ef4bb5b10672463c0966a4a1f7d3f7a9c"),
    "healing": (_case(healing="idle"), "fused",
                "359bfa6d612d1effe73a588c8ce9e28983029ef62912dd8e18c6cce5746910a2"),
    "hybrid": (_case(device="emmc-16gb"), "fused",
               "aedf807c63d8f84ad4c0c1a642127c3209355da2896d0b5669c3799b71123d0d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    case, mode, digest = GOLDEN[name]
    exp = _build(case, mode)
    exp.run(until_level=case["level"])
    assert device_fingerprint(exp.device) == digest


def _merged(case):
    return case["device"] == "emmc-16gb" and case["phase"] == "static"


def _events(case, windows, plans, checkpoints):
    """Label the regions of the search the fused run and its restored
    twin reached: ``windows`` they fused, ``plans`` they committed."""
    labels = {
        "hybrid merged": _merged(case),
        "relocating copies": any(plan.gc_pages or plan.wl_pages for plan in plans),
        "retired block": any(plan.retired.size for plan in plans),
        "window truncated at the budget": any(m < n for m, n in windows),
        "interval checkpoint": checkpoints is not None and any(checkpoints.glob("*-wip.npz")),
        "metrics on": case["metrics"],
        "healing": case["healing"] is not None,
        "cap 1": case["cap"] == 1,
        "128 KiB requests": case["request"] == 128 * KIB or case["phase"] == "switch",
        "stride": case["pattern"] == "stride",
        "restored": True,
        "ineligible: nothing fused": not windows,
    }
    for label, reached in labels.items():
        if reached:
            event(label)
    event(f"phase {case['phase']}")
