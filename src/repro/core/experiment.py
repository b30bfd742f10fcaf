"""Wear-out experiment runner.

Drives a workload against a device until its wear indicator reaches a
target level (or the device dies), recording one
:class:`~repro.core.results.IncrementRecord` per indicator increment —
the measurement loop behind §4.3 and §4.4.

The workload is anything with a ``step() -> (duration_seconds,
app_bytes)`` method plus ``description`` and ``space_utilization``
attributes (see :mod:`repro.workloads.wearout`).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Optional

from repro.core.clock import SimClock
from repro.core.results import IncrementRecord, WearOutResult
from repro.devices.interface import BlockDevice
from repro.ftl.wear_indicator import WearIndicator
from repro.obs import ExperimentInstruments, JsonlEmitter
from repro.units import GIB
from repro.workloads.batch import generic_step_batch

#: Bytes of host writes a default fused window carries (DESIGN.md §14):
#: a window's working set and its per-unit cost follow the bytes it
#: writes, not its step count.
COLD_WINDOW_BYTES = 256 * 1024 * 1024

#: Most steps a default fused window plans; cohort experiments take it
#: as their ``max_batch_steps`` (DESIGN.md §12).
MAX_WINDOW_STEPS = 1024


def window_steps(step_bytes: Optional[int]) -> int:
    """Default fused-window cap (DESIGN.md §14) for steps that each
    write ``step_bytes``: as many steps as :data:`COLD_WINDOW_BYTES`
    holds, capped at :data:`MAX_WINDOW_STEPS` and at least 2.  The cap
    only sizes the attempt: the experiment loop fuses any smaller bound
    too, a one-step window included, and the FTL cuts every window at
    the erase budget.  A step of unknown size (a workload that reports
    no ``step_bytes``) gets the floor.
    """
    steps = COLD_WINDOW_BYTES // step_bytes if step_bytes else 0
    return min(MAX_WINDOW_STEPS, max(2, steps))


class WearOutExperiment:
    """Run a workload until the device's wear indicator hits a target.

    Args:
        device: Device under test (possibly capacity-scaled; reported
            volumes are rescaled by ``device.scale``).
        workload: Object with ``step()``, ``description``, and
            ``space_utilization``.
        filesystem: Optional filesystem between workload and device
            (used for app-level volume accounting).
        clock: Virtual clock; a fresh one is created if omitted.
        emitter: Optional :class:`~repro.obs.JsonlEmitter`; every wear
            increment is emitted as one structured ``increment`` event.
    """

    def __init__(
        self,
        device: BlockDevice,
        workload,
        filesystem=None,
        clock: Optional[SimClock] = None,
        emitter: Optional[JsonlEmitter] = None,
        fast_poll: bool = True,
    ):
        self.device = device
        self.workload = workload
        self.filesystem = filesystem
        self.clock = clock or SimClock()
        self.emitter = emitter
        self.result = WearOutResult(
            device_name=device.name,
            filesystem=getattr(filesystem, "name", None),
        )
        self._last_levels: Dict[str, int] = {}
        self._phase_start: Dict[str, _PhaseMarker] = {}
        # Wall-clock phase starts, tracked only for telemetry: the
        # per-increment wall-time histogram (DESIGN.md §9).
        self._phase_wall: Dict[str, float] = {}
        self._obs = ExperimentInstruments.create()
        # Increment-aware polling: after every real indicator read the
        # device hands back a conservative erase budget per memory type;
        # while no pool has spent its budget the indicator level provably
        # cannot have risen, so wear_indicators() is skipped and the
        # cached reading reused (DESIGN.md §10).  ``fast_poll=False``
        # restores naive per-step polling (the equivalence reference),
        # as does a duck-typed device that offers no poll hints.
        self.fast_poll = fast_poll and hasattr(device, "wear_poll_hints")
        self._last_indicators: Optional[Dict[str, WearIndicator]] = None
        self._poll_budget: Optional[list] = None
        # Burst fusion (DESIGN.md §11): while the conservative erase
        # budget proves no indicator can cross, many workload steps are
        # executed as one fused batch.  ``step_batching=False`` restores
        # the per-step loop; the fused path is only taken under
        # ``fast_poll`` (the budget doubles as the fusion bound).
        self.step_batching = True
        # Megaburst windows (DESIGN.md §14): whole uneventful stretches
        # of a trajectory — often every step between two wear polls —
        # compile into one fused kernel call.  The cap only bounds the
        # step plan handed to the kernel; polls, increments, and
        # checkpoints land at the exact same steps_completed for any cap
        # value because the FTL truncates the burst at the erase budget
        # itself, not at the window edge (window-size invariance is
        # searched by tests/test_execution_modes.py).  None takes
        # window_steps(): as many steps as the cold byte budget holds at
        # the workload's step_bytes.
        self.max_batch_steps: Optional[int] = None
        # First fused window after a poll, before any erase-rate
        # estimate exists.  Small on purpose: it learns the rate so the
        # next window can be sized to end near the poll boundary rather
        # than planning the whole cap and throwing most of it away.
        self._pilot_batch_steps = 64
        # Erases-per-step estimate of each budget counter (keyed by id)
        # from the last batch, used to size the next batch so it ends
        # near the poll boundary (a pure heuristic: the FTL truncates
        # the burst exactly at the budget regardless).  Per counter
        # because a hybrid device's pools erase at very different
        # paces; reset whenever the workload is swapped.
        self._erase_rate: Dict[int, float] = {}
        self._batch_erases_base: list = []
        # Stepper bound once per workload object (re-resolved only when
        # ``self.workload`` is swapped), not re-wrapped on every batched
        # run.
        self._stepper: Any = None
        self._stepper_for: Any = None
        self._step_bytes: Optional[int] = None
        self._resolve_stepper()
        # Completed workload steps; checkpoint identity (DESIGN.md §10)
        # and the periodic-save cadence both key off it.
        self.steps_completed = 0
        # Scaled host volume already counted into experiment.host_bytes.
        self._host_bytes_counted = 0
        self._ckpt_manager: Any = None
        self._ckpt_key: Optional[str] = None
        self._ckpt_interval = 0
        self._ckpt_meta: Dict = {}

    def enable_checkpointing(
        self,
        manager,
        key: str,
        interval_steps: int = 0,
        extra_meta: Optional[Dict] = None,
    ) -> None:
        """Auto-save wear-state snapshots while running.

        A snapshot is written through ``manager`` (a
        :class:`repro.state.CheckpointManager`) at every indicator
        crossing — the state there equals the end state of a shorter run
        to that level, which is what warm-starting restores — and, when
        ``interval_steps`` > 0, every that many steps (a rolling
        work-in-progress file for mid-point resume).
        """
        self._ckpt_manager = manager
        self._ckpt_key = key
        self._ckpt_interval = int(interval_steps)
        self._ckpt_meta = dict(extra_meta or {})

    # ------------------------------------------------------------------

    def run(self, until_level: int = 11, max_steps: int = 1_000_000) -> WearOutResult:
        """Run until any memory type reaches ``until_level`` or the
        device fails; returns the accumulated result.

        On hybrid devices the faster-moving indicator (Type B under the
        paper's workloads) terminates the run; use
        :meth:`run_one_increment` to follow a specific memory type, as
        Table 1's phase protocol does.
        """
        self._prime_markers()
        self._run_batched(lambda indicators: self._any_at_level(until_level, indicators), max_steps)
        self._count_host_bytes()
        return self.result

    def run_one_increment(self, memory_type: str = "A", max_steps: int = 1_000_000) -> Optional[IncrementRecord]:
        """Run until a specific memory type's indicator increments once.

        Returns the new record, or None if the device failed first.
        Used by Table 1's phase-by-phase protocol, where the I/O pattern
        changes between increments.
        """
        self._prime_markers()
        before = len(self.result.increments_for(memory_type))

        def stop(_indicators) -> bool:
            return len(self.result.increments_for(memory_type)) > before

        self._run_batched(stop, max_steps)
        self._count_host_bytes()
        records = self.result.increments_for(memory_type)
        return records[-1] if len(records) > before else None

    def _count_host_bytes(self) -> None:
        """Add the device's scaled host volume written since the last
        count to ``experiment.host_bytes``; after one run() it equals
        ``total_host_bytes``, which the loop keeps current."""
        total = self.device.host_bytes_written * self.device.scale
        if self._obs is not None:
            self._obs.host_bytes.inc(total - self._host_bytes_counted)
        self._host_bytes_counted = total

    # ------------------------------------------------------------------

    def _run_batched(self, stop: Callable[[Dict[str, WearIndicator]], bool], max_steps: int) -> None:
        """The experiment loop (DESIGN.md §11, §14), shared by
        :meth:`run` and :meth:`run_one_increment`; ``stop`` sees every
        indicator reading and ends the run when it returns True.

        While the erase budget proves no indicator can cross, up to the
        whole remaining budget executes as one ``step_batch`` call — a
        precomputed step plan the kernel truncates exactly at the
        budget, so increment boundaries no longer force a Python unwind
        per poll window.  Any step the fused path cannot prove
        uneventful runs as one scalar ``workload.step()``; fused and
        scalar steps then share one post-advance block (accounting,
        skip-or-poll, record, checkpoint), so results are bit-identical
        to ``step_batching=False`` and ``fast_poll=False`` runs, which
        step scalar every time.  Metrics-on runs fuse too: instruments
        are counted from the plan (DESIGN.md §9).
        """
        fuse = self.fast_poll and self.step_batching
        stepper = self._resolve_stepper()
        steps_done = 0
        while steps_done < max_steps:
            n = self._fusion_bound(stop, max_steps - steps_done) if fuse else 0
            out = stepper(n, self._poll_budget) if n else None
            fused = out is not None and bool(out[0] or out[2])
            if out is None or not fused:
                # Scalar step: first-ever poll, budget spent, a window
                # the fused path refused (see repro.ftl.burst), or an
                # empty batch that would otherwise spin.
                out = generic_step_batch(self.workload, 1)
            durations, byte_counts, bricked = out
            m = len(durations)
            budget = self._poll_budget
            if m:
                scale = self.device.scale
                result = self.result
                clock = self.clock
                obs = self._obs
                for i in range(m):
                    # Durations, like volumes, are per-scaled-capacity
                    # and are reported at full-device equivalents
                    # (DESIGN.md §6).
                    duration = durations[i]
                    clock.advance(duration)
                    result.total_seconds += duration * scale
                    result.total_app_bytes += byte_counts[i] * scale
                    if obs is not None:
                        obs.steps.inc()
                        obs.app_bytes.inc(byte_counts[i] * scale)
                self.steps_completed += m
                steps_done += m
                if fused and budget:
                    self._erase_rate = {
                        id(c): (c.block_erases - base) / m
                        for (c, _), base in zip(budget, self._batch_erases_base)
                    }
            # Every result, and so every snapshot, carries the current
            # host total, however the run is split into calls.
            self.result.total_host_bytes = self.device.host_bytes_written * self.device.scale
            if bricked:
                self.result.bricked = True
                return
            if budget is not None and all(c.block_erases < t for c, t in budget):
                # Budget not spent: provably no pool crossed a level
                # since the last real poll, so every step was a
                # skip-poll step and the cached reading is current.
                self._maybe_checkpoint(crossed=False)
                indicators = self._last_indicators
            else:
                indicators = self.device.wear_indicators()
                before = len(self.result.increments)
                self._record_increments(indicators)
                self._last_indicators = indicators
                if self.fast_poll:
                    self._poll_budget = [
                        (counters, counters.block_erases + min_more)
                        for counters, min_more in self.device.wear_poll_hints().values()
                        if min_more != float("inf")
                    ]
                self._maybe_checkpoint(crossed=len(self.result.increments) > before)
            if indicators is not None and stop(indicators):
                return

    def _resolve_stepper(self):
        """The batch stepper for the current workload, bound once, and
        the workload's step size (``step_bytes``, batch protocol), which
        sizes the default windows.

        Resolved on the CLASS, not the instance: delegation wrappers
        (``__getattr__`` forwarding to an inner workload) would
        otherwise hand back the inner fused path and silently skip
        whatever per-step behaviour the wrapper adds.  Such workloads
        fall back to the generic batcher, which goes through their own
        ``step()``.
        """
        workload = self.workload
        if self._stepper_for is not workload:
            if getattr(type(workload), "step_batch", None) is not None:
                self._stepper = workload.step_batch
            else:
                self._stepper = functools.partial(generic_step_batch, workload)
            self._stepper_for = workload
            # The old workload's erase rate and step size say nothing
            # about this one (Table 1 swaps 4 KiB rand for 128 KiB seq):
            # pilot afresh.
            self._erase_rate = {}
            self._step_bytes = getattr(workload, "step_bytes", None)
        return self._stepper

    def _fusion_bound(self, stop, remaining: int) -> int:
        """Steps provably safe to fuse before the next poll/checkpoint.

        Returns 0 when the next step must be a scalar step: no budget
        yet (the step must poll), budget already spent, or the cached
        reading already satisfies ``stop`` (a repeated ``run()`` at a
        lower level executes exactly one step, as the scalar loop does).
        Any other bound, 1 included, is a fused window: the FTL cuts it
        exactly at the budget.
        """
        budget = self._poll_budget
        if budget is None:
            return 0
        cached = self._last_indicators
        if cached is not None and stop(cached):
            return 0
        n = self.max_batch_steps
        if n is None:
            n = window_steps(self._step_bytes)
        if remaining < n:
            n = remaining
        if self._ckpt_manager is not None and self._ckpt_interval:
            # Never fuse across an interval-checkpoint boundary: the
            # snapshot must be taken at the same steps_completed as in
            # a scalar run.
            boundary = self._ckpt_interval - self.steps_completed % self._ckpt_interval
            if boundary < n:
                n = boundary
        if budget:
            self._batch_erases_base = [c.block_erases for c, _ in budget]
            estimate = None
            for c, t in budget:
                headroom = t - c.block_erases
                if headroom <= 0:
                    return 0
                rate = self._erase_rate.get(id(c), 0.0)
                if rate > 0.0:
                    steps = int(headroom / rate) + 1
                    if estimate is None or steps < estimate:
                        estimate = steps
            if estimate is not None:
                if estimate < n:
                    n = estimate
            elif n > self._pilot_batch_steps:
                # No erase-rate estimate yet (first fused window after a
                # poll): plan a small pilot window to learn the rate
                # instead of planning the whole cap and letting the
                # budget discard most of it.  Window size never affects
                # results (the kernel truncates exactly at the budget),
                # only how much planning the truncation wastes.
                n = self._pilot_batch_steps
        return max(n, 0)

    def _maybe_checkpoint(self, crossed: bool) -> None:
        manager = self._ckpt_manager
        if manager is None:
            return
        if crossed:
            manager.save(self, self._ckpt_key, kind="crossing", extra_meta=self._ckpt_meta)
        elif self._ckpt_interval and self.steps_completed % self._ckpt_interval == 0:
            manager.save(self, self._ckpt_key, kind="interval", extra_meta=self._ckpt_meta)

    def invalidate_poll_budget(self) -> None:
        """Force the next step to re-read the wear indicators (called
        after a snapshot restore or any out-of-band wear change)."""
        self._poll_budget = None
        self._last_indicators = None

    def _prime_markers(self) -> None:
        for mem_type, indicator in self.device.wear_indicators().items():
            if mem_type not in self._last_levels:
                self._last_levels[mem_type] = indicator.level
                self._phase_start[mem_type] = self._marker()
                if self._obs is not None:
                    self._phase_wall[mem_type] = time.perf_counter()

    def _marker(self) -> "_PhaseMarker":
        app_bytes = (
            self.filesystem.app_bytes_written
            if self.filesystem is not None
            else self.device.host_bytes_written
        )
        return _PhaseMarker(
            host_bytes=self.device.host_bytes_written,
            app_bytes=app_bytes,
            seconds=self.clock.now,
        )

    def _record_increments(self, indicators: Dict[str, "WearIndicator"]) -> None:
        """Record level crossings from one per-step indicator reading
        (read once per step and shared with the termination check)."""
        for mem_type, indicator in indicators.items():
            old = self._last_levels[mem_type]
            if indicator.level <= old:
                continue
            start = self._phase_start[mem_type]
            now = self._marker()
            scale = self.device.scale
            record = IncrementRecord(
                memory_type=mem_type,
                from_level=old,
                to_level=indicator.level,
                host_bytes=(now.host_bytes - start.host_bytes) * scale,
                app_bytes=(now.app_bytes - start.app_bytes) * scale,
                seconds=(now.seconds - start.seconds) * scale,
                io_pattern=getattr(self.workload, "description", ""),
                space_utilization=getattr(self.workload, "space_utilization", 0.0),
            )
            self.result.increments.append(record)
            self._last_levels[mem_type] = indicator.level
            self._phase_start[mem_type] = now
            obs = self._obs
            if obs is not None:
                wall_now = time.perf_counter()
                obs.increments.inc()
                obs.increment_host_gib.observe(record.host_bytes / GIB)
                obs.increment_wall_s.observe(
                    wall_now - self._phase_wall.get(mem_type, wall_now)
                )
                self._phase_wall[mem_type] = wall_now
            if self.emitter is not None:
                self.emitter.emit(
                    "increment",
                    {"device": self.device.name, **record.to_dict()},
                )

    def _any_at_level(self, level: int, indicators: Dict[str, "WearIndicator"]) -> bool:
        return any(ind.level >= level for ind in indicators.values())


class _PhaseMarker:
    """Byte/time counters at the start of an increment phase."""

    __slots__ = ("host_bytes", "app_bytes", "seconds")

    def __init__(self, host_bytes: int, app_bytes: int, seconds: float):
        self.host_bytes = host_bytes
        self.app_bytes = app_bytes
        self.seconds = seconds
