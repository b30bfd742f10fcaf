"""Per-layer self-time tracing for the benchmark.

Spans are recorded from the benchmark side: :meth:`Tracer.patch`
replaces a layer's entry point (a method on its class, or a function on
the module its callers look it up in) with a wrapper that times the
call.  A span's *self* time is its duration minus the time covered by
the spans it encloses, so every traced second lands in exactly one
layer.  Wrappers only time and count; they never change arguments,
results, or exceptions, so a traced run executes the same code as an
untraced one.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span accounting: self seconds per layer plus counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # One entry per open span: seconds covered by its child spans.
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span attributed to ``layer``; ``on_result``
        sees every return value, then the call's positional arguments
        (for counting work done)."""
        stack = self._stack
        self_s = self.self_s
        clock = self._clock

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result, *args)
            return result

        span.__wrapped__ = fn
        return span

    def patch(
        self,
        owner: Any,
        name: str,
        layer: str,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        """Trace ``owner.name`` until :meth:`unpatch`.  ``name`` must be
        defined on ``owner`` itself, so restoring it is exact."""
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, on_result))

    def unpatch(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


#: Traced layers, outermost first (``driver`` is the benchmark's own span
#: around each step of a unit).
LAYERS = ("driver", "campaign", "fleet", "loop", "workload", "fs", "device",
          "ftl", "walk", "apply", "cache", "gc", "flash")

#: Work counters :func:`install_layer_spans` feeds.
COUNTS = ("scalar_steps", "fused_steps", "replayed_steps", "fused_fallbacks",
          "ineligible_windows", "plan_walks")


def install_layer_spans(tracer: Tracer) -> None:
    """Patch the entry points of every simulator layer.

    ``campaign`` is the campaign runner (point dispatch, stack
    construction, result store); ``fleet`` the cohort engine (prototype
    snapshot, member branching, lockstep certificates); ``loop`` the
    wear-out experiment loop; ``workload`` step planning and pattern
    draws; ``fs`` the filesystem models; ``device`` the block device
    (write combining, burst segmentation, duration model, wear polls);
    ``ftl`` the page-mapped and hybrid FTLs' own write paths; ``walk``
    the fused burst planner; ``apply`` the commit of a planned or
    replayed burst; ``cache`` the megaburst plan-cache probe and
    capture; ``gc`` scalar garbage collection and static wear leveling;
    ``flash`` erase and wear arithmetic.  Time in none of these (figure
    rendering, the benchmark itself) is ``driver``.
    """
    from repro.campaign import runner as campaign_runner
    from repro.core.experiment import WearOutExperiment
    from repro.devices.interface import BlockDevice
    from repro.flash.package import FlashPackage
    from repro.fleet import engine
    from repro.fleet.soa import CohortState
    from repro.fs.interface import FileSystem
    from repro.ftl import burst, plancache
    from repro.ftl.ftl import PageMappedFTL
    from repro.ftl.hybrid import HybridFTL
    from repro.workloads.wearout import FileRewriteWorkload

    def scalar_step(_result, *_args) -> None:
        tracer.count("scalar_steps")

    def fused_window(result, workload, *_args) -> None:
        if result is not None:
            tracer.count("fused_steps", len(result[0]))
        elif workload.fs.device.burst_eligible():
            tracer.count("fused_fallbacks")
        else:
            # Hybrid, event-timed and read-only devices never take the
            # fused path: their windows are not fallbacks.
            tracer.count("ineligible_windows")

    def cache_lookup(result, *_args) -> None:
        # A hit is served inside ``step_batch``: count it as replayed,
        # not as freshly fused.
        if result is not None:
            tracer.count("replayed_steps", len(result[0]))
            tracer.count("fused_steps", -len(result[0]))

    def plan_walk(_result, *_args) -> None:
        tracer.count("plan_walks")

    patch = tracer.patch
    patch(campaign_runner.CampaignRunner, "run", "campaign")
    patch(engine, "run_cohort", "fleet")
    patch(CohortState, "post_advance", "fleet")
    patch(WearOutExperiment, "run", "loop")
    patch(WearOutExperiment, "run_one_increment", "loop")
    patch(FileRewriteWorkload, "step", "workload", scalar_step)
    patch(FileRewriteWorkload, "step_batch", "workload", fused_window)
    patch(campaign_runner, "measure_bandwidth", "workload")
    patch(FileSystem, "write_requests", "fs")
    patch(FileSystem, "write_requests_burst", "fs")
    patch(FileSystem, "fsync", "fs")
    patch(BlockDevice, "write_many", "device")
    patch(BlockDevice, "write_burst", "device")
    patch(BlockDevice, "wear_indicators", "device")
    patch(BlockDevice, "wear_poll_hints", "device")
    patch(PageMappedFTL, "write_requests", "ftl")
    patch(PageMappedFTL, "write_requests_batch", "ftl")
    patch(HybridFTL, "write_requests", "ftl")
    patch(burst, "plan_write_burst", "walk", plan_walk)
    patch(burst, "commit_planned_burst", "apply")
    patch(plancache, "lookup", "cache", cache_lookup)
    patch(plancache, "finish_capture", "cache")
    patch(PageMappedFTL, "_reclaim_space", "gc")
    patch(FlashPackage, "erase_block", "flash")
    patch(FlashPackage, "erase_blocks", "flash")
    patch(FlashPackage, "apply_erase_burst", "flash")
