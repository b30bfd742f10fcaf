"""Two fixed mode pairs of the megaburst loop (DESIGN.md §14, §16).

tests/test_execution_modes.py searches every execution mode over drawn
runs and pins the fallback families' golden digests.  These pairs stay
as named regression cases of that search: merged hybrid pools, whose
windows fuse through pool A's staging ring and relocating GC, against
the per-step loop; and ``fast_poll=False``, which never builds a poll
budget and so fuses no window, against the fused fast-poll loop.
"""

from __future__ import annotations

from tests.modes import fused_windows, make_experiment, outcome, rewrite_static


class TestHybridFused:
    def test_merged_pools_fuse_and_match_scalar(self):
        """Merged mode stages every write through pool A's ring; its
        windows fuse, GC relocation included, and match the scalar
        path."""

        def experiment(step_batching):
            exp = make_experiment(device="emmc-16gb")
            exp.step_batching = step_batching
            exp.run(until_level=2, max_steps=8)  # maps every workload file
            rewrite_static(exp, 0.86)
            return exp

        batched = experiment(True)
        assert batched.device.ftl.merged_mode
        assert batched.device.burst_eligible() is True
        windows = fused_windows(batched)
        batched.run_one_increment("A", max_steps=20)

        scalar = experiment(False)
        scalar.run_one_increment("A", max_steps=20)

        assert sum(m for m, _ in windows) > 0
        assert batched.device.ftl.stats.gc_pages_copied > 0
        assert outcome(batched) == outcome(scalar)


class TestNaivePollFallback:
    def test_matches_fast_poll_trajectory(self):
        """The naive reference fuses nothing and still agrees with the
        fused fast-poll loop — the invariant the whole stack rests on."""
        fast, naive = make_experiment(), make_experiment(fast_poll=False)
        fast_windows, naive_windows = fused_windows(fast), fused_windows(naive)
        for exp in (fast, naive):
            exp.run(until_level=3)
        assert fast_windows and not naive_windows
        assert outcome(fast) == outcome(naive)
