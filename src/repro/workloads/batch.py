"""Batched workload-step protocol (DESIGN.md §11).

A workload may implement ``step_batch(n, budget) -> (durations,
byte_counts, bricked) | None`` to advance up to ``n`` steps in one
Python call.  The contract:

- ``durations``/``byte_counts`` list the per-step results, in step
  order, for the ``m <= n`` steps actually executed.  A burst may
  truncate early — at the step whose erases exhaust the poll
  ``budget`` — but every executed step must leave *exactly* the state a
  scalar ``step()`` sequence of the same length would (bit-identical
  mappings, wear, RNG draws, cursors; see ``repro.ftl.burst``).
- ``bricked`` is True when a step died mid-batch (device worn out /
  read-only / out of space); the results then cover only the steps
  completed before the fatal one, whose side effects match the scalar
  path's failed step.
- None means the batch could not run *and nothing was consumed*; the
  caller replays through scalar ``step()`` calls, which reproduce any
  exception the fused path refused to model.

A workload also reports ``step_bytes``, the bytes one step writes.
Outside a plan-sharing scope the experiment loop sizes its windows by
it (``repro.ftl.plancache.window_steps``, DESIGN.md §14), reading it
before the workload's first window; a workload that reports none gets
the smallest window.

:func:`generic_step_batch` adapts any duck-typed ``step()`` workload to
this protocol one step at a time — no fusion speedup, but the same
batch semantics, so the experiment loop has a single code path.
"""

from __future__ import annotations

from repro.errors import DeviceWornOut, OutOfSpaceError, ReadOnlyError, UncorrectableError

#: Exceptions that end a run with ``result.bricked`` (the same set the
#: scalar experiment loop catches around ``workload.step()``).
BRICK_ERRORS = (DeviceWornOut, ReadOnlyError, OutOfSpaceError, UncorrectableError)


def generic_step_batch(workload, n, budget=None):
    """Scalar one-step-at-a-time implementation of the batch protocol.

    Executes up to ``n`` ``workload.step()`` calls, stopping early when
    the poll ``budget`` is exhausted (so the caller polls at the same
    step a scalar loop would) or when a step bricks the device.
    """
    durations = []
    byte_counts = []
    for _ in range(n):
        try:
            duration, app_bytes = workload.step()
        except BRICK_ERRORS:
            return durations, byte_counts, True
        durations.append(duration)
        byte_counts.append(app_bytes)
        if budget is not None and not all(c.block_erases < t for c, t in budget):
            break
    return durations, byte_counts, False
