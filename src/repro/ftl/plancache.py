"""Inert stand-ins for the deleted megaburst plan cache.

The cache memoized fused windows so a repeated trajectory could replay
them; cohort members now share the leader's trajectory prefix by
state instead (DESIGN.md §12), and nothing replays a plan.  The
repository benchmark (``perfbench/``) still calls these five names, so
they stay as no-ops with a cache that never hits or misses; the next
change to ``perfbench/`` deletes them, and this module with them.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict

#: ``with disabled():`` — nothing to disable.
disabled = nullcontext


def clear() -> None:
    """Nothing is cached."""


def stats() -> Dict[str, int]:
    return {"hits": 0, "misses": 0}


def lookup(workload, n: int, budget) -> None:
    """Never serves a window."""
    return None


def finish_capture(cap, durations, workload) -> None:
    """Nothing is captured."""
