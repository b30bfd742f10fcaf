"""Wall-clock span telemetry.

Spans time *real* elapsed seconds, never simulated time: the job
runner behind campaigns and fleets wraps every campaign point or fleet
cohort and the whole fan-out in one, and the result store treats the
readings as telemetry — excluded from the canonical (deterministic)
view, because wall time is the one thing two identical runs won't
share.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List


@dataclass(frozen=True)
class Span:
    """One timed section: wall-clock telemetry, never simulation state."""

    name: str
    started_at: float
    elapsed_s: float


class SpanRecorder:
    """Minimal wall-clock span collector for runner telemetry.

    The job runner times every campaign point or fleet cohort and the
    whole fan-out with this; spans are *telemetry* — they ride along in
    the result store but are excluded from its canonical
    (deterministic) view, because wall time is the one thing two
    identical runs won't share.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                Span(name=name, started_at=start, elapsed_s=time.perf_counter() - start)
            )

    def elapsed(self, name: str) -> float:
        """Total elapsed seconds across spans with this name."""
        return sum(s.elapsed_s for s in self.spans if s.name == name)

    def total_busy(self, prefix: str = "") -> float:
        """Total elapsed seconds across spans whose name starts with
        ``prefix`` (e.g. every ``point:*`` span)."""
        return sum(s.elapsed_s for s in self.spans if s.name.startswith(prefix))


def worker_utilization(busy_seconds: float, workers: int, wall_seconds: float) -> float:
    """Fraction of the worker pool's wall-clock capacity spent computing.

    1.0 means every worker was busy the whole campaign; low values point
    at stragglers or per-point overhead dominating.  Clamped to [0, 1]
    so timer jitter on sub-millisecond campaigns can't report >100%.
    """
    if workers <= 0 or wall_seconds <= 0.0:
        return 0.0
    return min(1.0, busy_seconds / (workers * wall_seconds))
