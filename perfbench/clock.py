"""Host seconds converted to a reference machine speed.

A shared host's speed moves by tens of percent within seconds.  So a
fixed probe kernel — an integer loop in the interpreter, then a numpy
sort and gather on arrays larger than L2 — runs at both ends of every
measured call and, from a ``SIGALRM`` handler, every
:data:`PROBE_PERIOD_S` while it runs.  Each stretch between two probes
is scaled by :data:`PROBE_REF_S` over the mean of the probes at its two
ends.  Probe time is excluded from every measurement, traced spans
included (:meth:`Clock.net`).

Of the kernels tried against the workloads (object-heavy Python, numpy
calls on small arrays, random reads of large lists, dicts and arrays,
and mixes of these), this pair left the least spread on each of them.
Each measurement also returns its raw and process CPU seconds, so the
correction can be compared with the plain measures on the same runs.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, List, Tuple

#: Seconds between probes while a measured call runs.
PROBE_PERIOD_S = 0.5

#: Seconds the probe kernel takes at the reference machine speed.
PROBE_REF_S = 0.016


class Clock:
    """Measures calls at reference speed.  Owns ``SIGALRM`` while alive."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._sort = np.sort
        self._keys = rng.integers(0, 1 << 20, size=1 << 18)
        self._index = rng.integers(0, 1 << 18, size=1 << 18)
        #: Seconds, and process CPU seconds, spent in probes so far.
        self.probe_s = 0.0
        self.probe_cpu_s = 0.0
        self._marks: List[Tuple[float, float, float]] = []
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.kernel()  # first-call allocations are not host speed

    def kernel(self) -> float:
        """One run of the probe kernel, in seconds."""
        start = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        self._sort(self._keys)
        self._keys[self._index].cumsum()
        return time.perf_counter() - start

    def speed(self, rounds: int = 4) -> float:
        """Mean probe-kernel seconds over ``rounds`` back-to-back runs."""
        return sum(self.kernel() for _ in range(rounds)) / rounds

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._probe()

    def _probe(self) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        seconds = self.kernel()
        end = time.perf_counter()
        self.probe_s += end - start
        self.probe_cpu_s += time.process_time() - cpu
        self._marks.append((start, end, seconds))

    def net(self) -> float:
        """``perf_counter`` minus every probe so far: a clock that stands
        still while the probe kernel runs."""
        return time.perf_counter() - self.probe_s

    def measure(self, call: Callable[[], Any]) -> Tuple[Any, float, float, float]:
        """Run ``call``; return its result, its seconds and process CPU
        seconds without probe time, and those seconds at reference
        speed."""
        self._marks = []
        self._probe()
        cpu = time.process_time() - self.probe_cpu_s
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            result = call()
        finally:
            # Disarm before stopping the timer, so that an alarm already
            # pending cannot probe inside the closing probe.
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._probe()
        cpu = time.process_time() - self.probe_cpu_s - cpu
        raw = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(self._marks, self._marks[1:]):
            raw += start - end
            scaled += (start - end) * 2.0 * PROBE_REF_S / (before + after)
        return result, raw, cpu, scaled
