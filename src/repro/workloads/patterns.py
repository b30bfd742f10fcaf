"""Address pattern generators.

Emit batches of request offsets within a region: uniformly random (the
paper's "4 KiB rand"), sequentially wrapping (the "128 KiB seq"
phases), or strided (uFLIP's third micro-pattern — deterministic like
seq, but the gaps defeat write combining so every request pays the
mapping-unit read-modify-write that random writes pay).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


class RandomPattern:
    """Uniformly random aligned offsets within ``region_bytes``."""

    name = "rand"

    def __init__(self, region_bytes: int, request_bytes: int, seed: SeedLike = None):
        if request_bytes <= 0 or region_bytes < request_bytes:
            raise ConfigurationError("region must hold at least one request")
        self.region_bytes = region_bytes
        self.request_bytes = request_bytes
        self._slots = region_bytes // request_bytes
        self._rng = make_rng(seed)

    def next_batch(self, count: int) -> np.ndarray:
        """Return ``count`` independent request offsets."""
        return self._rng.integers(0, self._slots, size=count, dtype=np.int64) * self.request_bytes

    def next_window(self, rows: int, count: int) -> np.ndarray:
        """``rows`` successive :meth:`next_batch` draws as one ``(rows,
        count)`` matrix, in one ``integers`` call: bounded integers are
        drawn element by element, so the values and the bit generator's
        end state equal the per-call draws'
        (tests/test_workloads_patterns.py pins both)."""
        out = self._rng.integers(0, self._slots, size=(rows, count), dtype=np.int64)
        out *= self.request_bytes
        return out


class _CyclicPattern:
    """Window draws of the deterministic patterns: draw ``i`` from the
    cursor is slot ``cursor + i * stride`` (mod slots), a periodic
    sequence.  :meth:`next_window` block-copies one cached period of
    it instead of computing a per-element modulo, and equals
    ``rows`` successive ``next_batch(count)`` draws, end cursor
    included."""

    request_bytes: int
    _slots: int
    _cursor: int
    _stride = 1
    _cycle: Optional[np.ndarray] = None
    _cycle_residue = 0

    def next_window(self, rows: int, count: int) -> np.ndarray:
        slots = self._slots
        stride = self._stride
        cursor = self._cursor
        # The cursor only ever moves by multiples of the stride, so it
        # stays in one residue class mod gcd(stride, slots); one period
        # of that class's slots, in draw order, is the cycle.
        g = math.gcd(stride, slots)
        residue = cursor % g
        cycle = self._cycle
        if cycle is None or self._cycle_residue != residue:
            steps = residue + np.arange(slots // g, dtype=np.int64) * stride
            cycle = self._cycle = (steps % slots) * self.request_bytes
            self._cycle_residue = residue
        period = cycle.size
        # The cursor's position in the cycle: (cursor - residue) / g
        # steps of stride / g, inverted mod the period.
        start = (cursor - residue) // g * pow(stride // g, -1, period) % period
        total = rows * count
        out = np.empty(total, dtype=np.int64)
        head = min(total, period - start)
        out[:head] = cycle[start : start + head]
        full, tail = divmod(total - head, period)
        if full:
            out[head : head + full * period].reshape(full, period)[...] = cycle
        if tail:
            out[total - tail :] = cycle[:tail]
        self._cursor = (cursor + total * stride) % slots
        return out.reshape(rows, count)


class SequentialPattern(_CyclicPattern):
    """Sequential aligned offsets, wrapping around the region."""

    name = "seq"

    def __init__(self, region_bytes: int, request_bytes: int, start: int = 0):
        if request_bytes <= 0 or region_bytes < request_bytes:
            raise ConfigurationError("region must hold at least one request")
        self.region_bytes = region_bytes
        self.request_bytes = request_bytes
        self._slots = region_bytes // request_bytes
        self._cursor = (start // request_bytes) % self._slots

    def next_batch(self, count: int) -> np.ndarray:
        offsets = ((self._cursor + np.arange(count, dtype=np.int64)) % self._slots) * self.request_bytes
        self._cursor = int((self._cursor + count) % self._slots)
        return offsets


class StridePattern(_CyclicPattern):
    """Aligned offsets advancing by a fixed stride, wrapping.

    uFLIP's strided micro-pattern: deterministic forward progress like
    the sequential pattern, but consecutive requests are
    ``stride_requests`` slots apart, so the device's write-combining
    buffer never merges them — the request stream stays request-sized
    all the way to the FTL.
    """

    name = "stride"

    def __init__(
        self,
        region_bytes: int,
        request_bytes: int,
        stride_requests: int = 4,
        start: int = 0,
    ):
        if request_bytes <= 0 or region_bytes < request_bytes:
            raise ConfigurationError("region must hold at least one request")
        if stride_requests < 2:
            raise ConfigurationError(
                "stride_requests must be >= 2 (1 is the sequential pattern)"
            )
        self.region_bytes = region_bytes
        self.request_bytes = request_bytes
        self.stride_requests = int(stride_requests)
        self._stride = self.stride_requests
        self._slots = region_bytes // request_bytes
        self._cursor = (start // request_bytes) % self._slots

    def next_batch(self, count: int) -> np.ndarray:
        steps = self._cursor + np.arange(count, dtype=np.int64) * self.stride_requests
        offsets = (steps % self._slots) * self.request_bytes
        self._cursor = int((self._cursor + count * self.stride_requests) % self._slots)
        return offsets
