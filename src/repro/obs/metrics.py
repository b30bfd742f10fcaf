"""Metrics instruments and the registry that owns them.

The paper's argument is quantitative — wear-indicator increments, write
amplification, GC behaviour (§4.3) — so every reproduced number should
be explainable from first-class instruments rather than ad-hoc prints.
This module provides the three instrument kinds the simulator needs:

* :class:`Counter` — monotonically increasing totals (pages programmed,
  GC runs, bad-block retirements);
* :class:`Gauge` — last-written values (free blocks after a reclaim);
* :class:`Histogram` — fixed-bucket distributions (valid units per GC
  victim, per-increment wall time).

**Disabled-mode contract.**  Metrics are off by default.  The global
accessor :func:`get_registry` returns :data:`NULL_REGISTRY`, whose
instrument constructors all hand back one shared no-op instrument.
Components resolve their instruments *once, at construction time*; a
hot path therefore pays exactly one attribute load (and usually an
``is None`` test against a cached holder) when metrics are disabled —
nothing else.  The perf-regression suite runs with metrics disabled and
enforces this stays cheap.

**Binding is at construction.**  Enabling metrics affects components
built while enabled; a device built under :func:`metrics_enabled` keeps
feeding that registry even after the context exits.  Simulation results
never depend on whether metrics are on: instruments only observe.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError

Number = Union[int, float]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value; :meth:`set` overwrites."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative-free, plain per-bucket counts).

    ``bounds`` are inclusive upper edges; one overflow bucket catches
    everything above the last edge.  Buckets are fixed at construction
    so observation is a single bisect — no rebinning, no allocation.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[Number]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(f"histogram {name!r} needs ascending bucket bounds")
        self.name = name
        self.bounds: Tuple[Number, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: Number = 0

    def observe(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        self.counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Sequence[Number]) -> None:
        for value in values:
            self.observe(value)

    def observe_repeat(self, value: Number, times: int) -> None:
        """Record ``value`` ``times`` times with one bucket update — the
        fused burst commit records its (dominant) fully-invalid victims
        this way instead of observing per erased block."""
        if times <= 0:
            return
        self.count += times
        self.sum += value * times
        self.counts[bisect_left(self.bounds, value)] += times

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class _NullInstrument:
    """Shared do-nothing instrument handed out by the disabled registry.

    Implements the full surface of all three instrument kinds so a
    component can hold one reference and call it unconditionally.
    """

    __slots__ = ()
    kind = "null"
    name = ""
    value: Number = 0
    count = 0
    sum: Number = 0
    mean = 0.0

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    def observe_many(self, values: Sequence[Number]) -> None:
        pass

    def observe_repeat(self, value: Number, times: int) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind}


#: The one no-op instrument; identity-comparable (`is NULL_INSTRUMENT`).
NULL_INSTRUMENT = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """Named instruments, created on first use and snapshot-able.

    Names are dotted, layer-first (``ftl.gc_runs``, ``flash.block_erases``,
    ``experiment.steps``); re-requesting a name returns the existing
    instrument, and requesting it as a different kind raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind: str, factory) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {instrument.kind}, not {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name))

    def histogram(self, name: str, bounds: Sequence[Number]) -> Histogram:
        return self._get_or_create(name, "histogram", lambda: Histogram(name, bounds))

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict dump of every instrument, sorted by name.

        JSON-able, deterministic for deterministic simulations — wall
        time only enters through explicitly wall-clock instruments, so
        campaign workers can ship snapshots as telemetry.
        """
        return {name: self._instruments[name].snapshot() for name in self.names()}

    def reset(self) -> None:
        """Forget every instrument (tests, fresh campaign points)."""
        self._instruments.clear()


class NullRegistry:
    """Disabled-mode registry: every request returns the shared no-op.

    Component constructors can call ``registry.counter(...)`` without
    branching; the instruments they get back cost one no-op method call
    when poked, and components that cache an instruments-holder skip
    even that (see the FTL's ``_obs`` pattern).
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, bounds: Sequence[Number]) -> _NullInstrument:
        return NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def __iter__(self) -> Iterator[Instrument]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def reset(self) -> None:
        pass


#: The process-wide disabled registry (also the default active one).
NULL_REGISTRY = NullRegistry()

AnyRegistry = Union[MetricsRegistry, NullRegistry]

_active: AnyRegistry = NULL_REGISTRY


def get_registry() -> AnyRegistry:
    """The currently active registry (the no-op one unless enabled)."""
    return _active


def is_enabled() -> bool:
    return _active.enabled


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Make ``registry`` (or a fresh one) the active registry."""
    global _active
    if registry is None:
        registry = MetricsRegistry()
    _active = registry
    return registry


def disable() -> None:
    """Restore the zero-cost disabled mode."""
    global _active
    _active = NULL_REGISTRY


@contextmanager
def metrics_enabled(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scoped :func:`enable`; restores the previous registry on exit.

    Components built inside the scope keep their instrument bindings
    afterwards (binding is at construction), so a device built here can
    be exercised outside the scope and still feed the yielded registry.
    """
    global _active
    previous = _active
    active = enable(registry)
    try:
        yield active
    finally:
        _active = previous
