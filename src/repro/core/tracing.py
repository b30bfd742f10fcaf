"""Device-level I/O trace capture and replay.

The paper's mitigation discussion (§4.5) ends with: "such a solution
should be driven by a model of expected mobile application I/O
behavior."  Building that model needs traces; this module records the
block-level request stream a workload produces and replays it —
against the same device, a different catalog device, or a different
filesystem configuration — so policies can be evaluated offline.

Traces serialize to JSON-lines so they can be shipped around and
diffed; volumes are stored at the device scale they were recorded at.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.devices.interface import BlockDevice
from repro.errors import ConfigurationError

__all__ = [
    "IoEvent",
    "IoTrace",
    "TracingDevice",
    "replay",
]


@dataclass(frozen=True)
class IoEvent:
    """One recorded block-device request batch.

    Attributes:
        op: "write" or "read".
        offsets: Byte offsets of the batch's requests.
        request_bytes: Size of each request.
        duration: Simulated seconds the batch took when recorded.
        app: Optional originating app label.
    """

    op: str
    offsets: List[int]
    request_bytes: int
    duration: float
    app: Optional[str] = None

    @property
    def total_bytes(self) -> int:
        return len(self.offsets) * self.request_bytes


class IoTrace:
    """An ordered sequence of :class:`IoEvent` with (de)serialization."""

    def __init__(self, events: Optional[List[IoEvent]] = None, device_name: str = "", scale: int = 1):
        self.events: List[IoEvent] = events or []
        self.device_name = device_name
        self.scale = scale

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[IoEvent]:
        return iter(self.events)

    def append(self, event: IoEvent) -> None:
        self.events.append(event)

    @property
    def written_bytes(self) -> int:
        return sum(e.total_bytes for e in self.events if e.op == "write")

    @property
    def read_bytes(self) -> int:
        return sum(e.total_bytes for e in self.events if e.op == "read")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines (header line + one per event)."""
        path = Path(path)
        with path.open("w") as fh:
            header = {"device": self.device_name, "scale": self.scale, "events": len(self.events)}
            fh.write(json.dumps(header) + "\n")
            for event in self.events:
                fh.write(json.dumps(asdict(event)) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "IoTrace":
        path = Path(path)
        with path.open() as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ConfigurationError(f"empty trace file {path}")
        header = json.loads(lines[0])
        events = [IoEvent(**json.loads(line)) for line in lines[1:] if line]
        return cls(events=events, device_name=header.get("device", ""), scale=header.get("scale", 1))


class TracingDevice:
    """Transparent recording proxy around a :class:`BlockDevice`.

    Drop-in where a device is expected: filesystems and workloads call
    the usual methods; every batch lands in :attr:`trace`.
    """

    def __init__(self, device: BlockDevice, app: Optional[str] = None):
        self._device = device
        self._app = app
        self.trace = IoTrace(device_name=device.name, scale=device.scale)

    # Delegated surface -------------------------------------------------

    def __getattr__(self, name):
        return getattr(self._device, name)

    def write(self, offset: int, size: int) -> float:
        return self.write_many(np.array([offset], dtype=np.int64), size)

    def write_many(self, offsets: np.ndarray, request_bytes: int) -> float:
        duration = self._device.write_many(offsets, request_bytes)
        self.trace.append(
            IoEvent(
                op="write",
                offsets=[int(o) for o in np.asarray(offsets)],
                request_bytes=int(request_bytes),
                duration=duration,
                app=self._app,
            )
        )
        return duration

    def read(self, offset: int, size: int) -> float:
        return self.read_many(np.array([offset], dtype=np.int64), size)

    def read_many(self, offsets: np.ndarray, request_bytes: int) -> float:
        duration = self._device.read_many(offsets, request_bytes)
        self.trace.append(
            IoEvent(
                op="read",
                offsets=[int(o) for o in np.asarray(offsets)],
                request_bytes=int(request_bytes),
                duration=duration,
                app=self._app,
            )
        )
        return duration


def replay(trace: IoTrace, device: BlockDevice, clip_to_capacity: bool = True) -> float:
    """Replay a trace against a device; returns total simulated seconds.

    Args:
        trace: The recorded request stream.
        device: Target device (need not match the recording device).
        clip_to_capacity: Wrap offsets that exceed the target's logical
            space (replaying a 16GB trace on an 8GB device).
    """
    total = 0.0
    capacity = device.logical_capacity
    for event in trace:
        offsets = np.asarray(event.offsets, dtype=np.int64)
        if clip_to_capacity:
            limit = max(device.page_size, capacity - event.request_bytes)
            offsets = offsets % limit
            offsets -= offsets % device.page_size
        if event.op == "write":
            total += device.write_many(offsets, event.request_bytes)
        elif event.op == "read":
            total += device.read_many(offsets, event.request_bytes)
        else:
            raise ConfigurationError(f"unknown trace op {event.op!r}")
    return total
