"""Wear-out workloads (§4.3, §4.4).

The paper's core experiment: "We repeatedly rewrote small, randomly-
selected regions of four 100MB files on each external card, and
measured the wear-out indicator."  The smartphone variant is the same
pattern issued by an unprivileged app against its private storage.

:class:`FileRewriteWorkload` implements both the 4 KiB random and
128 KiB sequential phases of Table 1; :func:`fill_static_space` sets up
the space-utilization conditions (0% / 50% / 90% static data).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fs.interface import File, FileSystem
from repro.rng import SeedLike, substream
from repro.units import KIB, MIB
from repro.workloads.patterns import RandomPattern, SequentialPattern, StridePattern


def fill_static_space(fs: FileSystem, fraction: float, name_prefix: str = "static") -> List[File]:
    """Fill the filesystem with untouched static data up to ``fraction``
    of device capacity (Table 1's "Space Util." column).

    The static files are written once (sequentially, cheap) and never
    touched again.  Returns the created files.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError("fraction must be in [0, 1)")
    target = int(fs.device.logical_capacity * fraction)
    created: List[File] = []
    chunk = 64 * MIB
    index = 0
    while target > 0 and fs.free_bytes() > fs.page_size:
        size = min(chunk, target, fs.free_bytes())
        if size < fs.page_size:
            break
        handle = fs.create_file(f"{name_prefix}-{index}", size)
        # One sequential pass to materialize the data.
        offsets = np.arange(0, size - size % (1 * MIB), 1 * MIB, dtype=np.int64)
        if offsets.size:
            fs.write_requests(handle, offsets, 1 * MIB)
        created.append(handle)
        target -= size
        index += 1
    return created


class FileRewriteWorkload:
    """Continuously rewrite regions of a set of files.

    Args:
        fs: Filesystem holding the files.
        num_files: Number of rewrite targets (the paper used four).
        file_bytes: Size of each file at *full* device scale; divided by
            the device's scale factor automatically.
        request_bytes: Per-write request size (4 KiB random phases,
            128 KiB sequential phases).
        pattern: "rand", "seq", or "stride".
        batch_requests: Requests simulated per :meth:`step` (simulator
            granularity only).
        sync: Whether every request is synchronous (the paper's pattern).
        target_files: Rewrite these existing files instead of creating
            new ones — Table 1's "rand rewrite" phases aimed at the
            utilized space.
        seed: RNG seed for the random pattern.
    """

    def __init__(
        self,
        fs: FileSystem,
        num_files: int = 4,
        file_bytes: int = 100 * 1000 * 1000,
        request_bytes: int = 4 * KIB,
        pattern: str = "rand",
        batch_requests: int = 4096,
        sync: bool = True,
        target_files: Optional[List[File]] = None,
        seed: SeedLike = None,
    ):
        if pattern not in ("rand", "seq", "stride"):
            raise ConfigurationError(f"unknown pattern {pattern!r}")
        self.fs = fs
        self.request_bytes = request_bytes
        self.pattern = pattern
        self.batch_requests = batch_requests
        self.sync = sync
        self._rng = substream(seed, "file-rewrite")

        if target_files is not None:
            self.files = list(target_files)
        else:
            scale = fs.device.scale
            scaled = max(request_bytes, fs.page_size, file_bytes // scale)
            scaled = -(-scaled // fs.page_size) * fs.page_size
            self.files = [fs.create_file(f"wear-{i}", scaled) for i in range(num_files)]
        if not self.files:
            raise ConfigurationError("need at least one target file")

        self._generators = []
        for handle in self.files:
            usable = handle.size - handle.size % request_bytes
            if usable < request_bytes:
                raise ConfigurationError(f"file {handle.name!r} smaller than one request")
            if pattern == "rand":
                self._generators.append(RandomPattern(usable, request_bytes, seed=self._rng))
            elif pattern == "stride" and usable // request_bytes >= 2:
                self._generators.append(StridePattern(usable, request_bytes))
            else:
                self._generators.append(SequentialPattern(usable, request_bytes))
        self._next_file = 0
        # Random rows of every file come from the one shared Generator:
        # with one bound, a window is a single draw in step order.
        self._one_draw = pattern == "rand" and len({g._slots for g in self._generators}) == 1

    @property
    def description(self) -> str:
        size = self.request_bytes
        label = f"{size // KIB} KiB" if size >= KIB else f"{size} B"
        return f"{label} {self.pattern}"

    @property
    def space_utilization(self) -> float:
        return self.fs.utilization()

    @property
    def step_bytes(self) -> int:
        """Application bytes one :meth:`step` writes (batch protocol)."""
        return self.batch_requests * self.request_bytes

    def step(self) -> Tuple[float, int]:
        """Issue one batch against the next file (round-robin).

        Returns (simulated_duration_seconds, app_bytes_written).
        """
        index = self._next_file
        self._next_file = (self._next_file + 1) % len(self.files)
        offsets = self._generators[index].next_batch(self.batch_requests)
        duration = self.fs.write_requests(
            self.files[index], offsets, self.request_bytes, sync=self.sync
        )
        return duration, self.step_bytes

    def step_batch(self, n: int, budget=None):
        """Advance up to ``n`` steps through the fused burst path.

        Implements the batch protocol of :mod:`repro.workloads.batch`:
        returns ``(durations, byte_counts, bricked)`` for the executed
        prefix, or None — with all generator state rewound — when the
        fused path cannot run and the caller must replay via
        :meth:`step`.  The window is drawn as one steps × requests
        offset matrix (:meth:`_draw_window`), which the filesystem and
        device transform in place.  A burst truncated at ``m < n`` steps
        rewinds the pattern generators and redraws exactly ``m`` rows,
        so their state (and any snapshot taken afterwards) is
        bit-identical to a scalar run of ``m`` steps.
        """
        fs_burst = getattr(self.fs, "write_requests_burst", None)
        if n < 1 or not self.sync or fs_burst is None:
            return None
        eligible = getattr(self.fs.device, "burst_eligible", None)
        if eligible is not None and not eligible():
            # Statically ineligible device (event timing, read-only, a
            # duck-typed FTL): skip the whole-window pre-draw, not just
            # the burst — the caller replays through the scalar path.
            return None
        num_files = len(self.files)
        start_file = self._next_file
        saved = self._pattern_state()
        offsets = self._draw_window(start_file, n)
        files = [self.files[(start_file + i) % num_files] for i in range(n)]
        out = fs_burst(files, offsets, self.request_bytes, budget)
        if out is None:
            self._set_pattern_state(saved)
            return None
        m, durations = out
        if m < n:
            self._set_pattern_state(saved)
            self._draw_window(start_file, m)
        self._next_file = (start_file + m) % num_files
        return durations, [self.step_bytes] * m, False

    def _draw_window(self, start_file: int, n: int) -> np.ndarray:
        """The next ``n`` steps' offsets as one ``(n, batch_requests)``
        matrix: row ``i`` is the :meth:`step` draw on file
        ``(start_file + i) % len(files)``, and every generator ends
        where those ``n`` draws leave it.

        Random patterns share this workload's Generator, so their rows
        are drawn in step order: one ``next_window`` call when every
        file has the same bound, else one ``next_batch`` per row.  The
        deterministic patterns each draw their own rows in one call.
        """
        count = self.batch_requests
        generators = self._generators
        num_files = len(generators)
        if num_files == 1 or self._one_draw:
            return generators[start_file].next_window(n, count)
        out = np.empty((n, count), dtype=np.int64)
        if self.pattern == "rand":
            for i in range(n):
                out[i] = generators[(start_file + i) % num_files].next_batch(count)
            return out
        for j in range(min(n, num_files)):
            rows = len(range(j, n, num_files))
            out[j::num_files] = generators[(start_file + j) % num_files].next_window(rows, count)
        return out

    def _pattern_state(self):
        """Positional snapshot of every generator's phase: one
        ``("rng", state)`` entry per distinct RNG object (random
        patterns may share the workload substream's Generator), one
        ``("cursor", value)`` per cursor, in generator order.

        Holding no object references, it rewinds a window
        (:meth:`step_batch`).
        """
        entries = []
        seen = set()
        for generator in self._generators:
            rng = getattr(generator, "_rng", None)
            if rng is not None and id(rng) not in seen:
                seen.add(id(rng))
                entries.append(("rng", rng.bit_generator.state))
            if hasattr(generator, "_cursor"):
                entries.append(("cursor", generator._cursor))
        return tuple(entries)

    def _set_pattern_state(self, entries) -> None:
        """Apply a snapshot taken by :meth:`_pattern_state`."""
        it = iter(entries)
        seen = set()
        for generator in self._generators:
            rng = getattr(generator, "_rng", None)
            if rng is not None and id(rng) not in seen:
                seen.add(id(rng))
                _, value = next(it)
                rng.bit_generator.state = value
            if hasattr(generator, "_cursor"):
                _, value = next(it)
                generator._cursor = value
