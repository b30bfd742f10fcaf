"""Filesystem base class: files, extents, and write-back caching.

Files are allocated as contiguous extents from low logical addresses
upward — a deliberate simplification that also reflects where mobile
filesystems put frequently-rewritten data, and what feeds the hybrid
device's low-LBA "Type A" hot window (see ``repro.ftl.hybrid``).

Writes may be synchronous (each request reaches the device immediately,
as an O_SYNC/fsync-per-write app would behave) or buffered (dirty pages
accumulate in the page cache until :meth:`fsync` or the dirty threshold
flushes them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

import numpy as np

from repro.devices.interface import BlockDevice
from repro.errors import ConfigurationError, OutOfSpaceError


def _expand_page_ranges(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Concatenate inclusive page ranges [first[i], last[i]], vectorized.

    Mirrors the FTL's ragged-range expansion: aligned single-page
    requests (the common 4 KiB sync pattern) short-circuit to ``first``.
    """
    counts = last - first + 1
    total = int(counts.sum())
    if total == counts.size:
        return first
    starts_repeated = np.repeat(first, counts)
    run_starts = np.repeat(counts.cumsum() - counts, counts)
    return starts_repeated + (np.arange(total, dtype=np.int64) - run_starts)


@dataclass
class File:
    """One file: a name, a size, and a contiguous device extent."""

    name: str
    extent_start: int
    size: int

    def device_offset(self, file_offset: int) -> int:
        if not 0 <= file_offset < self.size:
            raise ConfigurationError(f"offset {file_offset} outside file of {self.size} bytes")
        return self.extent_start + file_offset

    def num_pages(self, page_size: int) -> int:
        return -(-self.size // page_size)


class FileSystem:
    """Base class for the Ext4 and F2FS models.

    Subclasses implement :meth:`_flush_requests` (how data reaches the
    device) and :meth:`_metadata_overhead` (journal / node writes that
    accompany flushed data).

    Args:
        device: The block device to mount on.
        metadata_reserve: Bytes at the start of the device reserved for
            filesystem metadata structures (and, on hybrid devices,
            overlapping the Type A hot window).
        dirty_flush_pages: Buffered dirty pages that trigger an
            automatic write-back.
    """

    name = "abstract"

    def __init__(
        self,
        device: BlockDevice,
        metadata_reserve: int = 0,
        dirty_flush_pages: int = 4096,
    ):
        if metadata_reserve < 0:
            raise ConfigurationError("metadata_reserve must be non-negative")
        self.device = device
        self.page_size = device.page_size
        # Align the data area to a generous boundary so file extents stay
        # aligned to the device's mapping units regardless of granularity.
        alignment = 64 * 1024
        self.metadata_reserve = -(-metadata_reserve // alignment) * alignment
        self.dirty_flush_pages = dirty_flush_pages
        self._alloc_cursor = self.metadata_reserve
        self._files: Dict[str, File] = {}
        self._dirty: Dict[str, Set[int]] = {}
        # Running total of dirty pages across all files, maintained at
        # every set mutation so the flush-threshold check is O(1)
        # instead of an O(num_files) scan per buffered write.
        self._dirty_total = 0
        self.app_bytes_written = 0

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    @property
    def files(self) -> Dict[str, File]:
        return dict(self._files)

    def free_bytes(self) -> int:
        return self.device.logical_capacity - self._alloc_cursor

    def utilization(self) -> float:
        """Fraction of the device's logical space allocated to files."""
        return self._alloc_cursor / self.device.logical_capacity

    def create_file(self, name: str, size: int) -> File:
        """Create a file with a contiguous extent of ``size`` bytes."""
        if name in self._files:
            raise ConfigurationError(f"file {name!r} already exists")
        if size <= 0:
            raise ConfigurationError("file size must be positive")
        aligned = -(-size // self.page_size) * self.page_size
        if self._alloc_cursor + aligned > self.device.logical_capacity:
            raise OutOfSpaceError(f"no space for {name!r} ({size} bytes)")
        handle = File(name=name, extent_start=self._alloc_cursor, size=size)
        self._alloc_cursor += aligned
        self._files[name] = handle
        self._dirty[name] = set()
        return handle

    def delete_file(self, name: str) -> None:
        """Delete a file and discard (trim) its extent.

        Note: the simple bump allocator does not reuse freed extents;
        long-lived simulations should rewrite files in place, as the
        paper's attack app does.
        """
        handle = self._files.pop(name)
        dropped = self._dirty.pop(name, None)
        if dropped:
            self._dirty_total -= len(dropped)
        self.device.trim(handle.extent_start, handle.size)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def write_requests(
        self,
        file: File,
        file_offsets: np.ndarray,
        request_bytes: int,
        sync: bool = True,
    ) -> float:
        """A batch of equal-sized writes within one file.

        Semantically each offset is one independent write (followed by
        fsync when ``sync``); batching is the simulator's fast path.
        Returns the simulated duration in seconds.
        """
        offsets = np.asarray(file_offsets, dtype=np.int64)
        if offsets.size == 0:
            return 0.0
        if request_bytes <= 0:
            raise ConfigurationError("request size must be positive")
        if offsets.min() < 0 or int(offsets.max()) + request_bytes > file.size:
            raise ConfigurationError("write beyond end of file")
        self.app_bytes_written += int(offsets.size) * request_bytes
        if sync:
            return self._sync_out(file, offsets, request_bytes)
        page = self.page_size
        first = offsets // page
        last = (offsets + request_bytes - 1) // page
        dirty = self._dirty[file.name]
        before = len(dirty)
        dirty.update(_expand_page_ranges(first, last).tolist())
        self._dirty_total += len(dirty) - before
        if self._dirty_total >= self.dirty_flush_pages:
            return self.sync_all()
        return 0.0

    def write(self, file: File, offset: int, size: int, sync: bool = True) -> float:
        """Write ``size`` bytes at ``offset``; returns simulated seconds."""
        return self.write_requests(file, np.array([offset], dtype=np.int64), size, sync=sync)

    def write_pages(self, file: File, file_page_indices: np.ndarray, sync: bool = True) -> float:
        """Batch of independent page-sized writes (4 KiB sync pattern)."""
        pages = np.asarray(file_page_indices, dtype=np.int64)
        return self.write_requests(file, pages * self.page_size, self.page_size, sync=sync)

    def write_requests_burst(self, files, offsets, request_bytes, budget):
        """Fused synchronous write path over many workload steps.

        Args:
            files: The file each step writes, one per row of ``offsets``.
            offsets: ``(steps, requests)`` int64 matrix of file offsets;
                row ``i`` is one ``write_requests(files[i], offsets[i],
                request_bytes, sync=True)`` call.  It is handed over:
                the filesystem turns it into device offsets in place
                and the device into mapping units.
            budget: Poll budget forwarded to the device burst path.

        Returns:
            ``(m, durations)`` — steps actually executed and their
            per-step simulated durations — or None when the fused path
            cannot run, in which case the caller must replay through
            :meth:`write_requests` (which raises the proper errors for
            any invalid request this path refused).
        """
        steps, count = offsets.shape
        if request_bytes <= 0 or not steps or not count:
            return None
        sizes = np.array([file.size for file in files], dtype=np.int64)
        if (offsets.min(axis=1) < 0).any() or (
            offsets.max(axis=1) > sizes - request_bytes
        ).any():
            return None
        pages_per_request = -(-request_bytes // self.page_size)
        meta = self._burst_metadata_plan([count * pages_per_request] * steps)
        if meta is None:
            return None
        meta_offsets, meta_counts, states = meta
        offsets += np.array([file.extent_start for file in files], dtype=np.int64)[:, None]
        out = self.device.write_burst(
            offsets, request_bytes, (meta_offsets, meta_counts, self.page_size), budget
        )
        if out is None:
            return None
        m, seg_durations = out
        app_delta = m * count * request_bytes
        self.app_bytes_written += app_delta
        self._burst_commit(states, m)
        durations = []
        cursor = 0
        for step in range(m):
            width = 2 if meta_counts[step] else 1
            durations.append(
                self._burst_compose_duration(seg_durations[cursor : cursor + width])
            )
            cursor += width
        return m, durations

    def read(self, file: File, offset: int, size: int) -> float:
        if offset + size > file.size:
            raise ConfigurationError("read beyond end of file")
        return self.device.read(file.device_offset(offset), size)

    def fsync(self, file: File) -> float:
        """Flush one file's dirty pages."""
        dirty = self._dirty.get(file.name)
        if not dirty:
            return 0.0
        pages = np.sort(np.fromiter(dirty, dtype=np.int64, count=len(dirty)))
        self._dirty_total -= len(dirty)
        dirty.clear()
        return self._sync_out(file, pages * self.page_size, self.page_size)

    def sync_all(self) -> float:
        """Flush every file's dirty pages (the sync(2) analogue)."""
        total = 0.0
        for name in list(self._dirty):
            handle = self._files.get(name)
            if handle is not None:
                total += self.fsync(handle)
        return total

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _sync_out(self, file: File, offsets: np.ndarray, request_bytes: int) -> float:
        """Push request batch to the device plus FS metadata overhead."""
        duration = self._flush_requests(file, offsets, request_bytes)
        pages_per_request = -(-request_bytes // self.page_size)
        duration += self._metadata_overhead(file, int(offsets.size) * pages_per_request)
        return duration

    def _flush_requests(self, file: File, offsets: np.ndarray, request_bytes: int) -> float:
        raise NotImplementedError

    def _metadata_overhead(self, file: File, data_pages: int) -> float:
        raise NotImplementedError

    def _burst_metadata_plan(self, data_pages_per_step):
        """Precompute metadata writes for a burst of sync steps.

        Given the data pages flushed by each step, return ``(offsets,
        counts, states)``: the page-sized metadata writes of the whole
        window as one array of device offsets, step after step;
        ``counts[i]``, the writes of step ``i``'s metadata device call
        (0 when the step commits no metadata); and ``states[i]``, the
        opaque cursor state reached after step ``i`` — consumed by
        :meth:`_burst_commit` for the executed prefix.  The default
        returns None: filesystems without a burst plan fall back to the
        scalar path.
        """
        return None

    def _burst_commit(self, states, steps_executed: int) -> None:
        """Apply the metadata cursor state after a truncated burst."""
        raise NotImplementedError

    def _ring_offsets(self, start: int, total: int, ring_pages: int) -> np.ndarray:
        """Device offsets of ``total`` page writes into a circular
        metadata area of ``ring_pages`` pages at offset 0, from slot
        ``start`` on: ``(start + arange(total)) % ring_pages`` pages,
        as the scalar metadata writes take them.  Built from contiguous
        runs, not a per-slot modulo: the slots from ``start`` to the
        area's end and from slot 0 up to ``start`` make one period,
        which a window longer than the area repeats."""
        page = self.page_size
        if start + total <= ring_pages:
            return np.arange(start * page, (start + total) * page, page, dtype=np.int64)
        ring = np.arange(0, ring_pages * page, page, dtype=np.int64)
        period = np.concatenate((ring[start:], ring[:start]))
        return np.tile(period, -(-total // ring_pages))[:total]

    def _burst_compose_duration(self, seg_durations) -> float:
        """Combine one step's device call durations exactly as the
        scalar ``_sync_out`` arithmetic would."""
        raise NotImplementedError

    def fs_write_amplification(self) -> float:
        """Device bytes per application byte written through this FS."""
        raise NotImplementedError
