"""F2FS model: node duplication on synchronous small writes.

§4.4: "With F2FS, wearing out the phone's storage requires about half
of the I/O volume, because the additional mapping mechanism in F2FS
doubles the amount of I/O reaching the storage device under 4 KiB
synchronous writes.  On the other hand, the wear-out workload has lower
throughput when using F2FS."

F2FS writes data out of place and must persist the updated node
(mapping) block with every fsync — its roll-forward logging writes one
node page per synced data page.  We model exactly that volume effect:
every flushed data page is accompanied by a node-area page write, and a
checkpoint slowdown factor reduces effective throughput.  We do not
model the log-structured layout itself; the paper found its only
mitigating effect was that it "inadvertently rate limits all I/O to the
device", which the slowdown factor captures (see DESIGN.md §2).
"""

from __future__ import annotations

import numpy as np

from repro.devices.interface import BlockDevice
from repro.errors import ConfigurationError
from repro.fs.interface import File, FileSystem


class F2fsModel(FileSystem):
    """F2FS (flash-friendly filesystem) model.

    Args:
        device: Block device to mount on.
        node_area_fraction: Fraction of the device set aside for node /
            checkpoint segments (rotated over circularly).
        node_pages_per_data_page: Node blocks persisted per synced data
            page (1.0 reproduces the paper's doubling for 4 KiB sync
            writes).
        checkpoint_slowdown: Multiplier (< 1) on effective throughput
            from checkpointing and segment management stalls.
    """

    name = "f2fs"

    def __init__(
        self,
        device: BlockDevice,
        node_area_fraction: float = 0.06,
        node_pages_per_data_page: float = 1.0,
        checkpoint_slowdown: float = 0.8,
    ):
        if not 0.0 < node_area_fraction < 0.5:
            raise ConfigurationError("node_area_fraction must be in (0, 0.5)")
        if node_pages_per_data_page < 0:
            raise ConfigurationError("node_pages_per_data_page must be non-negative")
        if not 0.0 < checkpoint_slowdown <= 1.0:
            raise ConfigurationError("checkpoint_slowdown must be in (0, 1]")
        node_bytes = int(device.logical_capacity * node_area_fraction)
        node_bytes = -(-node_bytes // device.page_size) * device.page_size
        super().__init__(device, metadata_reserve=node_bytes)
        self.node_area_bytes = node_bytes
        self.node_pages_per_data_page = node_pages_per_data_page
        self.checkpoint_slowdown = checkpoint_slowdown
        self._node_cursor = 0
        self._node_debt = 0.0
        self.node_bytes_written = 0

    def _flush_requests(self, file: File, offsets: np.ndarray, request_bytes: int) -> float:
        duration = self.device.write_many(file.extent_start + offsets, request_bytes)
        return duration / self.checkpoint_slowdown

    def _metadata_overhead(self, file: File, data_pages: int) -> float:
        self._node_debt += data_pages * self.node_pages_per_data_page
        node_pages = int(self._node_debt)
        if node_pages == 0:
            return 0.0
        self._node_debt -= node_pages
        area_pages = self.node_area_bytes // self.page_size
        slots = (self._node_cursor + np.arange(node_pages, dtype=np.int64)) % area_pages
        self._node_cursor = int((self._node_cursor + node_pages) % area_pages)
        self.node_bytes_written += node_pages * self.page_size
        duration = self.device.write_many(slots * self.page_size, self.page_size)
        return duration / self.checkpoint_slowdown

    def _burst_metadata_plan(self, data_pages_per_step):
        # The node cursor runs on from step to step, so the window's
        # node pages fill one run of node-area slots.
        area_pages = self.node_area_bytes // self.page_size
        debt = self._node_debt
        cursor = self._node_cursor
        bytes_written = 0
        counts = []
        states = []
        for data_pages in data_pages_per_step:
            debt += data_pages * self.node_pages_per_data_page
            node_pages = int(debt)
            if node_pages:
                debt -= node_pages
                cursor = int((cursor + node_pages) % area_pages)
                bytes_written += node_pages * self.page_size
            counts.append(node_pages)
            states.append((debt, cursor, bytes_written))
        offsets = self._ring_offsets(self._node_cursor, sum(counts), area_pages)
        return offsets, counts, states

    def _burst_commit(self, states, steps_executed: int) -> None:
        if steps_executed == 0:
            return
        debt, cursor, bytes_written = states[steps_executed - 1]
        self._node_debt = debt
        self._node_cursor = cursor
        self.node_bytes_written += bytes_written

    def _burst_compose_duration(self, seg_durations) -> float:
        # Each device call's duration is divided by the slowdown factor
        # separately, exactly as the scalar _flush_requests and
        # _metadata_overhead do.
        duration = seg_durations[0] / self.checkpoint_slowdown
        if len(seg_durations) > 1:
            duration += seg_durations[1] / self.checkpoint_slowdown
        return duration

    def _plan_probe(self):
        """Everything the f2fs burst plan reads: node-area geometry,
        the fractional node debt, and the node cursor (DESIGN.md §14)."""
        return (
            "f2fs",
            self.node_area_bytes,
            self.node_pages_per_data_page,
            self.checkpoint_slowdown,
            self._node_debt,
            self._node_cursor,
        )

    def fs_write_amplification(self) -> float:
        """Device bytes per application byte written through this FS."""
        if self.app_bytes_written == 0:
            return 1.0
        return (self.app_bytes_written + self.node_bytes_written) / self.app_bytes_written
