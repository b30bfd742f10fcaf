"""Ext4 model: in-place data writes plus a journaled metadata trickle.

Ext4 in its default ordered mode writes file data in place and journals
only metadata.  Rewriting existing file contents (the paper's attack
pattern) dirties almost no metadata — just timestamps and occasional
bitmap/inode updates — which the journal commits periodically.  The
journal lives in a small region near the start of the device, which on
hybrid parts overlaps the firmware's hot "Type A" window.

Net effect, matching §4.3's calibration: filesystem-level write
amplification of only a few percent, on top of whatever the device's
mapping granularity costs.
"""

from __future__ import annotations

import numpy as np

from repro.devices.interface import BlockDevice
from repro.errors import ConfigurationError
from repro.fs.interface import File, FileSystem


class Ext4Model(FileSystem):
    """Ext4 (ordered journaling) filesystem model.

    Args:
        device: Block device to mount on.
        journal_bytes: Size of the circular journal region at the start
            of the device (0 = pick a mke2fs-like default).
        commit_interval_pages: Data pages synced between journal commits
            (the commit timer, expressed in data volume).
        commit_pages: Pages written per commit (descriptor + metadata +
            commit record).
    """

    name = "ext4"

    def __init__(
        self,
        device: BlockDevice,
        journal_bytes: int = 0,
        commit_interval_pages: int = 64,
        commit_pages: int = 3,
    ):
        if journal_bytes == 0:
            # Default journal: 1/128 of capacity, at least one erase
            # block worth, like mke2fs picks small journals for small disks.
            journal_bytes = max(device.logical_capacity // 128, 16 * device.page_size)
        if commit_interval_pages < 1 or commit_pages < 1:
            raise ConfigurationError("commit interval and pages must be >= 1")
        super().__init__(device, metadata_reserve=journal_bytes)
        self.journal_bytes = journal_bytes
        self.commit_interval_pages = commit_interval_pages
        self.commit_pages = commit_pages
        self._journal_cursor = 0
        self._pages_since_commit = 0
        self.journal_bytes_written = 0

    def _flush_requests(self, file: File, offsets: np.ndarray, request_bytes: int) -> float:
        return self.device.write_many(file.extent_start + offsets, request_bytes)

    def _metadata_overhead(self, file: File, data_pages: int) -> float:
        self._pages_since_commit += data_pages
        commits = self._pages_since_commit // self.commit_interval_pages
        if commits == 0:
            return 0.0
        self._pages_since_commit %= self.commit_interval_pages
        return self._commit_journal(commits)

    def _commit_journal(self, commits: int) -> float:
        """Write journal transactions into the circular journal area."""
        journal_pages = self.journal_bytes // self.page_size
        count = commits * self.commit_pages
        slots = (self._journal_cursor + np.arange(count, dtype=np.int64)) % journal_pages
        self._journal_cursor = int((self._journal_cursor + count) % journal_pages)
        self.journal_bytes_written += count * self.page_size
        return self.device.write_many(slots * self.page_size, self.page_size)

    def _burst_metadata_plan(self, data_pages_per_step):
        # The journal cursor runs on from step to step, so the window's
        # commits fill one run of journal slots.
        journal_pages = self.journal_bytes // self.page_size
        pages_since_commit = self._pages_since_commit
        cursor = self._journal_cursor
        bytes_written = 0
        counts = []
        states = []
        for data_pages in data_pages_per_step:
            pages_since_commit += data_pages
            commits = pages_since_commit // self.commit_interval_pages
            count = 0
            if commits:
                pages_since_commit %= self.commit_interval_pages
                count = commits * self.commit_pages
                cursor = int((cursor + count) % journal_pages)
                bytes_written += count * self.page_size
            counts.append(count)
            states.append((pages_since_commit, cursor, bytes_written))
        offsets = self._ring_offsets(self._journal_cursor, sum(counts), journal_pages)
        return offsets, counts, states

    def _burst_commit(self, states, steps_executed: int) -> None:
        if steps_executed == 0:
            return
        pages_since_commit, cursor, bytes_written = states[steps_executed - 1]
        self._pages_since_commit = pages_since_commit
        self._journal_cursor = cursor
        self.journal_bytes_written += bytes_written

    def _burst_compose_duration(self, seg_durations) -> float:
        duration = seg_durations[0]
        if len(seg_durations) > 1:
            duration += seg_durations[1]
        return duration

    def fs_write_amplification(self) -> float:
        """Device bytes per application byte written through this FS."""
        if self.app_bytes_written == 0:
            return 1.0
        return (self.app_bytes_written + self.journal_bytes_written) / self.app_bytes_written
