"""eMMC device model.

eMMC parts are "low-cost, have much smaller capacity, and typically
contain only a few flash chips, which are managed using a simple
controller" (§3).  The simple controller shows up here as a coarse
mapping unit (RAM-starved mapping tables) handled by the FTL, and a
modest parallelism plateau in the performance model.  Hybrid parts
(the paper's SanDisk iNAND 16GB) carry a Type A + Type B
:class:`~repro.ftl.hybrid.HybridFTL` and report two wear indicators.
"""

from __future__ import annotations

from repro.devices.interface import BlockDevice


class EmmcDevice(BlockDevice):
    """An embedded MMC storage device (plain or hybrid)."""

    @property
    def is_hybrid(self) -> bool:
        return len(self.pools) > 1

    @property
    def merged_mode(self) -> bool:
        """True when a hybrid part has combined its memory pools (§4.3)."""
        return self.is_hybrid and self.ftl.merged_mode
