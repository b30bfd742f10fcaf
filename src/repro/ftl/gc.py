"""Garbage-collection victim selection policies.

Greedy selection (fewest valid units first) is the standard baseline
and what simple mobile controllers implement; cost-benefit is provided
for ablations.

Victim selection is the scalar FTL's hottest decision: a reclaim
invokes it once per erased block.  Rather than rescanning every block
per call, the FTL maintains a :class:`VictimQueue` — candidate blocks
bucketed by valid-unit count, updated incrementally as invalidations
land — and policies that implement ``select_incremental`` answer from
it without touching non-candidate blocks, one call per victim.  The
array-based ``select`` methods remain as the reference implementation
(and the fallback for custom policies).  Fused bursts pick greedy
victims inside the planning walk (:mod:`repro.ftl.burst`), at the same
tie-break.

Policies themselves carry no observability hooks: the FTL records each
selected victim's valid-unit count into the
``ftl.gc_victim_valid_units`` histogram at collection time (DESIGN.md
§9), so selection stays a pure function of queue state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class VictimQueue:
    """Incremental index of GC candidates, keyed by valid-unit count.

    The FTL adds a block when it closes, removes it when it is collected
    (or otherwise leaves candidacy), and pushes valid-count decrements in
    vectorized batches from the invalidation path (:meth:`apply_delta`).
    State is deliberately minimal — one per-block count array plus a
    lazily maintained minimum hint — so every queue operation is either
    a pair of scalar stores or a handful of fused vector passes, with no
    per-block Python work and no bucket bookkeeping.

    The hint is a lower bound on the smallest tracked count: lowered
    eagerly when counts drop, raised lazily by the scan in
    :meth:`min_count` (which victim selection fuses inline).

    Membership is intentionally exactly the FTL's candidate set (closed,
    not bad, not the active block): blocks only go bad at erase time,
    after they have been removed, and the active block is never closed.
    """

    def __init__(self, num_blocks: int, units_per_block: int):
        self.num_blocks = num_blocks
        self.units_per_block = units_per_block
        self._count_of = np.full(num_blocks, -1, dtype=np.int64)
        self._tracked = 0
        self._min_hint = 0
        # Reused bool scratch for apply_delta, to keep the invalidation
        # path allocation-free.
        self._mask_buf = np.empty(num_blocks, dtype=bool)
        self._mask_buf2 = np.empty(num_blocks, dtype=bool)

    def __len__(self) -> int:
        return self._tracked

    def __contains__(self, block: int) -> bool:
        return self._count_of[block] >= 0

    def add(self, block: int, count: int) -> None:
        """Start tracking a (newly closed) block at ``count`` valid units."""
        if self._count_of[block] < 0:
            self._tracked += 1
        self._count_of[block] = count
        if count < self._min_hint:
            self._min_hint = count

    def add_many(self, blocks, counts: np.ndarray) -> None:
        """Bulk :meth:`add` of freshly closed ``blocks`` (a small Python
        sequence), reading each count from the per-block ``counts``
        array.  One call per placement span instead of one per block."""
        cof = self._count_of
        hint = self._min_hint
        for block in blocks:
            count = int(counts[block])
            if cof[block] < 0:
                self._tracked += 1
            cof[block] = count
            if count < hint:
                hint = count
        self._min_hint = hint

    def discard(self, block: int) -> None:
        """Stop tracking ``block``; no-op if it is not tracked."""
        if self._count_of[block] >= 0:
            self._count_of[block] = -1
            self._tracked -= 1

    def apply_delta(self, delta: np.ndarray) -> None:
        """Subtract per-block ``delta`` from every tracked block's count.

        The FTL's invalidation path already produces a per-block
        decrement vector (one ``bincount`` over the stale units); this
        applies it to the tracked counts in a few fused vector passes —
        no candidate enumeration, no per-block fancy indexing.
        """
        cof = self._count_of
        mask = np.greater_equal(cof, 0, out=self._mask_buf)
        hit = np.greater(delta, 0, out=self._mask_buf2)
        np.logical_and(mask, hit, out=mask)
        np.subtract(cof, delta, out=cof, where=mask)
        if self._min_hint:
            # Counts only decrease here, so 0 stays a valid lower bound;
            # the gather + min is only needed while the hint is above it.
            updated = cof[mask]
            if updated.size:
                lowest = int(updated.min())
                if lowest < self._min_hint:
                    self._min_hint = lowest

    def min_count(self) -> Optional[int]:
        """Smallest valid count among tracked blocks, or None when empty."""
        if self._tracked == 0:
            return None
        cof = self._count_of
        count = self._min_hint
        misses = 0
        while not (cof == count).any():
            count += 1
            misses += 1
            if misses == 8:
                # Long gap above the hint (e.g. all low-count candidates
                # were just collected): jump straight to the true minimum.
                count = int(cof[cof >= 0].min())
                break
        self._min_hint = count
        return count

    def blocks_at(self, count: int) -> np.ndarray:
        """Tracked blocks with exactly ``count`` valid units (ascending ids)."""
        return (self._count_of == count).nonzero()[0]

    def candidates(self) -> np.ndarray:
        """All tracked blocks, ascending ids."""
        return (self._count_of >= 0).nonzero()[0]

    def counts_of(self, blocks: np.ndarray) -> np.ndarray:
        return self._count_of[blocks]


class GreedyVictimPolicy:
    """Pick the closed block with the fewest valid mapping units.

    Ties (common at low utilization, where many blocks are fully
    invalid) break toward the least-worn block; index-order
    tie-breaking would hammer low-numbered blocks and wear the device
    out wildly unevenly.
    """

    name = "greedy"

    def select(
        self,
        candidate_mask: np.ndarray,
        valid_counts: np.ndarray,
        pe_counts: np.ndarray,
        units_per_block: int,
    ) -> Optional[int]:
        """Return a victim block id, or None if no candidate exists.

        Args:
            candidate_mask: Blocks eligible for collection (closed, not
                free, not bad, not the active block).
            valid_counts: Valid mapping units per block.
            pe_counts: Effective P/E count per block (tie-breaker).
            units_per_block: Units per block (unused by greedy).
        """
        if not candidate_mask.any():
            return None
        # Primary key: valid count.  Secondary: wear, squashed into the
        # fractional part so it can never override the primary ordering.
        wear_frac = pe_counts / (pe_counts.max() + 1.0) * 0.5
        score = np.where(candidate_mask, valid_counts + wear_frac, np.inf)
        victim = int(np.argmin(score))
        if not candidate_mask[victim]:
            return None
        return victim

    def select_incremental(
        self, queue: VictimQueue, pe_counts: np.ndarray, pe_max: Optional[float] = None
    ) -> Optional[int]:
        """Queue-backed fast path; result is identical to :meth:`select`.

        The global minimum of ``valid + wear_frac`` always lies in the
        minimum-valid-count bucket (``wear_frac < 0.5``), so only that
        bucket's blocks are scored — with the same arithmetic as the
        reference path, preserving argmin tie behaviour exactly.
        ``pe_max`` lets the caller supply a cached ``pe_counts.max()``.
        """
        if not queue._tracked:
            return None
        # Inlined min_count + blocks_at: the hint scan and the bucket
        # enumeration share one comparison pass.  Runs once per erased
        # block, so every vector op here shows up in wear-out profiles.
        cof = queue._count_of
        hit = queue._mask_buf
        count = queue._min_hint
        misses = 0
        while True:
            np.equal(cof, count, out=hit)
            blocks = hit.nonzero()[0]
            if blocks.size:
                break
            count += 1
            misses += 1
            if misses == 8:
                count = int(cof[cof >= 0].min())
                np.equal(cof, count, out=hit)
                blocks = hit.nonzero()[0]
                break
        queue._min_hint = count
        if blocks.size == 1:
            return int(blocks[0])
        if pe_max is None:
            pe_max = float(pe_counts.max())
        score = count + pe_counts[blocks] / (pe_max + 1.0) * 0.5
        return int(blocks[score.argmin()])


class CostBenefitVictimPolicy:
    """Cost-benefit selection (Rosenblum/Ousterhout style).

    Scores blocks by free-space gain over copy cost, weighted toward
    less-worn blocks so collection doubles as mild wear leveling.
    Used by the ablation benchmarks; greedy is the default.
    """

    name = "cost-benefit"

    def select(
        self,
        candidate_mask: np.ndarray,
        valid_counts: np.ndarray,
        pe_counts: np.ndarray,
        units_per_block: int,
    ) -> Optional[int]:
        if not candidate_mask.any():
            return None
        utilization = valid_counts / units_per_block
        # benefit/cost = (1 - u) / (1 + u), aged by remaining endurance.
        age_weight = 1.0 / (1.0 + pe_counts / max(1.0, float(pe_counts.max() or 1.0)))
        score = (1.0 - utilization) / (1.0 + utilization) * age_weight
        score = np.where(candidate_mask, score, -np.inf)
        victim = int(np.argmax(score))
        if not candidate_mask[victim]:
            return None
        return victim

    def select_incremental(
        self, queue: VictimQueue, pe_counts: np.ndarray, pe_max: Optional[float] = None
    ) -> Optional[int]:
        """Queue-backed fast path; result is identical to :meth:`select`.

        Cost-benefit scores depend on wear as well as utilization, so
        every candidate is scored — but only candidates, gathered from
        the queue, instead of a masked pass over all blocks.
        ``pe_max`` lets the caller supply a cached ``pe_counts.max()``.
        """
        blocks = queue.candidates()
        if blocks.size == 0:
            return None
        if pe_max is None:
            pe_max = float(pe_counts.max() or 1.0)
        utilization = queue.counts_of(blocks) / queue.units_per_block
        age_weight = 1.0 / (1.0 + pe_counts[blocks] / max(1.0, pe_max or 1.0))
        score = (1.0 - utilization) / (1.0 + utilization) * age_weight
        return int(blocks[score.argmax()])
