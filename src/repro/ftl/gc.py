"""Garbage-collection victim selection policies.

Greedy selection (fewest valid units first) is the standard baseline
and what simple mobile controllers implement; cost-benefit is provided
for ablations.

A policy is one array function, ``select``, over the FTL's candidate
mask (its closed blocks), per-block valid counts and wear.  The scalar
reclaim calls it once per victim.  It carries almost no traffic: fused
bursts pick greedy victims inside the planning walk
(:mod:`repro.ftl.burst`), at the same tie-break, and the scalar path is
the reference they are tested against (DESIGN.md §7).

Policies themselves carry no observability hooks: the FTL records each
selected victim's valid-unit count into the
``ftl.gc_victim_valid_units`` histogram at collection time (DESIGN.md
§9), so selection stays a pure function of its inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


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
            candidate_mask: Blocks eligible for collection: the FTL's
                closed blocks, which are never free, bad, or active.
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
