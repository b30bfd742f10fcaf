"""Property-based tests (hypothesis) for FTL invariants.

These drive the FTL with arbitrary interleavings of writes, trims, and
reads and assert the structural invariants hold at every step: the L2P
and P2L maps stay inverse bijections over valid units, per-block valid
counts match the bitmap, block states partition the package, and data
is never lost.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash import FlashGeometry, FlashPackage
from repro.ftl import PageMappedFTL
from repro.ftl.ftl import _ragged_ranges
from repro.units import KIB

from tests.modes import check_mapping_invariants


def make_ftl(unit_pages: int = 1) -> PageMappedFTL:
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=48)
    pkg = FlashPackage(geom, seed=11)
    logical = int(geom.capacity_bytes * 0.8)
    return PageMappedFTL(
        pkg, logical_capacity_bytes=logical, mapping_unit_pages=unit_pages, seed=11
    )


# One operation: (kind, payload)
ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "span", "trim", "read"]),
        st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=40),
    ),
    min_size=1,
    max_size=30,
)


class TestStructuralInvariants:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(operations=ops, unit_pages=st.sampled_from([1, 2, 4]))
    def test_invariants_hold_under_arbitrary_ops(self, operations, unit_pages):
        ftl = make_ftl(unit_pages)
        page = ftl.geometry.page_size
        max_page = ftl.num_logical_units * ftl.unit_pages - 1
        for kind, payload in operations:
            pages = np.array(payload, dtype=np.int64) % (max_page + 1)
            if kind == "write":
                ftl.write_requests(pages * page, page)
            elif kind == "span":
                start = int(pages[0])
                length = min(len(pages), max_page - start + 1)
                if length > 0:
                    ftl.write_span(start, length)
            elif kind == "trim":
                ftl.trim_pages(int(pages[0]), len(pages))
            else:
                ftl.read_pages(pages)
            check_mapping_invariants(ftl)

    @settings(max_examples=40, deadline=None)
    @given(
        lpns=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=200)
    )
    def test_last_write_wins_within_batch(self, lpns):
        """After a batch with duplicates, each LPN maps to exactly one
        valid unit and the number of mapped units equals the number of
        distinct LPNs written."""
        ftl = make_ftl()
        page = ftl.geometry.page_size
        arr = np.array(lpns, dtype=np.int64)
        ftl.write_requests(arr * page, page)
        assert (ftl._l2p >= 0).sum() == len(set(lpns))
        check_mapping_invariants(ftl)

    @settings(max_examples=30, deadline=None)
    @given(
        first=st.lists(st.integers(0, 300), min_size=1, max_size=80, unique=True),
        second=st.lists(st.integers(0, 300), min_size=1, max_size=80, unique=True),
    )
    def test_no_data_loss_across_batches(self, first, second):
        """Everything ever written stays mapped (no trim involved)."""
        ftl = make_ftl()
        page = ftl.geometry.page_size
        ftl.write_requests(np.array(first) * page, page)
        ftl.write_requests(np.array(second) * page, page)
        expected = set(first) | set(second)
        assert set(np.nonzero(ftl._l2p >= 0)[0].tolist()) == expected


class TestWearProperties:
    @settings(max_examples=20, deadline=None)
    @given(batches=st.integers(min_value=1, max_value=20))
    def test_wear_is_monotone(self, batches):
        ftl = make_ftl()
        page = ftl.geometry.page_size
        rng = np.random.default_rng(5)
        last = 0.0
        for _ in range(batches):
            lpns = rng.integers(0, 200, size=2000)
            ftl.write_requests(lpns * page, page)
            now = ftl.life_used()
            assert now >= last
            last = now

    @settings(max_examples=20, deadline=None)
    @given(unit_pages=st.sampled_from([1, 2, 4]))
    def test_wa_at_least_rmw_floor(self, unit_pages):
        """Scattered page writes can never amplify less than the
        mapping-unit width."""
        ftl = make_ftl(unit_pages)
        page = ftl.geometry.page_size
        rng = np.random.default_rng(5)
        for _ in range(5):
            lpns = rng.integers(0, 300, size=3000)
            ftl.write_requests(lpns * page, page)
        assert ftl.stats.write_amplification >= unit_pages - 1e-9


class TestRaggedRanges:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 30)), min_size=1, max_size=50
        )
    )
    def test_matches_naive_concatenation(self, pairs):
        first = np.array([a for a, _ in pairs], dtype=np.int64)
        last = np.array([a + w for a, w in pairs], dtype=np.int64)
        expected = np.concatenate([np.arange(a, b + 1) for a, b in zip(first, last)])
        out = _ragged_ranges(first, last)
        assert (out == expected).all()
