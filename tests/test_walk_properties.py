"""Property search of the fused walk against the scalar write path
(DESIGN.md §11), on the path where blocks retire.

Hypothesis draws tiny page-mapped FTLs on derated media — endurance,
manufacturing spread, fill, window shape, seed, erase stop and static
wear leveling on or off — and drives one random write stream two ways,
window by window: through the fused ``write_requests_batch`` and
through per-call ``write_requests`` over the groups the fused window
executed.  A window's shape is its groups' calls: a group may hold no
call, a call may be empty, and in a block-aligned shape every call
writes whole blocks, so group ends — the erase stop's included — fall
on block ends and a window can end with its last block closed and none
open.  Along the way blocks retire inside windows, GC victims relocate,
static wear leveling migrates, pre-burst blocks (the partly valid
active one included) are exhausted in-window and runs reach end of
life.  After every window both FTLs must agree on their fingerprint and
snapshot bytes, or the fused path must have refused the window
(``None``) without touching its FTL.  A window that stops short of its
groups must have spent its erase stop, or end of life must follow: the
next scalar group raises ``DeviceWornOut``.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeviceWornOut
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.ftl import PageMappedFTL
from repro.ftl.burst import BurstSegment
from repro.ftl.wear_leveling import WearLevelingConfig
from repro.state.snapshot import capture_ftl
from repro.units import KIB
from repro.workloads import BRICK_ERRORS
from tests.modes import ftl_fingerprint

PAGE = 4 * KIB

#: Windows driven per example (fewer when the device dies first).
WINDOWS = 40


def _ftl(case):
    geom = FlashGeometry(page_size=PAGE, pages_per_block=case["pages_per_block"],
                         num_blocks=case["num_blocks"])
    package = FlashPackage(
        geom, cell_spec=CELL_SPECS[CellType.MLC].derated(case["endurance"]),
        endurance_sigma=case["sigma"], seed=case["seed"],
    )
    if case["static"]:
        # Tight enough to migrate on media this short-lived.
        wl = WearLevelingConfig(static_check_interval=8, static_delta_threshold=2)
    else:
        wl = WearLevelingConfig(static_enabled=False)
    return PageMappedFTL(package, logical_capacity_bytes=int(geom.capacity_bytes * case["fill"]),
                         wear_leveling=wl, seed=case["seed"])


def _state(ftl):
    """Fingerprint and snapshot bytes: every observable of the FTL."""
    return ftl_fingerprint(ftl), pickle.dumps(capture_ftl(ftl))


def _write(ftl, calls):
    """One group's scalar calls; returns the brick error one raised (the
    group stops there), or None."""
    for lpns in calls:
        try:
            ftl.write_requests(lpns * PAGE, PAGE)
        except BRICK_ERRORS as exc:
            return type(exc)
    return None


@st.composite
def _cases(draw):
    num_blocks = draw(st.sampled_from([24, 48]))
    pages_per_block = draw(st.sampled_from([4, 8, 16]))
    # Units per call: any count, or whole blocks.
    unit = pages_per_block if draw(st.booleans()) else 1
    calls = st.lists(st.integers(min_value=0, max_value=96 // unit).map(lambda k: k * unit),
                     max_size=2)
    return {
        "pages_per_block": pages_per_block,
        "num_blocks": num_blocks,
        "endurance": draw(st.integers(min_value=3, max_value=40)),
        "sigma": draw(st.sampled_from([0.0, 0.05, 0.3, 0.6])),
        # Room for the logical space, reserve and GC watermarks.
        "fill": draw(st.floats(min_value=0.2, max_value=(num_blocks - 6) / num_blocks - 0.01)),
        "static": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "hot": draw(st.sampled_from([0.125, 0.5, 1.0])),
        "shape": draw(st.lists(calls, min_size=1, max_size=8)),
        "stop": draw(st.one_of(st.none(), st.integers(min_value=0, max_value=30))),
    }


@settings(max_examples=60, deadline=None)
@given(case=_cases())
# An empty group 0, then end of life inside group 1: the cut plan
# executes no unit at all.
@example(case={"pages_per_block": 8, "num_blocks": 24, "endurance": 3, "sigma": 0.0,
               "fill": 0.46875, "static": False, "seed": 0, "hot": 0.5,
               "shape": [[], [31]], "stop": None})
def test_fused_windows_match_scalar_calls(case):
    fused, scalar = _ftl(case), _ftl(case)
    rng = np.random.default_rng(case["seed"])
    hot = max(1, int(fused.num_logical_units * case["hot"]))
    n = len(case["shape"])
    for _ in range(WINDOWS):
        draws = [
            [rng.integers(0, hot, size=size, dtype=np.int64) for size in sizes]
            for sizes in case["shape"]
        ]
        segments = [
            BurstSegment(unit_lpns=lpns, host_pages=lpns.size, rmw_pages=0, group=g,
                         total_bytes=lpns.size * PAGE, request_bytes=PAGE)
            for g, calls in enumerate(draws)
            for lpns in calls
        ]
        before = _state(fused)
        plan = fused.write_requests_batch(segments, n, case["stop"])
        if plan is None:
            assert _state(fused) == before
            m = 0
        else:
            m = plan.executed_groups
            for calls in draws[:m]:
                assert _write(scalar, calls) is None
            assert _state(fused) == _state(scalar)
            if m < n and (case["stop"] is None or plan.n_erased < case["stop"]):
                # Only end of life truncates a window the stop allows.
                assert _write(fused, draws[m]) is _write(scalar, draws[m]) is DeviceWornOut
                assert _state(fused) == _state(scalar)
                return
        for calls in draws[m:]:
            error = _write(fused, calls)
            assert _write(scalar, calls) is error
            assert _state(fused) == _state(scalar)
            if error is not None:
                return
