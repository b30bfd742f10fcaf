"""Perf micro-benchmarks for the FTL hot paths.

Two cases bracket the FTL's operating envelope:

* ``host_write`` — low utilization, no GC pressure: times the pure
  host-write path (batch duplicate resolution + span placement).
* ``gc_heavy`` — 90% utilization random churn: times the reclaim loop
  (victim selection, relocation, erase) layered on the write path.

A third times the fused planner on the largest window a benchmark
workload plans:

* ``fleet_window`` — one window shaped like a ``fleet_demotion``
  leader's, planned and committed through ``write_requests_batch``
  outside any plan-cache scope: a sequential 4 KiB rewrite of 400
  mapping units (the leader's files) on emmc-8gb at scale 512, 400
  steps of 4,096 requests (1.64M units), every GC victim zero-valid.
  Its end state must equal the per-call ``write_requests`` path's.

Run directly: ``PYTHONPATH=src python benchmarks/perf/bench_perf_ftl.py``
(``--check`` for CI regression gating, ``--update`` to refresh the
committed baseline).  See ``benchmarks/perf/common.py`` for semantics.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

from repro.devices import build_device
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.ftl import PageMappedFTL
from repro.ftl.burst import BurstSegment
from repro.units import KIB

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
from benchmarks.perf.common import BenchCase, ftl_fingerprint, main  # noqa: E402

# End-state digests of the pre-optimization implementation (commit
# 4c627d2) on these exact scenarios; the optimized hot paths must
# reproduce them bit for bit.
HOST_WRITE_FINGERPRINT = "ad11e0b5c036e3acf3375757bfc59740bded5ae43dd52d23dd8f26dca0323a82"
GC_HEAVY_FINGERPRINT = "8b9a23f096363b822226fab9db7fba0bc5ba0411d28fdc32b6741426a4ba85d3"
# End state of the fleet_window scenario on the per-call scalar path
# (run_fleet_window_scalar); the fused window must reproduce it.
FLEET_WINDOW_FINGERPRINT = "22fac2944b3e12e7c563dac44e59562d14f92ff2d3465fcc00173eb835c45e31"


def run_host_write():
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=128, num_blocks=512)
    pkg = FlashPackage(geom, seed=3)
    ftl = PageMappedFTL(
        pkg,
        logical_capacity_bytes=int(geom.capacity_bytes * 0.5),
        mapping_unit_pages=2,
        seed=3,
    )
    rng = np.random.default_rng(3)
    pages = ftl.num_logical_units * ftl.unit_pages
    span = pages // 4
    start = time.perf_counter()
    for _ in range(150):
        lpns = rng.integers(0, span, size=4096, dtype=np.int64)
        ftl.write_requests(lpns * 4096, 4096)
    return time.perf_counter() - start, ftl_fingerprint(ftl)


def run_gc_heavy():
    geom = FlashGeometry(page_size=4 * KIB, pages_per_block=64, num_blocks=256)
    pkg = FlashPackage(geom, cell_spec=CELL_SPECS[CellType.MLC].derated(100_000), seed=5)
    ftl = PageMappedFTL(pkg, logical_capacity_bytes=int(geom.capacity_bytes * 0.90), seed=5)
    rng = np.random.default_rng(5)
    pages = ftl.num_logical_units * ftl.unit_pages
    # Map the whole logical space first so churn runs at 90% utilization.
    for start in range(0, pages, 2048):
        ftl.write_span(start, min(2048, pages - start))
    start = time.perf_counter()
    for _ in range(120):
        lpns = rng.integers(0, pages, size=2048, dtype=np.int64)
        ftl.write_requests(lpns * 4096, 4096)
    return time.perf_counter() - start, ftl_fingerprint(ftl)


#: Steps, 4 KiB requests per step and rewritten pages of the
#: ``fleet_window`` case.
FLEET_WINDOW_STEPS = 400
FLEET_WINDOW_REQUESTS = 4096
FLEET_WINDOW_PAGES = 800


def _fleet_window_start():
    """emmc-8gb at scale 512 (64 blocks of 128 two-page units) with its
    first ``FLEET_WINDOW_PAGES`` pages written once, and the window's
    request offsets: a sequential 4 KiB rewrite of those pages, one row
    per step, wrapping at their end."""
    ftl = build_device("emmc-8gb", scale=512, seed=11).ftl
    page = ftl.geometry.page_size
    ftl.write_span(0, FLEET_WINDOW_PAGES)
    count = FLEET_WINDOW_STEPS * FLEET_WINDOW_REQUESTS
    offsets = np.arange(count, dtype=np.int64) % FLEET_WINDOW_PAGES * page
    return ftl, offsets.reshape(FLEET_WINDOW_STEPS, FLEET_WINDOW_REQUESTS)


def run_fleet_window():
    ftl, offsets = _fleet_window_start()
    page = ftl.geometry.page_size
    # One segment per step, as the device compiles an aligned window:
    # each request reprograms its whole two-page unit.
    segments = [
        BurstSegment(unit_lpns=row // ftl.unit_bytes, host_pages=row.size,
                     rmw_pages=row.size * (ftl.unit_pages - 1), group=i,
                     total_bytes=row.size * page, request_bytes=page)
        for i, row in enumerate(offsets)
    ]
    start = time.perf_counter()
    plan = ftl.write_requests_batch(segments, FLEET_WINDOW_STEPS)
    elapsed = time.perf_counter() - start
    assert plan is not None and plan.executed_groups == FLEET_WINDOW_STEPS
    return elapsed, ftl_fingerprint(ftl)


def run_fleet_window_scalar():
    """The same window through per-call ``write_requests`` (the
    reference whose end state ``FLEET_WINDOW_FINGERPRINT`` pins)."""
    ftl, offsets = _fleet_window_start()
    start = time.perf_counter()
    for row in offsets:
        ftl.write_requests(row, ftl.geometry.page_size)
    return time.perf_counter() - start, ftl_fingerprint(ftl)


CASES = [
    BenchCase("host_write", run_host_write, HOST_WRITE_FINGERPRINT),
    BenchCase("gc_heavy", run_gc_heavy, GC_HEAVY_FINGERPRINT),
    BenchCase("fleet_window", run_fleet_window, FLEET_WINDOW_FINGERPRINT),
]


if __name__ == "__main__":
    sys.exit(main(CASES))
