"""Property search of the whole-window fused path (DESIGN.md §11, §16).

``FileRewriteWorkload.step_batch`` draws a window as one steps ×
requests matrix, the filesystem turns it into device offsets in place
and the device into mapping units, all rows at once.  Hypothesis draws
the stack — pattern (random on the shared Generator, sequential or
strided), file count with equal or unequal target files, request size
(4 KiB, 8 KiB, or 128 KiB rows that write-combine), ext4 or f2fs, a
page-mapped device with 1- or 2-page units or a hybrid one unmerged or
merged — and a run of windows with their lengths and erase stop.  Each
window runs fused on one twin and as the same number of ``step()``
calls on the other; after every window, truncated ones included, both
twins must agree on durations, device fingerprint, snapshot bytes and
pattern state.  A refused window must leave the fused twin untouched
(the loop then takes one scalar step on both).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.interface import BlockDevice
from repro.devices.perf import PerformanceModel
from repro.flash import CELL_SPECS, CellType, FlashGeometry, FlashPackage
from repro.fs import make_filesystem
from repro.ftl import HybridFTL, PageMappedFTL
from repro.state.snapshot import capture_device, capture_filesystem, capture_workload
from repro.units import KIB, MIB
from repro.workloads import FileRewriteWorkload
from tests.modes import device_fingerprint

PERF = PerformanceModel(peak_write_mib_s=60.0, write_half_size=2 * KIB)


def _device(kind, unit_pages, hot_window, seed):
    """A small page-mapped device (8 MiB raw, 6 MiB host) or a small
    hybrid (2 MiB SLC + 12 MiB MLC, 10 MiB host, 2-page units); a
    ``merged`` hybrid merges its pools as soon as pool B holds data."""
    mlc = CELL_SPECS[CellType.MLC].derated(3_000)
    if kind == "page":
        geom = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=64)
        package = FlashPackage(geom, cell_spec=mlc, seed=seed, endurance_sigma=0.05)
        ftl = PageMappedFTL(package, logical_capacity_bytes=6 * MIB,
                            mapping_unit_pages=unit_pages, seed=seed)
        return BlockDevice("page-test", ftl, PERF)
    geom_a = FlashGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    geom_b = FlashGeometry(page_size=4 * KIB, pages_per_block=32, num_blocks=96)
    ftl = HybridFTL(
        FlashPackage(geom_a, cell_spec=CELL_SPECS[CellType.SLC].derated(20_000), seed=seed),
        FlashPackage(geom_b, cell_spec=mlc, seed=seed, endurance_sigma=0.05),
        logical_capacity_bytes=10 * MIB, hot_window_bytes=hot_window, staging_bytes=512 * KIB,
        merge_utilization=0.01 if kind == "merged" else 1.0, mapping_unit_pages=2, seed=seed,
    )
    return BlockDevice("hybrid-test", ftl, PERF)


def _stack(case):
    device = _device(case["device"], case["unit_pages"], case["hot_window"], case["seed"])
    fs = make_filesystem(case["fs"], device)
    files = [fs.create_file(f"target-{i}", size) for i, size in enumerate(case["sizes"])]
    # Write every file once, so rewrites start from mapped data and a
    # merged hybrid has merged (the static file lies past any hot
    # window).
    for handle in files + [fs.create_file("static", 256 * KIB)]:
        fs.write_requests(handle, np.arange(0, handle.size, 64 * KIB, dtype=np.int64), 64 * KIB)
    workload = FileRewriteWorkload(
        fs, request_bytes=case["request"], pattern=case["pattern"],
        batch_requests=case["batch"], target_files=files, seed=case["seed"],
    )
    if case["device"] == "merged":
        assert device.ftl.merged_mode
    return workload


def _observed(workload):
    """Every observable the fused and scalar twins must agree on."""
    device = workload.fs.device
    snapshot = (
        capture_device(device), capture_filesystem(workload.fs), capture_workload(workload),
    )
    return (
        device_fingerprint(device),
        pickle.dumps(snapshot),
        workload._pattern_state(),
        workload._next_file,
    )


def _counters(device):
    ftl = device.ftl
    pools = (ftl.pool_a, ftl.pool_b) if isinstance(ftl, HybridFTL) else (ftl,)
    return [pool.package.counters for pool in pools]


@st.composite
def _cases(draw):
    request = draw(st.sampled_from([4 * KIB, 8 * KIB, 128 * KIB]))
    files = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        sizes = [draw(st.sampled_from([256, 512, 1024])) * KIB] * files
    else:
        sizes = [draw(st.sampled_from([128, 192, 256, 512, 1024])) * KIB for _ in range(files)]
    return {
        "pattern": draw(st.sampled_from(["rand", "seq", "stride"])),
        "request": request,
        # 8 KiB requests are two pages of a 2-page unit on every device.
        "unit_pages": 2 if request == 8 * KIB else draw(st.sampled_from([1, 2])),
        "batch": draw(st.integers(min_value=1, max_value=4 if request == 128 * KIB else 48)),
        "sizes": sizes,
        "fs": draw(st.sampled_from(["ext4", "f2fs"])),
        "device": draw(st.sampled_from(["page", "hybrid", "merged"])),
        "hot_window": draw(st.sampled_from([64, 256])) * KIB,
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "windows": draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6)),
        "stop": draw(st.one_of(st.none(), st.integers(min_value=1, max_value=12))),
    }


@settings(max_examples=100, deadline=None)
@given(case=_cases())
def test_fused_windows_match_scalar_steps(case):
    fused, scalar = _stack(case), _stack(case)
    for n in case["windows"]:
        counters = _counters(fused.fs.device)
        stop = case["stop"]
        budget = None if stop is None else [(c, c.block_erases + stop) for c in counters]
        before = _observed(fused)
        out = fused.step_batch(n, budget)
        if out is None:
            # Refused: nothing consumed; the loop takes a scalar step.
            assert _observed(fused) == before
            assert fused.step() == scalar.step()
        else:
            durations, byte_counts, bricked = out
            m = len(durations)
            assert not bricked and 1 <= m <= n
            if m < n:
                assert any(c.block_erases >= t for c, t in budget)
            steps = [scalar.step() for _ in range(m)]
            assert durations == [duration for duration, _ in steps]
            assert byte_counts == [app_bytes for _, app_bytes in steps]
        assert _observed(fused) == _observed(scalar)


class TestRefusedWindows:
    """A refused window leaves every layer untouched."""

    CASE = {
        "pattern": "rand", "request": 4 * KIB, "unit_pages": 1, "batch": 16,
        "sizes": [256 * KIB, 512 * KIB], "fs": "ext4", "hot_window": 256 * KIB, "seed": 3,
    }

    @pytest.mark.parametrize("layer", ["fs", "device"])
    def test_out_of_range_row(self, layer):
        workload = _stack(dict(self.CASE, device="page"))
        fs, device = workload.fs, workload.fs.device
        before = _observed(workload)
        files = [workload.files[i % 2] for i in range(4)]
        offsets = np.zeros((4, 16), dtype=np.int64)
        if layer == "fs":
            offsets[2, 5] = files[2].size  # one request past its file's end
            assert fs.write_requests_burst(files, offsets, 4 * KIB, None) is None
        else:
            offsets[2, 5] = device.logical_capacity  # past the device's end
            assert device.write_burst(offsets, 4 * KIB, None, None) is None
        assert _observed(workload) == before

    def test_straddling_hybrid_request(self):
        workload = _stack(dict(self.CASE, device="hybrid", request=8 * KIB, unit_pages=2))
        device = workload.fs.device
        window = device.ftl.hot_window_bytes
        before = _observed(workload)
        data = np.full((3, 4), window + 64 * KIB, dtype=np.int64)
        data[1, 2] = window - 4 * KIB  # one 8 KiB request across the window's edge
        assert device.write_burst(data, 8 * KIB, None, None) is None
        assert _observed(workload) == before
