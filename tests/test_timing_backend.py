"""Tests for the event-driven timing backend (DESIGN.md §13).

Covers the calibration inversion, the write cache's wave planning, the
frontend's NCQ hazard rules (conflicting requests execute in submission
order; queue depth 1 degenerates to the serial analytic order), the
device/catalog wiring, the campaign timing axis' content-key
back-compat, and the acceptance gates: sequential 4 KiB derived
bandwidth within 2x of the calibrated curve, and bandwidth monotone in
queue depth for the uFLIP random pattern.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.devices import DEVICE_SPECS, build_device
from repro.errors import ConfigurationError
from repro.timing import (
    DEFAULT_QUEUE_DEPTH,
    EventLoop,
    EventTimingBackend,
    FrontendScheduler,
    NANDScheduler,
    Request,
    TimingSpec,
    WriteCache,
    derive_timing,
)
from repro.units import KIB, MIB
from repro.workloads import measure_bandwidth


class TestDeriveTiming:
    def test_emmc8_inversion_values(self):
        spec = DEVICE_SPECS["emmc-8gb"]
        t = derive_timing(
            perf=spec.perf, channels=spec.parallel_units,
            page_size=4 * KIB, line_pages=spec.mapping_unit_pages,
        )
        assert t.channels == 2 and t.planes_per_channel == 2
        assert t.program_ns == 325521  # 4 planes * 4 KiB / 48 MiB/s
        assert t.erase_ns == 8 * t.program_ns
        assert t.transfer_ns == t.program_ns // 8
        assert t.command_ns == 20345  # 1 KiB half-size / 48 MiB/s

    @pytest.mark.parametrize("key", sorted(DEVICE_SPECS))
    def test_planes_sustain_the_catalog_peak(self, key):
        """The inversion's defining property: at full parallelism the
        plane array's program throughput equals the calibrated peak."""
        spec = DEVICE_SPECS[key]
        t = derive_timing(
            perf=spec.perf, channels=spec.parallel_units,
            page_size=4 * KIB, line_pages=spec.mapping_unit_pages,
        )
        planes = t.channels * t.planes_per_channel
        plane_bw = planes * t.page_size * 1e9 / t.program_ns / MIB
        assert plane_bw == pytest.approx(spec.perf.peak_write_mib_s, rel=1e-4)
        # The bus is provisioned to never cap its planes.
        assert t.planes_per_channel * t.transfer_ns <= t.program_ns


class TestTimingSpecValidation:
    def _kwargs(self, **overrides):
        base = dict(
            channels=2, planes_per_channel=2, page_size=4096, line_pages=2,
            program_ns=100, read_ns=80, erase_ns=800, transfer_ns=10,
            command_ns=5,
        )
        base.update(overrides)
        return base

    @pytest.mark.parametrize("bad", [
        dict(channels=0), dict(planes_per_channel=0), dict(page_size=0),
        dict(line_pages=0), dict(queue_depth=0), dict(cache_pages=0),
        dict(program_ns=-1), dict(command_ns=-1),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigurationError):
            TimingSpec(**self._kwargs(**bad))

    def test_with_queue_depth(self):
        t = TimingSpec(**self._kwargs())
        assert t.queue_depth == DEFAULT_QUEUE_DEPTH
        assert t.with_queue_depth(3).queue_depth == 3
        assert t.with_queue_depth(3).program_ns == t.program_ns


class TestWriteCache:
    def test_waves_and_groups(self):
        cache = WriteCache(capacity_pages=4, line_pages=2)
        assert cache.plan(5) == [[2, 2], [1]]
        assert cache.plan(4) == [[2, 2]]
        assert cache.plan(1) == [[1]]
        assert cache.plan(0) == []

    def test_every_group_fits_a_line_and_every_wave_the_cache(self):
        cache = WriteCache(capacity_pages=7, line_pages=3)
        for pages in range(1, 40):
            waves = cache.plan(pages)
            assert sum(sum(w) for w in waves) == pages
            assert all(sum(w) <= 7 for w in waves)
            assert all(g <= 3 and g > 0 for w in waves for g in w)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigurationError):
            WriteCache(capacity_pages=0, line_pages=1)
        with pytest.raises(ConfigurationError):
            WriteCache(capacity_pages=1, line_pages=0)


# A small hand-set spec where op costs are easy to reason about: 8
# planes so a one-page request never waits on another request's planes.
def _frontend(queue_depth):
    loop = EventLoop()
    nand = NANDScheduler(
        num_channels=4, planes_per_channel=2,
        program_ns=100, read_ns=80, erase_ns=800, transfer_ns=10,
    )
    cache = WriteCache(capacity_pages=64, line_pages=4)
    return loop, FrontendScheduler(
        loop=loop, nand=nand, cache=cache,
        queue_depth=queue_depth, command_ns=5,
    )


def _write(offset, pages=1, nbytes=4096):
    return Request(offset=offset, nbytes=nbytes, is_write=True,
                   host_pages=pages, program_pages=pages)


def _read(offset, pages=1, nbytes=4096):
    return Request(offset=offset, nbytes=nbytes, is_write=False, host_pages=pages)


class TestHazardRules:
    def test_conflict_predicate(self):
        w = _write(0, nbytes=8192)
        assert w.conflicts_with(_write(4096))          # WAW overlap
        assert w.conflicts_with(_read(4096))           # RAW overlap
        assert _read(4096).conflicts_with(w)           # WAR overlap
        assert not w.conflicts_with(_write(8192))      # adjacent, no overlap
        assert not _read(0).conflicts_with(_read(0))   # read/read never

    def test_independent_requests_reorder_at_depth(self):
        loop, fe = _frontend(queue_depth=4)
        slow = _write(0, pages=8, nbytes=8 * 4096)
        fast = _write(1 << 20, pages=1)
        fe.run_batch([slow, fast])
        assert fe.completion_order == [1, 0]
        assert fast.completion_ns < slow.completion_ns

    def test_waw_hazard_keeps_submission_order(self):
        loop, fe = _frontend(queue_depth=4)
        slow = _write(0, pages=8, nbytes=8 * 4096)
        fast = _write(4096, pages=1)  # overlaps -> must wait
        fe.run_batch([slow, fast])
        assert fe.completion_order == [0, 1]
        assert fast.completion_ns > slow.completion_ns

    def test_war_hazard_stalls_the_write_behind_the_read(self):
        def run(write_offset):
            loop, fe = _frontend(queue_depth=4)
            read = _read(0, pages=2, nbytes=8192)
            write = _write(write_offset, pages=1)
            fe.run_batch([read, write])
            return read, write

        read, hazard_write = run(write_offset=0)
        assert hazard_write.completion_ns > read.completion_ns
        _, free_write = run(write_offset=1 << 20)
        # Same write without the overlap issues immediately and lands
        # earlier — proving the stall above came from the hazard, not
        # from plane contention.
        assert free_write.completion_ns < hazard_write.completion_ns

    def test_raw_hazard_stalls_the_read_behind_the_write(self):
        loop, fe = _frontend(queue_depth=4)
        write = _write(0, pages=8, nbytes=8 * 4096)
        read = _read(4096, pages=1)
        fe.run_batch([write, read])
        assert fe.completion_order == [0, 1]

    def test_admission_never_exceeds_queue_depth(self):
        loop, fe = _frontend(queue_depth=2)
        seen = []
        original = fe._issue
        fe._issue = lambda req: (seen.append(len(fe._inflight)), original(req))[1]
        fe.run_batch([_write(i << 20) for i in range(8)])
        assert max(seen) <= 1  # inflight length *before* each issue


class TestQueueDepthOneDegeneratesToSerial:
    def test_completion_order_is_submission_order(self):
        loop, fe = _frontend(queue_depth=1)
        # Mixed, partly overlapping, partly independent requests.
        batch = [_write(0, pages=4, nbytes=4 * 4096), _write(1 << 20),
                 _read(0, pages=2, nbytes=8192), _write(4096), _read(1 << 20)]
        fe.run_batch(batch)
        assert fe.completion_order == list(range(len(batch)))

    def test_batch_time_equals_sum_of_individual_requests(self):
        """At depth 1 the next request starts exactly when the previous
        completes with every resource idle — so the batch duration is
        the sum of each request timed alone from a cold backend."""
        def spec(qd):
            return TimingSpec(
                channels=4, planes_per_channel=2, page_size=4096,
                line_pages=4, program_ns=100, read_ns=80, erase_ns=800,
                transfer_ns=10, command_ns=5, queue_depth=qd, cache_pages=64,
            )

        offsets = [0, 1 << 20, 4096, 2 << 20]
        pages = [4, 1, 2, 3]
        batched = EventTimingBackend(spec(1))
        total = batched.time_writes(
            np.array(offsets), 4096, media_pages=sum(pages), erases=0
        )
        # time_writes spreads media pages evenly; mirror that split for
        # the solo runs (remainder to the earliest requests).
        base, rem = divmod(sum(pages), len(offsets))
        solo = 0.0
        for i, off in enumerate(offsets):
            backend = EventTimingBackend(spec(1))
            solo += backend.time_writes(
                np.array([off]), 4096, media_pages=base + (1 if i < rem else 0)
            )
        assert total == pytest.approx(solo, abs=1e-12)


class TestCatalogWiring:
    def test_event_backend_attached_with_derived_spec(self):
        device = build_device("emmc-8gb", scale=512, seed=1, timing="event")
        assert isinstance(device.timing, EventTimingBackend)
        assert device.timing.spec.queue_depth == DEFAULT_QUEUE_DEPTH
        assert device.timing.spec.channels == DEVICE_SPECS["emmc-8gb"].parallel_units

    def test_queue_depth_and_cache_overrides(self):
        device = build_device(
            "emmc-8gb", scale=512, seed=1, timing="event",
            queue_depth=3, cache_pages=32,
        )
        assert device.timing.spec.queue_depth == 3
        assert device.timing.spec.cache_pages == 32

    def test_analytic_default_has_no_backend(self):
        device = build_device("emmc-8gb", scale=512, seed=1)
        assert device.timing is None

    def test_unknown_timing_rejected(self):
        with pytest.raises(ConfigurationError):
            build_device("emmc-8gb", scale=512, seed=1, timing="bogus")

    def test_event_device_refuses_the_burst_path(self):
        """Fused burst execution bypasses per-batch timing, so an
        event-timed device must fall back to scalar write_many."""
        def window():
            return np.zeros((1, 1), dtype=np.int64), 4 * KIB, None

        analytic = build_device("emmc-8gb", scale=1024, seed=5)
        assert analytic.write_burst(*window(), budget=None) is not None
        event = build_device("emmc-8gb", scale=1024, seed=5, timing="event")
        assert event.write_burst(*window(), budget=None) is None


class TestAcceptanceGates:
    """The ISSUE's quantitative gates for the derived-from-first-
    principles bandwidth."""

    def test_sequential_4k_within_2x_of_calibrated(self):
        device = build_device("emmc-8gb", scale=256, seed=1, timing="event")
        point = measure_bandwidth(device, 4 * KIB, pattern="seq", seed=1)
        calibrated = DEVICE_SPECS["emmc-8gb"].perf.write_bandwidth(4 * KIB) / MIB
        assert calibrated / 2 <= point.mib_per_s <= calibrated * 2

    def test_random_4k_bandwidth_monotone_in_queue_depth(self):
        bw = {}
        for qd in (1, 4, 16):
            device = build_device(
                "emmc-8gb", scale=256, seed=1, timing="event", queue_depth=qd
            )
            bw[qd] = measure_bandwidth(device, 4 * KIB, pattern="rand", seed=1).mib_per_s
        assert bw[1] <= bw[4] <= bw[16] * 1.001
        # Depth must actually buy bandwidth before the plane count
        # saturates it (emmc-8gb has 4 planes).
        assert bw[4] > bw[1] * 1.2

    def test_stride_pattern_defeats_write_combining(self):
        device = build_device("emmc-8gb", scale=256, seed=1, timing="event")
        seq = measure_bandwidth(device, 4 * KIB, pattern="seq", seed=1).mib_per_s
        device = build_device("emmc-8gb", scale=256, seed=1, timing="event")
        stride = measure_bandwidth(device, 4 * KIB, pattern="stride", seed=1).mib_per_s
        assert stride < seq


class TestCampaignTimingAxis:
    """The new timing/queue_depth point axes must not disturb any
    pre-existing content key (store fingerprints and derived seeds hash
    the canonical dict)."""

    def test_defaults_omitted_from_canonical_dict(self):
        from repro.campaign.spec import PointSpec
        data = PointSpec(kind="bandwidth", device="emmc-8gb").to_dict()
        assert "timing" not in data and "queue_depth" not in data

    def test_point_key_unchanged_for_pre_existing_points(self):
        from repro.campaign.spec import PointSpec, point_key
        spec = PointSpec(kind="bandwidth", device="emmc-8gb", seed=1)
        explicit = PointSpec(
            kind="bandwidth", device="emmc-8gb", seed=1,
            timing="analytic", queue_depth=0,
        )
        assert point_key(spec) == point_key(explicit)

    def test_from_dict_accepts_pre_axis_records(self):
        from repro.campaign.spec import PointSpec
        old = {"kind": "bandwidth", "device": "emmc-8gb", "scale": 256}
        spec = PointSpec.from_dict(old)
        assert spec.timing == "analytic" and spec.queue_depth == 0

    def test_event_points_round_trip_and_display(self):
        from repro.campaign.spec import PointSpec
        spec = PointSpec(kind="bandwidth", device="emmc-8gb",
                         timing="event", queue_depth=4)
        again = PointSpec.from_dict(spec.to_dict())
        assert again == spec
        assert "event" in spec.display and "qd4" in spec.display

    def test_validation(self):
        from repro.campaign.spec import PointSpec
        with pytest.raises(ConfigurationError):
            PointSpec(kind="bandwidth", device="emmc-8gb", timing="warp")
        with pytest.raises(ConfigurationError):
            PointSpec(kind="bandwidth", device="emmc-8gb", queue_depth=-1)


class TestUflipCampaign:
    def test_grid_shape(self):
        from repro.campaign.registry import (
            UFLIP_PATTERNS, UFLIP_QUEUE_DEPTHS, get_campaign,
        )
        campaign = get_campaign("uflip")
        assert len(campaign) == len(UFLIP_PATTERNS) * len(UFLIP_QUEUE_DEPTHS)
        assert len(UFLIP_PATTERNS) >= 3 and len(UFLIP_QUEUE_DEPTHS) >= 3
        assert all(p.timing == "event" for p in campaign.points)

    def test_runs_green_and_renders_the_micro_matrix(self):
        from repro.campaign.registry import FIGURES, get_campaign
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.store import ResultStore

        campaign = get_campaign("uflip")
        store = ResultStore(None)
        report = CampaignRunner(campaign, store).run(workers=1)
        assert report.ran == len(campaign)
        artifacts = FIGURES["uflip"](store, campaign)
        text = artifacts["uflip_micro_matrix"]
        for pattern in ("seq", "rand", "stride"):
            assert pattern in text
        assert "calibrated analytic" in text


class TestTimingCli:
    def test_prints_side_by_side_table(self, capsys):
        assert main(["timing", "emmc-8gb", "--scale", "64", "--queue-depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "event" in out and "analytic" in out and "ratio" in out
        assert "queue depth 4" in out
