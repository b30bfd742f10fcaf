"""Wear bit-identity between the analytic and event timing backends.

DESIGN.md §13's non-negotiable contract: switching a device to
``timing="event"`` may change every *time* observable — durations,
busy_seconds, derived bandwidth — but no *wear* observable.  P/E
counts, write amplification, wear indicators, mapping state, and the
golden result fingerprints must be bit-identical, because the backend
only consumes the FTL's already-computed media-page and erase deltas.

CI runs this file as the ``timing-equivalence`` gate.
"""

import hashlib

import numpy as np

from repro.devices import build_device
from repro.units import KIB
from tests.modes import ftl_fingerprint
from tests.test_ftl_equivalence import BURST_SCENARIO_FINGERPRINT, run_burst_scenario


def device_wear_fingerprint(device) -> str:
    """Digest every wear observable of a device, FTL-type agnostic
    (covers the hybrid FTL, which has no page-mapped tables)."""
    h = hashlib.sha256()
    for pkg in device._packages():
        h.update(np.ascontiguousarray(pkg.pe_counts).tobytes())
        h.update(np.ascontiguousarray(pkg.bad_blocks).tobytes())
        h.update(repr(sorted(vars(pkg.counters).items())).encode())
    h.update(repr(sorted(vars(device.ftl.stats).items())).encode())
    for name in sorted(device.wear_indicators()):
        h.update(f"{name}:{device.wear_indicators()[name].level}".encode())
    return h.hexdigest()


def paired_devices(key, scale, seed, **event_kwargs):
    analytic = build_device(key, scale=scale, seed=seed)
    event = build_device(key, scale=scale, seed=seed, timing="event", **event_kwargs)
    return analytic, event


def drive_random_writes(device, steps, batch, seed, request_bytes=4 * KIB):
    rng = np.random.default_rng(seed)
    span = device.logical_capacity // request_bytes
    durations = []
    for _ in range(steps):
        offsets = rng.integers(0, span, size=batch, dtype=np.int64) * request_bytes
        durations.append(device.write_many(offsets, request_bytes))
    return durations


class TestScalarStreamIdentity:
    def test_gc_heavy_random_stream_wear_identical(self):
        """The run_burst_scenario stream — fill through GC steady state
        — must land both backends on the same end state while the event
        backend reports different durations."""
        analytic, event = paired_devices("emmc-8gb", scale=1024, seed=5)
        analytic_durations = drive_random_writes(analytic, steps=120, batch=96, seed=5)
        event_durations = drive_random_writes(event, steps=120, batch=96, seed=5)

        assert ftl_fingerprint(analytic.ftl) == ftl_fingerprint(event.ftl)
        assert device_wear_fingerprint(analytic) == device_wear_fingerprint(event)
        assert analytic.host_bytes_written == event.host_bytes_written
        # The time observables DO differ — the backend is actually live.
        assert analytic_durations != event_durations
        assert analytic.busy_seconds != event.busy_seconds

    def test_event_stream_matches_the_pinned_golden_digest(self):
        """The event-timed device must hit the same golden digest the
        analytic scalar path pinned in test_ftl_equivalence."""
        _, event = paired_devices("emmc-8gb", scale=1024, seed=5)
        drive_random_writes(event, steps=120, batch=96, seed=5)
        assert ftl_fingerprint(event.ftl) == BURST_SCENARIO_FINGERPRINT

    def test_event_scalar_matches_analytic_burst_wear(self):
        """Transitively: analytic fused-burst == analytic scalar ==
        event scalar.  The event device may refuse the burst path, but
        its wear must still equal the burst-executed twin's."""
        burst_device, _ = run_burst_scenario(fused=True)
        _, event = paired_devices("emmc-8gb", scale=1024, seed=5)
        drive_random_writes(event, steps=120, batch=96, seed=5)
        assert ftl_fingerprint(event.ftl) == ftl_fingerprint(burst_device.ftl)

    def test_sequential_combined_stream_wear_identical(self):
        """Back-to-back sequential requests take the write-combining
        branch; both backends must see the identical combined stream."""
        analytic, event = paired_devices("emmc-8gb", scale=1024, seed=3)
        span = analytic.logical_capacity // (4 * KIB)
        for device in (analytic, event):
            for step in range(40):
                start = (step * 577) % max(1, span - 128)
                offsets = (np.arange(128, dtype=np.int64) + start) * 4 * KIB
                device.write_many(offsets, 4 * KIB)
        assert ftl_fingerprint(analytic.ftl) == ftl_fingerprint(event.ftl)
        assert analytic.host_bytes_written == event.host_bytes_written

    def test_reads_update_counters_identically_on_both_backends(self):
        """Reads touch no wear state but do tick read counters — which
        the fingerprint covers, so they must tick identically."""
        analytic, event = paired_devices("emmc-8gb", scale=1024, seed=2)
        offsets = np.arange(64, dtype=np.int64) * 4 * KIB
        for device in (analytic, event):
            device.write_many(offsets, 4 * KIB)
        pe_before = analytic.ftl.package.pe_counts.copy()
        t_analytic = analytic.read_many(offsets, 4 * KIB)
        t_event = event.read_many(offsets, 4 * KIB)
        assert t_analytic > 0 and t_event > 0
        assert ftl_fingerprint(analytic.ftl) == ftl_fingerprint(event.ftl)
        assert np.array_equal(analytic.ftl.package.pe_counts, pe_before)
        assert np.array_equal(event.ftl.package.pe_counts, pe_before)


class TestHybridDeviceIdentity:
    def test_hybrid_wear_identical_across_backends(self):
        analytic, event = paired_devices("emmc-16gb", scale=1024, seed=9)
        drive_random_writes(analytic, steps=30, batch=64, seed=9)
        drive_random_writes(event, steps=30, batch=64, seed=9)
        assert device_wear_fingerprint(analytic) == device_wear_fingerprint(event)
        assert analytic.host_bytes_written == event.host_bytes_written


class TestQueueDepthInvariance:
    def test_queue_depth_changes_time_but_never_wear(self):
        devices = {
            qd: build_device("emmc-8gb", scale=1024, seed=4,
                             timing="event", queue_depth=qd)
            for qd in (1, 8)
        }
        durations = {
            qd: drive_random_writes(dev, steps=25, batch=64, seed=4)
            for qd, dev in devices.items()
        }
        assert ftl_fingerprint(devices[1].ftl) == ftl_fingerprint(devices[8].ftl)
        assert durations[1] != durations[8]
        assert sum(durations[8]) < sum(durations[1])


class TestFilesystemWorkloadIdentity:
    def test_ext4_rewrite_workload_wear_identical(self):
        """Through the full stack — filesystem journaling/metadata on
        top of the device — the wear trajectory must not depend on the
        timing backend."""
        from repro.fs import Ext4Model
        from repro.workloads import FileRewriteWorkload

        analytic, event = paired_devices("emmc-8gb", scale=512, seed=6)
        states = []
        for device in (analytic, event):
            fs = Ext4Model(device)
            workload = FileRewriteWorkload(fs, batch_requests=64, seed=6)
            app_bytes = sum(workload.step()[1] for _ in range(20))
            states.append((ftl_fingerprint(device.ftl), app_bytes,
                           device.host_bytes_written))
        assert states[0] == states[1]
