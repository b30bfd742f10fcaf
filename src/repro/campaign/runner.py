"""Process-parallel campaign execution.

Every paper artifact is a grid of *independent* experiments, so the
runner fans points out over a ``multiprocessing`` pool.  Workers receive
only plain dicts — they rebuild devices from ``DEVICE_SPECS`` catalog
keys, so nothing unpicklable crosses the process boundary — and each
point's seed is a pure function of the campaign base seed and the
point's content hash (:func:`repro.campaign.spec.resolve_seed`).  The
result of a point therefore depends only on its spec: N workers in any
scheduling order produce the same canonical store as a serial run
(DESIGN.md §8).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.android import Phone, WearAttackApp
from repro.campaign.spec import CampaignSpec, PointSpec, resolve_seed
from repro.campaign.store import ResultStore
from repro.core.experiment import WearOutExperiment
from repro.devices import DEVICE_SPECS, build_device
from repro.errors import ConfigurationError
from repro.fs import make_filesystem
from repro.obs import MetricsRegistry, SpanRecorder, is_enabled, metrics_enabled, worker_utilization
from repro.state import CheckpointError, CheckpointManager, restore_experiment, warm_start_key
from repro.units import KIB
from repro.workloads import FileRewriteWorkload, fill_static_space, measure_bandwidth


def _filesystem_for(spec: PointSpec, device) -> Any:
    """Build the point's filesystem (explicit choice, else the catalog
    device's default)."""
    kind = spec.filesystem or DEVICE_SPECS[spec.device].default_fs
    return make_filesystem(kind, device)


def _build_point_device(spec: PointSpec, seed: int):
    """Build the point's device, honouring its timing-backend axes."""
    return build_device(
        spec.device,
        scale=spec.scale,
        seed=seed,
        timing=spec.timing,
        queue_depth=spec.queue_depth or None,
    )


def _run_bandwidth(spec: PointSpec, seed: int, checkpoint: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Figure 1 point: one (device, pattern, request size) bandwidth
    measurement on a fresh device."""
    device = _build_point_device(spec, seed)
    point = measure_bandwidth(
        device, spec.request_bytes, pattern=spec.pattern, seed=seed
    )
    return {"type": "bandwidth", **point.to_dict()}


def _run_wearout(spec: PointSpec, seed: int, checkpoint: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Figure 2/3/4 point: rewrite until the wear indicator hits the
    target level.

    With a ``checkpoint`` config ({"dir": ..., "interval": ...}) the
    point warm-starts from the deepest compatible snapshot sharing its
    warm key — points walking the same device to successive levels
    replay only the deepest stretch — and auto-saves snapshots at every
    crossing plus every ``interval`` steps.  Warm-started results are
    bit-identical to cold ones (DESIGN.md §10), so store fingerprints
    do not depend on whether, or how much of, the cache was hit.
    """
    device = _build_point_device(spec, seed)
    fs = _filesystem_for(spec, device)
    workload = FileRewriteWorkload(
        fs,
        num_files=spec.num_files,
        request_bytes=spec.request_bytes,
        pattern=spec.pattern,
        seed=seed,
    )
    experiment = WearOutExperiment(device, workload, filesystem=fs)
    if spec.timing != "analytic":
        # Snapshots don't capture the event backend's clock/reservations,
        # so a warm start would change the time observables (never the
        # wear); event-timed points always run cold.
        checkpoint = None
    if checkpoint is not None:
        manager = CheckpointManager(checkpoint["dir"])
        key = warm_start_key(spec.to_dict(), seed)
        state = manager.best(key, until_level=spec.until_level)
        if state is not None:
            try:
                restore_experiment(experiment, state)
            except CheckpointError:
                # Incompatible snapshot (stale cache dir): cold-start.
                pass
        experiment.enable_checkpointing(
            manager,
            key,
            interval_steps=int(checkpoint.get("interval", 0)),
            extra_meta={"point": spec.display, "seed": int(seed)},
        )
    result = experiment.run(until_level=spec.until_level)
    return {"type": "wearout", **result.to_dict()}


def _run_table1(spec: PointSpec, seed: int, checkpoint: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Table 1 point: the hybrid device's phase protocol — 4 KiB rand,
    128 KiB seq, then rand rewrite at 90%+ utilization."""
    device = build_device(spec.device, scale=spec.scale, seed=seed)
    fs = _filesystem_for(spec, device)
    experiment = WearOutExperiment(
        device,
        FileRewriteWorkload(
            fs, num_files=spec.num_files, request_bytes=4 * KIB, pattern="rand", seed=seed
        ),
        filesystem=fs,
    )
    for _ in range(2):
        experiment.run_one_increment("B")
    experiment.workload = FileRewriteWorkload(
        fs, request_bytes=128 * KIB, pattern="seq",
        target_files=experiment.workload.files, seed=seed,
    )
    experiment.run_one_increment("B")
    static = fill_static_space(fs, 0.86)
    experiment.workload = FileRewriteWorkload(
        fs, request_bytes=4 * KIB, pattern="rand", target_files=static[:2], seed=seed + 1
    )
    merged = device.ftl.merged_mode
    experiment.run_one_increment("A")
    experiment.run_one_increment("A")
    return {
        "type": "table1",
        "merged_mode": bool(merged),
        **experiment.result.to_dict(),
    }


def _run_phone(spec: PointSpec, seed: int, checkpoint: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """§4.4 point: attack app on a phone model, one strategy."""
    device = build_device(spec.device, scale=spec.scale, seed=seed)
    phone = Phone(device, filesystem=spec.filesystem or "ext4")
    attack = WearAttackApp(strategy=spec.strategy or "stealthy", seed=seed)
    phone.install(attack)
    report = phone.run(hours=spec.hours, tick_seconds=120.0)
    return {
        "type": "phone",
        "strategy": attack.strategy,
        "simulated_seconds": report.simulated_seconds,
        "attack_bytes": report.app_bytes.get(attack.name, 0),
        "attack_duty_cycle": report.attack_duty_cycle,
        "detections": [
            {"monitor": e.monitor, "app_name": e.app_name, "t_seconds": e.t_seconds, "detail": e.detail}
            for e in report.detections
        ],
        "bricked": report.bricked,
        "bricked_at": report.bricked_at,
    }


_EXECUTORS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "bandwidth": _run_bandwidth,
    "wearout": _run_wearout,
    "table1": _run_table1,
    "phone": _run_phone,
}


def run_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one campaign point; the worker-side entry point.

    ``payload`` is plain JSON-able data (module-level function + plain
    dicts = picklable for any multiprocessing start method).  Everything
    under ``telemetry`` is wall-clock reporting; everything else is a
    pure function of the payload.

    When the submitting process had metrics enabled, ``payload`` carries
    ``metrics: True`` (worker processes do not inherit the registry
    state) and the point runs under a *fresh* per-point registry whose
    snapshot lands in ``telemetry`` — visible to ``repro report`` but
    stripped from the canonical view, so store fingerprints stay
    identical whether metrics are on or off (DESIGN.md §9).
    """
    spec = PointSpec.from_dict(payload["spec"])
    seed = payload["seed"]
    checkpoint = payload.get("checkpoint")
    recorder = SpanRecorder()
    telemetry: Dict[str, Any] = {}
    registry = None
    with contextlib.ExitStack() as scopes:
        if payload.get("metrics"):
            registry = scopes.enter_context(metrics_enabled(MetricsRegistry()))
        with recorder.span(f"point:{payload['key']}"):
            result = _EXECUTORS[spec.kind](spec, seed, checkpoint=checkpoint)
    if registry is not None:
        telemetry["metrics"] = registry.snapshot()
    telemetry["elapsed_s"] = recorder.spans[-1].elapsed_s
    telemetry["worker_pid"] = os.getpid()
    return {
        "key": payload["key"],
        "campaign": payload["campaign"],
        "spec": spec.to_dict(),
        "seed": seed,
        "result": result,
        "telemetry": telemetry,
    }


@dataclass(frozen=True)
class CampaignReport:
    """What one :meth:`CampaignRunner.run` invocation did."""

    campaign: str
    total_points: int
    ran: int
    skipped: int
    workers: int
    wall_s: float
    busy_s: float
    utilization: float

    def describe(self) -> str:
        return (
            f"campaign {self.campaign}: points total={self.total_points} "
            f"ran={self.ran} skipped={self.skipped} | workers={self.workers} "
            f"wall={self.wall_s:.2f}s busy={self.busy_s:.2f}s "
            f"utilization={self.utilization:.0%}"
        )


class CampaignRunner:
    """Fan a campaign's points out over a worker pool, streaming results
    into a resumable store.

    Args:
        spec: The campaign grid.
        store: Result store (pass ``ResultStore(None)`` for in-memory).
        mp_context: multiprocessing start-method name; None picks
            "fork" where available (cheap worker start-up) and "spawn"
            elsewhere.  Results never depend on the start method — the
            determinism contract is enforced by content-derived seeds,
            not by shared state.
        checkpoint_dir: Enable the wear-state warm-start cache: wear-out
            points save snapshots here and restore the deepest
            compatible one sharing their warm key (DESIGN.md §10).
            Results are bit-identical with or without it.
        checkpoint_interval: Steps between rolling work-in-progress
            snapshots (0 disables them; crossing snapshots are always
            written when ``checkpoint_dir`` is set).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: Optional[ResultStore] = None,
        mp_context: Optional[str] = None,
        checkpoint_dir: Union[str, "os.PathLike[str]", None] = None,
        checkpoint_interval: int = 2000,
    ):
        self.spec = spec
        self.store = store if store is not None else ResultStore(None)
        if mp_context is None:
            available = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in available else "spawn"
        self.mp_context = mp_context
        if checkpoint_interval < 0:
            raise ConfigurationError("checkpoint_interval must be >= 0")
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_interval = int(checkpoint_interval)

    def pending_points(self) -> List[Dict[str, Any]]:
        """Worker payloads for every point not already in the store.

        The submitting process's metrics-enabled state rides along as a
        plain flag — worker processes rebuild their own registries from
        it (:func:`run_point`).
        """
        payloads = []
        metrics = is_enabled()
        for key, point in self.spec.keyed_points():
            if key in self.store:
                continue
            fields = point.to_dict()
            seed = resolve_seed(point, self.spec.base_seed)
            payload = {
                "key": key,
                "campaign": self.spec.name,
                "spec": fields,
                "seed": seed,
                "metrics": metrics,
            }
            if self.checkpoint_dir is not None:
                payload["checkpoint"] = {
                    "dir": self.checkpoint_dir,
                    "interval": self.checkpoint_interval,
                }
            payloads.append(payload)
        return payloads

    def run(
        self,
        workers: int = 1,
        fresh: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> CampaignReport:
        """Run every pending point; returns the invocation's report.

        Args:
            workers: Requested pool size; <=1 runs serially in-process
                (the reference execution the parallel path must match).
                The pool is clamped to the pending-point count and the
                machine's core count — fan-out beyond either only adds
                fork/IPC overhead, never throughput — and a clamp down
                to 1 skips the pool entirely.  Results are identical
                for every worker count (DESIGN.md §8), so the clamp is
                a pure scheduling decision; the report records the
                effective size.
            fresh: Invalidate the store first instead of resuming.
            progress: Optional callback for per-point progress lines.
        """
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if fresh:
            self.store.invalidate()

        pending = self.pending_points()
        skipped = len(self.spec) - len(pending)
        effective = max(1, min(workers, len(pending), os.cpu_count() or 1))
        recorder = SpanRecorder()
        with recorder.span("campaign"):
            if len(pending) == 0:
                pass
            elif effective == 1:
                for payload in pending:
                    record = run_point(payload)
                    self._record(record, progress)
            else:
                ctx = multiprocessing.get_context(self.mp_context)
                with ctx.Pool(processes=effective) as pool:
                    for record in pool.imap_unordered(run_point, pending, chunksize=1):
                        self._record(record, progress)
        wall = recorder.elapsed("campaign")

        busy = sum(
            self.store.get(p["key"])["telemetry"]["elapsed_s"] for p in pending
        )
        return CampaignReport(
            campaign=self.spec.name,
            total_points=len(self.spec),
            ran=len(pending),
            skipped=skipped,
            workers=effective,
            wall_s=wall,
            busy_s=busy,
            utilization=worker_utilization(busy, effective, wall),
        )

    def _record(self, record: Dict[str, Any], progress) -> None:
        self.store.append(record)
        if progress is not None:
            spec = PointSpec.from_dict(record["spec"])
            progress(
                f"  done {spec.display} ({record['telemetry']['elapsed_s']:.2f}s)"
            )
