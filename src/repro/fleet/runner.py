"""Process-parallel fleet execution (DESIGN.md §12).

Cohorts are independent — their seeds are pure functions of the fleet
base seed and their content hashes — so the runner fans them out over a
``multiprocessing`` pool exactly like the campaign runner fans out
points: workers receive plain dicts, rebuild everything from catalog
keys, and stream :class:`~repro.fleet.engine.CohortResult` records into
a resumable :class:`~repro.campaign.store.ResultStore`.  The store's
canonical fingerprint is therefore identical for any worker count
(DESIGN.md §8) — the fleet determinism contract the CLI and the perf
bench both pin.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError
from repro.fleet.engine import CohortResult, run_cohort
from repro.fleet.spec import CohortSpec, FleetSpec, resolve_cohort_seed
from repro.obs import SpanRecorder, worker_utilization


def run_fleet_cohort(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one cohort; the worker-side entry point.

    Everything except ``telemetry`` is a pure function of the payload
    (the checkpoint cache accelerates the prototype phase but never
    changes results — DESIGN.md §10).
    """
    spec = CohortSpec.from_dict(payload["spec"])
    recorder = SpanRecorder()
    with recorder.span(f"cohort:{payload['key']}"):
        result = run_cohort(
            spec, payload["seed"], checkpoint_dir=payload.get("checkpoint_dir")
        )
    return {
        "key": payload["key"],
        "fleet": payload["fleet"],
        "spec": spec.to_dict(),
        "seed": payload["seed"],
        "result": result.to_dict(),
        "telemetry": {
            "elapsed_s": recorder.spans[-1].elapsed_s,
            "worker_pid": os.getpid(),
            "lockstep": result.lockstep_count,
            "demoted": len(result.demoted),
        },
    }


@dataclass(frozen=True)
class FleetReport:
    """What one :meth:`FleetRunner.run` invocation did."""

    fleet: str
    total_cohorts: int
    ran: int
    skipped: int
    workers: int
    population: int
    lockstep_devices: int
    demoted_devices: int
    wall_s: float
    busy_s: float
    utilization: float

    def describe(self) -> str:
        return (
            f"fleet {self.fleet}: cohorts total={self.total_cohorts} "
            f"ran={self.ran} skipped={self.skipped} | "
            f"devices={self.population} lockstep={self.lockstep_devices} "
            f"demoted={self.demoted_devices} | workers={self.workers} "
            f"wall={self.wall_s:.2f}s busy={self.busy_s:.2f}s "
            f"utilization={self.utilization:.0%}"
        )


class FleetRunner:
    """Fan a fleet's cohorts out over a worker pool, streaming results
    into a resumable store.

    Args:
        spec: The fleet.
        store: Result store (``ResultStore(None)`` for in-memory).
        mp_context: multiprocessing start method; None picks "fork"
            where available.
        checkpoint_dir: Optional PR-4 checkpoint cache for cohort
            prototype warm-starting; bit-identical with or without.
    """

    def __init__(
        self,
        spec: FleetSpec,
        store: Optional[ResultStore] = None,
        mp_context: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
    ):
        self.spec = spec
        self.store = store if store is not None else ResultStore(None)
        if mp_context is None:
            available = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in available else "spawn"
        self.mp_context = mp_context
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)

    def pending_cohorts(self) -> List[Dict[str, Any]]:
        """Worker payloads for every cohort not already in the store."""
        payloads = []
        for key, cohort in self.spec.keyed_cohorts():
            if key in self.store:
                continue
            payload = {
                "key": key,
                "fleet": self.spec.name,
                "spec": cohort.to_dict(),
                "seed": resolve_cohort_seed(cohort, self.spec.base_seed),
            }
            if self.checkpoint_dir is not None:
                payload["checkpoint_dir"] = self.checkpoint_dir
            payloads.append(payload)
        return payloads

    def results(self) -> List[CohortResult]:
        """Every completed cohort's result, in spec order."""
        out = []
        for key, _ in self.spec.keyed_cohorts():
            record = self.store.get(key)
            if record is not None:
                out.append(CohortResult.from_dict(record["result"]))
        return out

    def run(
        self,
        workers: int = 1,
        fresh: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> FleetReport:
        """Run every pending cohort; returns the invocation's report.

        The pool is clamped to the pending-cohort count and the core
        count, and a clamp to 1 skips the pool entirely (the serial
        reference execution the parallel path must fingerprint-match).
        """
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if fresh:
            self.store.invalidate()

        pending = self.pending_cohorts()
        skipped = len(self.spec) - len(pending)
        effective = max(1, min(workers, len(pending), os.cpu_count() or 1))
        recorder = SpanRecorder()
        with recorder.span("fleet"):
            if len(pending) == 0:
                pass
            elif effective == 1:
                for payload in pending:
                    self._record(run_fleet_cohort(payload), progress)
            else:
                ctx = multiprocessing.get_context(self.mp_context)
                with ctx.Pool(processes=effective) as pool:
                    for record in pool.imap_unordered(
                        run_fleet_cohort, pending, chunksize=1
                    ):
                        self._record(record, progress)
        wall = recorder.elapsed("fleet")

        busy = sum(
            self.store.get(p["key"])["telemetry"]["elapsed_s"] for p in pending
        )
        results = self.results()
        return FleetReport(
            fleet=self.spec.name,
            total_cohorts=len(self.spec),
            ran=len(pending),
            skipped=skipped,
            workers=effective,
            population=sum(r.population for r in results),
            lockstep_devices=sum(r.lockstep_count for r in results),
            demoted_devices=sum(len(r.demoted) for r in results),
            wall_s=wall,
            busy_s=busy,
            utilization=worker_utilization(busy, effective, wall),
        )

    def _record(self, record: Dict[str, Any], progress) -> None:
        self.store.append(record)
        if progress is not None:
            spec = CohortSpec.from_dict(record["spec"])
            telemetry = record["telemetry"]
            progress(
                f"  done {spec.display} ({telemetry['elapsed_s']:.2f}s, "
                f"{telemetry['lockstep']} lockstep / {telemetry['demoted']} demoted)"
            )
