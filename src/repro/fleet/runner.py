"""Process-parallel fleet execution (DESIGN.md §12).

Cohorts are independent — their seeds are pure functions of the fleet
base seed and their content hashes — so the runner fans them out on the
campaign runner's job runner (:func:`repro.campaign.runner.fan_out`):
workers receive plain dicts, rebuild everything from catalog keys, and
stream :class:`~repro.fleet.engine.CohortResult` records into a
resumable :class:`~repro.campaign.store.ResultStore`.  The store's
canonical fingerprint is therefore identical for any worker count
(DESIGN.md §8) — the fleet determinism contract the CLI and the perf
bench both pin.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.runner import default_start_method, fan_out
from repro.campaign.store import ResultStore
from repro.fleet.engine import CohortResult, run_cohort
from repro.fleet.spec import CohortSpec, FleetSpec, resolve_cohort_seed
from repro.obs import SpanRecorder


def run_fleet_cohort(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one cohort; the worker-side entry point.

    Everything except ``telemetry`` is a pure function of the payload.
    """
    spec = CohortSpec.from_dict(payload["spec"])
    recorder = SpanRecorder()
    with recorder.span(f"cohort:{payload['key']}"):
        result = run_cohort(spec, payload["seed"])
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


def _cohort_done(record: Dict[str, Any]) -> str:
    spec = CohortSpec.from_dict(record["spec"])
    telemetry = record["telemetry"]
    return (
        f"  done {spec.display} ({telemetry['elapsed_s']:.2f}s, "
        f"{telemetry['lockstep']} lockstep / {telemetry['demoted']} demoted)"
    )


class FleetRunner:
    """Fan a fleet's cohorts out over a worker pool, streaming results
    into a resumable store.

    Args:
        spec: The fleet.
        store: Result store (``ResultStore(None)`` for in-memory).
        mp_context: multiprocessing start method; None picks
            :func:`~repro.campaign.runner.default_start_method`.
    """

    def __init__(
        self,
        spec: FleetSpec,
        store: Optional[ResultStore] = None,
        mp_context: Optional[str] = None,
    ):
        self.spec = spec
        self.store = store if store is not None else ResultStore(None)
        self.mp_context = default_start_method() if mp_context is None else mp_context

    def pending_cohorts(self) -> List[Dict[str, Any]]:
        """Worker payloads for every cohort not already in the store."""
        return [
            {
                "key": key,
                "fleet": self.spec.name,
                "spec": cohort.to_dict(),
                "seed": resolve_cohort_seed(cohort, self.spec.base_seed),
            }
            for key, cohort in self.spec.keyed_cohorts()
            if key not in self.store
        ]

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
        """Run every pending cohort through
        :func:`~repro.campaign.runner.fan_out`; returns the invocation's
        report, whose device counts cover the whole store."""
        batch = fan_out(
            run_fleet_cohort, self.store, self.pending_cohorts, workers, fresh,
            self.mp_context, progress, _cohort_done,
        )
        results = self.results()
        return FleetReport(
            fleet=self.spec.name,
            total_cohorts=len(self.spec),
            ran=batch.ran,
            skipped=len(self.spec) - batch.ran,
            workers=batch.workers,
            population=sum(r.population for r in results),
            lockstep_devices=sum(r.lockstep_count for r in results),
            demoted_devices=sum(len(r.demoted) for r in results),
            wall_s=batch.wall_s,
            busy_s=batch.busy_s,
            utilization=batch.utilization,
        )
