"""The benchmark's workloads: inputs from a seed, one timed unit, checks.

Each workload has these parts:

* ``min_units`` and ``warmup_units``: timed units a run makes at
  least, and untimed units it opens with;
* ``setup(seed)`` builds the inputs (and one simulator stack, so the
  set-up probe also pays device construction);
* ``steps(inputs, index)`` empties the process-global megaburst plan
  cache, so every unit starts as cold as a fresh process, and returns
  the unit's work as a list of calls, timed one by one (see
  ``perfbench/clock.py``); the last call returns the unit's output;
* ``check(inputs, outputs)`` validates the outputs after the timed
  window and returns ``{unit index: failure message}``.

Why these four (each stresses a different path through the layers):

* ``figures_cold`` regenerates every artifact ``repro figures`` writes
  and compares it byte for byte with the committed ``results/`` files.
  It is dominated by the hybrid ``emmc-16gb`` points (Table 1, Figures
  2 and 3's 16 GB chip), which run the scalar FTL.
* ``grid_fused`` is a wear-out grid on a page-mapped device, where the
  fused plan walk and its commit carry almost every step; no window
  repeats, so the plan cache only misses.
* ``grid_metrics`` is the same grid with the metrics registry on, which
  today forces the scalar step loop: the same inputs, the fused path
  bypassed.
* ``fleet_demotion`` is a cohort in the shape the fleet benches
  describe: a clean leader and a few followers with a block weak enough
  to retire mid-run.  Each weak follower is demoted and replays the
  leader's cached windows up to its own retirement crossing, where the
  cache refuses the window; it truncates there and plans its own tail.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, List

from repro.campaign import CAMPAIGNS, FIGURES, CampaignRunner, ResultStore
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.core import WearOutExperiment
from repro.devices import build_device
from repro.flash.package import endurance_draw
from repro.fleet import CohortSpec, device_seed, engine, scalar_member_result
from repro.fs import make_filesystem
from repro.ftl import plancache
from repro.obs import MetricsRegistry, metrics_enabled
from repro.rng import substream_seed
from repro.units import KIB
from repro.workloads import FileRewriteWorkload

ROOT = pathlib.Path(__file__).resolve().parents[1]

Steps = List[Callable[[], Any]]


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _build_stack(point: PointSpec, step_batching: bool = True):
    """The device (and, for wear-out points, filesystem, workload and
    experiment) a campaign runner builds for ``point``."""
    device = build_device(point.device, scale=point.scale, seed=point.seed,
                          timing=point.timing, queue_depth=point.queue_depth or None)
    if point.kind != "wearout":
        return device
    fs = make_filesystem(point.filesystem, device)
    workload = FileRewriteWorkload(fs, num_files=point.num_files,
                                   request_bytes=point.request_bytes,
                                   pattern=point.pattern, seed=point.seed)
    experiment = WearOutExperiment(device, workload, filesystem=fs)
    experiment.step_batching = step_batching
    return experiment


# ----------------------------------------------------------------------
# figures_cold
# ----------------------------------------------------------------------


class FiguresCold:
    """``repro figures --run`` without the file writes: every figure
    campaign in name order, each into its own empty store and rendered
    as soon as it has run, one plan cache shared from empty.

    The committed campaigns pin their own seeds, and their artifacts
    are checked against the committed ``results/`` files, so the
    workload seed changes nothing here: every unit does the same work.
    """

    # One unit is the whole job, one-off costs included: a user pays
    # them on every cold regeneration.
    min_units = 1
    warmup_units = 0

    def setup(self, seed: int) -> Dict[str, Any]:
        expected = {
            path.stem: path.read_text()
            for path in sorted((ROOT / "results").glob("*.txt"))
        }
        _build_stack(CAMPAIGNS["fig2"].points[0])
        return {"expected": expected}

    def steps(self, inputs, index) -> Steps:
        plancache.clear()
        texts: Dict[str, str] = {}

        def step(name):
            def call():
                spec = CAMPAIGNS[name]
                store = ResultStore(None)
                CampaignRunner(spec, store).run()
                texts.update(FIGURES[name](store, spec))
                return texts
            return call

        return [step(name) for name in sorted(FIGURES)]

    def check(self, inputs, outputs) -> Dict[int, str]:
        expected = inputs["expected"]
        failures = {}
        for index, texts in enumerate(outputs):
            for stem, text in texts.items():
                if expected.get(stem) != text + "\n":
                    failures[index] = f"results/{stem}.txt differs from the regenerated artifact"
                    break
        return failures

    def demoted(self, output) -> int:
        return 0


# ----------------------------------------------------------------------
# grid_fused / grid_metrics
# ----------------------------------------------------------------------

#: The wear-out grid: the paper's page-mapped 8 GB eMMC x both
#: filesystems x both rewrite patterns, to the second increment.
GRID_DEVICE = "emmc-8gb"
GRID_FILESYSTEMS = ("ext4", "f2fs")
GRID_PATTERNS = ("rand", "seq")
GRID_LEVEL = 2


def grid_points(seed: int) -> List[PointSpec]:
    return [
        PointSpec(kind="wearout", device=GRID_DEVICE, scale=512, filesystem=fs,
                  pattern=pattern, until_level=GRID_LEVEL,
                  seed=substream_seed(seed, f"grid:{GRID_DEVICE}:{fs}:{pattern}"))
        for fs in GRID_FILESYSTEMS
        for pattern in GRID_PATTERNS
    ]


def _same_store(stores: List[ResultStore]) -> Dict[int, str]:
    first = stores[0].fingerprint()
    return {
        index: "store fingerprint differs from the first unit's"
        for index, store in enumerate(stores)
        if store.fingerprint() != first
    }


class GridFused:
    """The grid through the default (fused, plan-cached) loop, one
    point per step."""

    min_units = 3
    warmup_units = 1

    def setup(self, seed: int) -> Dict[str, Any]:
        points = grid_points(seed)
        _build_stack(points[0])
        parts = [CampaignSpec(name="grid", points=(point,)) for point in points]
        return {"points": points, "parts": parts, "seed": seed}

    def steps(self, inputs, index) -> Steps:
        plancache.clear()
        store = ResultStore(None)

        def step(part):
            def call():
                CampaignRunner(part, store).run()
                return store
            return call

        return [step(part) for part in inputs["parts"]]

    def check(self, inputs, outputs) -> Dict[int, str]:
        failures = _same_store(outputs)
        # One seed-chosen point against the per-step reference loop.
        points = inputs["points"]
        point = points[inputs["seed"] % len(points)]
        reference = _build_stack(point, step_batching=False)
        expected = {"type": "wearout", **reference.run(until_level=point.until_level).to_dict()}
        record = next(r for r in outputs[0] if PointSpec.from_dict(r["spec"]) == point)
        if record["result"] != expected:
            failures.setdefault(0, f"{point.display}: fused result differs from the per-step loop")
        return failures

    def demoted(self, output) -> int:
        return 0


class GridMetrics(GridFused):
    """The same grid with the metrics registry enabled (``repro campaign
    --metrics``): every point records a metrics snapshot.  Its scalar
    units are the slowest and the noisiest, so a run times one more."""

    min_units = 4

    def steps(self, inputs, index) -> Steps:
        def metered(call):
            def run():
                with metrics_enabled(MetricsRegistry()):
                    return call()
            return run

        return [metered(call) for call in super().steps(inputs, index)]

    def check(self, inputs, outputs) -> Dict[int, str]:
        failures = _same_store(outputs)
        # Metrics must never change results: the store equals the
        # metrics-off run's.
        *calls, last = GridFused.steps(self, inputs, 0)
        for call in calls:
            call()
        if last().fingerprint() != outputs[0].fingerprint():
            failures.setdefault(0, "metrics-on store differs from the metrics-off store")
        for record in outputs[0]:
            snapshot = record["telemetry"].get("metrics", {})
            host = snapshot.get("experiment.host_bytes", {}).get("value")
            if host != record["result"]["total_host_bytes"]:
                failures.setdefault(0, f"{record['key']}: experiment.host_bytes {host} "
                                       f"!= result {record['result']['total_host_bytes']}")
        return failures


# ----------------------------------------------------------------------
# fleet_demotion
# ----------------------------------------------------------------------

#: The demotion-heavy cohort of ``benchmarks/perf/bench_perf_fleet.py``
#: at a tenth of its population: sequential 4 KiB rewrite on emmc-8gb
#: with a wide endurance spread, to wear level 5.  That bench describes
#: the traffic the engine serves: a clean leader, and about 3% of the
#: members with a block weak enough to retire mid-run.
FLEET_DEVICE = "emmc-8gb"
FLEET_SCALE = 512
FLEET_SIGMA = 0.35
FLEET_LEVEL = 5
FLEET_POPULATION = 100

#: Per-block P/E counts of a sequential cohort at wear level 5 lie in
#: [FRONTIER_LOW, FRONTIER_HIGH]: sequential rewrite wears every
#: member's blocks identically, so a member retires a block mid-run iff
#: some cycle limit sits within one erase of these counts.
FRONTIER_LOW = 979.0
FRONTIER_HIGH = 981.0

#: A unit's cohort has exactly one weak follower per band: its weakest
#: cycle limit lies in [lo, hi) x FRONTIER_LOW, so it retires that block
#: at that fraction of the run and plans the rest afresh.  Fixed bands
#: make every unit the same work whatever the seed.
WEAK_DEPTHS = ((0.80, 0.88), (0.88, 0.94), (0.94, 0.98))

#: Bound on cohort seeds tried per unit.
MAX_ATTEMPTS = 20_000


def weak_limits(cohort_seed: int, geometry) -> Dict[int, float]:
    """``{member: weakest cycle limit}`` over the members of a cohort
    that retire a block before the run ends."""
    num_blocks, nominal = geometry
    weak = {}
    for member in range(FLEET_POPULATION):
        limit = float(endurance_draw(device_seed(cohort_seed, member), num_blocks,
                                     FLEET_SIGMA, nominal).min())
        if limit <= FRONTIER_HIGH + 1.0:
            weak[member] = limit
    return weak


def fleet_cohort(seed: int, index: int, geometry):
    """Unit ``index``'s cohort as (spec, cohort seed): the first cohort
    seed derived from (seed, index) whose leader retires no block and
    whose weak followers fill :data:`WEAK_DEPTHS`, one to a band."""
    for attempt in range(MAX_ATTEMPTS):
        cohort_seed = substream_seed(seed, f"fleet:{index}:{attempt}")
        weak = weak_limits(cohort_seed, geometry)
        depths = sorted(limit / FRONTIER_LOW for limit in weak.values())
        if 0 not in weak and len(depths) == len(WEAK_DEPTHS) and all(
                lo <= depth < hi for depth, (lo, hi) in zip(depths, WEAK_DEPTHS)):
            spec = CohortSpec(device=FLEET_DEVICE, population=FLEET_POPULATION,
                              scale=FLEET_SCALE, pattern="seq", request_bytes=4 * KIB,
                              until_level=FLEET_LEVEL, endurance_sigma=FLEET_SIGMA,
                              label="perfbench")
            return spec, cohort_seed
    raise RuntimeError(f"no fitting cohort seed in {MAX_ATTEMPTS} attempts")


class FleetDemotion:
    """One demotion-heavy cohort per unit, each from its own sub-seed."""

    min_units = 3
    warmup_units = 1

    def setup(self, seed: int) -> Dict[str, Any]:
        device = build_device(FLEET_DEVICE, scale=FLEET_SCALE, seed=seed,
                              endurance_sigma=FLEET_SIGMA)
        package = device.ftl.package
        return {"seed": seed, "geometry": (package.num_blocks, package.nominal_cycle_limit)}

    def steps(self, inputs, index) -> Steps:
        cohort = fleet_cohort(inputs["seed"], index, inputs["geometry"])
        plancache.clear()
        # Through the module, so a traced run sees the engine's span.
        return [lambda: engine.run_cohort(*cohort)]

    def check(self, inputs, outputs) -> Dict[int, str]:
        # Every unit's leader and one weak member (the next band each
        # unit) against their own runs with the plan cache off, so no
        # plan shared across members or units can reach the reference.
        failures = {}
        with plancache.disabled():
            for unit, result in enumerate(outputs):
                weak = weak_limits(result.cohort_seed, inputs["geometry"])
                by_depth = sorted(weak, key=weak.get)
                for member in (0, by_depth[unit % len(by_depth)]):
                    own = scalar_member_result(result.spec, result.cohort_seed, member)
                    if _canonical(own.to_dict()) != _canonical(result.member_result(member).to_dict()):
                        failures[unit] = f"member {member}: cohort result differs from its own run"
                        break
        return failures

    def demoted(self, output) -> int:
        return len(output.demoted)


WORKLOADS = {
    "figures_cold": FiguresCold(),
    "grid_fused": GridFused(),
    "grid_metrics": GridMetrics(),
    "fleet_demotion": FleetDemotion(),
}
