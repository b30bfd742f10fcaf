"""Perf benchmark: checkpointing, warm-start campaigns, fast polling.

Three aspects of the wear-state subsystem (DESIGN.md §10), each of
which doubles as a bit-identity check:

* ``experiment_cold`` — one wear-out run to level 3 through the full
  stack with the defaults a lone run gets: increment-aware polling and
  fused burst execution (DESIGN.md §11, §14), windows sized by the cold
  byte budget (16 steps of 4 KiB requests).
* ``experiment_metrics`` — ``experiment_cold`` with the metrics
  registry on.  It stays on the fused path (DESIGN.md §9), and
  ``--check`` gates it at ``METRICS_OVERHEAD``x ``experiment_cold``:
  the median ratio of ``METRICS_PAIRS`` interleaved timing pairs of
  the two, taken after the cases ran.
* ``experiment_loop_prewindowed`` — the same run with the
  pre-megaburst 64-step window cap.
* ``experiment_loop_scalar`` — the same run with ``step_batching``
  off: the per-step reference path.  Must land on the same
  fingerprint, and ``--check`` enforces the burst-fusion speedup of
  the 64-step fused loop over it.
* ``checkpoint_roundtrip`` — snapshot -> compressed .npz -> load ->
  restore into a fresh twin, timed end to end.  Bounds the cost a
  campaign pays per checkpoint save/restore.
* ``warmstart_grid_cold`` / ``warmstart_grid_warm`` — a 7-point grid
  (``until_level`` 2..8 over one shared trajectory) run cold and then
  against a primed checkpoint cache.  Both must land on the same
  canonical store fingerprint, and ``--check`` enforces the warm-start
  speedup.  Warm keeps its checkpoints across repeats, like a resumed
  session, primed by one untimed checkpointing pass.
* ``hybrid_fig2_16gb`` / ``hybrid_table1`` — the two campaign points of
  the paper's hybrid Table 1 device (Figure 2's 16 GB point, Table 1's
  phase protocol) through the campaign worker entry point, fused
  (DESIGN.md §16), each with a ``_scalar`` twin on the per-step loop.
  Twins share the point's result fingerprint, and ``--check`` enforces
  each fused-over-scalar speedup measured in the same run.

Run directly:
``PYTHONPATH=src python benchmarks/perf/bench_perf_experiment.py``
(``--check`` for CI gating, ``--update`` to refresh the baseline).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
import sys
import tempfile
import time

from repro.campaign import CampaignRunner, ResultStore, get_campaign, runner
from repro.campaign.spec import CampaignSpec, PointSpec, point_key, resolve_seed
from repro.core import WearOutExperiment
from repro.devices import build_device
from repro.fs import Ext4Model
from repro.obs import MetricsRegistry, metrics_enabled
from repro.state import load_state, restore_experiment, save_state, snapshot_experiment
from repro.units import KIB
from repro.workloads import FileRewriteWorkload

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
from benchmarks.perf.common import BenchCase, ftl_fingerprint, main  # noqa: E402

#: Digest of the level-3 experiment outcome (increments, volumes, FTL
#: stats) — identical with fast or naive polling by construction.
EXPERIMENT_FINGERPRINT = "c30e0309dbf127e759af9453a323928e0f67cfc3ea5b5b9cc0f9141d4070df8c"

#: End-state digest of the restored twin (equals the source's digest).
ROUNDTRIP_FINGERPRINT = "f2c63041e807f35c42599b8e9f3c7008576bc460e99d93b7c4343449be6af1b8"

#: Canonical store digest of the 7-point grid — identical cold or warm.
WARMGRID_FINGERPRINT = "5bd5ad028945b4bea0c507bc156c4478bc9fa83ecf6cab1776fb6f8458941e54"

#: Required speedup of the warm grid over the cold grid.  Lowered from
#: 3.0x while cold grids replayed each other's fused windows through a
#: plan cache; every cold point now plans its own windows (2.7x when
#: the cases were re-recorded), and the gate is kept as it was.
WARMSTART_SPEEDUP = 1.5

#: Required speedup of the fused batched loop over the per-step
#: reference loop on the same experiment (burst fusion gate).
#: Compares ``experiment_loop_scalar`` against
#: ``experiment_loop_prewindowed`` — the fused loop at 64-step
#: windows — so the gate keeps measuring burst fusion itself.
#: Originally 3.0x; removing the np.cumsum dispatch wrappers
#: from the FTL span path made the scalar reference ~25% faster, which
#: compresses the ratio to ~2.9-3.0x.  2.5x keeps the gate firm
#: without flapping at the old boundary.
BURST_SPEEDUP = 2.5

#: Largest allowed slowdown of ``experiment_metrics`` over
#: ``experiment_cold`` in the same run: observing the fused path must
#: cost almost nothing (ROADMAP: observe the fused path without
#: leaving it).
METRICS_OVERHEAD = 1.1

#: Interleaved ``experiment_cold``/``experiment_metrics`` timing pairs
#: behind the metrics-overhead gate.  It compares their median ratio:
#: two best-of-N times taken back to back differ by more than the
#: gate's 10% on a shared machine, so one noisy stretch could fail or
#: pass it alone.  Single pairs read 0.77-1.30x with no metrics-path
#: change on a 2-core shared container, where the median of five sat
#: at 0.95-1.07x; nine pairs keep the median further from the gate.
METRICS_PAIRS = 9

#: Result digests of the hybrid campaign points, shared by the fused
#: and per-step runs of each.
HYBRID_FIG2_FINGERPRINT = "ef16afe2feaa7c52e5a1658326b689d79da1839c68701595dab5cfb83f45e1b0"
HYBRID_TABLE1_FINGERPRINT = "558a45b4af205889c774b79298a278442030790d148c81064dc7fac1fa7ffd63"

#: Required speedups of the fused hybrid points over their per-step
#: twins timed in the same run (DESIGN.md §16).  Figure 2's 16 GB point
#: fuses every step after the first poll; Table 1 fuses its merged-mode
#: phases too, relocating GC included.  Table 1's gate stays below its
#: measured 3.4-5.6x on a shared 2-core container: a 3x gate needs
#: every run at 3.6x or more to hold without flaking.
HYBRID_FIG2_SPEEDUP = 2.5
HYBRID_TABLE1_SPEEDUP = 1.4

#: Best elapsed seconds per case, for the speedup check after main().
_BEST = {}

#: Primed checkpoint cache shared by the warm case's repeats.
_WARM_CACHE = {"dir": None}


def _experiment(seed=7):
    device = build_device("emmc-8gb", scale=512, seed=seed)
    fs = Ext4Model(device)
    workload = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=seed)
    return WearOutExperiment(device, workload, filesystem=fs)


def _result_digest(experiment) -> str:
    result = experiment.result
    increments = [
        (r.memory_type, r.from_level, r.to_level, int(r.host_bytes))
        for r in result.increments
    ]
    stats = dict(sorted(vars(experiment.device.ftl.stats).items()))
    return hashlib.sha256(
        repr((increments, int(result.total_host_bytes), stats)).encode()
    ).hexdigest()


def _run_loop(case_name, step_batching=True, max_batch_steps=None, metrics=False):
    if metrics:
        with metrics_enabled(MetricsRegistry()):
            experiment = _experiment()
    else:
        experiment = _experiment()
    experiment.step_batching = step_batching
    if max_batch_steps is not None:
        experiment.max_batch_steps = max_batch_steps
    start = time.perf_counter()
    experiment.run(until_level=3)
    elapsed = time.perf_counter() - start
    _BEST[case_name] = min(elapsed, _BEST.get(case_name, float("inf")))
    return elapsed, _result_digest(experiment)


def run_experiment_cold():
    return _run_loop("experiment_cold")


def run_experiment_metrics():
    return _run_loop("experiment_metrics", metrics=True)


def run_experiment_loop_prewindowed():
    return _run_loop("experiment_loop_prewindowed", max_batch_steps=64)


def run_experiment_loop_scalar():
    return _run_loop("experiment_loop_scalar", step_batching=False)


def run_checkpoint_roundtrip():
    source = _experiment()
    source.run(until_level=2)
    twin = _experiment()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "ck.npz"
        start = time.perf_counter()
        save_state(path, snapshot_experiment(source))
        restore_experiment(twin, load_state(path))
        elapsed = time.perf_counter() - start
    assert twin.steps_completed == source.steps_completed
    return elapsed, ftl_fingerprint(twin.device.ftl)


def _grid():
    return CampaignSpec(
        name="bench-warmstart-grid",
        points=[
            PointSpec(kind="wearout", device="emmc-8gb", scale=512, seed=7,
                      filesystem="ext4", until_level=level)
            for level in range(2, 9)
        ],
        base_seed=1,
    )


def _run_grid(case_name, checkpoint_dir=None):
    store = ResultStore(None)
    runner = CampaignRunner(_grid(), store, checkpoint_dir=checkpoint_dir)
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    assert report.ran == 7, f"expected 7 points, ran {report.ran}"
    _BEST[case_name] = min(elapsed, _BEST.get(case_name, float("inf")))
    return elapsed, store.fingerprint()


def run_grid_cold():
    return _run_grid("warmstart_grid_cold")


def run_grid_warm():
    if _WARM_CACHE["dir"] is None:
        # Prime the checkpoint cache once (untimed): one pass with
        # checkpointing populates every crossing snapshot along the
        # shared trajectory.
        _WARM_CACHE["dir"] = tempfile.mkdtemp(prefix="bench-warmstart-")
        CampaignRunner(_grid(), ResultStore(None), checkpoint_dir=_WARM_CACHE["dir"]).run()
    return _run_grid("warmstart_grid_warm", checkpoint_dir=_WARM_CACHE["dir"])


class _PerStepExperiment(WearOutExperiment):
    """The campaign's experiment on the per-step reference loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.step_batching = False


def _run_hybrid_point(case_name, campaign, step_batching=True):
    """The campaign's ``emmc-16gb`` point through the worker entry point;
    the fingerprint digests its canonical result record."""
    spec_set = get_campaign(campaign)
    spec = next(p for p in spec_set.points if p.device == "emmc-16gb")
    payload = {
        "spec": spec.to_dict(),
        "seed": resolve_seed(spec, spec_set.base_seed),
        "key": point_key(spec),
        "campaign": campaign,
    }
    experiment_cls = runner.WearOutExperiment
    if not step_batching:
        runner.WearOutExperiment = _PerStepExperiment
    try:
        start = time.perf_counter()
        record = runner.run_point(payload)
        elapsed = time.perf_counter() - start
    finally:
        runner.WearOutExperiment = experiment_cls
    _BEST[case_name] = min(elapsed, _BEST.get(case_name, float("inf")))
    digest = hashlib.sha256(json.dumps(record["result"], sort_keys=True).encode()).hexdigest()
    return elapsed, digest


def run_hybrid_fig2():
    return _run_hybrid_point("hybrid_fig2_16gb", "fig2")


def run_hybrid_fig2_scalar():
    return _run_hybrid_point("hybrid_fig2_16gb_scalar", "fig2", step_batching=False)


def run_hybrid_table1():
    return _run_hybrid_point("hybrid_table1", "table1")


def run_hybrid_table1_scalar():
    return _run_hybrid_point("hybrid_table1_scalar", "table1", step_batching=False)


CASES = [
    BenchCase("experiment_cold", run_experiment_cold, EXPERIMENT_FINGERPRINT),
    BenchCase("experiment_metrics", run_experiment_metrics, EXPERIMENT_FINGERPRINT),
    BenchCase("experiment_loop_prewindowed", run_experiment_loop_prewindowed,
              EXPERIMENT_FINGERPRINT),
    BenchCase("experiment_loop_scalar", run_experiment_loop_scalar, EXPERIMENT_FINGERPRINT),
    BenchCase("checkpoint_roundtrip", run_checkpoint_roundtrip, ROUNDTRIP_FINGERPRINT),
    BenchCase("warmstart_grid_cold", run_grid_cold, WARMGRID_FINGERPRINT),
    BenchCase("warmstart_grid_warm", run_grid_warm, WARMGRID_FINGERPRINT),
    BenchCase("hybrid_fig2_16gb", run_hybrid_fig2, HYBRID_FIG2_FINGERPRINT),
    BenchCase("hybrid_fig2_16gb_scalar", run_hybrid_fig2_scalar, HYBRID_FIG2_FINGERPRINT),
    BenchCase("hybrid_table1", run_hybrid_table1, HYBRID_TABLE1_FINGERPRINT),
    BenchCase("hybrid_table1_scalar", run_hybrid_table1_scalar, HYBRID_TABLE1_FINGERPRINT),
]


def _ratio_gate(check, label, num, den, floor):
    """Print a named speedup; returns 1 when ``--check`` and below gate."""
    if not num or not den:
        return 0
    speedup = num / den
    print(f"{label} speedup: {speedup:.2f}x ({num:.3f}s / {den:.3f}s, gate {floor}x)")
    if check and speedup < floor:
        print(f"FAIL: {label} speedup {speedup:.2f}x < {floor}x")
        return 1
    return 0


def _metrics_check(check: bool) -> int:
    """Gate metrics-on at ``METRICS_OVERHEAD``x the metrics-off run,
    as the median ratio of ``METRICS_PAIRS`` interleaved pairs (the
    order within a pair alternates)."""
    if "experiment_cold" not in _BEST or "experiment_metrics" not in _BEST:
        return 0
    ratios = []
    for pair in range(METRICS_PAIRS):
        if pair % 2:
            metered, _ = run_experiment_metrics()
            cold, _ = run_experiment_cold()
        else:
            cold, _ = run_experiment_cold()
            metered, _ = run_experiment_metrics()
        ratios.append(metered / cold)
    overhead = statistics.median(ratios)
    print(f"metrics overhead: {overhead:.2f}x (median of {METRICS_PAIRS} interleaved "
          f"pairs: {' '.join(f'{r:.2f}' for r in ratios)}; gate <= {METRICS_OVERHEAD}x)")
    if check and overhead > METRICS_OVERHEAD:
        print(f"FAIL: metrics overhead {overhead:.2f}x > {METRICS_OVERHEAD}x")
        return 1
    return 0


def _speedup_check(check: bool) -> int:
    code = _metrics_check(check)
    code |= _ratio_gate(
        check, "burst-fusion",
        _BEST.get("experiment_loop_scalar"),
        _BEST.get("experiment_loop_prewindowed"),
        BURST_SPEEDUP,
    )
    code |= _ratio_gate(
        check, "warm-start",
        _BEST.get("warmstart_grid_cold"),
        _BEST.get("warmstart_grid_warm"),
        WARMSTART_SPEEDUP,
    )
    code |= _ratio_gate(
        check, "hybrid fig2 16 GB",
        _BEST.get("hybrid_fig2_16gb_scalar"),
        _BEST.get("hybrid_fig2_16gb"),
        HYBRID_FIG2_SPEEDUP,
    )
    code |= _ratio_gate(
        check, "hybrid table1",
        _BEST.get("hybrid_table1_scalar"),
        _BEST.get("hybrid_table1"),
        HYBRID_TABLE1_SPEEDUP,
    )
    return code


if __name__ == "__main__":
    argv = sys.argv[1:]
    code = main(CASES, argv)
    code = code or _speedup_check("--check" in argv)
    sys.exit(code)
