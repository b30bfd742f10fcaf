"""The repository benchmark (``perfbench/``) reaches into the simulator
by name: its traced mode patches layer entry points, and its workloads
and driver call the plan-cache stand-ins.  These tests load its files
as they are and touch every such name, so a rename or deletion fails
here instead of only in a traced benchmark run."""

import importlib.util
import pathlib

from repro.ftl import plancache

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_patch_and_restore():
    layers = _load("layers")
    tracer = layers.Tracer()
    layers.install_layer_spans(tracer)
    patched = list(tracer._patches)
    assert patched
    tracer.unpatch()
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{name} left patched"


def test_workloads_load():
    workloads = _load("workloads")
    assert set(workloads.WORKLOADS) == {"figures_cold", "grid_fused", "grid_metrics",
                                        "fleet_demotion"}


def test_plan_cache_stand_ins():
    plancache.clear()
    stats = plancache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 0
    with plancache.disabled():
        plancache.clear()
