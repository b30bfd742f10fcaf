"""Repository benchmark: host time of the simulator's user-facing jobs.

Run from the repository root::

    python3 perfbench/run.py --workload grid_fused --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py`` for why each exists):
``figures_cold``, ``grid_fused``, ``grid_metrics``, ``fleet_demotion``.
A run repeats the workload's unit of work — each unit starting from an
empty plan cache and a fresh result store — until ``--seconds`` have
passed (and at least the workload's minimum number of units ran), then
checks every output.  A workload may open with warm-up units, run and
checked but not timed, so that one-off costs of a process (lazy
imports, first-call allocations) stay out of the median.  The last line
of standard output is one JSON object with ``correct``, ``attempted``
(units run), ``failed`` (units whose outputs failed a check) and
``metrics``:

* ``--trace 0``: ``unit_s`` (median seconds per timed unit),
  ``peak_rss_mib`` (process high-water resident memory after the timed
  window, the probe kernel's ~15 MiB included) and ``setup_s`` (median
  over fresh interpreters of importing the program and building the
  workload's inputs and first device).
* ``--trace 1``: per-unit self seconds of each layer (see
  ``perfbench/layers.py``), per-unit work counts, the plan cache's hit
  ratio, and ``traced_unit_s`` — the traced median, whose excess over
  ``unit_s`` is the tracing overhead.

Every time is reported at a reference machine speed (see
``perfbench/clock.py``); the timed units' raw and process CPU seconds
are printed above the JSON line.

The benchmark reads and writes nothing outside the checkout it runs in.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from clock import PROBE_REF_S, Clock  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fresh-interpreter set-up measurements per run (median reported).
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import + input set-up, print it, exit")
    return parser.parse_args(argv)


def _seconds(values) -> str:
    return " ".join(f"{value:.3f}" for value in values)


def _setup_seconds(workload: str, seed: int, clock: Clock) -> float:
    """Median set-up time over fresh interpreters (each measures itself
    from interpreter start-up to inputs built), at reference speed.

    The probe kernel cannot run beside a child pinned to the same CPU,
    so each child is scaled by the host speed measured just before and
    just after it.
    """
    raw, scaled = [], []
    before = clock.speed()
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = clock.speed()
        raw.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * 2.0 * PROBE_REF_S / (before + after))
        before = after
    print("raw setup seconds " + _seconds(raw))
    return statistics.median(scaled)


def _measure(workload, inputs, seconds, clock, wrap):
    """Run the workload's warm-up units, then repeat its unit until the
    window closes and at least ``min_units`` were timed.

    Returns (the raw, process CPU and reference-speed seconds of each
    timed unit, as three lists; the outputs of every unit; an error
    message or None).
    """
    raw, cpu, scaled, outputs = [], [], [], []
    start = time.perf_counter()
    while len(raw) < workload.min_units or time.perf_counter() - start < seconds:
        steps = workload.steps(inputs, len(outputs))
        gc.collect()
        unit_raw = unit_cpu = unit_scaled = 0.0
        for step in steps:
            try:
                output, step_raw, step_cpu, step_scaled = clock.measure(wrap(step))
            except Exception as exc:  # reported as a failed unit, not a crash
                traceback.print_exc()
                return (raw, cpu, scaled), outputs, f"unit {len(outputs)} raised {exc!r}"
            unit_raw += step_raw
            unit_cpu += step_cpu
            unit_scaled += step_scaled
        if len(outputs) >= workload.warmup_units:
            raw.append(unit_raw)
            cpu.append(unit_cpu)
            scaled.append(unit_scaled)
        outputs.append(output)
    return (raw, cpu, scaled), outputs, None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    # One CPU for the whole run, set-up probes included (they inherit
    # it): the probe kernel must run where the measured work runs, and
    # the host's CPUs drift independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    inputs = workload.setup(args.seed)
    setup_s = _setup_seconds(args.workload, args.seed, clock)
    from repro.ftl import plancache

    tracer = None
    wrap = lambda step: step  # noqa: E731
    if args.trace:
        from layers import COUNTS, LAYERS, Tracer, install_layer_spans

        tracer = Tracer(clock.net)
        install_layer_spans(tracer)
        wrap = lambda step: tracer.wrap("driver", step)  # noqa: E731
    cache0 = plancache.stats()
    (times, cpu, scaled), outputs, error = _measure(workload, inputs, args.seconds, clock, wrap)
    cache1 = plancache.stats()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.unpatch()

    failures = {} if error is None else {len(outputs): error}
    if outputs:
        failures.update(workload.check(inputs, outputs))
    for index, message in sorted(failures.items()):
        print(f"FAIL unit {index}: {message}")
    print(f"{args.workload}: {len(outputs)} units ({workload.warmup_units} warm-up), "
          f"timed raw seconds {_seconds(times)}, cpu seconds {_seconds(cpu)}, "
          f"at reference speed {_seconds(scaled)}")

    units = max(1, len(outputs))
    unit_s = statistics.median(scaled) if scaled else 0.0
    if not args.trace:
        metrics = {
            "unit_s": {"value": unit_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        hits = cache1["hits"] - cache0["hits"]
        misses = cache1["misses"] - cache0["misses"]
        counts = {name: tracer.counts[name] for name in COUNTS}
        counts.update(cache_hits=hits, cache_misses=misses,
                      demoted_members=sum(workload.demoted(o) for o in outputs))
        # Layer seconds and counts accumulate over every unit, warm-up
        # included; scale the seconds by the timed units' mean speed.
        scale = sum(scaled) / sum(times) if times else 1.0
        metrics = {f"{layer}_s": {"value": tracer.self_s[layer] * scale / units, "unit": "s"}
                   for layer in LAYERS}
        metrics["traced_unit_s"] = {"value": unit_s, "unit": "s"}
        for name, count in counts.items():
            metrics[name] = {"value": count / units, "unit": "count"}
        metrics["cache_hit_ratio"] = {"value": hits / (hits + misses) if hits + misses else 0.0,
                                      "unit": "ratio"}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outputs) + (error is not None),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
