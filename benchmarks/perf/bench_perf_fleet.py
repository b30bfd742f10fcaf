"""Perf benchmark: fleet-scale cohort engine (DESIGN.md §12).

Gates the headline claim of the cohort engine: simulating a
1000-device cohort through :func:`repro.fleet.run_cohort` must beat an
equivalent loop of scalar ``WearOutExperiment`` runs by at least
``FLEET_SPEEDUP``x — while staying *bit-identical* per device.

* ``fleet_cohort_1k`` — one 1000-device cohort (emmc-8gb, scale 512,
  the paper's 4 KiB random-rewrite attack, run to wear level 3),
  end-to-end: leader branch, certificate-gated lockstep advance, any
  demotion replays, result assembly.  The fingerprint digests the full
  cohort result record (shared result, demotion map, certificates).
* ``fleet_scalar_sample`` — ``SAMPLE_SIZE`` randomly sampled members
  of the same cohort re-run as plain scalar experiments via
  :func:`repro.fleet.scalar_member_result`.  Each sampled result must
  be JSON-identical to what the cohort run reported for that member —
  the spot-check contract — and the timing, extrapolated to the full
  population (``elapsed / SAMPLE_SIZE * POPULATION``; every member
  runs the same configuration, so per-member cost is uniform), is the
  scalar-loop cost the speedup gate compares against.
* ``fleet_megaburst_1k`` — a *demotion-heavy* 1000-device cohort
  (sequential rewrite, a wide endurance spread, run to wear level 5)
  through the cohort engine with the megaburst plan cache on
  (DESIGN.md §15: demoted replays follow the leader's crossing-aligned
  window schedule and ride its fused windows up to their own retirement
  crossing; the window holding it retires the block inside a fresh
  plan, and the tail plans its own windows).  The same cohort is run
  once per session under ``plancache.disabled()`` — the pre-sharing
  cohort engine, where every demoted member replans every window from
  scratch — and ``--check`` gates the cache-on run at
  ``MEGABURST_SPEEDUP``x over that same-session baseline.  Three
  members (at least one demoted) are re-run as scalar experiments and
  asserted JSON-identical to the cohort's records for them.

Run directly:
``PYTHONPATH=src python benchmarks/perf/bench_perf_fleet.py``
(``--check`` for CI gating, ``--update`` to refresh the baseline).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import time

import numpy as np

from repro.fleet import CohortSpec, resolve_cohort_seed, run_cohort, scalar_member_result
from repro.ftl import plancache
from repro.rng import DEFAULT_SEED, substream_seed
from repro.units import KIB

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
from benchmarks.perf.common import BenchCase, main  # noqa: E402

POPULATION = 1000

#: Members re-run as scalar experiments for the bit-identity spot check
#: and the extrapolated scalar-loop timing.
SAMPLE_SIZE = 3

#: Required speedup of the cohort engine over the equivalent loop of
#: scalar experiments (ISSUE 7 gate).
FLEET_SPEEDUP = 10.0

#: Required speedup of the plan-sharing cohort engine over the same
#: cohort with the plan cache disabled (ISSUE 10 gate): on a
#: demotion-heavy cohort, demoted replays must collapse to cache probes
#: plus the post-divergence tail instead of replanning every window.
MEGABURST_SPEEDUP = 3.0

#: Base seed of the demotion-heavy cohort (chosen for a clean leader
#: with ~30 demoted members at ``MEGABURST_SIGMA``).
MEGABURST_SEED = 1234

#: Endurance spread of the demotion-heavy cohort.  The catalog's
#: nominal limit sits ~1.27x above the level-5 wear frontier, so the
#: default sigma of 0.05 never demotes anyone; 0.35 models a loosely
#: binned batch where ~3% of devices carry a block weak enough to
#: retire mid-run.
MEGABURST_SIGMA = 0.35

#: Digest of the full 1000-device cohort result record.
COHORT_FINGERPRINT = "2cd6fe1fb5562ced66461654c36a0e2fc78e4e30f5677d8f6150843f114fa63f"

#: Digest of the sampled members' scalar results (identical to the
#: cohort's records for them by the spot-check contract).
SAMPLE_FINGERPRINT = "3f671810ff2eba29424d2b932c96a0c7e23c7cfb02f63fa69cef44895293ad9d"

#: Digest of the demotion-heavy cohort's full result record.
MEGABURST_FINGERPRINT = "8f445ef6db85586413c33273fff7983f65b2ddd2d51f1487ce192bca8bdf1038"

#: Best elapsed seconds per case, for the speedup check after main().
_BEST = {}

#: The cohort result shared between the two cases (the scalar case
#: verifies its members against it).
_CACHE = {"cohort": None}


def _spec() -> CohortSpec:
    return CohortSpec(
        device="emmc-8gb",
        population=POPULATION,
        scale=512,
        pattern="rand",
        request_bytes=4 * KIB,
        until_level=3,
        label="bench",
    )


def _megaburst_spec() -> CohortSpec:
    return CohortSpec(
        device="emmc-8gb",
        population=POPULATION,
        scale=512,
        pattern="seq",
        request_bytes=4 * KIB,
        until_level=5,
        endurance_sigma=MEGABURST_SIGMA,
        label="bench-megaburst",
    )


def _sample_indices() -> list:
    rng = np.random.default_rng(substream_seed(DEFAULT_SEED, "fleet-bench-sample"))
    return sorted(int(i) for i in rng.choice(POPULATION, size=SAMPLE_SIZE, replace=False))


def _result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def run_fleet_cohort_1k():
    spec = _spec()
    seed = resolve_cohort_seed(spec, DEFAULT_SEED)
    start = time.perf_counter()
    cohort = run_cohort(spec, seed)
    elapsed = time.perf_counter() - start
    _BEST["fleet_cohort_1k"] = min(elapsed, _BEST.get("fleet_cohort_1k", float("inf")))
    _CACHE["cohort"] = cohort
    digest = hashlib.sha256(_result_json(cohort).encode()).hexdigest()
    return elapsed, digest


def run_fleet_scalar_sample():
    spec = _spec()
    seed = resolve_cohort_seed(spec, DEFAULT_SEED)
    if _CACHE["cohort"] is None:
        _CACHE["cohort"] = run_cohort(spec, seed)
    cohort = _CACHE["cohort"]
    indices = _sample_indices()
    start = time.perf_counter()
    scalars = [scalar_member_result(spec, seed, index) for index in indices]
    elapsed = time.perf_counter() - start
    _BEST["fleet_scalar_sample"] = min(
        elapsed, _BEST.get("fleet_scalar_sample", float("inf"))
    )
    payload = []
    for index, scalar in zip(indices, scalars):
        member_json = json.dumps(
            cohort.member_result(index).to_dict(), sort_keys=True, separators=(",", ":")
        )
        scalar_json = json.dumps(
            scalar.to_dict(), sort_keys=True, separators=(",", ":")
        )
        assert member_json == scalar_json, (
            f"member {index}: cohort result diverged from its scalar run"
        )
        payload.append((index, scalar_json))
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()
    return elapsed, digest


def run_fleet_megaburst_1k():
    spec = _megaburst_spec()
    seed = resolve_cohort_seed(spec, MEGABURST_SEED)
    if _CACHE.get("megaburst_baseline") is None:
        # The same-session baseline: the cohort engine without plan
        # sharing — every demoted member replans every window from
        # scratch.  Run once per session (it is the slow side by
        # design) and reuse across best-of-N repeats.
        plancache.clear()
        start = time.perf_counter()
        with plancache.disabled():
            baseline_cohort = run_cohort(spec, seed)
        _CACHE["megaburst_baseline"] = time.perf_counter() - start
        _CACHE["megaburst_baseline_json"] = _result_json(baseline_cohort)
    # Each timed repeat pays the leader's window compilation itself:
    # clear the cache so the measured run is one self-contained
    # leader-compiles/members-replay session.
    plancache.clear()
    start = time.perf_counter()
    cohort = run_cohort(spec, seed)
    elapsed = time.perf_counter() - start
    _BEST["fleet_megaburst_1k"] = min(
        elapsed, _BEST.get("fleet_megaburst_1k", float("inf"))
    )
    cohort_json = _result_json(cohort)
    assert cohort_json == _CACHE["megaburst_baseline_json"], (
        "plan sharing changed the cohort result"
    )
    assert cohort.demoted, "demotion-heavy scenario produced no demoted members"
    stats = cohort.plan_stats or {}
    assert stats.get("demoted", {}).get("hits", 0) > 0, (
        "demoted replays never hit the leader's plans"
    )
    # Spot check (once per session): three members — the first demoted
    # one plus the first two lockstep members — must be JSON-identical
    # to their own scalar runs (which themselves ride whatever cache
    # state this session left behind; sharing never changes results).
    if not _CACHE.get("megaburst_checked"):
        demoted_index = min(cohort.demoted)
        lockstep = [i for i in range(POPULATION) if i not in cohort.demoted][:2]
        for index in [demoted_index] + lockstep:
            scalar = scalar_member_result(spec, seed, index)
            member_json = json.dumps(
                cohort.member_result(index).to_dict(),
                sort_keys=True, separators=(",", ":"),
            )
            scalar_json = json.dumps(
                scalar.to_dict(), sort_keys=True, separators=(",", ":")
            )
            assert member_json == scalar_json, (
                f"member {index}: cohort result diverged from its scalar run"
            )
        _CACHE["megaburst_checked"] = True
    digest = hashlib.sha256(cohort_json.encode()).hexdigest()
    return elapsed, digest


CASES = [
    BenchCase("fleet_cohort_1k", run_fleet_cohort_1k, COHORT_FINGERPRINT),
    BenchCase("fleet_scalar_sample", run_fleet_scalar_sample, SAMPLE_FINGERPRINT),
    BenchCase("fleet_megaburst_1k", run_fleet_megaburst_1k, MEGABURST_FINGERPRINT),
]


def _speedup_check(check: bool) -> int:
    cohort = _BEST.get("fleet_cohort_1k")
    sample = _BEST.get("fleet_scalar_sample")
    if not cohort or not sample:
        return 0
    scalar_loop = sample / SAMPLE_SIZE * POPULATION
    speedup = scalar_loop / cohort
    print(
        f"fleet speedup: {speedup:.1f}x (cohort {cohort:.2f}s, scalar loop "
        f"{scalar_loop:.1f}s extrapolated from {SAMPLE_SIZE} members)"
    )
    if check and speedup < FLEET_SPEEDUP:
        print(f"FAIL: fleet speedup {speedup:.1f}x < {FLEET_SPEEDUP}x")
        return 1
    return 0


def _megaburst_check(check: bool) -> int:
    shared = _BEST.get("fleet_megaburst_1k")
    baseline = _CACHE.get("megaburst_baseline")
    if not shared or not baseline:
        return 0
    speedup = baseline / shared
    print(
        f"megaburst cohort speedup: {speedup:.1f}x (plan-shared {shared:.2f}s, "
        f"cache-off same-session baseline {baseline:.2f}s)"
    )
    if check and speedup < MEGABURST_SPEEDUP:
        print(f"FAIL: megaburst cohort speedup {speedup:.1f}x < {MEGABURST_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    code = main(CASES, argv)
    code = code or _speedup_check("--check" in argv)
    code = code or _megaburst_check("--check" in argv)
    sys.exit(code)
