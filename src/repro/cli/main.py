"""Argument parsing and subcommand dispatch for ``python -m repro``."""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import List, Optional

from repro.analysis import bandwidth_table, format_table, increments_table
from repro.android import Phone, WearAttackApp
from repro.campaign import CAMPAIGNS, FIGURES, CampaignRunner, ResultStore, get_campaign
from repro.core import WearOutExperiment, estimate_lifetime
from repro.devices import DEVICE_SPECS, build_device
from repro.errors import ConfigurationError
from repro.fs import make_filesystem
from repro.obs import metrics_enabled, render_report
from repro.units import GIB, HOUR, parse_size
from repro.workloads import FileRewriteWorkload, sweep_block_sizes

DEFAULT_STORE_DIR = "results/campaign_store"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Flash Drive Lifespan *is* a Problem' (HotOS '17)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the calibrated device catalog")

    est = sub.add_parser("estimate", help="back-of-the-envelope lifetime (§2.3)")
    est.add_argument("capacity", help="capacity, e.g. 8GB, or a catalog key like emmc-8gb")
    est.add_argument("--endurance", type=int, default=3000, help="assumed P/E cycles")
    est.add_argument("--mib-per-s", type=float, default=20.0, help="sustained write rate")

    bw = sub.add_parser("bandwidth", help="Figure 1 sweep on one device")
    bw.add_argument("device", choices=sorted(DEVICE_SPECS), help="catalog key")
    bw.add_argument("--pattern", choices=["seq", "rand", "stride"], default="seq")
    bw.add_argument("--scale", type=int, default=128, help="capacity scale factor")
    bw.add_argument("--seed", type=int, default=1)

    timing = sub.add_parser(
        "timing",
        help="derived vs. calibrated bandwidth (event timing backend)",
        description="Sweeps the Figure 1 request sizes twice — once on the "
        "event-driven timing backend (channels x planes, NCQ queue depth, "
        "coalescing write cache; DESIGN.md §13) and once on the calibrated "
        "analytic curve — and prints both side by side.  Wear accounting "
        "is bit-identical between the backends; only the durations differ.",
    )
    timing.add_argument("device", choices=sorted(DEVICE_SPECS), help="catalog key")
    timing.add_argument("--pattern", choices=["seq", "rand", "stride"], default="seq")
    timing.add_argument("--queue-depth", type=int, default=None, help="NCQ depth (default 8)")
    timing.add_argument("--scale", type=int, default=128, help="capacity scale factor")
    timing.add_argument("--seed", type=int, default=1)

    wear = sub.add_parser("wearout", help="wear-out experiment (§4.3)")
    wear.add_argument("device", choices=sorted(DEVICE_SPECS), help="catalog key")
    wear.add_argument("--fs", choices=["ext4", "f2fs"], default="ext4")
    wear.add_argument("--level", type=int, default=11, help="stop at this indicator level")
    wear.add_argument("--scale", type=int, default=128, help="capacity scale factor")
    wear.add_argument("--request-size", default="4KiB", help="per-write size")
    wear.add_argument("--pattern", choices=["rand", "seq"], default="rand")
    wear.add_argument("--files", type=int, default=4, help="number of 100MB rewrite targets")
    wear.add_argument("--seed", type=int, default=7)

    phone = sub.add_parser("phone", help="smartphone attack scenario (§4.4)")
    phone.add_argument("device", choices=sorted(DEVICE_SPECS), help="catalog key")
    phone.add_argument("--strategy", choices=["naive", "stealthy"], default="stealthy")
    phone.add_argument("--fs", choices=["ext4", "f2fs"], default="ext4")
    phone.add_argument("--hours", type=float, default=72.0, help="simulated phone time")
    phone.add_argument("--scale", type=int, default=128)
    phone.add_argument("--seed", type=int, default=11)

    camp = sub.add_parser(
        "campaign",
        help="run a declarative experiment grid over a worker pool",
        description="Runs every point of a built-in campaign, fanning out over "
        "N worker processes.  Completed points stream into a resumable "
        "JSON-lines store; rerunning skips them (see DESIGN.md §8).",
    )
    camp.add_argument("name", choices=sorted(CAMPAIGNS), help="campaign to run")
    camp.add_argument("--workers", type=int, default=1, help="worker processes")
    camp.add_argument(
        "--fresh", action="store_true",
        help="invalidate the store and re-run every point (default: resume)",
    )
    camp.add_argument(
        "--resume", action="store_true",
        help="resume from the store (the default; spelled out for scripts)",
    )
    camp.add_argument(
        "--store-dir", default=DEFAULT_STORE_DIR,
        help=f"directory of per-campaign JSONL stores (default: {DEFAULT_STORE_DIR})",
    )
    camp.add_argument("--quiet", action="store_true", help="suppress per-point lines")
    camp.add_argument(
        "--metrics", action="store_true",
        help="collect per-point metrics snapshots into the store's telemetry "
        "(inspect with 'repro report'; never changes the store fingerprint)",
    )
    camp.add_argument(
        "--checkpoint-dir", default=None,
        help="wear-state checkpoint directory: wear-out points warm-start "
        "from the deepest compatible snapshot and save new ones as they "
        "run; results are bit-identical with or without it (DESIGN.md §10)",
    )
    camp.add_argument(
        "--checkpoint-interval", type=int, default=2000,
        help="steps between rolling work-in-progress snapshots when "
        "--checkpoint-dir is set (0 keeps only crossing snapshots; "
        "default: 2000)",
    )
    camp.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and write a hotspot table (top functions "
        "by cumulative time) next to the store; forces --workers 1 so the "
        "profile covers the simulation code, not just pool dispatch",
    )

    state = sub.add_parser(
        "state",
        help="inspect wear-state checkpoints",
        description="Utilities for the wear-state snapshot files written "
        "by 'repro campaign --checkpoint-dir' (DESIGN.md §10).",
    )
    state.add_argument("action", choices=["inspect"], help="what to do")
    state.add_argument("checkpoint", help="path to a .npz checkpoint file")

    figs = sub.add_parser(
        "figures",
        help="regenerate results/*.txt artifacts from stored campaigns",
        description="Renders the paper-figure artifacts from completed campaign "
        "stores — no re-simulation.  With --run, first executes any campaign "
        "whose store is missing points.",
    )
    figs.add_argument(
        "--campaign", action="append", choices=sorted(FIGURES), dest="campaigns",
        help="figure campaign(s) to render (default: all of them)",
    )
    figs.add_argument(
        "--run", action="store_true",
        help="run campaigns with incomplete stores before rendering",
    )
    figs.add_argument("--workers", type=int, default=1, help="worker processes for --run")
    figs.add_argument("--store-dir", default=DEFAULT_STORE_DIR)
    figs.add_argument("--out", default="results", help="artifact output directory")

    fleet = sub.add_parser(
        "fleet",
        help="simulate a device fleet and render population survival curves",
        description="Runs an attacker-prevalence fleet — thousands of devices "
        "grouped into cohorts, one exact leader experiment per cohort plus "
        "structure-of-arrays follower state (DESIGN.md §12) — and writes the "
        "population survival curves, the fleet detection table, and an ASCII "
        "figure from one command.  Results stream into a resumable store and "
        "are bit-identical for any worker count.",
    )
    fleet.add_argument("name", help="fleet name (keys the result store and artifacts)")
    fleet.add_argument(
        "--population", type=int, default=1000, help="total devices (default: 1000)"
    )
    fleet.add_argument(
        "--prevalence", type=float, default=0.01,
        help="fraction of the population running the attack (default: 0.01)",
    )
    fleet.add_argument(
        "--device", choices=sorted(DEVICE_SPECS), default="emmc-8gb",
        help="catalog key for every cohort (default: emmc-8gb)",
    )
    fleet.add_argument("--scale", type=int, default=512, help="capacity scale factor")
    fleet.add_argument(
        "--until-level", type=int, default=3,
        help="wear-indicator level ending each device's run (default: 3)",
    )
    fleet.add_argument("--seed", type=int, default=None, help="fleet base seed")
    fleet.add_argument("--workers", type=int, default=1, help="worker processes")
    fleet.add_argument(
        "--fresh", action="store_true",
        help="invalidate the store and re-run every cohort (default: resume)",
    )
    fleet.add_argument(
        "--store-dir", default=DEFAULT_STORE_DIR,
        help=f"directory of fleet JSONL stores (default: {DEFAULT_STORE_DIR})",
    )
    fleet.add_argument("--out", default="results", help="artifact output directory")
    fleet.add_argument("--quiet", action="store_true", help="suppress per-cohort lines")
    fleet.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and write a hotspot table next to the "
        "store; forces --workers 1 so the profile covers the cohort engine",
    )

    rep = sub.add_parser(
        "report",
        help="wear / write-amplification / GC summary from a store or run",
        description="Renders a summary table from a campaign result store "
        "(one row per point, metrics columns when the campaign ran with "
        "--metrics) or from an obs emitter JSONL file (DESIGN.md §9).",
    )
    rep.add_argument(
        "source",
        help="path to a JSONL store/emitter file, or a campaign name "
        "resolved against --store-dir",
    )
    rep.add_argument(
        "--store-dir", default=DEFAULT_STORE_DIR,
        help=f"directory searched when 'source' is a campaign name "
        f"(default: {DEFAULT_STORE_DIR})",
    )

    return parser


def cmd_devices(args: argparse.Namespace) -> int:
    rows = []
    for key in sorted(DEVICE_SPECS):
        spec = DEVICE_SPECS[key]
        rows.append(
            [
                key,
                spec.name,
                f"{spec.advertised_bytes / 1e9:.2f} GB",
                spec.cell_type.name,
                spec.endurance,
                f"{spec.mapping_unit_pages * 4} KiB",
                "yes" if spec.hybrid else "no",
                "yes" if spec.indicator_supported else "no",
            ]
        )
    print(
        format_table(
            ["key", "device", "capacity", "cells", "endurance", "map unit", "hybrid", "indicator"],
            rows,
        )
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.capacity in DEVICE_SPECS:
        capacity = DEVICE_SPECS[args.capacity].advertised_bytes
    else:
        capacity = parse_size(args.capacity)
    estimate = estimate_lifetime(capacity, endurance=args.endurance)
    print(estimate.describe())
    days = estimate.lifetime_days_at_throughput(args.mib_per_s)
    print(f"at {args.mib_per_s:g} MiB/s sustained: {days:.1f} days to end of life")
    print("(the paper measures mobile devices falling ~3x short of this)")
    return 0


def cmd_bandwidth(args: argparse.Namespace) -> int:
    spec = DEVICE_SPECS[args.device]
    points = sweep_block_sizes(
        lambda: spec.build(scale=args.scale, seed=args.seed), args.pattern, seed=args.seed
    )
    print(bandwidth_table(points))
    return 0


def cmd_timing(args: argparse.Namespace) -> int:
    spec = DEVICE_SPECS[args.device]
    event_points = sweep_block_sizes(
        lambda: spec.build(
            scale=args.scale, seed=args.seed,
            timing="event", queue_depth=args.queue_depth,
        ),
        args.pattern,
        seed=args.seed,
    )
    analytic_points = sweep_block_sizes(
        lambda: spec.build(scale=args.scale, seed=args.seed),
        args.pattern,
        seed=args.seed,
    )
    rows = []
    for event, analytic in zip(event_points, analytic_points):
        size = event.request_bytes
        label = f"{size // 1024} KiB" if size >= 1024 else f"{size} B"
        ratio = (
            max(event.mib_per_s, analytic.mib_per_s)
            / min(event.mib_per_s, analytic.mib_per_s)
            if min(event.mib_per_s, analytic.mib_per_s) > 0
            else float("inf")
        )
        rows.append([
            label,
            f"{event.mib_per_s:.1f}",
            f"{analytic.mib_per_s:.1f}",
            f"{ratio:.2f}x",
        ])
    qd = args.queue_depth if args.queue_depth is not None else 8
    print(
        f"{spec.name}: {args.pattern} writes, queue depth {qd} — "
        "event-derived vs calibrated bandwidth (MiB/s)"
    )
    print(format_table(["request", "event", "analytic", "ratio"], rows))
    print(
        "(event = simulated channels/planes/cache, DESIGN.md §13; "
        "analytic = Figure 1's calibrated curve; wear is bit-identical)"
    )
    return 0


def cmd_wearout(args: argparse.Namespace) -> int:
    device = build_device(args.device, scale=args.scale, seed=args.seed)
    fs = make_filesystem(args.fs, device)
    workload = FileRewriteWorkload(
        fs,
        num_files=args.files,
        request_bytes=parse_size(args.request_size),
        pattern=args.pattern,
        seed=args.seed,
    )
    result = WearOutExperiment(device, workload, filesystem=fs).run(until_level=args.level)
    print(increments_table(result))
    print()
    print(result.summary())
    report = device.health_report()
    print(f"write amplification: {report.write_amplification:.2f}")
    return 0


def cmd_phone(args: argparse.Namespace) -> int:
    device = build_device(args.device, scale=args.scale, seed=args.seed)
    phone = Phone(device, filesystem=args.fs)
    attack = WearAttackApp(strategy=args.strategy, seed=args.seed)
    phone.install(attack)
    report = phone.run(hours=args.hours, tick_seconds=120.0)

    print(f"strategy: {args.strategy}, simulated {report.simulated_seconds / HOUR:.1f} h")
    print(f"attack wrote {report.app_bytes.get(attack.name, 0) / GIB:.2f} GiB")
    print(f"duty cycle: {report.attack_duty_cycle:.0%}")
    if report.detections:
        for event in report.detections:
            print(f"DETECTED by {event.monitor} at {event.t_seconds / HOUR:.1f} h: {event.detail}")
    else:
        print("detections: none")
    if report.bricked:
        print(f"PHONE BRICKED after {report.bricked_at / HOUR / 24:.1f} days")
    else:
        print(f"storage health: {device.health_report().describe()}")
    return 0


def _store_for(store_dir: str, campaign_name: str) -> ResultStore:
    return ResultStore(pathlib.Path(store_dir) / f"{campaign_name}.jsonl")


def _run_profiled(args: argparse.Namespace, runner, stem: str):
    """``runner.run`` with the command's workers, ``--fresh`` and
    progress lines.  Under ``--profile`` it runs in process inside
    cProfile and writes the hotspot table (top functions by cumulative
    time) next to the store as ``<stem>_profile.txt``."""
    progress = None if args.quiet else print
    if not args.profile:
        return runner.run(workers=args.workers, fresh=args.fresh, progress=progress)
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = runner.run(workers=1, fresh=args.fresh, progress=progress)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(25)
    profile_path = runner.store.path.with_name(f"{stem}_profile.txt")
    profile_path.write_text(buffer.getvalue())
    print(f"hotspot table written: {profile_path}")
    return report


def cmd_campaign(args: argparse.Namespace) -> int:
    spec = get_campaign(args.name)
    store = _store_for(args.store_dir, args.name)
    runner = CampaignRunner(
        spec,
        store,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
    )
    with metrics_enabled() if args.metrics else contextlib.nullcontext():
        report = _run_profiled(args, runner, args.name)
    print(report.describe())
    print(f"store: {store.path} ({len(store)} points, fingerprint {store.fingerprint()[:16]})")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (
        FleetRunner,
        attacker_prevalence_fleet,
        fleet_detection,
        render_survival,
        write_survival_jsonl,
    )
    from repro.rng import DEFAULT_SEED

    spec = attacker_prevalence_fleet(
        args.name,
        population=args.population,
        prevalence=args.prevalence,
        device=args.device,
        scale=args.scale,
        until_level=args.until_level,
        base_seed=DEFAULT_SEED if args.seed is None else args.seed,
    )
    store = _store_for(args.store_dir, f"fleet_{args.name}")
    runner = FleetRunner(spec, store)
    report = _run_profiled(args, runner, f"fleet_{args.name}")

    results = runner.results()
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = write_survival_jsonl(
        out_dir / f"fleet_{args.name}_survival.jsonl", args.name, results
    )
    figure = render_survival(results)
    figure_path = out_dir / f"fleet_{args.name}_survival.txt"
    figure_path.write_text(figure + "\n")

    detection = fleet_detection(results)
    det_rows = [
        [row["label"], row["population"], f"{row['score']:.4f}",
         "FLAGGED" if row["flagged"] else "ok"]
        for row in detection["cohorts"]
    ]
    print(report.describe())
    print()
    print(figure)
    print()
    print(format_table(["cohort", "devices", "score", "detection"], det_rows))
    print(
        f"flagged: {detection['flagged_devices']}/{detection['population']} devices "
        f"({detection['flagged_fraction']:.2%})"
    )
    print(f"wrote {curves_path}")
    print(f"wrote {figure_path}")
    print(f"store: {store.path} ({len(store)} cohorts, fingerprint {store.fingerprint()[:16]})")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    names = args.campaigns or sorted(FIGURES)
    out_dir = pathlib.Path(args.out)
    failures = 0
    for name in names:
        spec = get_campaign(name)
        store = _store_for(args.store_dir, name)
        if args.run:
            report = CampaignRunner(spec, store).run(workers=args.workers)
            print(report.describe())
        try:
            artifacts = FIGURES[name](store, spec)
        except ConfigurationError as exc:
            print(f"SKIP {name}: {exc}")
            failures += 1
            continue
        out_dir.mkdir(parents=True, exist_ok=True)
        for stem, text in artifacts.items():
            path = out_dir / f"{stem}.txt"
            path.write_text(text + "\n")
            print(f"wrote {path}")
    return 1 if failures else 0


def cmd_state(args: argparse.Namespace) -> int:
    from repro.state import CheckpointError, inspect_checkpoint

    path = pathlib.Path(args.checkpoint)
    try:
        info = inspect_checkpoint(path)
    except (OSError, CheckpointError) as exc:
        print(f"inspect failed: {exc}", file=sys.stderr)
        return 1
    print(f"checkpoint: {path}")
    for field in ("version", "steps_completed", "last_levels", "checkpoint"):
        if field in info:
            print(f"  {field}: {info[field]}")
    rows = [
        [name, "x".join(str(d) for d in spec["shape"]) or "scalar", spec["dtype"]]
        for name, spec in sorted(info["arrays"].items())
    ]
    print()
    print(format_table(["array", "shape", "dtype"], rows))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    source = pathlib.Path(args.source)
    if not source.exists():
        candidate = pathlib.Path(args.store_dir) / f"{args.source}.jsonl"
        if candidate.exists():
            source = candidate
    try:
        print(render_report(source))
    except ConfigurationError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "devices": cmd_devices,
    "estimate": cmd_estimate,
    "bandwidth": cmd_bandwidth,
    "timing": cmd_timing,
    "wearout": cmd_wearout,
    "phone": cmd_phone,
    "campaign": cmd_campaign,
    "fleet": cmd_fleet,
    "figures": cmd_figures,
    "report": cmd_report,
    "state": cmd_state,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
