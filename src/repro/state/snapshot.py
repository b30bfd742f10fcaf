"""Deterministic wear-state snapshots (DESIGN.md §10).

Capture/restore for every simulator layer a wear-out experiment
mutates: the flash package (P/E arrays, bad mask, counters, healing
clock), the FTL (mapping tables, validity tracking, closed blocks,
free-list order, wear-leveling state, stats, the read-error RNG), the
hybrid two-pool wrapper, the device's host counters, the filesystem
(allocator cursor, files, dirty page cache, journal/node cursors) and
the rewrite workload (round-robin cursor, pattern RNGs).

The contract is *bit identity*: restoring a snapshot into a freshly
built twin (same device spec, scale, and seed) and continuing the run
produces byte-for-byte the results of the uninterrupted run.  Three
properties make that cheap to guarantee:

* everything configuration-derived (geometry, per-block cycle limits,
  bandwidth curves) is rebuilt identically from the spec + seed, so
  snapshots carry only *mutable* state plus a config digest that
  restore verifies;
* scratch buffers whose contents are provably written before read
  (``_occ_scratch``, the position/PPU buffers) and the lazily
  recomputed effective-P/E cache are excluded — restore invalidates
  the cache and the next access recomputes the exact values the
  in-place patching would have maintained;
* RNG streams round-trip through ``Generator.bit_generator.state``,
  and order-sensitive containers (the FTL free list, the filesystem's
  file table) are serialized in order.

A snapshot is a nested dict of JSON-able scalars and numpy arrays;
:func:`save_state`/:func:`load_state` persist it as one compressed
``.npz`` (arrays as entries, everything else as a JSON metadata tree).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.core.results import WearOutResult
from repro.devices.interface import BlockDevice
from repro.errors import ConfigurationError
from repro.ftl.ftl import PageMappedFTL
from repro.workloads.patterns import RandomPattern, SequentialPattern, StridePattern

#: Bump when the snapshot layout changes; loaders reject other versions.
STATE_FORMAT_VERSION = 1


class CheckpointError(ConfigurationError):
    """A snapshot could not be restored into the given simulator state."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckpointError(message)


# ----------------------------------------------------------------------
# Flash package
# ----------------------------------------------------------------------


def package_config_digest(package) -> str:
    """Digest of the configuration-derived package state a snapshot
    relies on being rebuilt identically (geometry, endurance draw)."""
    h = hashlib.sha256()
    geom = package.geometry
    h.update(repr((geom.page_size, geom.pages_per_block, geom.num_blocks)).encode())
    h.update(repr((package.cell_spec.endurance,
                   package.healing.recoverable_fraction)).encode())
    h.update(np.ascontiguousarray(package._cycle_limit).tobytes())
    return h.hexdigest()[:16]


def capture_package(package) -> Dict[str, Any]:
    counters = package.counters
    return {
        "config_digest": package_config_digest(package),
        "pe_permanent": package._pe_permanent.copy(),
        "pe_recoverable": package._pe_recoverable.copy(),
        "bad": package._bad.copy(),
        "num_bad": int(package._num_bad),
        "last_heal_time": float(package._last_heal_time),
        "counters": {
            "page_programs": int(counters.page_programs),
            "block_erases": int(counters.block_erases),
            "page_reads": int(counters.page_reads),
        },
    }


def restore_package(package, state: Dict[str, Any]) -> None:
    _require(
        state["config_digest"] == package_config_digest(package),
        "package configuration mismatch — checkpoint was taken on a "
        "different device build (spec, scale, or seed differ)",
    )
    package._pe_permanent[:] = state["pe_permanent"]
    package._pe_recoverable[:] = state["pe_recoverable"]
    package._bad[:] = state["bad"]
    package._num_bad = int(state["num_bad"])
    package._last_heal_time = float(state["last_heal_time"])
    counters = state["counters"]
    package.counters.page_programs = int(counters["page_programs"])
    package.counters.block_erases = int(counters["block_erases"])
    package.counters.page_reads = int(counters["page_reads"])
    # The lazy cache recomputes bit-exactly from the restored arrays.
    package._pe_cache_valid = False


# ----------------------------------------------------------------------
# FTL (single pool / hybrid)
# ----------------------------------------------------------------------


def capture_ftl(ftl: PageMappedFTL) -> Dict[str, Any]:
    return {
        "package": capture_package(ftl.package),
        "l2p": ftl._l2p.copy(),
        "p2l": ftl._p2l.copy(),
        "valid": ftl._valid.copy(),
        "valid_count": ftl._valid_count.copy(),
        "closed": ftl._closed.copy(),
        # Free-list *order* matters: allocation pops the head in FIFO
        # mode, so a sorted copy would change block placement.
        "free_blocks": [int(b) for b in ftl._free_blocks],
        "active_block": None if ftl._active_block is None else int(ftl._active_block),
        "active_offset": int(ftl._active_offset),
        "erases_since_wl_check": int(ftl._erases_since_wl_check),
        "read_only": bool(ftl.read_only),
        "stats": {name: int(value) for name, value in vars(ftl.stats).items()},
        "read_rng": ftl._read_rng.bit_generator.state,
    }


def restore_ftl(ftl: PageMappedFTL, state: Dict[str, Any]) -> None:
    _require(
        ftl._l2p.shape == np.shape(state["l2p"]),
        "FTL mapping-table shape mismatch — checkpoint from a different geometry",
    )
    restore_package(ftl.package, state["package"])
    ftl._l2p[:] = state["l2p"]
    ftl._p2l[:] = state["p2l"]
    ftl._valid[:] = state["valid"]
    ftl._valid_count[:] = state["valid_count"]
    # The closed blocks are the GC candidates and ``valid_count`` their
    # counts.  Checkpoints written while the FTL kept a separate victim
    # queue also carry its ``gc_*`` entries (per-block counts, tracked
    # total, min hint); they duplicate this state and are ignored.
    ftl._closed[:] = state["closed"]
    ftl._free_blocks[:] = [int(b) for b in state["free_blocks"]]
    active = state["active_block"]
    ftl._active_block = None if active is None else int(active)
    ftl._active_offset = int(state["active_offset"])
    ftl._erases_since_wl_check = int(state["erases_since_wl_check"])
    ftl.read_only = bool(state["read_only"])
    ftl._eol_ahead = False
    for name, value in state["stats"].items():
        setattr(ftl.stats, name, int(value))
    ftl._read_rng.bit_generator.state = state["read_rng"]


def pool_keys(device: BlockDevice) -> Dict[str, str]:
    """The key of each of ``device``'s pools (:attr:`BlockDevice.pools`,
    by memory type) in its snapshot's ``ftl`` state: ``pool`` for a
    one-pool device, ``pool_a`` and ``pool_b`` for a hybrid's."""
    if len(device.pools) == 1:
        return {"A": "pool"}
    return {mem: f"pool_{mem.lower()}" for mem in device.pools}


def capture_device(device: BlockDevice) -> Dict[str, Any]:
    keys = pool_keys(device)
    ftl_state: Dict[str, Any] = {"hybrid": len(keys) > 1}
    for mem, key in keys.items():
        ftl_state[key] = capture_ftl(device.pools[mem])
    if ftl_state["hybrid"]:
        ftl_state["staging_cursor"] = int(device.ftl._staging_cursor)
        ftl_state["host_pages_requested"] = int(device.ftl.host_pages_requested)
    return {
        "name": device.name,
        "scale": int(device.scale),
        "host_bytes_written": int(device.host_bytes_written),
        "host_bytes_read": int(device.host_bytes_read),
        "busy_seconds": float(device.busy_seconds),
        "failed": bool(device.failed),
        "ftl": ftl_state,
    }


def restore_device(device: BlockDevice, state: Dict[str, Any]) -> None:
    _require(
        state["name"] == device.name and int(state["scale"]) == device.scale,
        f"device mismatch — checkpoint is for {state['name']!r} at scale "
        f"{state['scale']}, restoring into {device.name!r} at scale {device.scale}",
    )
    ftl_state = state["ftl"]
    keys = pool_keys(device)
    hybrid = len(keys) > 1
    _require(
        bool(ftl_state["hybrid"]) == hybrid,
        "checkpoint is not from a hybrid device" if hybrid else "checkpoint is from a hybrid device",
    )
    for mem, key in keys.items():
        restore_ftl(device.pools[mem], ftl_state[key])
    if hybrid:
        device.ftl._staging_cursor = int(ftl_state["staging_cursor"])
        device.ftl.host_pages_requested = int(ftl_state["host_pages_requested"])
    device.host_bytes_written = int(state["host_bytes_written"])
    device.host_bytes_read = int(state["host_bytes_read"])
    device.busy_seconds = float(state["busy_seconds"])
    device.failed = bool(state["failed"])


# ----------------------------------------------------------------------
# Filesystem
# ----------------------------------------------------------------------

#: Mutable subclass attributes beyond the FileSystem base state, keyed
#: by the filesystem's ``name`` — journal / node-area write cursors.
_FS_EXTRA_ATTRS = {
    "ext4": ("_journal_cursor", "_pages_since_commit", "journal_bytes_written"),
    "f2fs": ("_node_cursor", "_node_debt", "node_bytes_written"),
}


def capture_filesystem(fs) -> Dict[str, Any]:
    extras = {
        attr: getattr(fs, attr) for attr in _FS_EXTRA_ATTRS.get(fs.name, ())
    }
    return {
        "fs_name": fs.name,
        "alloc_cursor": int(fs._alloc_cursor),
        "app_bytes_written": int(fs.app_bytes_written),
        # File-table order matters (sync_all iterates insertion order);
        # dirty sets are order-free (fsync sorts) so store them sorted.
        "files": [[f.name, int(f.extent_start), int(f.size)] for f in fs._files.values()],
        "dirty": {name: sorted(int(p) for p in pages) for name, pages in fs._dirty.items()},
        "extras": extras,
    }


def restore_filesystem(fs, state: Dict[str, Any]) -> None:
    _require(
        state["fs_name"] == fs.name,
        f"filesystem mismatch — checkpoint is {state['fs_name']!r}, "
        f"restoring into {fs.name!r}",
    )
    files: Dict[str, Any] = {}
    for name, extent_start, size in state["files"]:
        handle = fs._files.get(name)
        if handle is None:
            from repro.fs.interface import File

            handle = File(name=name, extent_start=int(extent_start), size=int(size))
        else:
            # Reuse the live handle (workloads hold references to it) but
            # force its fields to the snapshotted values.
            handle.extent_start = int(extent_start)
            handle.size = int(size)
        files[name] = handle
    fs._files = files
    fs._dirty = {name: set(pages) for name, pages in state["dirty"].items()}
    fs._dirty_total = sum(len(pages) for pages in fs._dirty.values())
    fs._alloc_cursor = int(state["alloc_cursor"])
    fs.app_bytes_written = int(state["app_bytes_written"])
    for attr, value in state["extras"].items():
        setattr(fs, attr, type(getattr(fs, attr))(value))


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def capture_workload(workload) -> Dict[str, Any]:
    generators = []
    for gen in workload._generators:
        if isinstance(gen, RandomPattern):
            generators.append({"kind": "rand", "rng": gen._rng.bit_generator.state})
        elif isinstance(gen, SequentialPattern):
            generators.append({"kind": "seq", "cursor": int(gen._cursor)})
        elif isinstance(gen, StridePattern):
            generators.append({"kind": "stride", "cursor": int(gen._cursor)})
        else:
            raise CheckpointError(f"cannot snapshot pattern generator {type(gen).__name__}")
    return {
        "pattern": workload.pattern,
        "request_bytes": int(workload.request_bytes),
        "batch_requests": int(workload.batch_requests),
        "next_file": int(workload._next_file),
        "rng": workload._rng.bit_generator.state,
        "files": [f.name for f in workload.files],
        "generators": generators,
    }


def restore_workload(workload, state: Dict[str, Any], fs=None) -> None:
    # A delegating wrapper (``__getattr__`` forwarding, which the
    # experiment loop supports) reads through to its inner workload but
    # keeps assignments for itself: restore the workload that owns the
    # state.
    workload = workload._set_pattern_state.__self__
    _require(
        workload.pattern == state["pattern"]
        and workload.request_bytes == int(state["request_bytes"])
        and workload.batch_requests == int(state["batch_requests"])
        and [f.name for f in workload.files] == list(state["files"]),
        "workload configuration mismatch — checkpoint was taken with "
        "different rewrite targets or request parameters",
    )
    if fs is not None:
        # Rebind to the restored file handles so future writes follow
        # the snapshotted extents, not the twin's construction-time ones.
        workload.files = [fs._files[name] for name in state["files"]]
    workload._next_file = int(state["next_file"])
    workload._rng.bit_generator.state = state["rng"]
    for gen, gen_state in zip(workload._generators, state["generators"]):
        if gen_state["kind"] == "rand":
            _require(isinstance(gen, RandomPattern), "pattern generator kind mismatch")
            gen._rng.bit_generator.state = gen_state["rng"]
        else:
            cls = StridePattern if gen_state["kind"] == "stride" else SequentialPattern
            _require(isinstance(gen, cls), "pattern generator kind mismatch")
            gen._cursor = int(gen_state["cursor"])


# ----------------------------------------------------------------------
# Experiment
# ----------------------------------------------------------------------


def snapshot_experiment(experiment) -> Dict[str, Any]:
    """Full wear-state snapshot of a running
    :class:`~repro.core.experiment.WearOutExperiment`."""
    state: Dict[str, Any] = {
        "version": STATE_FORMAT_VERSION,
        "steps_completed": int(experiment.steps_completed),
        "clock_now": float(experiment.clock.now),
        "result": experiment.result.to_dict(),
        "last_levels": {k: int(v) for k, v in experiment._last_levels.items()},
        "phase_start": {
            k: [m.host_bytes, m.app_bytes, m.seconds]
            for k, m in experiment._phase_start.items()
        },
        "device": capture_device(experiment.device),
        "workload": capture_workload(experiment.workload),
    }
    if experiment.filesystem is not None:
        state["filesystem"] = capture_filesystem(experiment.filesystem)
    return state


def restore_experiment(experiment, state: Dict[str, Any]) -> None:
    """Restore a snapshot into a freshly built experiment twin.

    The experiment must have been constructed exactly as the
    snapshotted one was (same device spec/scale/seed, filesystem, and
    workload parameters); configuration digests and shape checks raise
    :class:`CheckpointError` on mismatch.  After restore, continuing the
    run reproduces the uninterrupted run bit-for-bit.
    """
    from repro.core.experiment import _PhaseMarker

    version = state.get("version")
    _require(
        version == STATE_FORMAT_VERSION,
        f"unsupported snapshot format version {version!r} "
        f"(this build reads version {STATE_FORMAT_VERSION})",
    )
    restore_device(experiment.device, state["device"])
    if experiment.filesystem is not None:
        _require("filesystem" in state, "checkpoint has no filesystem state")
        restore_filesystem(experiment.filesystem, state["filesystem"])
    restore_workload(experiment.workload, state["workload"], fs=experiment.filesystem)
    experiment.result = WearOutResult.from_dict(state["result"])
    experiment._last_levels = {k: int(v) for k, v in state["last_levels"].items()}
    experiment._phase_start = {
        k: _PhaseMarker(host_bytes=h, app_bytes=a, seconds=s)
        for k, (h, a, s) in state["phase_start"].items()
    }
    experiment._phase_wall = {}
    experiment.steps_completed = int(state["steps_completed"])
    experiment.clock._now = float(state["clock_now"])
    experiment.invalidate_poll_budget()


# ----------------------------------------------------------------------
# .npz persistence
# ----------------------------------------------------------------------

_META_KEY = "__meta__"
_ARRAY_PREFIX = "arr/"


def _split_arrays(node: Any, path: str, arrays: Dict[str, np.ndarray]) -> Any:
    """Replace every ndarray in the tree with None, collecting the
    arrays under their slash-joined paths."""
    if isinstance(node, np.ndarray):
        arrays[path] = node
        return None
    if isinstance(node, dict):
        return {
            key: _split_arrays(value, f"{path}/{key}" if path else str(key), arrays)
            for key, value in node.items()
        }
    if isinstance(node, (list, tuple)):
        return [_split_arrays(value, f"{path}/{i}", arrays) for i, value in enumerate(node)]
    return node


def save_state(path: Union[str, Path], state: Dict[str, Any]) -> Path:
    """Persist a snapshot as one compressed ``.npz``, atomically.

    Arrays become npz entries keyed by their tree path; every other
    value rides in one JSON metadata entry.  The write goes through a
    temp file + ``os.replace`` so concurrent campaign workers saving
    the same warm-start checkpoint never expose a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, np.ndarray] = {}
    meta = _split_arrays(state, "", arrays)
    payload = {_ARRAY_PREFIX + key: value for key, value in arrays.items()}
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **{_META_KEY: json.dumps(meta)}, **payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _graft_array(meta: Any, parts, value: np.ndarray) -> None:
    node = meta
    for part in parts[:-1]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    leaf = parts[-1]
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value


def load_state(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a snapshot saved by :func:`save_state`."""
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive[_META_KEY][()]))
        for name in archive.files:
            if name == _META_KEY:
                continue
            _graft_array(meta, name[len(_ARRAY_PREFIX):].split("/"), archive[name])
    return meta


def load_meta(path: Union[str, Path]) -> Dict[str, Any]:
    """Load only the JSON metadata tree (cheap: arrays stay on disk)."""
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(str(archive[_META_KEY][()]))


def inspect_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Metadata plus an array inventory for ``repro state inspect``."""
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive[_META_KEY][()]))
        arrays = {}
        for name in archive.files:
            if name == _META_KEY:
                continue
            arr = archive[name]
            arrays[name[len(_ARRAY_PREFIX):]] = {
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
            }
    meta["arrays"] = arrays
    return meta


__all__ = [
    "STATE_FORMAT_VERSION",
    "CheckpointError",
    "capture_device",
    "capture_filesystem",
    "capture_ftl",
    "capture_package",
    "capture_workload",
    "inspect_checkpoint",
    "load_meta",
    "load_state",
    "package_config_digest",
    "restore_device",
    "restore_experiment",
    "restore_filesystem",
    "restore_ftl",
    "restore_package",
    "restore_workload",
    "save_state",
    "snapshot_experiment",
]
