"""Tests for wear-state checkpointing and increment-aware polling.

Covers the three DESIGN.md §10 contracts (tests/test_execution_modes.py
searches the first and the last over drawn runs in every execution
mode; the pairs here are named regression cases):

* Snapshot round-trips — restoring a mid-run snapshot into a freshly
  built twin and continuing produces byte-identical results to the
  uninterrupted run; a shallower run's end state warm-starts a deeper
  one, on plain and hybrid devices and ext4/f2fs; mismatched twins are
  rejected;
* Warm-start cache — :class:`CheckpointManager` restores only
  compatible checkpoints (key, format version, stop level) and
  campaigns produce identical store fingerprints cold, warm, and over
  a worker pool;
* Fast polling — skipping ``wear_indicators()`` behind the conservative
  erase budget never changes a result relative to naive per-step
  polling, including under idle healing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import runner as campaign_runner
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, PointSpec
from repro.campaign.store import ResultStore
from repro.flash.healing import HealingModel
from repro.state import (
    STATE_FORMAT_VERSION,
    CheckpointError,
    CheckpointManager,
    inspect_checkpoint,
    load_meta,
    load_state,
    restore_experiment,
    save_state,
    snapshot_experiment,
    warm_start_key,
)
from tests.modes import device_fingerprint, make_experiment, outcome, result_json


class TestSnapshotRoundTrip:
    def test_restore_continue_is_bit_identical(self):
        cold = make_experiment()
        cold.run(until_level=3)

        probe = make_experiment()
        probe.run(until_level=3, max_steps=200)  # stop mid-run, off-crossing
        state = snapshot_experiment(probe)

        twin = make_experiment()
        restore_experiment(twin, state)
        assert twin.steps_completed == 200
        twin.run(until_level=3)

        assert result_json(twin) == result_json(cold)
        assert device_fingerprint(twin.device) == device_fingerprint(cold.device)

    def test_crossing_state_equals_shallower_run_end_state(self):
        """The warm-start soundness lemma: state at the level-L crossing
        == end state of a run with until_level=L."""
        shallow = make_experiment()
        shallow.run(until_level=2)

        deep = make_experiment()
        restore_experiment(deep, snapshot_experiment(shallow))
        deep.run(until_level=3)

        cold = make_experiment()
        cold.run(until_level=3)
        assert result_json(deep) == result_json(cold)
        assert device_fingerprint(deep.device) == device_fingerprint(cold.device)

    @pytest.mark.slow
    def test_hybrid_device_round_trip(self):
        cold = make_experiment(device="emmc-16gb", seed=3)
        cold.run(until_level=2)

        probe = make_experiment(device="emmc-16gb", seed=3)
        probe.run(until_level=2, max_steps=150)
        twin = make_experiment(device="emmc-16gb", seed=3)
        restore_experiment(twin, snapshot_experiment(probe))
        twin.run(until_level=2)

        assert result_json(twin) == result_json(cold)
        assert device_fingerprint(twin.device) == device_fingerprint(cold.device)

    def test_f2fs_round_trip(self):
        cold = make_experiment(fs_kind="f2fs")
        cold.run(until_level=2)

        probe = make_experiment(fs_kind="f2fs")
        probe.run(until_level=2, max_steps=120)
        twin = make_experiment(fs_kind="f2fs")
        restore_experiment(twin, snapshot_experiment(probe))
        twin.run(until_level=2)

        assert result_json(twin) == result_json(cold)
        assert device_fingerprint(twin.device) == device_fingerprint(cold.device)

    def test_restore_rejects_mismatched_seed(self):
        probe = make_experiment(seed=7)
        probe.run(until_level=2, max_steps=50)
        twin = make_experiment(seed=8)
        with pytest.raises(CheckpointError):
            restore_experiment(twin, snapshot_experiment(probe))

    def test_restore_rejects_mismatched_filesystem(self):
        probe = make_experiment(fs_kind="ext4")
        probe.run(until_level=2, max_steps=50)
        twin = make_experiment(fs_kind="f2fs")
        with pytest.raises(CheckpointError):
            restore_experiment(twin, snapshot_experiment(probe))


class TestStrideSnapshots:
    """Stride points (uFLIP's third micro-pattern) snapshot their
    cursors as their own generator kind, so they checkpoint and
    warm-start like rand and seq points."""

    def test_round_trip_is_byte_identical(self, tmp_path):
        probe = make_experiment(pattern="stride")
        probe.run(until_level=3, max_steps=200)
        state = snapshot_experiment(probe)
        assert [g["kind"] for g in state["workload"]["generators"]] == ["stride"] * 4
        saved = save_state(tmp_path / "probe.npz", state)

        twin = make_experiment(pattern="stride")
        restore_experiment(twin, load_state(saved))
        again = save_state(tmp_path / "twin.npz", snapshot_experiment(twin))
        assert again.read_bytes() == saved.read_bytes()

        twin.run(until_level=3)
        cold = make_experiment(pattern="stride")
        cold.run(until_level=3)
        assert result_json(twin) == result_json(cold)
        assert device_fingerprint(twin.device) == device_fingerprint(cold.device)

    def test_restore_checks_the_generator_kind(self):
        probe = make_experiment(pattern="stride")
        probe.run(until_level=2, max_steps=20)
        state = snapshot_experiment(probe)
        state["workload"]["generators"][0]["kind"] = "seq"
        with pytest.raises(CheckpointError, match="kind mismatch"):
            restore_experiment(make_experiment(pattern="stride"), state)

    def test_cold_checkpointed_and_warm_fingerprints_agree(self, tmp_path, monkeypatch):
        grid = CampaignSpec(
            name="stride",
            points=[
                PointSpec(kind="wearout", device="emmc-8gb", scale=512, filesystem="ext4",
                          pattern="stride", until_level=lvl, seed=3)
                for lvl in (2, 3)
            ],
            base_seed=1,
        )
        # A snapshot that fails to restore silently cold-starts the
        # point, so record the restores that succeed.
        restored = []
        restore = campaign_runner.restore_experiment

        def recording(experiment, state):
            restore(experiment, state)
            restored.append(experiment.steps_completed)

        monkeypatch.setattr(campaign_runner, "restore_experiment", recording)
        cold = ResultStore(None)
        CampaignRunner(grid, store=cold).run()
        for _ in ("checkpointed", "warm"):
            store = ResultStore(None)
            CampaignRunner(
                grid, store=store, checkpoint_dir=tmp_path, checkpoint_interval=100
            ).run()
            assert store.fingerprint() == cold.fingerprint()
        assert list(tmp_path.glob("*.npz"))
        assert restored and all(steps > 0 for steps in restored)


class TestSaveLoad:
    def test_npz_round_trip_preserves_tree(self, tmp_path):
        exp = make_experiment()
        exp.run(until_level=2, max_steps=100)
        state = snapshot_experiment(exp)
        path = save_state(tmp_path / "ck.npz", state)
        loaded = load_state(path)

        def compare(a, b, where="root"):
            assert type(a) is type(b) or (
                isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            ), where
            if isinstance(a, dict):
                assert sorted(a) == sorted(b), where
                for key in a:
                    compare(a[key], b[key], f"{where}/{key}")
            elif isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), where
            else:
                assert a == b, where

        compare(state, loaded)

    def test_restore_from_disk_is_bit_identical(self, tmp_path):
        cold = make_experiment()
        cold.run(until_level=2)

        probe = make_experiment()
        probe.run(until_level=2, max_steps=100)
        path = save_state(tmp_path / "ck.npz", snapshot_experiment(probe))

        twin = make_experiment()
        restore_experiment(twin, load_state(path))
        twin.run(until_level=2)
        assert result_json(twin) == result_json(cold)
        assert device_fingerprint(twin.device) == device_fingerprint(cold.device)

    def test_load_meta_has_no_arrays(self, tmp_path):
        exp = make_experiment()
        exp.run(until_level=2, max_steps=60)
        path = save_state(tmp_path / "ck.npz", snapshot_experiment(exp))
        meta = load_meta(path)
        assert meta["version"] == STATE_FORMAT_VERSION
        assert meta["steps_completed"] == 60

        def no_arrays(node):
            if isinstance(node, dict):
                return all(no_arrays(v) for v in node.values())
            return not isinstance(node, np.ndarray)

        assert no_arrays(meta)

    def test_inspect_lists_arrays(self, tmp_path):
        exp = make_experiment()
        exp.run(until_level=2, max_steps=40)
        path = save_state(tmp_path / "ck.npz", snapshot_experiment(exp))
        info = inspect_checkpoint(path)
        blocks = exp.device.ftl.package.num_blocks
        assert info["arrays"]["device/ftl/pool/package/pe_permanent"] == {
            "shape": [blocks], "dtype": "float64",
        }


class TestWarmStartKey:
    BASE = dict(kind="wearout", device="emmc-8gb", scale=512, seed=7,
                filesystem="ext4", until_level=3)

    def test_ignores_stop_level_label_and_seed_field(self):
        a = PointSpec(**self.BASE)
        b = PointSpec(**{**self.BASE, "until_level": 8, "label": "deep"})
        assert warm_start_key(a.to_dict(), 7) == warm_start_key(b.to_dict(), 7)

    def test_sensitive_to_trajectory_fields(self):
        a = PointSpec(**self.BASE)
        assert warm_start_key(a.to_dict(), 7) != warm_start_key(a.to_dict(), 8)
        for field, value in (
            ("device", "emmc-16gb"), ("scale", 256),
            ("filesystem", "f2fs"), ("pattern", "seq"),
        ):
            other = PointSpec(**{**self.BASE, field: value})
            assert warm_start_key(a.to_dict(), 7) != warm_start_key(other.to_dict(), 7)


class TestCheckpointManager:
    def _saved(self, tmp_path, key="k0", until_level=2, max_steps=None):
        exp = make_experiment()
        if max_steps is None:
            exp.run(until_level=until_level)
        else:
            exp.run(until_level=until_level, max_steps=max_steps)
        manager = CheckpointManager(tmp_path)
        kind = "interval" if max_steps is not None else "crossing"
        return manager, manager.save(exp, key, kind=kind)

    def test_best_picks_deepest_compatible(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for max_steps in (50, 150):
            exp = make_experiment()
            exp.run(until_level=3, max_steps=max_steps)
            manager.save(exp, "k0", kind="crossing")
        state = manager.best("k0", until_level=3)
        assert state["steps_completed"] == 150

    def test_best_excludes_states_at_stop_level(self, tmp_path):
        manager, _ = self._saved(tmp_path, until_level=2)
        assert manager.best("k0", until_level=2) is None
        state = manager.best("k0", until_level=3)
        assert state is not None and state["last_levels"] == {"A": 2}

    def test_best_ignores_other_keys(self, tmp_path):
        manager, _ = self._saved(tmp_path, key="aaaa", until_level=2)
        assert manager.best("bbbb", until_level=9) is None

    def test_corrupt_file_skipped(self, tmp_path):
        manager, _ = self._saved(tmp_path, until_level=2)
        # Deeper-named garbage must fall through to the good snapshot.
        (tmp_path / "k0-s999999999.npz").write_bytes(b"not a zipfile")
        state = manager.best("k0", until_level=3)
        assert state is not None and state["last_levels"] == {"A": 2}

    def test_version_mismatch_skipped(self, tmp_path):
        manager, path = self._saved(tmp_path, until_level=2)
        state = load_state(path)
        state["version"] = STATE_FORMAT_VERSION + 1
        save_state(tmp_path / "k0-s999999999.npz", state)
        best = manager.best("k0", until_level=3)
        assert best is not None and best["version"] == STATE_FORMAT_VERSION

    def test_wip_file_is_rolling(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        exp = make_experiment()
        exp.run(until_level=2, max_steps=40)
        first = manager.save(exp, "k0", kind="interval")
        exp.run(until_level=2, max_steps=40)
        second = manager.save(exp, "k0", kind="interval")
        assert first == second
        assert [p.name for p in manager.candidates("k0")] == ["k0-wip.npz"]
        assert load_meta(first)["steps_completed"] == 80

    def test_auto_checkpointing_while_running(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        exp = make_experiment()
        exp.enable_checkpointing(manager, "k0", interval_steps=100)
        exp.run(until_level=3)
        names = [p.name for p in manager.candidates("k0")]
        # One crossing file per level reached plus the rolling wip file.
        assert "k0-wip.npz" in names
        crossings = [n for n in names if n != "k0-wip.npz"]
        assert len(crossings) == 2  # levels 2 and 3

    def test_resume_from_wip_matches_uninterrupted(self, tmp_path):
        cold = make_experiment()
        cold.run(until_level=3)

        manager = CheckpointManager(tmp_path)
        exp = make_experiment()
        exp.enable_checkpointing(manager, "k0", interval_steps=100)
        exp.run(until_level=3, max_steps=150)  # "killed" mid-run

        twin = make_experiment()
        state = manager.best("k0", until_level=3)
        assert state is not None
        restore_experiment(twin, state)
        assert twin.steps_completed == 100  # last interval save
        twin.run(until_level=3)
        assert result_json(twin) == result_json(cold)
        assert device_fingerprint(twin.device) == device_fingerprint(cold.device)


class TestFastPollEquivalence:
    @pytest.mark.parametrize("device,fs_kind,seed", [
        ("emmc-8gb", "ext4", 7),
        ("emmc-8gb", "f2fs", 11),
        pytest.param("emmc-16gb", "ext4", 3,
                     marks=pytest.mark.slow),  # hybrid: two pools, two budgets
    ])
    def test_matches_naive_polling(self, device, fs_kind, seed):
        fast = make_experiment(device=device, fs_kind=fs_kind, seed=seed)
        naive = make_experiment(device=device, fs_kind=fs_kind, seed=seed,
                                fast_poll=False)
        fast.run(until_level=2)
        naive.run(until_level=2)
        assert outcome(fast) == outcome(naive)

    def test_matches_naive_under_healing(self):
        healing = HealingModel(recoverable_fraction=0.3, time_constant_days=2.0)
        runs = [
            make_experiment(healing=healing, idle_seconds=1800.0, fast_poll=fp)
            for fp in (True, False)
        ]
        for run in runs:
            run.run(until_level=2)
        assert outcome(runs[0]) == outcome(runs[1])

    def test_budget_skips_reads_but_never_crossings(self):
        reads = {}
        runs = {}
        for fast_poll in (True, False):
            exp = runs[fast_poll] = make_experiment(fast_poll=fast_poll)
            poll = exp.device.wear_indicators
            reads[fast_poll] = 0

            def counted(poll=poll, fast_poll=fast_poll):
                reads[fast_poll] += 1
                return poll()

            exp.device.wear_indicators = counted
            exp.run(until_level=2)
        fast, naive = runs[True], runs[False]
        # The fast run read the indicators strictly fewer times...
        assert reads[True] < reads[False]
        assert fast.steps_completed == naive.steps_completed
        # ...yet recorded the same crossings at the same step.
        assert [r.to_dict() for r in fast.result.increments] == [
            r.to_dict() for r in naive.result.increments
        ]


class TestCampaignWarmStart:
    def _grid(self):
        return CampaignSpec(
            name="warm",
            points=[
                PointSpec(kind="wearout", device="emmc-8gb", scale=512, seed=7,
                          filesystem="ext4", until_level=lvl)
                for lvl in (2, 3)
            ],
            base_seed=1,
        )

    def test_cold_warm_and_pool_fingerprints_agree(self, tmp_path):
        cold_store = ResultStore(None)
        CampaignRunner(self._grid(), store=cold_store).run()
        fp_cold = cold_store.fingerprint()

        warm_store = ResultStore(None)
        CampaignRunner(
            self._grid(), store=warm_store, checkpoint_dir=tmp_path / "ck"
        ).run()
        assert warm_store.fingerprint() == fp_cold
        assert list((tmp_path / "ck").glob("*.npz"))  # cache was populated

        # Second pass over the now-populated cache (pure warm start).
        warm2_store = ResultStore(None)
        CampaignRunner(
            self._grid(), store=warm2_store, checkpoint_dir=tmp_path / "ck"
        ).run()
        assert warm2_store.fingerprint() == fp_cold

        pool_store = ResultStore(None)
        CampaignRunner(
            self._grid(), store=pool_store, checkpoint_dir=tmp_path / "ck2"
        ).run(workers=2)
        assert pool_store.fingerprint() == fp_cold

    def test_checkpoint_payloads_only_when_enabled(self, tmp_path):
        plain = CampaignRunner(self._grid())
        assert all("checkpoint" not in p for p in plain.pending_points())
        warm = CampaignRunner(
            self._grid(), checkpoint_dir=tmp_path, checkpoint_interval=500
        )
        assert all(
            p["checkpoint"] == {"dir": str(tmp_path), "interval": 500}
            for p in warm.pending_points()
        )

    def test_stale_incompatible_cache_falls_back_to_cold(self, tmp_path):
        # A checkpoint whose key collides but whose content mismatches
        # (hand-built) must not poison the run: cold-start instead.
        grid = CampaignSpec(
            name="warm", base_seed=1,
            points=[PointSpec(kind="wearout", device="emmc-8gb", scale=512,
                              seed=7, filesystem="ext4", until_level=2)],
        )
        point = grid.points[0]
        key = warm_start_key(point.to_dict(), 7)
        probe = make_experiment(seed=8)  # wrong seed: config digest differs
        probe.run(until_level=2, max_steps=50)
        state = snapshot_experiment(probe)
        save_state(tmp_path / f"{key}-s000000050.npz", state)

        store = ResultStore(None)
        CampaignRunner(grid, store=store, checkpoint_dir=tmp_path).run()
        reference = ResultStore(None)
        CampaignRunner(grid, store=reference).run()
        assert store.fingerprint() == reference.fingerprint()
