"""Tests for the resumable JSON-lines result store."""

import json

import pytest

from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError


def record(key, value, telemetry=None):
    return {
        "key": key,
        "campaign": "t",
        "spec": {"device": "emmc-8gb"},
        "seed": 7,
        "result": {"value": value},
        "telemetry": telemetry or {"elapsed_s": 0.5, "worker_pid": 1234},
    }


class TestPersistence:
    def test_append_then_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(record("aa", 1))
        store.append(record("bb", 2))

        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert "aa" in reloaded and "bb" in reloaded
        assert reloaded.get("aa")["result"] == {"value": 1}

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "store.jsonl"
        ResultStore(path).append(record("aa", 1))
        assert path.exists()

    def test_torn_trailing_line_is_dropped_and_compacted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(record("aa", 1))
        # Simulate a crash mid-write: a torn, unterminated JSON fragment.
        with path.open("a") as fh:
            fh.write('{"key": "bb", "result": {"va')

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert "bb" not in reloaded
        # The file was compacted back to clean JSONL: appending works
        # and every line parses.
        reloaded.append(record("cc", 3))
        lines = path.read_text().splitlines()
        assert [json.loads(l)["key"] for l in lines] == ["aa", "cc"]

    def test_unterminated_last_record_is_kept_and_compacted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(record("aa", 1))
        store.append(record("bb", 2))
        # A complete last record whose newline never reached the disk.
        path.write_text(path.read_text().rstrip("\n"))

        reloaded = ResultStore(path)
        assert reloaded.completed_keys() == {"aa", "bb"}
        # The next append must start a line of its own: no record is
        # lost on the load after it.
        reloaded.append(record("cc", 3))
        assert ResultStore(path).completed_keys() == {"aa", "bb", "cc"}
        lines = path.read_text().splitlines()
        assert [json.loads(l)["key"] for l in lines] == ["aa", "bb", "cc"]

    def test_invalidate_deletes_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(record("aa", 1))
        store.invalidate()
        assert len(store) == 0
        assert not path.exists()

    def test_in_memory_mode(self):
        store = ResultStore(None)
        store.append(record("aa", 1))
        assert len(store) == 1
        store.invalidate()
        assert len(store) == 0

    def test_records_need_a_key(self):
        with pytest.raises(ConfigurationError):
            ResultStore(None).append({"result": {}})


class TestCanonicalView:
    def test_sorted_by_key_and_telemetry_stripped(self):
        store = ResultStore(None)
        store.append(record("bb", 2, telemetry={"elapsed_s": 9.9, "worker_pid": 1}))
        store.append(record("aa", 1, telemetry={"elapsed_s": 0.1, "worker_pid": 2}))
        canonical = store.canonical_records()
        assert [r["key"] for r in canonical] == ["aa", "bb"]
        assert all("telemetry" not in r for r in canonical)

    def test_insertion_order_never_matters(self):
        fwd, rev = ResultStore(None), ResultStore(None)
        fwd.append(record("aa", 1, telemetry={"elapsed_s": 1.0}))
        fwd.append(record("bb", 2, telemetry={"elapsed_s": 2.0}))
        rev.append(record("bb", 2, telemetry={"elapsed_s": 5.0}))
        rev.append(record("aa", 1, telemetry={"elapsed_s": 0.0}))
        assert fwd.canonical_bytes() == rev.canonical_bytes()
        assert fwd.fingerprint() == rev.fingerprint()

    def test_result_changes_change_the_fingerprint(self):
        a, b = ResultStore(None), ResultStore(None)
        a.append(record("aa", 1))
        b.append(record("aa", 2))
        assert a.fingerprint() != b.fingerprint()

    def test_empty_store_canonical_bytes(self):
        assert ResultStore(None).canonical_bytes() == b""

    def test_reappending_same_key_overwrites_in_memory(self):
        store = ResultStore(None)
        store.append(record("aa", 1))
        store.append(record("aa", 5))
        assert len(store) == 1
        assert store.get("aa")["result"] == {"value": 5}
