"""MemoStore: cost-aware bounded eviction and persistence."""

import json

import pytest

from repro.server.memo import MemoStore


def fill(store, count, *, cost=1.0, payload_bytes=16):
    for index in range(count):
        store.put(
            f"key-{index:03d}",
            {"value": "x" * payload_bytes, "index": index},
            cost=cost,
        )


class TestCoreOperations:
    def test_put_get_round_trip(self):
        store = MemoStore()
        store.put("k", {"a": [1, 2]}, cost=1.0)
        assert store.get("k") == {"a": [1, 2]}
        assert "k" in store and len(store) == 1

    def test_miss_returns_none_and_counts(self):
        store = MemoStore()
        assert store.get("absent") is None
        assert store.stats()["misses"] == 1

    def test_get_returns_isolated_copy(self):
        store = MemoStore()
        store.put("k", {"nested": {"list": [1]}}, cost=1.0)
        first = store.get("k")
        first["nested"]["list"].append(99)
        assert store.get("k") == {"nested": {"list": [1]}}

    def test_put_keeps_caller_payload(self):
        # the stored payload is the caller's object, shared by every hit
        store = MemoStore()
        payload = {"list": [1]}
        store.put("k", payload, cost=1.0)
        assert store.lookup("k").payload is payload

    def test_reput_replaces(self):
        store = MemoStore()
        store.put("k", {"v": 1}, cost=1.0)
        store.put("k", {"v": 2}, cost=1.0)
        assert store.get("k") == {"v": 2}
        assert len(store) == 1


class TestEvictionBounds:
    def test_entry_bound_under_fifty_job_load(self):
        store = MemoStore(max_entries=8, max_bytes=1 << 20)
        fill(store, 50)
        assert len(store) <= 8
        assert store.stats()["evictions"] == 42

    def test_byte_bound_under_fifty_job_load(self):
        store = MemoStore(max_entries=256, max_bytes=512)
        fill(store, 50, payload_bytes=64)
        assert store.total_bytes() <= 512
        assert len(store) >= 1

    def test_oversized_single_payload_kept_alone(self):
        store = MemoStore(max_entries=8, max_bytes=128)
        fill(store, 4, payload_bytes=16)
        store.put("huge", {"value": "x" * 4096}, cost=9.0)
        assert len(store) == 1
        assert store.get("huge") is not None

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            MemoStore(max_entries=0)
        with pytest.raises(ValueError):
            MemoStore(max_bytes=0)


class TestCostAwareness:
    def test_expensive_entry_survives_cheap_churn(self):
        store = MemoStore(max_entries=4)
        store.put("expensive", {"value": "x" * 16}, cost=1000.0)
        fill(store, 20, cost=0.001)
        assert store.get("expensive") is not None

    def test_insertion_recency_respected_across_epochs(self):
        # uniform cost/size: later epochs outrank earlier ones
        store = MemoStore(max_entries=2)
        for key in ("a", "b", "c", "d"):
            store.put(key, {"value": "x" * 16}, cost=1.0)
        assert set(e.key for e in store.entries()) == {"c", "d"}

    def test_hit_refresh_outlives_unrefreshed_peer(self):
        store = MemoStore(max_entries=2)
        store.put("a", {"value": "x" * 16}, cost=2.0)
        store.put("b", {"value": "x" * 16}, cost=1.0)
        store.put("c", {"value": "x" * 16}, cost=1.0)  # evicts b
        assert "b" not in store
        assert store.get("a") is not None  # refresh at the new clock
        store.put("d", {"value": "x" * 16}, cost=1.0)  # evicts c, not a
        assert set(e.key for e in store.entries()) == {"a", "d"}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "memo.json")
        store = MemoStore(max_entries=8)
        store.put("k1", {"v": 1}, cost=2.0)
        store.put("k2", {"v": [1, 2]}, cost=3.0)
        store.get("k1")
        store.save(path)
        loaded = MemoStore.load(path, max_entries=8)
        assert len(loaded) == 2
        assert loaded.get("k1") == {"v": 1}
        assert loaded.get("k2") == {"v": [1, 2]}

    def test_load_rebounds_against_tighter_limits(self, tmp_path):
        path = str(tmp_path / "memo.json")
        store = MemoStore(max_entries=16)
        fill(store, 10)
        store.save(path)
        loaded = MemoStore.load(path, max_entries=3)
        assert len(loaded) <= 3

    def test_missing_file_yields_empty_store(self, tmp_path):
        loaded = MemoStore.load(str(tmp_path / "absent.json"))
        assert len(loaded) == 0

    def test_corrupt_file_yields_empty_store(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text("{not json")
        assert len(MemoStore.load(str(path))) == 0

    def test_wrong_schema_yields_empty_store(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        assert len(MemoStore.load(str(path))) == 0

    def test_torn_entries_skipped(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "entries": [
                        {"key": "good", "payload": {"v": 1}, "cost": 1.0},
                        {"key": "torn"},  # missing payload/cost
                    ],
                }
            )
        )
        loaded = MemoStore.load(str(path))
        assert len(loaded) == 1
        assert loaded.get("good") == {"v": 1}
