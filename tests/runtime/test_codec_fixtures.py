"""Committed payloads decode and re-encode byte for byte.

The explorer's results, snapshots and checkpoint bodies are read back
from disk long after they were written: by a resume, and by a service
restarting from its memo store.  The fixtures under ``tests/data`` were
written by earlier versions of the codecs, so each one pins the at-rest
format: decoding a stored payload and encoding it again must give back
exactly the stored JSON.  The only keys allowed to appear are the ones
the result decoder defaults for payloads written before them (``schema``
and ``workers`` on the outcomes of the older checkpoint fixtures).
"""

import json
import os

import pytest

from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.explorer import (
    RESULT_SCHEMA,
    ExplorationResult,
    _cache_from_json,
    _cache_to_json,
    _Frame,
    _outcome_from_json,
    _outcome_to_json,
)
from repro.server.memo import MemoStore

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
SUBTREE_FIXTURES = ("s2a_n3_crash_plain.ckpt", "s2a_n3_crash_dedup_sleep.ckpt")
#: Keys the result decoder defaults for payloads written before them.
DEFAULTED = {"schema": RESULT_SCHEMA, "workers": 1}


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


def body(name: str) -> dict:
    return read_checkpoint(os.path.join(DATA, name))


@pytest.mark.parametrize("name", SUBTREE_FIXTURES)
class TestSubtreeCheckpoint:
    def test_outcome(self, name):
        stored = body(name)["outcome"]
        result, ordinals = _outcome_from_json(stored)
        assert canonical(_outcome_to_json(result, ordinals)) == canonical(
            {**DEFAULTED, **stored}
        )

    def test_cache(self, name):
        stored = body(name)["cache"]
        cache = _cache_from_json(stored)
        assert canonical(_cache_to_json(cache)) == canonical(stored)

    def test_frames(self, name):
        stored = body(name)["frames"]
        assert stored
        frames = [_Frame.from_json(level) for level in stored]
        assert canonical([f.to_json() for f in frames]) == canonical(stored)


def test_parallel_shard_outcomes():
    # the parallel marker's merged shard outcomes predate the marker-only
    # format; each is still a readable result payload
    shards = body("s2a_n3_parallel.ckpt")["shards"]
    assert shards
    for stored in shards.values():
        result = ExplorationResult.from_json(stored)
        assert canonical(result.to_json()) == canonical(
            {**DEFAULTED, **stored}
        )


class TestMemoStore:
    PATH = os.path.join(DATA, "memo_store.json")

    def test_payloads_round_trip(self):
        store = MemoStore.load(self.PATH)
        entries = list(store.entries())
        assert len(entries) == 5
        assert any(
            v["permutation"] is not None
            for entry in entries
            for v in entry.payload["violations"]
        )
        for entry in entries:
            result = ExplorationResult.from_json(entry.payload)
            assert canonical(result.to_json()) == canonical(entry.payload)

    def test_save_writes_the_stored_bytes(self, tmp_path):
        path = os.path.join(tmp_path, "memo.json")
        MemoStore.load(self.PATH).save(path)
        with open(self.PATH) as stored, open(path) as saved:
            assert saved.read() == stored.read()
