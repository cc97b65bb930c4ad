"""The memo store: explored state spaces as shared, cacheable artifacts.

One exploration of a depth-8 configuration costs hundreds of thousands
of scheduled events; its :class:`~repro.runtime.explorer.ExplorationResult`
serializes to a few kilobytes.  The store keeps those results keyed by
:func:`~repro.server.descriptor.job_digest`, so an equivalent submission
— from the same client or a different one — is answered from memory
instead of the process pool.

Eviction is **cost-aware LRU** (GreedyDual-Size): every entry carries a
credit ``clock + cost / size``, where ``cost`` is the seconds the
exploration took and ``size`` its serialized byte estimate.  When the
store exceeds its bounds (entry count *or* estimated total bytes), the
entry with the lowest credit is evicted and the clock advances to its
credit — so cheap-to-recompute, bulky, long-unused results go first,
while an expensive exploration survives long stretches of small-job
traffic.  A hit refreshes the entry's credit at the current clock, so
with uniform ``cost/size`` the policy degenerates to LRU at the
granularity of eviction epochs (ties broken by key for determinism).

The store persists to a JSON file (:meth:`MemoStore.save` /
:meth:`MemoStore.load`) in recency order, which is what gives the
service warm restarts: digests are stable across interpreter runs, so a
restarted server answers yesterday's configurations instantly.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["MemoEntry", "MemoStore"]

#: On-disk format version (bumped on incompatible layout changes).
_PERSIST_SCHEMA = 1


@dataclass
class MemoEntry:
    """One memoized result with its eviction-policy bookkeeping."""

    key: str
    payload: dict
    #: Seconds the memoized exploration took — the recomputation cost
    #: eviction weighs against ``size``.
    cost: float
    #: Estimated serialized size in bytes (what the byte bound sums).
    size: int
    hits: int = 0
    #: GreedyDual credit: ``clock-at-touch + cost / size``.
    credit: float = 0.0


class MemoStore:
    """Bounded, cost-aware, persistable mapping from job digests to results.

    ``max_entries`` and ``max_bytes`` bound the store; both are enforced
    on every :meth:`put`.  A single payload larger than ``max_bytes`` is
    stored alone (the store never refuses the result it just paid for —
    it evicts everything else instead).
    """

    def __init__(
        self, *, max_entries: int = 256, max_bytes: int = 16 << 20
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: Insertion/refresh order is recency order (dict preserves it);
        #: eviction scans credits, recency only tie-breaks via _clock.
        self._entries: dict[str, MemoEntry] = {}
        self._clock = 0.0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core operations --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def total_bytes(self) -> int:
        """Current estimated footprint of all payloads."""
        return sum(entry.size for entry in self._entries.values())

    def lookup(self, key: str) -> MemoEntry | None:
        """The entry memoized under ``key``, or ``None``; no copy.

        Counts the hit or miss, and a hit refreshes the entry's recency
        and credit.  ``entry.payload`` is the stored artifact every
        future hit shares: read it, never mutate it.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._hits += 1
        entry.hits += 1
        entry.credit = self._clock + entry.cost / max(1, entry.size)
        # refresh recency: re-insert at the MRU end
        del self._entries[key]
        self._entries[key] = entry
        return entry

    def get(self, key: str) -> dict | None:
        """The payload memoized under ``key`` (a deep copy), or ``None``.

        :meth:`lookup` plus a copy: the returned payload is the
        caller's to mutate — the stored artifact is shared by every
        future hit and must stay pristine.
        """
        entry = self.lookup(key)
        return None if entry is None else copy.deepcopy(entry.payload)

    def put(self, key: str, payload: dict, *, cost: float) -> MemoEntry:
        """Memoize ``payload`` under ``key``, evicting to stay in bounds.

        ``cost`` is the recomputation price in seconds; ``size`` is
        estimated from the compact JSON serialization.  Re-putting an
        existing key replaces the payload and refreshes recency.  The
        store keeps ``payload`` itself, the object every future hit
        shares, so the caller must not mutate it afterwards.
        """
        size = len(
            json.dumps(payload, separators=(",", ":"), sort_keys=True)
        )
        if key in self._entries:
            del self._entries[key]
        entry = MemoEntry(
            key=key,
            payload=payload,
            cost=max(0.0, cost),
            size=size,
            credit=self._clock + max(0.0, cost) / max(1, size),
        )
        self._entries[key] = entry
        self._shrink()
        return entry

    def _shrink(self) -> None:
        """Evict lowest-credit entries until both bounds hold."""
        while len(self._entries) > self.max_entries or (
            len(self._entries) > 1 and self.total_bytes() > self.max_bytes
        ):
            victim = min(
                self._entries.values(), key=lambda e: (e.credit, e.key)
            )
            # GreedyDual: the clock inflates to the evicted credit, so
            # long-lived entries only survive on real cost, not age.
            self._clock = max(self._clock, victim.credit)
            del self._entries[victim.key]
            self._evictions += 1

    def entries(self) -> Iterator[MemoEntry]:
        """Entries in recency order, least recent first (no copy)."""
        return iter(self._entries.values())

    def stats(self) -> dict:
        """Counters for the service's ``stats`` verb."""
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the store to ``path`` atomically (write + rename).

        Entries are saved in recency order with their cost/size/hit
        bookkeeping, so a reloaded store evicts the same way the live
        one would have.
        """
        data = {
            "schema": _PERSIST_SCHEMA,
            "entries": [
                {
                    "key": entry.key,
                    "payload": entry.payload,
                    "cost": entry.cost,
                    "size": entry.size,
                    "hits": entry.hits,
                }
                for entry in self._entries.values()
            ],
        }
        # one C-encoded string: json.dump would stream through Python
        encoded = json.dumps(data)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            handle.write(encoded)
        os.replace(tmp, path)

    @classmethod
    def load(
        cls,
        path: str,
        *,
        max_entries: int = 256,
        max_bytes: int = 16 << 20,
    ) -> "MemoStore":
        """A store warmed from ``path`` (empty on missing/stale files).

        An unreadable or wrong-schema file yields an *empty* store
        rather than an error: the memo is a cache, and a cold start is
        always a safe answer.  Loaded entries are re-bounded against the
        configured limits, least-recent evicted first.
        """
        store = cls(max_entries=max_entries, max_bytes=max_bytes)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return store
        if not isinstance(data, dict) or data.get("schema") != _PERSIST_SCHEMA:
            return store
        for item in data.get("entries", []):
            try:
                entry = store.put(
                    str(item["key"]),
                    dict(item["payload"]),
                    cost=float(item["cost"]),
                )
                entry.hits = int(item.get("hits", 0))
            except (KeyError, TypeError, ValueError):
                continue  # skip torn entries, keep the rest
        return store
