"""Versioned, atomically-written checkpoints for the schedule explorer.

An interrupted exploration used to be lost work: the DFS frontier, the
transposition cache, and the partial counters lived only in process
memory.  This module gives them an at-rest form.  A checkpoint file is
one JSON envelope::

    {"integrity": "<digest>", "checkpoint": {"schema": 2, ...}}

where ``integrity`` is :func:`~repro.runtime.fingerprint.payload_digest`
over the canonical JSON encoding of the body — a truncated or
bit-flipped file is rejected loudly instead of resuming a corrupted
search.  The body is written in that canonical encoding, so it is
encoded once per write; the reader re-encodes whatever spacing it
finds, so files written with other spacing verify too.  A writer may
hand over a top-level value already encoded (:class:`CanonicalJSON`):
the explorer encodes each transposition-cache entry once per search,
at the first checkpoint after the entry is stored or taken over, and
each checkpoint joins the kept texts in key order.  The bytes on disk
are the same either way, so the format is unchanged.  Files are
written with the same atomic-replace discipline as the server's memo
store (tmp file + ``os.replace``), so readers never observe a
half-written checkpoint, and the previous checkpoint survives a crash
mid-write.

The body's ``config`` field is :func:`config_digest` over everything
that determines the search tree — system size, algorithm, scripts,
crash schedule, engine reductions, bounds — so a checkpoint can only
resume the exploration it was written for; resuming against a different
configuration raises :class:`CheckpointError` instead of silently
merging incompatible partial results.

The explorer-facing codecs here cover the search-state leaves shared
across engines: recorded event footprints and the sleep sets that
key them by choice.  The engine-private structures (subtree summaries,
cache entries, DFS frames) are encoded by :mod:`repro.runtime.explorer`,
which owns their types.

A sharded search checkpoints each shard to a side file next to its own
checkpoint; :func:`shard_checkpoint_path` names them and
:func:`discard_shard_checkpoints` removes them.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
from typing import Any, Mapping

from ..core.actions import PointToPointId
from .fingerprint import payload_digest, stable_digest
from .independence import Footprint

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CanonicalJSON",
    "CheckpointError",
    "canonical_json",
    "config_digest",
    "discard_shard_checkpoints",
    "footprint_from_json",
    "footprint_to_json",
    "read_checkpoint",
    "shard_checkpoint_path",
    "sleep_from_json",
    "sleep_to_json",
    "write_checkpoint",
]

#: Version of the checkpoint body layout.  Bumped whenever the frame,
#: cache, or outcome encodings change shape: a checkpoint written by an
#: incompatible engine version must never be resumed, only discarded.
#: Schema 2: footprints carry ``pending_deadlines`` and ``imminent``
#: (crash-aware commutation) and outcomes carry ``independence_stats``.
#: Outcomes are ``ExplorationResult`` payloads with ordinal-paired
#: violations, so they also carry that payload's ``schema`` and
#: ``workers`` keys.  Adding those two needed no bump: older readers
#: ignore keys they do not know, and the result decoder defaults both
#: when a checkpoint written before them lacks them.
CHECKPOINT_SCHEMA = 2


class CheckpointError(ValueError):
    """A checkpoint that cannot be read, verified, or resumed."""


# ---------------------------------------------------------------------------
# Leaf codecs: footprints and sleep sets
# ---------------------------------------------------------------------------


def footprint_to_json(footprint: Footprint) -> dict:
    """A lossless JSON dict for one recorded event footprint.

    ``crashed`` and ``pending`` belong to the schema-2 layout; they are
    written from the record's derived properties.
    """
    return {
        "kind": footprint.kind,
        "pids": sorted(footprint.pids),
        "sent": [[p.sender, p.receiver, p.seq] for p in footprint.sent],
        "oracle": footprint.oracle,
        "crashed": footprint.crashed,
        "pending": sorted(footprint.pending),
        "deadlines": [
            [p, step] for p, step in footprint.pending_deadlines
        ],
        "imminent": sorted(footprint.imminent),
        "crashed_pids": sorted(footprint.crashed_pids),
    }


def footprint_from_json(data: Mapping[str, Any]) -> Footprint:
    """Rebuild a :class:`Footprint` from :func:`footprint_to_json`.

    ``crashed`` and ``pending`` are ignored: the record derives them.
    """
    return Footprint(
        kind=str(data["kind"]),
        pids={int(p) for p in data["pids"]},
        sent=tuple(
            PointToPointId(int(s), int(r), int(q))
            for s, r, q in data["sent"]
        ),
        oracle=bool(data["oracle"]),
        pending_deadlines=tuple(
            (int(p), int(step)) for p, step in data.get("deadlines", ())
        ),
        imminent=frozenset(int(p) for p in data.get("imminent", ())),
        crashed_pids=frozenset(
            int(p) for p in data.get("crashed_pids", ())
        ),
    )


def sleep_to_json(sleep: Mapping[tuple, Footprint]) -> list:
    """A sleep set (key → slept event's footprint) as a JSON pair list.

    A key is a flat tuple of strings and ints (a ``choice_key``),
    written as a JSON list.
    """
    return [
        [list(key), footprint_to_json(footprint)]
        for key, footprint in sorted(
            sleep.items(), key=lambda item: repr(item[0])
        )
    ]


def sleep_from_json(data: list) -> dict:
    """Rebuild a sleep set from :func:`sleep_to_json`.

    JSON keeps the key's leaf types (strings stay strings, ints stay
    ints), so the tuple round-trips exactly — which matters: sleep-set
    membership is an exact-equality test.
    """
    return {
        tuple(key): footprint_from_json(footprint)
        for key, footprint in data
    }


# ---------------------------------------------------------------------------
# Configuration identity
# ---------------------------------------------------------------------------


def config_digest(**facets: Any) -> str:
    """A stable digest of an exploration configuration.

    The caller passes every facet that determines the search tree and
    the result semantics (the explorer passes system size, algorithm,
    scripts, crash schedule, engine reductions, and bounds).  Facet
    values go through the canonical encoding of
    :func:`~repro.runtime.fingerprint.stable_digest`, so dataclasses
    (crash schedules) and nested tuples (normalized scripts) digest
    structurally and machine-stably.
    """
    return stable_digest(
        "repro.checkpoint.config", tuple(sorted(facets.items()))
    )


# ---------------------------------------------------------------------------
# Atomic file IO with integrity sealing
# ---------------------------------------------------------------------------


def canonical_json(value: Any) -> str:
    """The canonical JSON encoding a checkpoint body is sealed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class CanonicalJSON:
    """A body value handed over already in its canonical encoding.

    :func:`write_checkpoint` splices ``text`` into the body verbatim, so
    a writer that keeps the encodings of a large value's parts (the
    explorer keeps one per cache entry) pays only for joining them.
    ``text`` must be what :func:`canonical_json` gives for the value.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _canonical_body(body: Mapping[str, Any]) -> str:
    if not any(isinstance(value, CanonicalJSON) for value in body.values()):
        return canonical_json(body)
    # byte-identical to ``canonical_json(body)`` with each
    # ``CanonicalJSON`` replaced by the value it encodes
    return "{" + ",".join(
        f"{canonical_json(key)}:"
        + (
            value.text
            if isinstance(value, CanonicalJSON)
            else canonical_json(value)
        )
        for key, value in sorted(body.items())
    ) + "}"


def write_checkpoint(path: str, body: Mapping[str, Any]) -> None:
    """Seal ``body`` and write it to ``path`` atomically.

    The schema version is stamped into the body, the integrity digest
    is computed over the canonical encoding, and the file is replaced
    in one ``os.replace`` — a crash mid-write leaves the previous
    checkpoint intact, never a torn one.  A top-level value given as
    :class:`CanonicalJSON` is written as its text: the file is the
    same as for the value it encodes.
    """
    stamped = dict(body)
    stamped["schema"] = CHECKPOINT_SCHEMA
    encoded = _canonical_body(stamped)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        # the sealed encoding itself, written without a second copy
        handle.write(f'{{"integrity": "{payload_digest(encoded)}", ')
        handle.write('"checkpoint": ')
        handle.write(encoded)
        handle.write("}")
    os.replace(tmp, path)


def read_checkpoint(path: str) -> dict:
    """Load, verify, and return a checkpoint body.

    Raises :class:`CheckpointError` for every failure mode a resume
    must not paper over: missing file, unparseable JSON, a tampered or
    truncated body (integrity mismatch), or a schema written by an
    incompatible engine version.
    """
    try:
        with open(path) as handle:
            envelope = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path!r}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint at {path!r}: {exc}"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or not isinstance(envelope.get("checkpoint"), dict)
        or not isinstance(envelope.get("integrity"), str)
    ):
        raise CheckpointError(
            f"malformed checkpoint envelope at {path!r}"
        )
    body = envelope["checkpoint"]
    if payload_digest(_canonical_body(body)) != envelope["integrity"]:
        raise CheckpointError(
            f"checkpoint at {path!r} failed its integrity check "
            f"(truncated or tampered)"
        )
    schema = body.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint at {path!r} has schema {schema!r}; this engine "
            f"reads schema {CHECKPOINT_SCHEMA} — re-run from scratch"
        )
    return body


# ---------------------------------------------------------------------------
# Shard side files
# ---------------------------------------------------------------------------


_SHARD_SUFFIX = ".shard-"


def shard_checkpoint_path(path: str, index: int) -> str:
    """The side file where shard ``index`` of the search checkpointing
    to ``path`` checkpoints its own subtree."""
    return f"{path}{_SHARD_SUFFIX}{index}"


def discard_shard_checkpoints(path: str) -> None:
    """Delete every shard side file of the search at ``path``.

    The search's own checkpoint at ``path`` is left alone.
    """
    for name in glob.glob(f"{glob.escape(path)}{_SHARD_SUFFIX}*"):
        with contextlib.suppress(OSError):
            os.unlink(name)
