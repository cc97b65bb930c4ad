"""Exhaustive schedule exploration: bounded model checking for CAMP runs.

Seeded simulation samples schedules; the :func:`explore_schedules`
explorer *enumerates* them.  It performs a depth-first search over the
tree of scheduling decisions — at every point, every enabled event (a
local step, a reception, a broadcast start) is a branch — and evaluates
a property at each terminal (quiescent) schedule, reporting every
violating schedule together with the decision sequence that reproduces
it (replayable via ``Simulator.run(..., guide=...)``).

The engine
----------

One incremental depth-first loop explores the tree.  It runs on
resumable :class:`~repro.runtime.simulator.SimulationRun` handles:
extending a prefix by one event costs one event, and branch points are
covered by forking the handle (a state snapshot) instead of re-running
the prefix.  Each edge of the schedule tree is executed exactly once,
so the cost is O(edges) events rather than the O(nodes × depth) of
re-running every prefix from scratch.

``dedup=True`` turns on the loop's transposition cache, keyed by
canonical state fingerprints
(:meth:`~repro.runtime.simulator.SimulationRun.fingerprint`): when
distinct decision sequences converge on the same global state, the
subtree below it is explored once and every later arrival *replays* the
recorded subtree summary — terminal counts and violations, with
reproduction guides rebased onto the new prefix — instead of
re-expanding it.  The cost drops from O(tree edges) to O(unique-state
graph edges), the dominant saving on symmetric script configurations
where interchangeable broadcasts make most interleavings converge.
:attr:`ExplorationResult.states_seen` / ``states_deduped`` report the
cache's effect.  See *Which nodes are keyed* and *Soundness of
deduplication* below.  With the cache off the loop never fingerprints a
state.

Which nodes are keyed
---------------------

The cache keys *branch points* only: a node is fingerprinted, looked
up and remembered when its ``choices()`` lists two or more events.  A
terminal node's entry would store one terminal evaluation, which is
cheaper to redo than to key; a single-event node's entry would
duplicate its only child's, which the arrival reaches one event later
anyway.  Such a node is expanded on every arrival, still builds its
subtree summary for its parent, and under ``symmetry="rename"`` costs
no orbit key either.  This is selective storing (Behrmann, Larsen and
Pelánek, "To Store or Not to Store", CAV 2003): a skipped lookup only
ever expands more, so the checked violation set cannot change.  It
moves the counters: ``states_seen`` counts distinct branch points
(orbits, under symmetry), ``schedules_explored`` counts every
expansion, re-expanded unkeyed nodes included, and under dedup plus
sleep sets ``terminal_schedules`` is lower than when every node was
keyed — an unkeyed node expands under its own sleep set, where a cache
hit would have replayed a subtree recorded under a smaller one.

Pre-step reductions
-------------------

Two opt-in reductions prune branches *before* the run handle is forked,
composing with (and multiplying) the dedup cache's savings:

* ``sleep_sets=True`` — the sleep-set partial-order reduction: when two
  enabled events are *independent* (recorded footprints touching
  disjoint processes, no emissions, no oracle, no crash victim inside
  the swap window — see :mod:`repro.runtime.independence`), exploring
  ``a`` then ``b``'s subtree makes re-exploring ``b`` then ``a``
  redundant, so ``a`` is put to sleep below ``b`` and the slept branch
  is skipped outright
  (:attr:`ExplorationResult.states_pruned_sleep`).  Terminal states and
  therefore violations are preserved; slept interleavings are simply
  not re-counted.  Under dedup the sleep set is *not* part of the cache
  key: a cached subtree recorded under sleep set ``Z0`` stands in for
  any later arrival at the same state whose sleep set is a superset of
  ``Z0`` (the stored subtree explored everything the arrival may, plus
  some commutation-redundant interleavings whose terminals repeat
  observations the arrival would have produced anyway) — the
  *subset-reuse* rule.  An arrival sleeping *less* than the stored
  entry re-expands and, its subtree being the more reusable of the two,
  takes over the cache slot.
* ``symmetry="rename"`` — renaming-symmetry reduction over the dedup
  cache: states equal up to a permutation of interchangeable process
  ids plus an injective renaming of message contents (Definition 3
  lifted to states) share one cache slot, keyed by the orbit-canonical
  digest of :meth:`~repro.runtime.simulator.SimulationRun.orbit_key` —
  canonical labelling (refine the symmetric pids by equivariant per-pid
  invariants, then search only the residual automorphism candidates)
  rather than minimization over every admissible permutation, so a
  state usually costs a single canonical encoding
  (:attr:`ExplorationResult.orbit_encodings` counts the candidates per
  keyed node).  A search computes each key once per raw fingerprint
  and remembers it: a state reached again costs no encoding.  Gated on
  the algorithm's ``symmetric_processes()`` declaration and a
  pid-uniform oracle policy; merged arrivals are counted in
  :attr:`ExplorationResult.states_merged_symmetry` and replay the
  representative's violations with the witnessing permutation recorded
  on :attr:`Violation.permutation`.

Soundness of deduplication
--------------------------

A state fingerprint pins each process's *input journal*, the ordered
in-flight pool, the oracle registry, remaining scripts, the alive set
and the decision count — everything the scheduling loop reads — so two
converged nodes enable the same events in the same order forever after:
the subtrees below them are isomorphic, decision for decision.  Which
converged nodes are cut is a matter of cost, not of soundness: keying
only branch points leaves the unkeyed ones to plain re-expansion, which
reports what a replay would.  Their *traces* differ only in the prefix,
and only up to commutation of independent events (the same per-process
histories, interleaved differently).  Replaying a cached subtree
summary is therefore exact for properties whose verdict is a function
of per-process observations (every spec in :mod:`repro.specs`; delivery
sequences, decided values and returns are all per-process state).
Step-tracked properties stay compatible too: :func:`channels_property`'s
tracker state at a deduped node is determined by per-process
send/receive projections, which the fingerprint pins — the deduped
arrival's prefix was already checked step by step on its own branch,
and the suffix verdicts recorded in the cache coincide with what
re-expansion would have computed.  A custom property that inspects the
*global interleaving* of the terminal trace (cross-process real-time
order, say) is outside this envelope — leave the cache off for those.

``workers > 1`` shards the top of the schedule tree across a
``multiprocessing`` pool (fork start method).  A *frontier pass* of the
same depth-first loop stops at a cut depth, deepened until enough
subtrees exist, and lists their roots; each worker continues the loop
from the run handle the pass left at one root.  A *merge pass* of the
loop, cut at the same depth, then replays each shard's outcome at its
root like a cached subtree summary.  Budget, ``stop_at_first_violation``
and violation order are therefore applied by the one loop, and
``terminal_schedules``, ``violations`` and ``aborted`` always equal the
sequential run's; an exhaustive sharded run equals it field for field,
apart from ``workers``.  On a capped or aborted run the work counters
add the merge's own nodes above the cut, up to where the sequential
search stops, to the whole work of every shard it replayed: each shard
gets the full budget.  Only cache-less searches shard: with
``dedup=True`` (and so with symmetry) a single cache must see every
state for the result to stay independent of the worker count, so the
search runs in one process and reports ``workers=1``.  Where the
``fork`` start method is unavailable the call likewise falls back to a
single worker.

Properties
----------

Properties are callables receiving the terminal
:class:`~repro.runtime.simulator.SimulationResult` and returning a list
of violation strings; :func:`spec_property` and :func:`channels_property`
adapt the library's checkers.  Property objects may additionally expose
``tracker(n)`` returning a :class:`PropertyTracker`, in which case the
explorer feeds them *step deltas* along each branch instead of
whole executions per terminal: :func:`channels_property` checks the SR
channel axioms this way (via :class:`repro.core.model.ChannelTracker`),
scanning every step once per tree edge rather than once per
terminal-times-depth.  :func:`spec_property` keeps the broadcast
projection the same way, so a terminal judges it without re-filtering
the trace; the judgement itself still reads the whole projection.

Bounds
------

``max_schedules`` bounds the number of terminal schedules visited,
turning the explorer into a systematic falsifier that finds
minimal-depth counterexamples before random testing would;
``max_depth`` bounds the decision depth.  A search cut short by either
bound — or aborted by ``stop_at_first_violation`` — reports
``exhausted=False`` (and ``aborted=True`` for the stop case); subtrees
pruned at ``max_depth`` are *not* property-checked, since their runs are
truncated mid-flight.

Results at rest
---------------

Results, snapshots and checkpoint bodies encode through the
field-driven codec of :mod:`repro.runtime.codec`.  Adding a counter is
one field declaration with a default, ``foo: int = coded(0, merge=SUM)``:
older payloads decode it to the default, and sharded merges sum it.

Checkpoint and resume
---------------------

``checkpoint_to=path`` makes the search durable: every
``checkpoint_every`` node expansions (and whenever a cooperative
``cancel`` token fires) the search serializes its complete restartable
state — the DFS frontier as a stack of per-level frames (taken branch,
sleep set, explored-sibling footprints, and under dedup the level's
partial summary and, at a branch point, its cache key), the
transposition cache, and the partial result — into a versioned,
integrity-sealed checkpoint file written atomically
(:mod:`repro.runtime.checkpoint`).  Each cache entry's at-rest text is
encoded once, at the first checkpoint after the entry is stored or
taken over; later checkpoints join the kept texts,
so a write costs the cache's new entries plus the bytes.  The partial
result at rest is an :meth:`ExplorationResult.to_json` payload whose
violations are paired with their ordinals (each violating terminal's
position in the depth-first terminal sequence), which a sharded merge
needs to replay the violations under its own schedule budget.
``resume_from=path`` restores it: the resume descent replays the
recorded branch at each checkpointed level *without re-counting it*
(the restored counters already include that node's expansion), then
re-enters normal DFS at the interruption point, so the resumed search
reaches a result construction-identical to an uninterrupted run — same
violations digest, same state counters, same per-depth maps.  The
replayed prefix adds no event and no independence verdict to the
counters either, so the resumed result equals the uninterrupted one
field for field.  Checkpoints are bound to
their configuration by a :func:`~repro.runtime.checkpoint.config_digest`
over everything that shapes the tree; resuming against anything else
raises :class:`~repro.runtime.checkpoint.CheckpointError`.  Under
``workers > 1`` each shard checkpoints its own subtree to a side file
(:func:`~repro.runtime.checkpoint.shard_checkpoint_path`), and the
parent writes just two bodies: an incomplete marker before the pool
starts and the complete result at the end, after which the side files
are deleted.  A resumed parallel run re-expands the (cheap,
deterministic) frontier and runs every shard again; a finished shard
returns at once from its complete side file.  A cached search never
shards, so it writes a sequential checkpoint whatever ``workers`` was
requested.  ``cancel`` accepts any object with a
``threading.Event``-style ``is_set()`` method, is polled at node entry,
and makes the search return promptly with ``interrupted=True`` (after
writing a final checkpoint when one was requested).  Forked shard
workers see a *fork snapshot* of the token, so while the merge pass
waits for a shard it polls the live token every 50 ms; once it fires —
or once the merge stops for the budget or an abort — the parent raises
a stop flag the shards poll at node entry, so running shards checkpoint
and stop within one node, and the pool drains.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from ..core.broadcast_spec import BroadcastSpec
from ..core.execution import PROJECTED_ACTIONS, Execution
from ..core.model import ChannelTracker
from ..core.steps import Step
from .checkpoint import (
    CanonicalJSON,
    CheckpointError,
    canonical_json,
    config_digest,
    discard_shard_checkpoints,
    read_checkpoint,
    shard_checkpoint_path,
    sleep_from_json,
    sleep_to_json,
    write_checkpoint,
)
from .codec import ALL, MAX, SUM, absorb, coded, decode, encode
from .crash import CrashSchedule
from .fingerprint import stable_digest
from .independence import Footprint, choice_key, classify
from .simulator import Gated, SimulationResult, SimulationRun, Simulator


__all__ = [
    "Violation",
    "ExplorationResult",
    "ProgressSnapshot",
    "RESULT_SCHEMA",
    "explore_schedules",
    "spec_property",
    "channels_property",
    "combine_properties",
    "PropertyTracker",
]

Property = Callable[[SimulationResult], list[str]]


def _now() -> float:
    """Wall clock for progress telemetry; the search never reads it."""
    return time.perf_counter()  # repro-lint: disable=REP001 -- telemetry only; exploration order and results never depend on it


#: Schema version stamped into serialized :class:`ExplorationResult` and
#: :class:`ProgressSnapshot` payloads.  Version 1 payloads predate the
#: stamp (its absence reads as 1); decoding tolerates older schemas by
#: defaulting the fields they lack, and rejects newer ones loudly.
#: Schema 3 adds ``independence_stats``.  A new counter needs no bump:
#: it is one field with a default (module docstring, *Results at rest*).
RESULT_SCHEMA = 3


def _require_schema(data: Mapping, kind: str) -> None:
    """Reject payloads written by a newer serializer than this reader.

    Older payloads decode tolerantly (missing newer fields take their
    defaults); a *newer* schema means fields this reader has never heard
    of may carry semantics it cannot honor, so the decode fails with a
    clear error instead of a silently lossy one.
    """
    schema = int(data.get("schema", 1))
    if schema > RESULT_SCHEMA:
        raise ValueError(
            f"{kind} payload has schema {schema}, newer than the "
            f"supported {RESULT_SCHEMA} — decode it with a newer engine"
        )


@dataclass(frozen=True)
class Violation:
    """One violating schedule: the guide that reproduces it, and why."""

    guide: tuple[int, ...]
    problems: tuple[str, ...]
    #: Set only on violations re-emitted through a symmetry merge
    #: (``symmetry="rename"``): ``permutation[p]`` is the process id in
    #: the run reproduced by ``guide`` that plays the role of process
    #: ``p`` at the merged arrival where the violation was reported.
    #: ``None`` everywhere else (the guide is in the violation's own
    #: frame).
    permutation: tuple[int, ...] | None = None

    def __str__(self) -> str:
        renamed = (
            ""
            if self.permutation is None
            else f" (via renaming {list(self.permutation)})"
        )
        return (
            f"schedule {list(self.guide)}{renamed}: "
            + "; ".join(self.problems[:3])
        )

    def to_json(self) -> dict:
        """A lossless JSON-compatible dict; inverse of :meth:`from_json`."""
        return encode(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "Violation":
        """Rebuild a :class:`Violation` from its :meth:`to_json` dict."""
        return decode(cls, data)


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive (or budget-capped) exploration."""

    #: Node expansions: every node the search entered and did not prune
    #: as a cache hit, terminals included.  With the dedup cache on, a
    #: terminal or single-event node, which is never keyed, counts once
    #: per arrival, and so does a sleep-incompatible arrival at a keyed
    #: state that re-expands it.
    schedules_explored: int = coded(merge=SUM)
    terminal_schedules: int
    violations: list[Violation] = coded(factory=list, required=True)
    exhausted: bool = coded(True, required=True, merge=ALL)
    max_depth_seen: int = coded(0, required=True, merge=MAX)
    #: True when ``stop_at_first_violation`` cut the search short.  An
    #: aborted search is never exhaustive: schedules after the first
    #: violation were deliberately not visited.
    aborted: bool = coded(False, required=True)
    #: True when a cooperative ``cancel`` token stopped the search
    #: mid-flight.  An interrupted search is never exhaustive; when
    #: ``checkpoint_to`` was set, a checkpoint capturing the frontier
    #: was written just before the cut, so ``resume_from`` can finish
    #: the remainder construction-identically.
    interrupted: bool = False
    #: Scheduled events committed over the whole search.  A resume
    #: re-runs the checkpointed path without counting it: the restored
    #: counters already hold those events.  Sharded runs execute
    #: exactly the sequential events: each shard continues from the run
    #: handle the frontier expansion left at its root.
    events_executed: int = coded(0, required=True, merge=SUM)
    #: The subset of ``events_executed`` that re-executed work already
    #: performed earlier in the search — the quantity forking run
    #: handles exist to eliminate — plus the local steps re-executed by
    #: journal-replay forks.
    events_replayed: int = coded(0, required=True, merge=SUM)
    #: Worker processes that actually ran the search.
    workers: int = 1
    #: Distinct branch points — states with two or more enabled events,
    #: the only nodes the cache keys — expanded with the dedup cache on
    #: (orbits, under symmetry); 0 with the cache off.
    #: ``schedules_explored`` counts every expansion, which exceeds this
    #: by every expansion of a terminal or single-event node (never
    #: keyed, so expanded on each arrival) and by each sleep-set arrival
    #: incompatible with the cached entry that re-expands a state (the
    #: subset-reuse rule; the re-expansion takes over the cache slot);
    #: pruned arrivals are counted in :attr:`states_deduped` /
    #: :attr:`states_merged_symmetry` instead.
    states_seen: int = coded(0, merge=SUM)
    #: Branches pruned because their post-event state was already
    #: expanded — each one stood in for a whole re-explored subtree.
    states_deduped: int = coded(0, merge=SUM)
    #: Enabled branches skipped by the sleep-set reduction
    #: (``sleep_sets=True``): each skipped branch starts an interleaving
    #: of independent events that an already-explored sibling order
    #: covers state-for-state.
    states_pruned_sleep: int = coded(0, merge=SUM)
    #: Dedup-cache hits where the arriving state matched the cached
    #: representative only up to a pid permutation plus an injective
    #: content renaming (``symmetry="rename"``), not verbatim; the
    #: witnessing permutation is recorded on each replayed
    #: :class:`Violation`.
    states_merged_symmetry: int = coded(0, merge=SUM)
    #: Residual automorphism candidates of ``symmetry="rename"``, summed
    #: over fingerprinted nodes: each node adds the candidate count of
    #: its state's canonical-labelling pass
    #: (:meth:`~repro.runtime.simulator.SimulationRun.orbit_key`; the
    #: enumeration this replaced paid |perms| per node).  The pass runs
    #: once per distinct raw state and a repeat adds the count stored
    #: with its key, so this counts candidates per keyed node, not
    #: encodings computed, and does not depend on a resume point.  0
    #: without symmetry.
    orbit_encodings: int = coded(0, merge=SUM)
    #: Node expansions per decision depth.
    expansions_by_depth: dict[int, int] = coded(factory=dict, merge=SUM)
    #: Dedup-cache hits (identity or symmetry) per decision depth.
    dedup_hits_by_depth: dict[int, int] = coded(factory=dict, merge=SUM)
    #: Independence-relation telemetry (``sleep_sets=True`` only):
    #: verdicts by the argument that carried them — ``dynamic``
    #: (independent, no pending crash), ``crash_proof`` (independent by
    #: the crash-aware victim-disjointness argument), ``conservative``
    #: (dependent, branch kept).  Each query of the relation counts
    #: once, so the counts depend on the configuration alone: neither on
    #: a resume point nor on ``workers``.
    independence_stats: dict[str, int] = coded(factory=dict, merge=SUM)
    #: Errors raised by the ``progress`` callback, as
    #: ``"ExceptionType: message"`` strings.  A raising callback is
    #: disabled after its first error and the search continues
    #: unperturbed — telemetry must never abort or reorder exploration,
    #: so the result is identical to a run without the callback except
    #: for this record.
    progress_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.aborted:
            coverage = "aborted"
        elif self.interrupted:
            coverage = "interrupted"
        elif self.exhausted:
            coverage = "exhaustive"
        else:
            coverage = "budget-capped"
        verdict = (
            "no violation"
            if self.ok
            else f"{len(self.violations)} violating schedule(s)"
        )
        return (
            f"{coverage} exploration: {self.terminal_schedules} terminal "
            f"schedules ({self.schedules_explored} prefixes, depth ≤ "
            f"{self.max_depth_seen}): {verdict}"
        )

    def violations_digest(self) -> str:
        """Order- and permutation-independent digest of the violation set.

        Hashes the sorted *set* of problem tuples: reductions may
        collapse redundant violating interleavings (fewer
        :class:`Violation` rows) and rename pids (different guides), but
        the distinct problem sets they report must survive — equal
        digests across engine variants is the reduction-soundness check,
        and the verification service's memo-equality check.
        """
        return stable_digest(
            "violations", sorted({v.problems for v in self.violations})
        )

    def to_json(self) -> dict:
        """A lossless JSON-compatible dict; inverse of :meth:`from_json`.

        Every field survives the round trip — violation guides and
        permutations, the per-depth counter maps (JSON object keys are
        strings; :meth:`from_json` restores the ``int`` depths), state
        and event counters, and recorded progress-callback errors — so a
        deserialized result is construction-identical (``==``) to the
        original.  This is the wire format of :mod:`repro.server` and
        the at-rest format of its memo store.
        """
        return {"schema": RESULT_SCHEMA, **encode(self)}

    @classmethod
    def from_json(cls, data: Mapping) -> "ExplorationResult":
        """Rebuild an :class:`ExplorationResult` from :meth:`to_json`.

        Payloads are schema-versioned: fields introduced after a
        payload's schema take their defaults (a result recorded before
        ``interrupted`` existed simply was not interrupted; a schema-1
        result without ``workers`` ran on one), a payload from a *newer*
        schema than this engine understands is rejected with a clear
        :class:`ValueError`, and a payload missing a *core* field is
        reported by name instead of surfacing as a bare ``KeyError``.
        """
        _require_schema(data, "ExplorationResult")
        return decode(cls, data)


@dataclass(frozen=True)
class ProgressSnapshot:
    """One progress report from a running exploration.

    Delivered to the ``progress`` callback of :func:`explore_schedules`
    every ``progress_every`` node expansions.  ``elapsed`` and
    ``states_per_second`` are wall-clock telemetry; they never feed back
    into the search, which stays deterministic.  Both are measured from
    the start of the current call, so a resumed search reports the rate
    of its own work, not of the expansions its checkpoint restored.
    """

    #: Nodes expanded so far (``schedules_explored``).
    expansions: int
    #: Terminal schedules visited so far.
    terminals: int
    #: Decision depth of the node whose expansion triggered this report.
    depth: int
    #: Wall-clock seconds since this call started (a resumed search
    #: restarts the clock).
    elapsed: float = 0.0
    #: Expansions made since this call started, divided by ``elapsed``
    #: (0.0 while the clock reads 0); restored expansions are not
    #: counted.
    states_per_second: float = 0.0
    #: Snapshot of per-depth expansion counts (depth → count).
    expansions_by_depth: Mapping[int, int] = field(default_factory=dict)
    #: Snapshot of per-depth dedup-cache hit counts (depth → count).
    dedup_hits_by_depth: Mapping[int, int] = field(default_factory=dict)
    #: Snapshot of independence-verdict counters by source (see
    #: :attr:`ExplorationResult.independence_stats`); empty without the
    #: sleep-set reduction.
    independence_stats: Mapping[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        """A lossless JSON-compatible dict; inverse of :meth:`from_json`.

        The wire format of the verification service's progress streams
        (:mod:`repro.server`): per-depth counter keys become strings in
        JSON and are restored to ``int`` on the way back.
        """
        return {"schema": RESULT_SCHEMA, **encode(self)}

    @classmethod
    def from_json(cls, data: Mapping) -> "ProgressSnapshot":
        """Rebuild a :class:`ProgressSnapshot` from :meth:`to_json`.

        Schema-versioned like :meth:`ExplorationResult.from_json`: older
        payloads default the fields they lack, newer schemas are
        rejected with a clear error, and a missing core field is
        reported by name rather than as a bare ``KeyError``.
        """
        _require_schema(data, "ProgressSnapshot")
        return decode(cls, data)


ProgressCallback = Callable[[ProgressSnapshot], None]


# ---------------------------------------------------------------------------
# Properties and their incremental trackers
# ---------------------------------------------------------------------------


class PropertyTracker:
    """Terminal-state property evaluation fed step deltas along a branch.

    The explorer holds one tracker per search-tree node:
    :meth:`observe` receives the trace steps appended since the parent
    node, :meth:`fork` snapshots the tracker at a branch point, and
    :meth:`at_terminal` produces the violation list at a quiescent
    schedule.  This base class is the *stateless* adapter: it ignores
    deltas and evaluates a plain property callable on the terminal
    result, so forks can share the one instance.

    ``reads_result`` says whether :meth:`at_terminal` reads its
    argument.  Building a :class:`SimulationResult` copies the whole
    trace and every operation record, so the explorer builds one only
    for a tracker that sets it; any other tracker receives ``None``.
    It defaults to True, so a subclass that leaves it alone keeps
    receiving a full result at every terminal.
    """

    reads_result: bool = True

    def __init__(self, check: Property) -> None:
        self._check = check

    def observe(self, steps: Sequence[Step]) -> None:
        """Account trace steps appended since the previous call."""

    def fork(self) -> "PropertyTracker":
        """A tracker for a diverging branch (self when stateless)."""
        return self

    def at_terminal(self, result: SimulationResult | None) -> list[str]:
        """Violations of the property at a terminal schedule."""
        assert result is not None
        return self._check(result)


class _ChannelsTracker(PropertyTracker):
    """SR channel axioms maintained incrementally along a branch."""

    reads_result = False

    def __init__(self, n: int, *, assume_complete: bool) -> None:
        self._tracker = ChannelTracker(n)
        self._assume_complete = assume_complete

    def observe(self, steps: Sequence[Step]) -> None:
        for step in steps:
            self._tracker.observe(step)

    def fork(self) -> "_ChannelsTracker":
        clone = object.__new__(_ChannelsTracker)
        clone._tracker = self._tracker.fork()
        clone._assume_complete = self._assume_complete
        return clone

    def at_terminal(self, result: SimulationResult | None) -> list[str]:
        return self._tracker.report(
            assume_complete=self._assume_complete
        ).all_violations()


class _SpecTracker(PropertyTracker):
    """A broadcast spec's projected execution kept along a branch.

    :meth:`observe` keeps the steps
    :meth:`~repro.core.execution.Execution.broadcast_projection` keeps,
    so a terminal judges the projection without re-filtering the whole
    trace.  The projection is a tuple that ``observe`` replaces rather
    than extends, so a fork shares it and copies a few references.

    The verdict is a function of the projection alone, so trackers
    holding the same projection tuple share it through a one-slot cell:
    :meth:`fork` hands its cell (made on the first fork) to the clone,
    ``observe`` drops it when the projection grows, and the first
    terminal to reach a cell fills it for every later one.
    """

    reads_result = False

    def __init__(
        self, spec: BroadcastSpec, n: int, *, assume_complete: bool
    ) -> None:
        #: ``(spec, n, assume_complete)``, shared by every fork.
        self._judge = (spec, n, assume_complete)
        self._projected: tuple[Step, ...] = ()
        #: ``[verdict or None]``, shared by the forks holding
        #: ``_projected``; None while no fork shares the projection.
        self._cell: list[tuple[str, ...] | None] | None = None

    def observe(self, steps: Sequence[Step]) -> None:
        for step in steps:
            if isinstance(step.action, PROJECTED_ACTIONS):
                self._projected += (step,)
                self._cell = None

    def fork(self) -> "_SpecTracker":
        cell = self._cell
        if cell is None:
            cell = self._cell = [None]
        clone = object.__new__(_SpecTracker)
        clone._judge = self._judge
        clone._projected = self._projected
        clone._cell = cell
        return clone

    def at_terminal(self, result: SimulationResult | None) -> list[str]:
        cell = self._cell
        verdict = None if cell is None else cell[0]
        if verdict is None:
            spec, n, assume_complete = self._judge
            verdict = tuple(
                spec.admits(
                    Execution(self._projected, n),
                    assume_complete=assume_complete,
                ).all_violations()
            )
            if cell is not None:
                cell[0] = verdict
        return list(verdict)  # a copy: the cell's verdict is shared


class _CombinedTracker(PropertyTracker):
    """Conjunction of several trackers (problems concatenated in order)."""

    def __init__(self, trackers: list[PropertyTracker]) -> None:
        self._trackers = trackers
        self.reads_result = any(t.reads_result for t in trackers)

    def observe(self, steps: Sequence[Step]) -> None:
        for tracker in self._trackers:
            tracker.observe(steps)

    def fork(self) -> "_CombinedTracker":
        return _CombinedTracker([t.fork() for t in self._trackers])

    def at_terminal(self, result: SimulationResult | None) -> list[str]:
        problems: list[str] = []
        for tracker in self._trackers:
            problems.extend(tracker.at_terminal(result))
        return problems


class _Property:
    """A property the explorer evaluates along each branch.

    ``tracker(n)`` makes the tracker of an ``n``-process search.  Called
    on a result, the property feeds a fresh tracker the result's whole
    trace and judges the terminal, so both uses give one verdict.
    """

    def __init__(self, tracker: Callable[[int], PropertyTracker]) -> None:
        self.tracker = tracker

    def __call__(self, result: SimulationResult) -> list[str]:
        tracker = self.tracker(result.execution.n)
        tracker.observe(result.execution.steps)
        return tracker.at_terminal(result)


def _as_property(prop: object):
    """Normalize a plain callable into a tracker-capable property."""
    if hasattr(prop, "tracker") and callable(getattr(prop, "tracker")):
        return prop
    if not callable(prop):
        raise TypeError(f"property must be callable, got {prop!r}")
    return _Property(lambda n: PropertyTracker(prop))


def spec_property(
    spec: BroadcastSpec, *, assume_complete: bool = True
) -> Property:
    """Adapt a broadcast specification into a terminal-state property.

    Called on a :class:`~repro.runtime.simulator.SimulationResult`, it
    checks the execution's broadcast projection.  Passed to
    :func:`explore_schedules`, it is *incremental*, like
    :func:`channels_property`: the explorer feeds it step deltas along
    each DFS branch, it keeps the projected steps as they arrive, and a
    terminal checks them without re-filtering the whole trace.  The
    verdict is the same either way.
    """
    return _Property(
        functools.partial(_SpecTracker, spec, assume_complete=assume_complete)
    )


def channels_property(*, assume_complete: bool = True) -> Property:
    """The SR channel axioms as a terminal-state property.

    When passed to :func:`explore_schedules` this property is evaluated
    *incrementally*: the explorer feeds it step deltas along each DFS
    branch, so each trace step is scanned once per tree edge instead of
    once per terminal-times-depth.
    """
    return _Property(
        functools.partial(_ChannelsTracker, assume_complete=assume_complete)
    )


def combine_properties(*properties: Property) -> Property:
    """Conjunction of several properties (incremental where they are)."""
    parts = [_as_property(p) for p in properties]
    return _Property(
        lambda n: _CombinedTracker([part.tracker(n) for part in parts])
    )


# ---------------------------------------------------------------------------
# The depth-first engine
# ---------------------------------------------------------------------------


class _Cursor:
    """One search-tree node: a run handle plus its property tracker."""

    __slots__ = ("handle", "tracker", "mark")

    def __init__(
        self, handle: SimulationRun, tracker: PropertyTracker, mark: int
    ) -> None:
        self.handle = handle
        self.tracker = tracker
        self.mark = mark

    def fork(self) -> "_Cursor":
        return _Cursor(self.handle.fork(), self.tracker.fork(), self.mark)

    def sync(self) -> None:
        """Feed the tracker every trace step recorded since last sync."""
        new_steps = self.handle.trace.since(self.mark)
        if new_steps:
            self.tracker.observe(new_steps)
            self.mark += len(new_steps)


@dataclass
class _Summary:
    """One fully-explored subtree, relative to its root (the cache value).

    ``violations`` holds ``(ordinal, guide, problems, permutation)``
    tuples: ``ordinal`` is the violating terminal's position in the
    subtree's depth-first terminal sequence.  Without symmetry,
    ``guide`` is the decision *suffix* from the subtree root (rebased
    onto each arrival's own prefix on replay) and ``permutation`` is
    always ``None``.  Under ``symmetry="rename"``, guides are stored
    *absolute* — the full decision path of the run that first discovered
    the violation — because an arrival that matches only up to renaming
    enumerates its choices in a different order, so suffix rebasing
    would produce an inexecutable guide; ``permutation`` then maps the
    subtree root's frame onto the guide run's frame.  ``height`` is the
    relative depth of the deepest descendant; ``truncated`` marks a
    subtree some branch of which was cut at ``max_depth`` (its shape
    depends on the remaining depth budget; cache keys digest the
    decision count, so an entry is only ever reused at its own depth).
    """

    terminals: int = coded(0, required=True)
    violations: list[
        tuple[int, tuple[int, ...], tuple[str, ...], tuple[int, ...] | None]
    ] = coded(factory=list, required=True)
    height: int = coded(0, required=True)
    truncated: bool = coded(False, required=True)


#: What a finished subtree returns with the cache off, where nothing
#: reads a summary: one empty summary that no search writes.
_DONE = _Summary()


@dataclass
class _CacheEntry:
    """One dedup-cache slot: a summary plus what identifies arrivals.

    ``raw`` is the representative's verbatim fingerprint — an arrival
    matching it is an *identity* hit (classic dedup, guides rebased); an
    arrival matching only the orbit-canonical cache key is a *symmetry*
    merge, replayed through the witnessing permutation against ``perm``
    (the representative's canonicalizing permutation).  ``base`` is the
    representative's absolute decision path, the base of symmetry-mode
    guides.  ``sleep_keys`` is the key set of the sleep set the summary
    was recorded under, in the representative's own frame: the summary
    stands in for an arrival iff the arrival's sleep set is a superset
    once both are mapped into the canonical frame (:func:`_canonical_keys`;
    the subset-reuse rule — the recorded subtree explored at least
    everything the arrival may explore).  A search shares one frozenset
    among the entries with equal key sets.
    """

    depth: int
    summary: _Summary
    base: tuple[int, ...]
    raw: str
    sleep_keys: frozenset[tuple]
    perm: tuple[int, ...] | None


# -- sleep sets and symmetry: key and witness helpers -----------------------

#: A sleep set: choice identity (:func:`choice_key`) → the footprint the
#: event had when it was explored and put to sleep.  Footprints persist
#: while the event stays asleep: every event taken since was independent
#: of it, so what it touches cannot have changed.
_SleepSet = dict[tuple, Footprint]


def _map_sleep_key(key: tuple, permutation: Sequence[int]) -> tuple:
    """The image of a sleep-set key under a pid permutation."""
    if key[0] == "recv":
        _, sender, receiver, seq = key
        return ("recv", permutation[sender], permutation[receiver], seq)
    kind, pid = key
    return (kind, permutation[pid])


def _canonical_keys(
    keys: Iterable[tuple], permutation: Sequence[int] | None
) -> frozenset[tuple]:
    """Sleep keys mapped into the canonical pid frame.

    Sleep keys are pid-indexed, so comparing an arrival's sleep set
    against a cached representative's (the subset-reuse test) is only
    meaningful after both are pushed through their own canonicalizing
    permutations.  Without symmetry (``permutation is None``) keys
    compare verbatim.  The result is a set, so the order ``keys`` are
    read in does not matter.
    """
    if permutation is None:
        return frozenset(keys)
    return frozenset(_map_sleep_key(key, permutation) for key in keys)


def _witness_permutation(
    arrival: Sequence[int], representative: Sequence[int]
) -> tuple[int, ...]:
    """The pid map from an arriving state onto its cached representative.

    The arrival canonicalizes under ``arrival`` and the representative
    under ``representative`` onto the same encoding, so arrival pid
    ``p`` plays the role of representative pid ``w[p]`` with
    ``representative[w[p]] == arrival[p]``.
    """
    inverse = [0] * len(representative)
    for source, image in enumerate(representative):
        inverse[image] = source
    return tuple(inverse[arrival[p]] for p in range(len(arrival)))


def _transform_summary(summary: _Summary, witness: Sequence[int]) -> _Summary:
    """Re-frame a cached summary for an arrival related by ``witness``.

    Guides are absolute (symmetry mode) and stay unchanged; each
    violation's permutation is composed so it maps the *arrival's* frame
    onto the guide run's frame.
    """
    violations = [
        (
            ordinal,
            guide,
            problems,
            tuple(witness)
            if perm is None
            else tuple(perm[witness[p]] for p in range(len(witness))),
        )
        for ordinal, guide, problems, perm in summary.violations
    ]
    return replace(summary, violations=violations)


def _renaming_groups(
    simulator: Simulator,
    scripts: Mapping[int, Sequence[Hashable]],
    crash_schedule: CrashSchedule | None,
) -> tuple[tuple[int, ...], ...]:
    """The interchangeable-pid groups ``symmetry="rename"`` may act on.

    Gated on the algorithm's own declaration
    (:meth:`~repro.runtime.process.BroadcastProcess.symmetric_processes`)
    and on a pid-uniform oracle policy — without either, the reduction
    is inert (no groups, classic dedup).  Declared groups are then
    refined by what the *configuration* distinguishes: crash-faulty pids
    are pinned (crash schedules are pid-keyed and not relabeled), as are
    pids with :class:`~repro.runtime.simulator.Gated` script entries
    (gates couple pids through content), and pids only stay
    interchangeable when their scripts have the same shape (contents are
    handled by the injective renaming; arity is not).  The groups are
    further refined *per state* by the canonical-labelling pass
    (:meth:`~repro.runtime.simulator.SimulationRun.orbit_key`), which
    splits them by per-pid invariants before encoding — the permutations
    themselves are never enumerated here.
    """
    declared = simulator.algorithm_factory(0, simulator.n).symmetric_processes()
    if declared is None:
        return ()
    if not simulator.ksa_policy.pid_uniform:
        return ()
    faulty = (
        crash_schedule.faulty() if crash_schedule is not None else frozenset()
    )

    def shape(p: int) -> tuple[str, ...]:
        return tuple(
            "gated" if isinstance(entry, Gated) else "plain"
            for entry in scripts.get(p, ())
        )

    groups: list[tuple[int, ...]] = []
    for group in declared:
        by_shape: dict[tuple[str, ...], list[int]] = {}
        for p in group:
            if p in faulty or "gated" in shape(p):
                continue
            by_shape.setdefault(shape(p), []).append(p)
        groups.extend(
            tuple(g) for g in by_shape.values() if len(g) > 1
        )
    return tuple(groups)


# -- checkpoint encoding of engine-private search state ---------------------
#
# The leaf codecs (footprints, sleep sets) live in
# repro.runtime.checkpoint; the structures below are private to this
# engine, so their JSON forms are too, all through repro.runtime.codec.


def _cache_to_json(cache: Mapping[str, _CacheEntry]) -> list:
    return [[key, encode(entry)] for key, entry in sorted(cache.items())]


def _cache_from_json(data: list) -> dict[str, _CacheEntry]:
    return {str(key): decode(_CacheEntry, entry) for key, entry in data}


def _outcome_to_json(result: ExplorationResult, ordinals: list[int]) -> dict:
    """A partial result at rest: each violation paired with its ordinal."""
    data = result.to_json()
    data["violations"] = [list(p) for p in zip(ordinals, data["violations"])]
    return data


def _outcome_from_json(data: Mapping) -> tuple[ExplorationResult, list[int]]:
    """Inverse of :func:`_outcome_to_json`: the result and its ordinals."""
    pairs = data["violations"]
    result = ExplorationResult.from_json(
        {**data, "violations": [violation for _, violation in pairs]}
    )
    return result, [int(ordinal) for ordinal, _ in pairs]


@dataclass
class _FrameDedup:
    """A node's live, partial summary, and its identity when keyed.

    ``key`` and ``raw`` are ``None`` at a single-event node, which the
    cache never keys: its summary only flows up to its parent.
    """

    key: str | None
    raw: str | None
    perm: tuple[int, ...] | None
    summary: _Summary


@dataclass(slots=True)
class _Frame:
    """One in-progress DFS level: written by checkpoints, read by resume.

    A live frame holds *references* to the level's sleep/explored dicts
    and, under dedup, its partial summary: frames are only serialized at
    a descendant's node entry, where those objects' current contents are
    exactly the level's state as of the recorded branch.
    """

    branch: int
    sleep: _SleepSet
    explored: _SleepSet
    dedup: _FrameDedup | None

    def to_json(self) -> dict:
        level: dict = {
            "branch": self.branch,
            "sleep": sleep_to_json(self.sleep),
            "explored": sleep_to_json(self.explored),
        }
        if self.dedup is not None:
            level["dedup"] = encode(self.dedup)
        return level

    @classmethod
    def from_json(cls, data: Mapping) -> "_Frame":
        dedup = data.get("dedup")
        return cls(
            int(data["branch"]),
            sleep_from_json(data["sleep"]),
            sleep_from_json(data["explored"]),
            None if dedup is None else decode(_FrameDedup, dedup),
        )


def _explore_subtree(
    root: _Cursor,
    prefix: tuple[int, ...],
    max_schedules: int,
    max_depth: int,
    stop_at_first_violation: bool,
    dedup: bool = False,
    sleep_sets: bool = False,
    groups: Sequence[tuple[int, ...]] = (),
    root_sleep: _SleepSet | None = None,
    frontier: tuple[int, Callable] | None = None,
    progress: ProgressCallback | None = None,
    progress_every: int = 1000,
    cancel=None,
    checkpoint_to: str | None = None,
    checkpoint_every: int = 1000,
    resume: Mapping | None = None,
    config: str = "",
) -> tuple[ExplorationResult, list[int]]:
    """Incremental DFS below ``root``, the node ``prefix`` leads to.

    ``root`` is consumed: the search forks and advances it in place.
    ``prefix`` only supplies the path and depth of violations found
    below it.

    With ``dedup=True`` the DFS consults a per-call transposition cache
    at every branch point (two or more enabled events): one whose state
    fingerprint was already fully expanded is pruned, and the cached
    subtree summary is replayed in its place, reproducing the exact
    terminal counts and violations of a re-expansion.  Terminal and
    single-event nodes are never keyed, only expanded.

    ``sleep_sets=True`` adds the sleep-set partial-order reduction: a
    branch whose choice is asleep (its footprint independent of every
    event taken since a sibling order explored it) is skipped before
    forking; ``root_sleep`` seeds the root's sleep set, and every
    verdict of the relation is counted by its source.  Cached
    summaries are reused under the subset-reuse rule: the sleep set is
    not part of the cache key, and an entry stands in for any arrival
    sleeping at least what the entry slept.  A non-empty ``groups``
    tuple switches the dedup cache to orbit-canonical keys (see
    :meth:`~repro.runtime.simulator.SimulationRun.orbit_key`).

    ``frontier=(cut, at_cut)`` cuts the search at depth ``cut``: a node
    there is not expanded, but handed to ``at_cut(path, cursor, sleep)``,
    which returns the ``(result, ordinals)`` outcome of that subtree's
    search with absolute guides.  Its work counters are added to this
    call's and its terminals and violations replayed like a cached
    summary's, so budget, abort and violation order work as if the
    subtree had been expanded here.  An interrupted outcome is not
    merged: the call stops with ``interrupted=True``.

    ``cancel``/``checkpoint_to``/``checkpoint_every``/``resume`` are the
    durability hooks (module docstring, *Checkpoint and resume*):
    ``resume`` is an already-verified checkpoint body whose recorded
    frame stack is replayed branch-for-branch without re-counting, and
    ``config`` is the configuration digest stamped into every
    checkpoint this call writes.  The caller is responsible for having
    matched ``config`` against a resumed body's own stamp.

    Returns ``(result, ordinals)``: the search's result (``workers`` is
    1; the sharded merge sets its own), and for each of its violations
    the position of the violating terminal in the subtree's depth-first
    terminal sequence, so a cut search can replay the violations under
    its own budget.
    """
    if resume is not None and resume.get("complete"):
        # The interrupted search had already finished (the final
        # checkpoint landed); its outcome is the whole answer.
        return _outcome_from_json(resume["outcome"])
    cut, at_cut = frontier if frontier is not None else (-1, None)
    if resume is not None:
        out, ordinals = _outcome_from_json(resume["outcome"])
        cache = _cache_from_json(resume["cache"])
        resume_stack = [_Frame.from_json(level) for level in resume["frames"]]
    else:
        out, ordinals = ExplorationResult(0, 0), []
        cache = {}
        resume_stack = []
    # One frozenset per distinct sleep-key set, shared by the cache
    # entries recorded under it (restored ones included).
    keysets: dict[frozenset[tuple], frozenset[tuple]] = {}
    for entry in cache.values():
        slept = entry.sleep_keys
        entry.sleep_keys = keysets.setdefault(slept, slept)
    # Every tracker of the search is a fork of the root's.
    reads_result = root.tracker.reads_result
    path = list(prefix)
    # Progress rates count this call's own expansions, not restored ones.
    started = _now() if progress is not None else 0.0
    expanded_before = out.schedules_explored
    frames: list[_Frame] = []
    ckpt_mark = out.schedules_explored
    # Per-search caches of pure functions, empty again on resume: the
    # orbit key of each raw fingerprint seen, and the at-rest text of
    # each cache entry object, encoded at the first checkpoint after the
    # entry was stored (a take-over stores a new object).
    orbits: dict[str, tuple[str, tuple[int, ...], int]] = {}
    texts: dict[str, tuple[_CacheEntry, str]] = {}

    def cache_text() -> CanonicalJSON:
        """:func:`_cache_to_json`'s canonical encoding, from kept texts."""
        parts = []
        for key in sorted(cache):
            entry = cache[key]
            kept = texts.get(key)
            if kept is None or kept[0] is not entry:
                kept = texts[key] = (
                    entry,
                    canonical_json([key, encode(entry)]),
                )
            parts.append(kept[1])
        return CanonicalJSON("[" + ",".join(parts) + "]")

    def snapshot(*, complete: bool) -> None:
        """Write the current search state to the checkpoint file.

        Captured at a node's entry, *before* that node is counted: the
        serialized counters plus the frame stack describe exactly the
        work completed so far, and the resume descent re-enters the
        frontier node as a normal (fully counted) expansion.
        """
        if checkpoint_to is None:
            return
        body: dict = {
            "kind": "subtree",
            "config": config,
            "complete": complete,
            "outcome": _outcome_to_json(out, ordinals),
            "frames": [] if complete else [f.to_json() for f in frames],
            "cache": cache_text() if dedup and not complete else [],
        }
        write_checkpoint(checkpoint_to, body)

    def checkpoint_due() -> bool:
        nonlocal ckpt_mark
        if checkpoint_to is None:
            return False
        if out.schedules_explored - ckpt_mark < checkpoint_every:
            return False
        ckpt_mark = out.schedules_explored
        return True

    def interrupt() -> None:
        """Persist the frontier, then mark the partial result.

        Order matters: the checkpoint captures the honest pre-cut state
        (``interrupted`` stays False inside it — a resumed search is not
        interrupted), and only the value *returned* from this run
        carries the interruption flags.
        """
        snapshot(complete=False)
        out.interrupted = True
        out.exhausted = False

    def note_expansion(depth: int) -> None:
        """Per-depth accounting plus the periodic progress callback.

        A raising callback must not abort the search mid-subtree (it
        used to, leaving engine-dependent partial state): the error is
        caught, recorded on the outcome, and the callback is disabled —
        exploration continues exactly as it would have without it.
        """
        nonlocal progress
        out.expansions_by_depth[depth] = (
            out.expansions_by_depth.get(depth, 0) + 1
        )
        if (
            progress is not None
            and out.schedules_explored % progress_every == 0
        ):
            elapsed = _now() - started
            snapshot = ProgressSnapshot(
                expansions=out.schedules_explored,
                terminals=out.terminal_schedules,
                depth=depth,
                elapsed=elapsed,
                states_per_second=(
                    (out.schedules_explored - expanded_before) / elapsed
                    if elapsed > 0
                    else 0.0
                ),
                expansions_by_depth=dict(out.expansions_by_depth),
                dedup_hits_by_depth=dict(out.dedup_hits_by_depth),
                independence_stats=dict(out.independence_stats),
            )
            try:
                progress(snapshot)
            except Exception as exc:
                out.progress_errors.append(f"{type(exc).__name__}: {exc}")
                progress = None

    def visit_terminal(cursor: _Cursor) -> tuple[tuple[str, ...], bool]:
        """Account one terminal; returns (problems, keep_going)."""
        ordinal = out.terminal_schedules
        out.terminal_schedules += 1
        problems = tuple(
            cursor.tracker.at_terminal(
                cursor.handle.result() if reads_result else None
            )
        )
        if problems:
            out.violations.append(Violation(tuple(path), problems))
            ordinals.append(ordinal)
            if stop_at_first_violation:
                out.aborted = True
                out.exhausted = False
                return problems, False
        return problems, True

    def branches(
        choices: list, sleep: _SleepSet
    ) -> tuple[list[int], list[tuple]]:
        """The non-slept branch indices, and every branch's choice key.

        Without sleep sets every branch is active and no key is built.
        """
        if not sleep_sets:
            return list(range(len(choices))), []
        keys = [choice_key(choice) for choice in choices]
        return [b for b in range(len(choices)) if keys[b] not in sleep], keys

    def child_sleep_set(
        child: _Cursor, sleep: _SleepSet, explored: _SleepSet
    ) -> tuple[_SleepSet, Footprint | None]:
        """The sleep set below ``child``, and the taken event's footprint.

        The child keeps every slept or earlier-explored sibling event
        that is independent of the event just taken (Godefroid's
        sleep-set recurrence); a dependent event wakes up.  Each verdict
        is counted by the argument that carried it.
        """
        child.handle.choices()  # prelude: captures the footprint
        taken = child.handle.last_footprint
        counts = out.independence_stats
        kept = {}
        for candidates in (sleep, explored):
            for key, footprint in candidates.items():
                independent, source = classify(footprint, taken)
                counts[source] = counts.get(source, 0) + 1
                if independent:
                    kept[key] = footprint
        return kept, taken

    def replay(summary: _Summary, base: tuple[int, ...] | None) -> bool:
        """Emit a cached subtree's terminals and violations.

        ``base`` is the arrival's own path when the summary carries
        relative suffixes (classic dedup: guides are rebased onto it),
        or ``None`` when it carries absolute guides (symmetry mode).
        Mirrors what depth-first re-expansion would have reported: the
        schedule budget can cut the virtual subtree mid-way, and
        ``stop_at_first_violation`` aborts at its first violating
        terminal.  Returns False to abort the whole search.
        """
        budget_left = max_schedules - out.terminal_schedules
        take = min(summary.terminals, budget_left)
        start = out.terminal_schedules
        for ordinal, guide, problems, perm in summary.violations:
            if ordinal >= take:
                break
            full = guide if base is None else base + guide
            out.violations.append(Violation(full, problems, perm))
            ordinals.append(start + ordinal)
            if stop_at_first_violation:
                out.terminal_schedules = start + ordinal + 1
                out.aborted = True
                out.exhausted = False
                return False
        out.terminal_schedules = start + take
        if take < summary.terminals:
            out.exhausted = False
            return False
        return True

    def remember(
        key: str,
        raw: str,
        perm: tuple[int, ...] | None,
        depth: int,
        sleep: _SleepSet,
        summary: _Summary,
    ) -> None:
        """Cache a node's summary — unless the cached one covers more.

        A slot is taken over only when the new summary is at least as
        reusable as the stored one: recorded under a subset of its
        sleep keys (every arrival the stored entry served, plus the
        less-slept ones that had to re-expand) and not newly truncated.
        Anything else would shrink the compatible class.
        """
        existing = cache.get(key)
        if existing is not None:
            if summary.truncated and not existing.summary.truncated:
                return
            if sleep_sets and not _canonical_keys(sleep, perm) <= (
                _canonical_keys(existing.sleep_keys, existing.perm)
            ):
                return
        slept = frozenset(sleep)
        slept = keysets.setdefault(slept, slept)
        cache[key] = _CacheEntry(depth, summary, tuple(path), raw, slept, perm)

    def dfs(
        cursor: _Cursor,
        depth: int,
        sleep: _SleepSet,
        resume: Sequence[_Frame] = (),
    ) -> _Summary | None:
        """Expand one node; the subtree's summary, or None to abort.

        With the cache on, a branch point's summary is cached for later
        arrivals at the same state and re-framed through the witnessing
        permutation on symmetry merges; a terminal or single-event node
        is not keyed, and its summary only flows up to its parent (its
        checkpoint frame carries no key).  With the cache off, nothing
        is fingerprinted, looked up or remembered, no summary is built,
        and a finished subtree returns the empty ``_DONE``.  ``None``
        means the search was cut (budget, abort, cancellation): partial
        summaries are never cached.

        A non-empty ``resume`` re-enters a checkpointed node: ``resume[0]``
        is its frame, whose sleep set (dedup's subset-reuse rule may
        have shrunk it at entry, a history-dependent mutation),
        explored-sibling footprints, cache key, canonicalizing
        permutation and partial summary are restored; the rest of the
        node's structure is a deterministic function of its state and is
        recomputed.  Nothing is counted (the restored counters already
        include this node's expansion), the recorded branch is taken
        first, and ``resume[1:]`` descends the rest of the recorded
        frontier the same way.
        """
        if not resume:
            if cancel is not None and cancel.is_set():
                interrupt()
                return None
            if checkpoint_due():
                snapshot(complete=False)
            if out.terminal_schedules >= max_schedules:
                out.exhausted = False
                return None
            if depth == cut:
                sub, sub_ordinals = at_cut(tuple(path), cursor, sleep)
                if sub.interrupted:
                    interrupt()
                    return None
                # Work counters add up (per field ``merge``); terminals
                # and violations merge through the replay below.
                absorb(out, sub)
                cut_summary = _Summary(
                    terminals=sub.terminal_schedules,
                    violations=[
                        (ordinal, v.guide, v.problems, v.permutation)
                        for ordinal, v in zip(sub_ordinals, sub.violations)
                    ],
                )
                return _DONE if replay(cut_summary, None) else None
            choices = cursor.handle.choices()  # prelude before fingerprinting
            cursor.sync()
            key = raw = perm = None
            if dedup and len(choices) > 1:
                # Only a branch point is keyed: a terminal or single-event
                # node is re-expanded on every arrival (module docstring,
                # *Which nodes are keyed*).
                raw = cursor.handle.fingerprint()
                if groups:
                    # the orbit key is a function of the state ``raw``
                    # digests; a repeat adds the candidates it cost once
                    orbit = orbits.get(raw)
                    if orbit is None:
                        orbit = orbits[raw] = cursor.handle.orbit_key(groups)
                    key, perm, encodings = orbit
                    out.orbit_encodings += encodings
                else:
                    key = raw
                entry = cache.get(key)
                if entry is not None:
                    # Both keys digest the decision count, so a hit is
                    # at the depth the entry was recorded: a truncated
                    # subtree meets the same ``max_depth`` cut, and an
                    # untruncated one still fits under it.
                    assert entry.depth == depth
                    # Subset-reuse: the stored subtree covers this
                    # arrival iff the arrival sleeps at least what the
                    # representative slept (compared in the canonical
                    # frame under symmetry).  A less slept arrival needs
                    # subtrees the entry skipped, so it falls through
                    # and re-expands — under the *intersection* of the
                    # two sleep sets, so the replacing summary serves
                    # the stored entry's arrival pattern as well as this
                    # one and the slot stabilizes after at most one
                    # re-expansion.
                    stored = _canonical_keys(entry.sleep_keys, entry.perm)
                    compatible = not sleep_sets or stored <= _canonical_keys(
                        sleep, perm
                    )
                    if not compatible:
                        sleep = {
                            k: fp
                            for k, fp in sleep.items()
                            if (k if perm is None else _map_sleep_key(k, perm))
                            in stored
                        }
                    if compatible:
                        if entry.raw == raw:
                            out.states_deduped += 1
                            summary = entry.summary
                            base = None if groups else tuple(path)
                        else:
                            out.states_merged_symmetry += 1
                            assert perm is not None and entry.perm is not None
                            witness = _witness_permutation(perm, entry.perm)
                            summary = _transform_summary(
                                entry.summary, witness
                            )
                            base = None
                        out.dedup_hits_by_depth[depth] = (
                            out.dedup_hits_by_depth.get(depth, 0) + 1
                        )
                        out.max_depth_seen = max(
                            out.max_depth_seen, depth + summary.height
                        )
                        if summary.truncated:
                            out.exhausted = False
                        if not replay(summary, base):
                            return None
                        return summary
                if entry is None:
                    out.states_seen += 1  # first expansion of this state/orbit
            out.schedules_explored += 1
            note_expansion(depth)
            out.max_depth_seen = max(out.max_depth_seen, depth)
            if not choices:
                problems, keep_going = visit_terminal(cursor)
                if not keep_going:
                    return None
                if not dedup:
                    return _DONE
                summary = _Summary(terminals=1)
                if problems:
                    own = tuple(path) if groups else ()
                    summary.violations.append((0, own, problems, None))
                return summary
            if depth >= max_depth:
                out.exhausted = False
                if not dedup:
                    return _DONE
                summary = _Summary(truncated=True)
                if key is not None:
                    remember(key, raw, perm, depth, sleep, summary)
                return summary
            summary = _Summary() if dedup else _DONE
            node = _FrameDedup(key, raw, perm, summary) if dedup else None
            active, keys = branches(choices, sleep)
            out.states_pruned_sleep += len(choices) - len(active)
            explored: _SleepSet = {}
            pending = active
        else:
            frame = resume[0]
            choices = cursor.handle.choices()
            cursor.sync()
            sleep, explored = frame.sleep, frame.explored
            active, keys = branches(choices, sleep)
            if frame.branch not in active:
                raise CheckpointError(
                    f"checkpoint frame at depth {depth} records branch "
                    f"{frame.branch}, which is not enabled at the restored "
                    f"node — the checkpoint does not match this "
                    f"configuration"
                )
            pending = active[active.index(frame.branch):]
            node = frame.dedup
            if node is None:
                # Cache-off frames store no summary: nothing reads one.
                key = raw = perm = None
                summary = _DONE
            else:
                # An unkeyed node's frame has no key: it is not remembered
                key, raw, perm = node.key, node.raw, node.perm
                summary = node.summary
        last = active[-1] if active else None
        descend = resume[1:]
        if resume:
            counted = (
                out.events_executed,
                out.events_replayed,
                dict(out.independence_stats),
            )
        for branch in pending:
            if branch != last:
                child = cursor.fork()
                out.events_replayed += child.handle.replayed_steps
            else:
                child = cursor  # the last branch extends this node in place
            child.handle.advance(branch)
            out.events_executed += 1
            if sleep_sets:
                child_sleep, taken = child_sleep_set(child, sleep, explored)
            else:
                child_sleep, taken = sleep, None
            if resume:
                # The recorded branch was taken before the checkpoint:
                # its fork, event and verdicts are in the restored
                # counters, so re-taking it counts none of them.
                (
                    out.events_executed,
                    out.events_replayed,
                    out.independence_stats,
                ) = counted
                resume = ()
            path.append(branch)
            frames.append(_Frame(branch, sleep, explored, node))
            child_summary = dfs(child, depth + 1, child_sleep, descend)
            descend = ()  # only the recorded branch resumes a frame
            frames.pop()
            path.pop()
            if child_summary is None:
                return None
            if dedup:
                for ordinal, guide, problems, vperm in (
                    child_summary.violations
                ):
                    summary.violations.append(
                        (
                            summary.terminals + ordinal,
                            guide if groups else (branch,) + guide,
                            problems,
                            vperm,
                        )
                    )
                summary.terminals += child_summary.terminals
                summary.height = max(
                    summary.height, child_summary.height + 1
                )
                summary.truncated = (
                    summary.truncated or child_summary.truncated
                )
            if sleep_sets and taken is not None:
                explored[keys[branch]] = taken
        if key is not None:
            remember(key, raw, perm, depth, sleep, summary)
        return summary

    dfs(root, len(prefix), root_sleep or {}, resume_stack)
    if not out.interrupted:
        snapshot(complete=True)
    return out, ordinals


# ---------------------------------------------------------------------------
# Parallel sharding
# ---------------------------------------------------------------------------

#: Work description inherited by forked pool workers (never pickled).
_SHARD_STATE: tuple | None = None


class _ShardCancel:
    """A shard's cancel token: the parent's stop flag or the caller's."""

    def __init__(self, stop, cancel) -> None:
        self.stop, self.cancel = stop, cancel

    def is_set(self) -> bool:
        return bool(self.stop.value) or (
            self.cancel is not None and self.cancel.is_set()
        )


def _explore_shard(index: int) -> tuple[ExplorationResult, list[int]]:
    """Pool worker entry point: explore the ``index``-th shard subtree.

    The shard starts from the cursor and sleep set the frontier pass
    left at its root (inherited through the fork, so nothing is
    replayed), and counts only its own verdicts.  With checkpointing
    on, each shard owns the side file
    :func:`~repro.runtime.checkpoint.shard_checkpoint_path` names: it
    resumes from it when a valid one exists (a complete one returns its
    outcome at once; a corrupt or mismatched-config file means a cold
    start for that shard, never an error — the shard's work is
    self-contained) and checkpoints its own subtree into it.  The forked
    worker sees a fork-time *snapshot* of the cancel token; the parent
    polls the live token while it waits and raises the shared stop flag
    to pass a cancel on.
    """
    assert _SHARD_STATE is not None
    shards, stop, cancel, checkpoint_to, config, search = _SHARD_STATE
    prefix, root, root_sleep = shards[index]
    shard_path = None
    shard_config = ""
    resume_body = None
    if checkpoint_to is not None:
        shard_path = shard_checkpoint_path(checkpoint_to, index)
        shard_config = stable_digest(
            "repro.checkpoint.shard", config, prefix
        )
        if os.path.exists(shard_path):
            try:
                body = read_checkpoint(shard_path)
            except CheckpointError:
                body = None  # corrupt or stale: start this shard cold
            if (
                body is not None
                and body.get("kind") == "subtree"
                and body.get("config") == shard_config
            ):
                resume_body = body
    return _explore_subtree(
        root,
        prefix,
        root_sleep=root_sleep,
        cancel=_ShardCancel(stop, cancel),
        checkpoint_to=shard_path,
        resume=resume_body,
        config=shard_config,
        **search,
    )


def _expand_frontier(
    root: _Cursor, max_depth: int, target_shards: int, sleep_sets: bool
) -> tuple[int, list[tuple]]:
    """Cut the top of the tree into at least ``target_shards`` subtrees.

    Iterative deepening: passes of :func:`_explore_subtree` cut at depth
    1, 2, … 8, each on a fork of ``root``, until one
    yields enough shards, or none.  A pass records each node at the cut
    as ``(path, cursor, sleep)`` and stands in an empty outcome for its
    subtree.  Returns the last pass's cut depth and its shard list.
    Every pass is discarded uncounted: the merge pass counts the nodes
    above the cut.
    """
    shards: list[tuple] = []

    def record(
        path: tuple[int, ...], cursor: _Cursor, sleep: _SleepSet
    ) -> tuple[ExplorationResult, list[int]]:
        shards.append((path, cursor, sleep))
        return ExplorationResult(0, 0), []

    for cut in range(1, 9):
        shards.clear()
        _explore_subtree(
            root.fork(),
            (),
            sys.maxsize,
            max_depth,
            False,
            sleep_sets=sleep_sets,
            frontier=(cut, record),
        )
        if len(shards) >= target_shards or not shards:
            break
    return cut, shards


def _explore_parallel(
    root: _Cursor,
    max_schedules: int,
    max_depth: int,
    stop_at_first_violation: bool,
    workers: int,
    sleep_sets: bool = False,
    cancel=None,
    checkpoint_to: str | None = None,
    checkpoint_every: int = 1000,
    resume: Mapping | None = None,
    config: str = "",
) -> ExplorationResult:
    """Shard the tree over a worker pool; merge with a cut DFS pass.

    Only cache-less searches shard.  :func:`_expand_frontier` lists the
    shard roots, the pool explores every shard from the cursor and
    sleep set the frontier left at its root, and a *merge pass* — the
    same DFS, cut at the frontier's depth — replays each shard's
    outcome at its root in depth-first order.  Budget, abort, violation
    order and ``cancel`` therefore mean what they mean sequentially:
    ``terminal_schedules``, ``violations`` and ``aborted`` equal the
    sequential result's, and an exhaustive run equals it field for
    field apart from ``workers``.
    Shards the merge replays count their whole subtree's work, at the
    full budget each.  While it waits for a shard the merge pass polls
    ``cancel`` and, once it fires, raises the stop flag the shards poll.

    With checkpointing on, each shard checkpoints its own subtree to its
    side file (see :func:`_explore_shard`), and the parent's file at
    ``checkpoint_to`` only marks the search: an incomplete body is
    written before the pool starts and the complete result at the end,
    after which the side files are deleted; an interrupted run keeps
    them.  A resumed run re-expands the frontier and runs every shard
    again — a finished shard returns from its complete side file — so
    an incomplete parent body carries nothing to restore (a legacy
    ``"shards"`` map of merged outcomes is ignored).
    """
    global _SHARD_STATE
    if resume is not None and resume.get("complete"):
        return ExplorationResult.from_json(resume["result"])
    if checkpoint_to is not None:
        write_checkpoint(
            checkpoint_to,
            {"kind": "parallel", "config": config, "complete": False},
        )
    cut, shards = _expand_frontier(
        root, max_depth, workers * 4, sleep_sets
    )
    ctx = multiprocessing.get_context("fork")
    # Raised when the merge is over, so the shards stop and the pool
    # drains: terminating it could kill a worker holding the result
    # queue's lock, which hangs the pool's shutdown.
    stop = ctx.RawValue("b", 0)
    # The bounds of the merge pass and of every shard.
    search = dict(
        max_schedules=max_schedules,
        max_depth=max_depth,
        stop_at_first_violation=stop_at_first_violation,
        sleep_sets=sleep_sets,
        checkpoint_every=checkpoint_every,
    )
    _SHARD_STATE = (shards, stop, cancel, checkpoint_to, config, search)
    try:
        with ctx.Pool(processes=workers) as pool:
            outcomes = pool.imap(_explore_shard, range(len(shards)))

            def at_cut(
                path: tuple[int, ...], cursor: _Cursor, sleep: _SleepSet
            ) -> tuple[ExplorationResult, list[int]]:
                # Shards see a fork-time snapshot of ``cancel``: poll the
                # live token while waiting, and pass it on as ``stop``.
                while True:
                    try:
                        return outcomes.next(timeout=0.05)
                    except multiprocessing.TimeoutError:
                        if cancel is not None and cancel.is_set():
                            stop.value = 1

            result, _ = _explore_subtree(
                root, (), frontier=(cut, at_cut), cancel=cancel, **search
            )
            stop.value = 1
            pool.close()
            pool.join()
    finally:
        _SHARD_STATE = None
    result.workers = workers
    if checkpoint_to is not None and not result.interrupted:
        write_checkpoint(
            checkpoint_to,
            {
                "kind": "parallel",
                "config": config,
                "complete": True,
                "result": result.to_json(),
            },
        )
        discard_shard_checkpoints(checkpoint_to)
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def explore_schedules(
    simulator: Simulator,
    scripts: Mapping[int, Sequence[Hashable]],
    property_check: Property,
    *,
    crash_schedule: CrashSchedule | None = None,
    max_schedules: int = 100_000,
    max_depth: int = 400,
    stop_at_first_violation: bool = False,
    dedup: bool = False,
    workers: int = 1,
    sleep_sets: bool = False,
    symmetry: str = "none",
    progress: ProgressCallback | None = None,
    progress_every: int = 1000,
    cancel=None,
    checkpoint_to: str | None = None,
    checkpoint_every: int = 1000,
    resume_from: str | None = None,
) -> ExplorationResult:
    """Enumerate every schedule of the configuration and check each.

    ``simulator`` provides the system (its seed/policy are ignored —
    scheduling is exhaustive, and local computation is made atomic, the
    sound reduction described on
    :class:`~repro.runtime.simulator.Simulator`); ``max_schedules``
    bounds the number of *terminal* schedules visited, ``max_depth`` the
    decision depth.  ``dedup=True`` turns on the fingerprint
    transposition cache, which keys branch points only (nodes with two
    or more enabled events; module docstring, *Which nodes are keyed*):
    ``states_seen`` counts distinct branch points and
    ``schedules_explored`` every expansion, terminal and single-event
    nodes re-expanded on each arrival included.  ``workers > 1`` shards
    a cache-less search over a process pool without changing its result
    (see the module docstring for the merge semantics).  A search with
    the cache on runs in one process and reports ``workers=1``.

    Two pre-step reductions compose with the cache.  ``sleep_sets=True``
    prunes a branch before forking when the event it takes is *asleep*:
    an already-explored sibling order covers every interleaving it would
    start, by the recorded-footprint independence relation of
    :mod:`repro.runtime.independence`.  Slept terminals are not
    re-counted, so ``terminal_schedules`` reports covered-distinct
    schedules, not raw interleavings — and under dedup a cached subtree
    recorded with a smaller sleep set stands in for later, more-slept
    arrivals (the subset-reuse rule), so the count may include
    commutation-redundant terminals a from-scratch sleep-set search
    would have skipped; the set of distinct terminal observations and
    violations is unaffected.  The relation is *crash-aware*: a pending
    crash fires at a fixed global decision count that adjacent swaps
    preserve, so a pair commutes when neither event touched a victim
    whose injection lands inside the swap window.  Per-source verdict
    counts land in :attr:`ExplorationResult.independence_stats`.
    ``symmetry="rename"`` (requires dedup) additionally merges states
    equal up to a permutation of interchangeable process ids plus an
    injective renaming of message contents (the paper's Definition 3
    applied to states); states are keyed by the orbit-canonical digest
    of :meth:`~repro.runtime.simulator.SimulationRun.orbit_key`
    (canonical labelling, ~1 encoding per state —
    :attr:`ExplorationResult.orbit_encodings`).  It is gated on the
    algorithm declaring
    :meth:`~repro.runtime.process.BroadcastProcess.symmetric_processes`
    and is violation-complete — violations found through a merge carry
    the witnessing pid permutation on :attr:`Violation.permutation`,
    with guides in the cached representative's frame.

    ``progress`` is invoked every ``progress_every`` node expansions
    with a :class:`ProgressSnapshot` of counters and wall-clock
    telemetry.  It needs a search that runs in one process: ``workers=1``,
    or any ``workers`` with the cache on.

    ``checkpoint_to=path`` writes a versioned, integrity-sealed
    checkpoint of the complete search state every ``checkpoint_every``
    node expansions, on cancellation, and once more at completion;
    ``resume_from=path`` restores one and continues to a result
    construction-identical to an uninterrupted run (module docstring,
    *Checkpoint and resume*).  ``cancel`` is a cooperative stop token
    (any object with a ``threading.Event``-style ``is_set()``): once
    set, the search writes a final checkpoint (when one was requested)
    and returns promptly with ``interrupted=True``.  A checkpoint
    records its configuration digest; ``resume_from`` with a different
    configuration — including a different effective ``workers`` count —
    raises :class:`~repro.runtime.checkpoint.CheckpointError`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if symmetry not in ("none", "rename"):
        raise ValueError(
            f"unknown symmetry {symmetry!r}: expected 'none' or 'rename'"
        )
    if symmetry == "rename" and not dedup:
        raise ValueError(
            "symmetry reduction requires dedup=True (its merges live in "
            "the transposition cache)"
        )
    if progress_every < 1:
        raise ValueError(
            f"progress_every must be >= 1, got {progress_every}"
        )
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    simulator = Simulator(
        simulator.n,
        simulator.algorithm_factory,
        k=simulator.k,
        ksa_policy=simulator.ksa_policy,
        sync_broadcasts=simulator.sync_broadcasts,
        atomic_local=True,
        validate_footprints=simulator.validate_footprints,
    )
    groups = (
        _renaming_groups(simulator, scripts, crash_schedule)
        if symmetry == "rename"
        else ()
    )
    if workers > 1:
        try:
            multiprocessing.get_context("fork")
        except ValueError:
            workers = 1  # platform without fork: degrade gracefully
        if dedup:
            workers = 1  # one cache sees every state: never shard it
    if progress is not None and workers > 1:
        raise ValueError("progress reporting requires workers=1 or dedup")
    config = ""
    if checkpoint_to is not None or resume_from is not None:
        # Everything that shapes the search tree or the result
        # semantics.  The algorithm is identified by its class name: the
        # factory itself has no stable encoding, and a renamed or
        # swapped algorithm must invalidate old checkpoints.
        config = config_digest(
            n=simulator.n,
            k=simulator.k,
            algorithm=type(
                simulator.algorithm_factory(0, simulator.n)
            ).__qualname__,
            sync_broadcasts=simulator.sync_broadcasts,
            scripts=tuple(
                sorted(
                    (pid, tuple(entries))
                    for pid, entries in scripts.items()
                )
            ),
            crash_schedule=crash_schedule,
            dedup=dedup,
            sleep_sets=sleep_sets,
            # Two retired options, digested at the only values every
            # search now has, so checkpoints written while they existed
            # still resume.
            static_independence=False,
            crash_aware=True,
            groups=tuple(groups),
            # A symmetric search's cache keys are orbit keys: name their
            # layout, so a checkpoint keyed by the whole-image layout
            # before component digests is refused, not resumed against
            # a cache it can never hit.  Absent without groups, so
            # non-symmetric checkpoints keep their digest.
            **({"orbit_key_layout": "component-digests"} if groups else {}),
            # A cached search keys branch points only, so its counters
            # and cache differ from a search that keyed every node: a
            # dedup checkpoint written before that rule is refused.
            # Absent without dedup, so plain and sharded checkpoints
            # keep their digest.
            **({"cache_keys": "branch-points"} if dedup else {}),
            max_schedules=max_schedules,
            max_depth=max_depth,
            stop_at_first_violation=stop_at_first_violation,
            workers=workers,
        )
    resume_body = None
    if resume_from is not None:
        resume_body = read_checkpoint(resume_from)
        if resume_body.get("config") != config:
            raise CheckpointError(
                f"checkpoint at {resume_from!r} was written for a "
                f"different exploration configuration (system, scripts, "
                f"engine options, bounds, or workers changed)"
            )
        expected_kind = "parallel" if workers > 1 else "subtree"
        if resume_body.get("kind") != expected_kind:
            raise CheckpointError(
                f"checkpoint at {resume_from!r} has kind "
                f"{resume_body.get('kind')!r}, expected "
                f"{expected_kind!r}"
            )
    root = _Cursor(
        simulator.begin(scripts, crash_schedule=crash_schedule),
        _as_property(property_check).tracker(simulator.n),
        0,
    )
    if workers > 1:
        return _explore_parallel(
            root,
            max_schedules,
            max_depth,
            stop_at_first_violation,
            workers,
            sleep_sets=sleep_sets,
            cancel=cancel,
            checkpoint_to=checkpoint_to,
            checkpoint_every=checkpoint_every,
            resume=resume_body,
            config=config,
        )
    result, _ = _explore_subtree(
        root,
        (),
        max_schedules,
        max_depth,
        stop_at_first_violation,
        dedup=dedup,
        sleep_sets=sleep_sets,
        groups=groups,
        progress=progress,
        progress_every=progress_every,
        cancel=cancel,
        checkpoint_to=checkpoint_to,
        checkpoint_every=checkpoint_every,
        resume=resume_body,
        config=config,
    )
    return result
