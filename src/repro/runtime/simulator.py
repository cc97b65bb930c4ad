"""The one scheduler: seeded, fair, replayable runs of CAMP_n[H].

Left to itself, the :class:`Simulator` explores *typical* asynchronous
schedules: at each point it chooses uniformly at random (from an explicit
seed) among all enabled events —

* an enabled local step of some live process,
* the reception of some in-flight message by a live process,
* the start of the next script entry at an idle process: a broadcast,
  or an operation :class:`~repro.runtime.service.Invocation` of a
  request/response :class:`~repro.runtime.service.ServiceProcess`,

and injects crashes according to a :class:`~repro.runtime.crash.CrashSchedule`.
The run ends when no event is enabled (quiescence) or a step budget is
exhausted.  Every sent message addressed to a live process is eventually
received because receptions stay enabled until taken — so finite quiescent
runs satisfy SR-Termination by construction, and the checkers in
:mod:`repro.core.model` re-verify it.

Runs come in two shapes:

* :meth:`Simulator.run` — the classic one-shot entry point: drive the
  system to quiescence (or budget/guide exhaustion) and return a
  :class:`SimulationResult`.
* :meth:`Simulator.begin` — a *resumable run handle*
  (:class:`SimulationRun`): the caller inspects the enabled events
  (:meth:`SimulationRun.choices`), commits one (:meth:`SimulationRun.advance`)
  and may snapshot the whole system state at any decision point
  (:meth:`SimulationRun.fork`).  This is the primitive underneath the
  incremental schedule explorer (:mod:`repro.runtime.explorer`), which
  extends a DFS prefix by *one* event instead of re-running it from
  scratch, and of Algorithm 1 (:mod:`repro.adversary.scheduler`), whose
  hostile schedule names each event it takes.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from ..core.execution import Execution
from ..core.message import Message, MessageFactory
from ..detectors.oracles import Clock
from ..registers.history import History, OperationRecord
from .crash import CrashSchedule
from .fingerprint import (
    PidCanonicalizer,
    dict_encoding,
    encoded_digest,
    encoding,
    int_encoding,
    list_encoding,
    orbit_digest,
    tuple_digest,
    tuple_encoding,
)
from .independence import Footprint
from .ksa_objects import DecisionPolicy, FirstProposalsPolicy, KsaRegistry
from .network import Network
from .policies import SchedulingPolicy, UniformPolicy
from .process import (
    Algorithm,
    Blocked,
    DeliverSetStep,
    DeliverStep,
    Idle,
    LocalStep,
    ProcessRuntime,
    ProposeStep,
    ReturnStep,
    SendStep,
)
from .service import Invocation, ResponseStep
from .trace import TraceRecorder

__all__ = [
    "FootprintViolationError",
    "Gated",
    "SimulationResult",
    "SimulationRun",
    "Simulator",
]


class FootprintViolationError(AssertionError):
    """A dynamic footprint escaped its static effect summary.

    Raised only under ``validate_footprints=True``: the simulator
    recorded an event touching state, emitting messages or consulting an
    oracle that the closed summary inferred by
    :mod:`repro.statics.analyzer` proves the handler cannot — meaning
    either the analyzer is unsound or the recording is wrong.  Both are
    bugs worth crashing a differential test over.
    """

AlgorithmFactory = Callable[[int, int], Algorithm]

#: One enabled scheduling choice: ``("local", pid)``, ``("recv", InFlight)``
#: or ``("bcast", pid)``.
Choice = tuple[str, object]

#: ``encoding(False)`` and ``encoding(True)``, indexed by the flag.
_FLAGS = (encoding(False), encoding(True))


@dataclass(frozen=True)
class Gated:
    """A script entry that waits for a delivery before broadcasting.

    ``Gated(content, after)`` becomes eligible only once the process has
    locally delivered a message whose content equals ``after`` — the way
    scripts express *causal* dependencies across processes (a reply
    gated on its parent, a command gated on an acknowledgement).
    """

    content: Hashable
    after: Hashable


class _ScriptOrbit(NamedTuple):
    """What the orbit key reads of one pid's remaining script."""

    #: ``encoding(*script)``, the script's raw encoding.
    raw: bytes
    #: ``encoding`` of the script's shape, for the pid's profile.
    shape: bytes
    #: ``encoding`` of the pid's sync-gate flag, for its profile.
    synced: bytes


@dataclass
class SimulationResult:
    """Everything observable after one simulated run."""

    execution: Execution
    runtimes: Mapping[int, ProcessRuntime]
    quiescent: bool
    steps_taken: int
    blocked: Mapping[int, str] = field(default_factory=dict)
    #: Number of events that were enabled when a guided run exhausted its
    #: guide (0 for free runs, which always run to quiescence/budget).
    pending_choices: int = 0
    #: The operations of a request/response run, stamped with decision
    #: counts (empty for broadcast runs).
    history: History = field(default_factory=History)

    def deliveries(self, process: int) -> list[Message]:
        """The messages ``process`` B-delivered, in order."""
        return list(self.runtimes[process].delivered)

    def delivered_contents(self, process: int) -> list[Hashable]:
        """The contents ``process`` B-delivered, in order."""
        return [m.content for m in self.runtimes[process].delivered]


class SimulationRun:
    """A resumable, forkable handle on one in-progress simulation.

    The handle owns the full mutable state of a run — process runtimes,
    in-flight network, oracle registry, trace, script remainders, crash
    bookkeeping — and exposes the scheduling loop one decision at a time:

    >>> run = simulator.begin(scripts)           # doctest: +SKIP
    ... while run.choices():
    ...     run.advance(0)                       # take the first event
    ... result = run.result()

    :meth:`fork` produces an independent copy of the whole state in
    O(state) time without re-executing any event, which turns depth-first
    schedule exploration from O(nodes × depth) re-simulated events into
    O(edges): each tree edge is executed exactly once, on exactly one
    handle.

    Handles are created by :meth:`Simulator.begin`; the parent
    :class:`Simulator` object only carries immutable configuration and is
    shared between forks.
    """

    def __init__(
        self,
        simulator: "Simulator",
        scripts: Mapping[int, Sequence[Hashable]],
        *,
        crash_schedule: CrashSchedule | None = None,
    ) -> None:
        self.simulator = simulator
        self.crashes = crash_schedule or CrashSchedule.none()
        self.factory = MessageFactory()
        self.runtimes: dict[int, ProcessRuntime] = {
            p: ProcessRuntime(
                simulator.algorithm_factory(p, simulator.n),
                message_factory=self.factory,
            )
            for p in range(simulator.n)
        }
        self.registry = KsaRegistry(simulator.k, simulator.ksa_policy)
        self.network = Network()
        self.trace = TraceRecorder(simulator.n)
        self.remaining: dict[int, list[Hashable]] = {
            p: list(scripts.get(p, ())) for p in range(simulator.n)
        }
        self.last_sync_message: dict[int, Message | None] = {
            p: None for p in range(simulator.n)
        }
        self.alive: set[int] = set(range(simulator.n))
        #: The operations started from ``Invocation`` script entries, in
        #: invocation order.  A response replaces its record instead of
        #: updating it, so forks share the tuple.
        self.operations: tuple[OperationRecord, ...] = ()
        #: Scheduling decisions committed so far (the depth of this run).
        self.steps = 0
        #: Local steps re-executed to materialize this handle (0 unless
        #: the handle was forked from a runtime with a live generator).
        self.replayed_steps = 0
        #: The last committed event's footprint, finished by its prelude.
        self._last_footprint: Footprint | None = None
        #: The footprint the in-flight event is filling, from
        #: :meth:`advance` to the end of the next prelude.
        self._pending_footprint: Footprint | None = None
        self._choices: list[Choice] | None = None
        #: Encoding of the fingerprint's tail — factory counters, sync
        #: gates, remaining scripts — which only broadcast starts change.
        self._tail: bytes | None = None
        #: The same state, as the orbit key reads it: per pid, its
        #: remaining script; per permutation, the canonical encoding of
        #: the counters and sync gates.  Dropped with ``_tail``.  Forks
        #: share both, and may add permutations to the shared dict: its
        #: entries are a function of the state the forks share until
        #: one of them starts a broadcast.
        self._orbit_scripts: list[_ScriptOrbit] | None = None
        self._orbit_gates: dict[tuple[int, ...], bytes] = {}
        #: The orbit key's component memo (see *Orbit templates* in
        #: :mod:`repro.runtime.fingerprint`): templates by raw encoding
        #: and digests by raw encoding, permutation and token numbers.
        #: Its entries are functions of their keys alone, so every fork
        #: of this root shares it and nothing ever drops it.
        self._orbit_memo: dict = {}
        for p in sorted(self.crashes.initially):
            self.trace.crash(p)
            self.alive.discard(p)

    # -- the scheduling interface ----------------------------------------

    def choices(self) -> list[Choice]:
        """The events enabled at this decision point, in canonical order.

        Computing the choice set performs the per-decision prelude of the
        scheduling loop: due crashes are injected and, under
        ``atomic_local``, enabled local computation is drained (after an
        event, at its origin only; see :meth:`_drain_local`).  The
        result is cached until :meth:`advance` commits an event, so
        repeated calls (and calls after :meth:`fork`) are idempotent.
        """
        if self._choices is None:
            footprint = self._pending_footprint
            at_step = self.crashes.at_step
            if at_step:
                # One pass: a victim whose deadline has come is
                # injected now, between the last event and this decision
                # point; the rest stay pending, and those due at the very
                # next count are *imminent*.  An adjacent swap can only
                # observe the killed and the imminent victims (see
                # repro.runtime.independence).
                killed = []
                pending = []
                for p, step in sorted(at_step.items()):
                    if p not in self.alive:
                        continue
                    if step <= self.steps:
                        self.trace.crash(p)
                        self.alive.discard(p)
                        killed.append(p)
                    else:
                        pending.append((p, step))
                if footprint is not None:
                    footprint.crashed_pids = frozenset(killed)
                    footprint.pending_deadlines = tuple(pending)
                    footprint.imminent = frozenset(
                        p for p, step in pending if step == self.steps + 1
                    )
            if self.simulator.atomic_local:
                self._drain_local()
            self._choices = self._enabled_choices()
            if footprint is not None:
                if self.simulator.validate_footprints:
                    self._validate_footprint(footprint)
                # Finished: only the next advance() starts a new record,
                # so this one is never written again and forks share it.
                self._last_footprint = footprint
                self._pending_footprint = None
        return self._choices

    @property
    def last_footprint(self) -> Footprint | None:
        """Footprint of the last committed event (what it actually touched).

        The record :meth:`advance` created, as the :meth:`choices`
        prelude that follows the event finished it, so it covers the
        whole state delta between two decision points.  Nothing writes
        to it afterwards, so it is handed out as it is and forks share
        it.  ``None`` until the first event's prelude has run; until the
        next prelude it is the previous event's.
        """
        return self._last_footprint

    def _validate_footprint(self, footprint: Footprint) -> None:
        """Assert the recorded footprint is contained in the static one.

        The containment direction matters: the static summary is an
        *over*-approximation, so every dynamically observed effect must
        appear in it.  Skipped silently when no closed summary exists
        for the algorithm (open summaries prove nothing).
        """
        summary = self.simulator.footprint_summary()
        if summary is None or not summary.closed:
            return
        from ..statics.model import attributed_handlers

        handlers = attributed_handlers(summary, footprint.kind)
        if not handlers:
            return
        stray = footprint.pids - {footprint.origin}
        if stray:
            raise FootprintViolationError(
                f"{summary.qualname}: {footprint.kind} event at process "
                f"{footprint.origin} touched foreign processes "
                f"{sorted(stray)}, but its closed effect summary proves "
                f"per-process state isolation"
            )
        if footprint.sent and not any(h.sends for h in handlers):
            raise FootprintViolationError(
                f"{summary.qualname}: {footprint.kind} event at process "
                f"{footprint.origin} emitted {len(footprint.sent)} message(s), "
                f"but no attributed handler has a send effect"
            )
        if footprint.oracle and not any(h.proposes for h in handlers):
            raise FootprintViolationError(
                f"{summary.qualname}: {footprint.kind} event at process "
                f"{footprint.origin} consulted a k-SA oracle, but no "
                f"attributed handler has a propose effect"
            )

    def advance(self, index: int) -> None:
        """Commit the ``index``-th enabled event and apply it."""
        choices = self.choices()
        if not 0 <= index < len(choices):
            raise ValueError(
                f"choice index {index} out of range: only "
                f"{len(choices)} events are enabled"
            )
        kind, payload = choices[index]
        self.steps += 1
        self._choices = None
        touched = (
            payload.receiver  # type: ignore[attr-defined]
            if kind == "recv"
            else payload
        )
        assert isinstance(touched, int)
        self._pending_footprint = Footprint(kind, {touched}, origin=touched)
        if kind == "local":
            assert isinstance(payload, int)
            self._take_local_step(payload, self.runtimes[payload])
        elif kind == "recv":
            item = payload
            self.network.receive(item.p2p)  # type: ignore[attr-defined]
            self.trace.receive(
                item.receiver, item.p2p, item.payload  # type: ignore[attr-defined]
            )
            self.runtimes[item.receiver].inject_receive(  # type: ignore[attr-defined]
                item.p2p, item.payload  # type: ignore[attr-defined]
            )
        else:  # "bcast": start the next script entry
            assert isinstance(payload, int)
            p = payload
            entry = self.remaining[p].pop(0)
            self._tail = None
            self._orbit_scripts = None
            self._orbit_gates = {}
            if type(entry) is Invocation:
                self.runtimes[p].invoke(entry)
                self.operations += (
                    OperationRecord(
                        op_id=len(self.operations),
                        process=p,
                        operation=entry.operation,
                        target=entry.target,
                        argument=entry.argument,
                        invoked_at=self.steps,
                    ),
                )
                self.trace.local(p, f"invoke {entry}")
            else:
                content = entry.content if isinstance(entry, Gated) else entry
                message = self.runtimes[p].start_broadcast(content)
                self.last_sync_message[p] = message
                self.trace.broadcast_invoke(p, message)

    def append_script(self, p: int, entry: Hashable) -> None:
        """Append ``entry`` to the script process ``p`` still broadcasts."""
        self.remaining[p].append(entry)
        self._choices = None
        self._tail = None
        self._orbit_scripts = None
        self._orbit_gates = {}

    def fork(self) -> "SimulationRun":
        """An independent handle in the same state, ready to diverge.

        No scheduled event is re-executed; every per-process runtime is
        copied field by field when it is idle and rebuilt by journal
        replay when a generator is live (see :meth:`ProcessRuntime.fork`),
        with the re-executed local steps accounted in
        :attr:`SimulationRun.replayed_steps` of the clone.  Every runtime
        is copied, touched or not: a forked handle continues down to a
        leaf and writes to nearly every pid on the way, so sharing
        untouched runtimes until their first write saves little.
        """
        clone = object.__new__(SimulationRun)
        clone.simulator = self.simulator
        clone.crashes = self.crashes
        clone.factory = self.factory.fork()
        clone.registry = self.registry.fork()
        clone.network = self.network.fork()
        clone.trace = self.trace.fork()
        clone.remaining = {
            p: list(entries) for p, entries in self.remaining.items()
        }
        clone.last_sync_message = dict(self.last_sync_message)
        clone.alive = set(self.alive)
        clone.operations = self.operations
        clone.steps = self.steps
        clone.replayed_steps = 0
        clone._last_footprint = self._last_footprint
        clone._pending_footprint = (
            None
            if self._pending_footprint is None
            else self._pending_footprint.copy()
        )
        # The cached enumeration (if any) is valid on the clone: the
        # prelude already ran on the parent, the copied state is
        # post-prelude, and choice payloads are value-identified
        # (``Network.receive`` looks up by ``PointToPointId``), so
        # forked probes skip re-enumerating the parent state.
        clone._choices = (
            None if self._choices is None else list(self._choices)
        )
        clone._tail = self._tail
        clone._orbit_scripts = self._orbit_scripts
        clone._orbit_gates = self._orbit_gates
        clone._orbit_memo = self._orbit_memo
        clone.runtimes = {}
        for p, runtime in self.runtimes.items():
            forked, replayed = runtime.fork(
                message_factory=clone.factory,
                algorithm_factory=self.simulator.algorithm_factory,
            )
            clone.runtimes[p] = forked
            clone.replayed_steps += replayed
        return clone

    def result(self, *, pending_choices: int = 0) -> SimulationResult:
        """A :class:`SimulationResult` snapshot at the next decision point.

        Reporting goes through the same per-decision prelude that
        :meth:`choices` performs (due-crash injection and, under
        ``atomic_local``, the local-computation drain): without it, a
        result taken immediately after :meth:`advance` could claim
        quiescence while drained local steps would enable further events,
        misreport ``blocked``, and miss a crash due at the current step.
        When the prelude has not run yet, it is applied to a *fork* of
        the handle, so the committed state is never mutated — calling
        ``result()`` leaves subsequent :meth:`choices`/:meth:`advance`
        behaviour unchanged.
        """
        run = self
        if run._choices is None:
            run = self.fork()  # probe: prelude without committing it
        enabled = run.choices()
        blocked = {
            p: outcome.reason
            for p, outcome in (
                (p, _peek_outcome(run.runtimes[p]))
                for p in sorted(run.alive)
            )
            if isinstance(outcome, Blocked)
        }
        return SimulationResult(
            execution=run.trace.execution(),
            runtimes=run.runtimes,
            quiescent=not enabled,
            steps_taken=self.steps,
            blocked=blocked,
            pending_choices=pending_choices,
            history=History(map(copy.copy, run.operations)),
        )

    def fingerprint(self) -> str:
        """A canonical digest of the run's forward-relevant state.

        Two runs with equal fingerprints enable the same events in the
        same order at every future decision point and produce the same
        per-process observations at every descendant terminal — the
        invariant the schedule explorer's dedup cache relies on to prune
        converged branches (see :mod:`repro.runtime.fingerprint`).

        Everything the scheduling loop reads is covered: per-process
        input journals (local state is a function of them), the ordered
        in-flight pool, the oracle registry, identity-minting counters,
        remaining scripts, the alive set, sync-broadcast gates, and the
        decision count (crash schedules are indexed by it).  The recorded
        *trace* and the ``operations`` are deliberately excluded:
        converging decision sequences differ exactly in how they
        interleaved the same per-process histories.

        The digest is taken over the committed state, before the next
        decision's prelude; callers comparing states at a decision point
        should invoke :meth:`choices` first so due crashes and the
        ``atomic_local`` drain are already applied.

        The cost is that of what changed since the parent's digest, not
        of the whole state: every component caches its encoding and
        digest (see :mod:`repro.runtime.fingerprint`), and so does the
        run for its tail (factory counters, sync gates, remaining
        scripts), which :meth:`advance` drops on a broadcast start.  The
        depth and the alive set are encoded on every call.  Forks share
        every cache.  The digest is byte-identical to
        ``stable_digest("run", steps, sorted(alive), [process digests],
        network digest, registry digest, counters, sync gates,
        remaining)``.
        """
        if self._tail is None:
            self._tail = encoding(
                self.factory.counters(),
                {
                    p: None if m is None else m.uid
                    for p, m in self.last_sync_message.items()
                },
                self.remaining,
            )
        return encoded_digest(
            (
                "run",
                self.steps,
                sorted(self.alive),
                [
                    self.runtimes[p].fingerprint()
                    for p in range(self.simulator.n)
                ],
                self.network.fingerprint(),
                self.registry.fingerprint(),
            ),
            self._tail,
        )

    def canonical_state_digest(self, permutation: Sequence[int]) -> str:
        """The state digest after relabeling pids through ``permutation``.

        Encodes the same forward-relevant components as
        :meth:`fingerprint`, but with every structural process id mapped
        through ``permutation``, every message content replaced by a
        first-appearance token (an injective content renaming, Def. 3),
        and the in-flight pool sorted by mapped point-to-point identity
        instead of insertion order.  Minimizing this digest over a group
        of permutations yields a canonical representative per symmetry
        orbit — the cache key of ``symmetry="rename"`` exploration (see
        :class:`~repro.runtime.fingerprint.PidCanonicalizer` for the
        soundness conditions, which the explorer gates on the
        algorithm's ``symmetric_processes()`` declaration).

        Dropping the pool's insertion order is sound here — but not for
        the plain fingerprint — because symmetry hits re-emit the cached
        *representative's* guides (with the witnessing permutation
        recorded on the violation) rather than rebasing suffixes onto
        the arrival's own enumeration order.

        The cost is mostly that of looking up component digests (see
        *Orbit templates* in :mod:`repro.runtime.fingerprint`).  Each
        journal, in-flight message and remaining script is a component:
        its raw encoding, which the runtimes keep for
        :meth:`fingerprint`, finds its template in the memo this run
        shares with every fork of its root, and the template's contents
        take their tokens from the one table of the state.  A
        component's digest is filled and hashed only the first time the
        search meets its raw encoding, permutation and token numbers.
        The per-permutation encoding of the counters and sync gates
        (which hold no contents) is kept until the next broadcast
        start.  The oracle registry keeps no template: each proposal
        and decision is written by
        :meth:`~repro.runtime.fingerprint.PidCanonicalizer.encode`,
        under its mapped proposer.  Components are encoded in traversal
        order — journals in mapped-pid order, then the sorted pool, the
        registry (objects by name, proposals before decisions, each in
        mapped-pid order) and the scripts — into one token table.  The
        digest is one hash over the header ``("canon-run", steps,
        mapped alive, pool size)``, the journals' component digests,
        the pool's, the registry's and the gates' encodings, and the
        scripts' component digests.  Component digests are equal
        exactly when the canonical images are, so two states share a
        digest exactly when a hash of their whole canonical images
        would agree.
        """
        canon = PidCanonicalizer(permutation, self._orbit_memo)
        n = self.simulator.n
        # Old pids visited in mapped order, so token numbering (first
        # appearance) is a function of the *relabeled* state alone.
        order = sorted(range(n), key=lambda p: permutation[p])
        journals = [
            canon.digest(
                self.runtimes[p].encoded_journal,
                self.runtimes[p].journal_entries(),
            )
            for p in order
        ]
        pool = sorted(
            (
                (
                    permutation[item.p2p.sender],
                    permutation[item.p2p.receiver],
                    item.p2p.seq,
                ),
                item,
            )
            for item in self.network.deliverable(None)
        )
        in_flight = [
            canon.digest(item.encoded, ((item.p2p, item.payload),))
            for _, item in pool
        ]
        registry = []
        for name, obj in sorted(self.registry.objects.items()):
            mappings = [
                dict_encoding(
                    [
                        tuple_encoding(
                            2,
                            int_encoding(permutation[p]),
                            canon.encode(values[p]),
                        )
                        for p in sorted(values, key=lambda p: permutation[p])
                    ]
                )
                for values in (obj.proposals, obj.decisions)
            ]
            registry.append(tuple_encoding(3, encoding(name), *mappings))
        gates = self._orbit_gates.get(tuple(permutation))
        if gates is None:
            counters = {
                permutation[p]: c for p, c in self.factory.counters().items()
            }
            last_sync = [
                encoding(None)
                if self.last_sync_message[p] is None
                else canon.encode(self.last_sync_message[p].uid)
                for p in order
            ]
            gates = encoding(counters) + list_encoding(n, *last_sync)
            self._orbit_gates[tuple(permutation)] = gates
        scripts = self._scripts_for_orbit()
        remaining = [
            canon.digest(scripts[p].raw, self.remaining[p]) for p in order
        ]
        canon.seal()  # one state per canonicalizer: token table is spent
        return encoded_digest(
            (
                "canon-run",
                self.steps,
                sorted(permutation[p] for p in self.alive),
                len(pool),
            ),
            b"".join(
                (
                    *journals,
                    *in_flight,
                    list_encoding(len(registry), *registry),
                    gates,
                    *remaining,
                )
            ),
        )

    def _scripts_for_orbit(self) -> list[_ScriptOrbit]:
        """Per pid, what the orbit key reads of its remaining script."""
        if self._orbit_scripts is None:
            self._orbit_scripts = [
                _ScriptOrbit(
                    encoding(*self.remaining[p]),
                    encoding(
                        tuple(
                            "gated" if isinstance(entry, Gated) else "plain"
                            for entry in self.remaining[p]
                        )
                    ),
                    encoding(self.last_sync_message[p] is not None),
                )
                for p in range(self.simulator.n)
            ]
        return self._orbit_scripts

    def orbit_key(
        self, groups: Sequence[Sequence[int]]
    ) -> tuple[str, tuple[int, ...], int]:
        """The orbit-canonical digest of this state, by canonical labelling.

        Rather than minimizing :meth:`canonical_state_digest` over every
        permutation admissible for ``groups`` (|perms| encodings per
        state), this refines each group by an *equivariant* per-pid
        invariant profile and only encodes the residual automorphism
        candidates — usually exactly one (see
        :func:`~repro.runtime.fingerprint.orbit_digest`).

        The profile reads, per pid: liveness, the journal's entry-tag
        sequence (the *shape* of the input history — broadcasts,
        receptions, decisions, syncs — not the contents, which the
        canonical encoding renames injectively), the shape of the
        remaining script (gated/plain per entry), the sync-gate flag,
        and the pid's in/out-degree in the in-flight pool.  None of
        these mention a raw pid label or a raw content, so relabeling
        the state permutes the profiles with it — the equivariance that
        makes the refined key constant on each orbit.

        Each profile enters the refinement as its ``stable_digest``,
        assembled from the journal shape's encoding, which each runtime
        keeps with the shape.

        Returns ``(digest, permutation, encodings)`` — the orbit key,
        the witnessing permutation realizing it, and how many candidate
        encodings were paid for it.
        """
        in_degree: dict[int, int] = {}
        out_degree: dict[int, int] = {}
        for item in self.network.deliverable(None):
            out_degree[item.p2p.sender] = out_degree.get(item.p2p.sender, 0) + 1
            in_degree[item.p2p.receiver] = (
                in_degree.get(item.p2p.receiver, 0) + 1
            )

        scripts = self._scripts_for_orbit()

        def profile(p: int) -> str:
            return tuple_digest(
                _FLAGS[p in self.alive],
                self.runtimes[p].encoded_journal_shape,
                scripts[p].shape,
                scripts[p].synced,
                int_encoding(in_degree.get(p, 0)),
                int_encoding(out_degree.get(p, 0)),
            )

        return orbit_digest(
            groups, self.simulator.n, profile, self.canonical_state_digest
        )

    # -- internals --------------------------------------------------------

    def _drain_local(self) -> None:
        """Run every enabled local step, in pid order, to quiescence.

        Every decision point ends drained, and processes share no
        state, so after an event only its origin can have work: the
        drain steps that one process.  At the root, and under
        ``validate_footprints``, it sweeps every alive pid instead, so
        the sanitizer sees a step at a process the event should not
        have touched.
        """
        footprint = self._pending_footprint
        if footprint is not None and not self.simulator.validate_footprints:
            if footprint.origin in self.alive:
                runtime = self.runtimes[footprint.origin]
                while runtime.has_enabled_step():
                    self._take_local_step(footprint.origin, runtime)
            return
        progress = True
        while progress:
            progress = False
            for p in sorted(self.alive):
                runtime = self.runtimes[p]
                while runtime.has_enabled_step():
                    self._take_local_step(p, runtime)
                    progress = True

    def _enabled_choices(self) -> list[Choice]:
        choices: list[Choice] = []
        for p in sorted(self.alive):
            runtime = self.runtimes[p]
            if self.simulator.atomic_local:
                pass  # local work was drained eagerly
            elif runtime.has_enabled_step():
                choices.append(("local", p))
            if self.remaining[p] and self._may_start_broadcast(
                runtime, self.last_sync_message[p], self.remaining[p][0]
            ):
                choices.append(("bcast", p))
        receivers = None if len(self.alive) == self.simulator.n else self.alive
        for item in self.network.deliverable(receivers):
            choices.append(("recv", item))
        return choices

    def _may_start_broadcast(
        self,
        runtime: ProcessRuntime,
        last_message: Message | None,
        next_entry: Hashable = None,
    ) -> bool:
        if runtime.busy:
            return False
        if self.simulator.sync_broadcasts and last_message is not None:
            if not runtime.has_delivered(last_message.uid):
                return False
        if isinstance(next_entry, Gated):
            return any(
                m.content == next_entry.after for m in runtime.delivered
            )
        return True

    def _take_local_step(self, p: int, runtime: ProcessRuntime) -> None:
        outcome = runtime.next_step()
        footprint = self._pending_footprint
        if footprint is not None:
            footprint.pids.add(p)
        if isinstance(outcome, SendStep):
            if footprint is not None:
                footprint.sent += (outcome.p2p,)
            self.trace.send(p, outcome.p2p, outcome.payload)
            self.network.send(outcome.p2p, outcome.payload)
        elif isinstance(outcome, ProposeStep):
            if footprint is not None:
                footprint.oracle = True
            self.trace.propose(p, outcome.ksa, outcome.value)
            decided = self.registry.propose(outcome.ksa, p, outcome.value)
            self.trace.decide(p, outcome.ksa, decided)
            runtime.resume_decide(decided)
        elif isinstance(outcome, DeliverStep):
            self.trace.deliver(p, outcome.message)
        elif isinstance(outcome, DeliverSetStep):
            self.trace.deliver_set(p, outcome.messages)
        elif isinstance(outcome, ReturnStep):
            self.trace.broadcast_return(p, outcome.message)
        elif isinstance(outcome, LocalStep):
            self.trace.local(p, outcome.label)
        elif isinstance(outcome, ResponseStep):
            self.operations = tuple(
                replace(record, responded_at=self.steps, result=outcome.result)
                if record.process == p and not record.complete
                else record
                for record in self.operations
            )
            self.trace.local(p, f"response {outcome}")
        else:
            # Blocked / Idle: the apparent work was an 'upon receive'
            # handler that produced no step (e.g. a duplicate message).
            # next_step() has drained it; nothing to record.
            pass


def _peek_outcome(runtime: ProcessRuntime) -> Blocked | Idle | None:
    if runtime.has_enabled_step():
        return None
    if runtime.busy:
        return Blocked(runtime.waiting_reason or "operation waiting")
    return Idle()


class Simulator:
    """Runs a broadcast algorithm or a request/response emulation under
    seeded random asynchrony.

    Parameters
    ----------
    n:
        Number of processes.
    algorithm_factory:
        ``factory(pid, n)`` building each process's algorithm instance, a
        :class:`~repro.runtime.process.BroadcastProcess` or a
        :class:`~repro.runtime.service.ServiceProcess`.
    k:
        The ``k`` of the k-SA oracle objects available to the algorithm.
    ksa_policy:
        Decision policy of the oracles (default: first-proposals-win).
    seed:
        Seed of the scheduling randomness; equal seeds replay identically.
    sync_broadcasts:
        When true, a process starts its next scripted broadcast only after
        the previous one returned *and* was delivered locally
        (``sync-broadcast`` of Section 3.1); otherwise after return alone.
    scheduling_policy:
        How the next event is chosen among the enabled ones (default:
        seeded uniform); see :mod:`repro.runtime.policies`.
    atomic_local:
        When true, local computation runs eagerly to quiescence (in pid
        order) after every scheduled event, so the only scheduling
        decisions are receptions and broadcast starts.  Local steps of a
        deterministic algorithm commute with each other, so this is a
        sound partial-order reduction for terminal-state properties —
        it is what makes exhaustive exploration
        (:mod:`repro.runtime.explorer`) tractable.
    validate_footprints:
        When true, every event footprint is checked, at the prelude
        that captures it, for containment in the algorithm's static
        effect summary (:mod:`repro.statics`); escape raises
        :class:`FootprintViolationError`.  A sanitizer for differential
        tests — off by default because it adds a check per decision.
    """

    def __init__(
        self,
        n: int,
        algorithm_factory: AlgorithmFactory,
        *,
        k: int = 1,
        ksa_policy: DecisionPolicy | None = None,
        seed: int = 0,
        sync_broadcasts: bool = False,
        scheduling_policy: SchedulingPolicy | None = None,
        atomic_local: bool = False,
        validate_footprints: bool = False,
    ) -> None:
        self.n = n
        self.algorithm_factory = algorithm_factory
        self.k = k
        self.ksa_policy = ksa_policy or FirstProposalsPolicy()
        self.seed = seed
        self.sync_broadcasts = sync_broadcasts
        self.scheduling_policy = scheduling_policy or UniformPolicy()
        self.atomic_local = atomic_local
        self.validate_footprints = validate_footprints
        self._footprint_summary: object | None = None
        self._footprint_summary_ready = False

    def footprint_summary(self):
        """The algorithm's static effect summary, inferred lazily.

        ``None`` when the factory cannot be probed or its source cannot
        be analyzed — the sanitizer then has nothing to check against
        and stays silent.  Cached on the simulator, so forked run
        handles (which share it) analyze the algorithm exactly once.
        """
        if not self._footprint_summary_ready:
            self._footprint_summary_ready = True
            from ..statics.analyzer import summarize_algorithm

            try:
                probe = self.algorithm_factory(0, self.n)
                self._footprint_summary = summarize_algorithm(type(probe))
            except (OSError, TypeError, SyntaxError):
                self._footprint_summary = None
        return self._footprint_summary

    def begin(
        self,
        scripts: Mapping[int, Sequence[Hashable]],
        *,
        crash_schedule: CrashSchedule | None = None,
    ) -> SimulationRun:
        """Open a resumable run handle on this system configuration.

        ``scripts[p]`` lists the contents process ``p`` broadcasts, or
        the operations it invokes, in order.  The returned
        :class:`SimulationRun` has taken no scheduling decision yet
        (initial crashes, if any, are already injected).
        """
        return SimulationRun(self, scripts, crash_schedule=crash_schedule)

    def run(
        self,
        scripts: Mapping[int, Sequence[Hashable]],
        *,
        crash_schedule: CrashSchedule | None = None,
        max_steps: int = 100_000,
        guide: Sequence[int] | None = None,
        clock: Clock | None = None,
    ) -> SimulationResult:
        """Execute the scripted broadcasts and operations to quiescence.

        ``scripts`` are as for :meth:`begin`.  Returns the recorded
        execution plus per-process state and the operation history.
        ``clock``, the time source of failure-detector oracles, is ticked
        with the decision count before each decision's prelude.

        ``guide`` switches the run to *guided* mode: the i-th scheduling
        decision takes the ``guide[i]``-th enabled event instead of
        consulting the policy, and the run stops when the guide is
        exhausted, reporting how many events were enabled at that point
        in :attr:`SimulationResult.pending_choices`.  Guided runs are the
        replay primitive of the exhaustive schedule explorer
        (:mod:`repro.runtime.explorer`).  A guide entry outside the range
        of enabled events raises :class:`ValueError`: a stale or corrupt
        guide must fail loudly instead of silently aliasing to a
        different schedule.
        """
        rng = random.Random(self.seed)
        run = self.begin(scripts, crash_schedule=crash_schedule)
        pending_choices = 0
        while run.steps < max_steps:
            if clock is not None:
                clock.tick(run.steps)
            choices = run.choices()
            if not choices:
                break
            if guide is not None:
                if run.steps >= len(guide):
                    pending_choices = len(choices)
                    break
                index = guide[run.steps]
                if not 0 <= index < len(choices):
                    raise ValueError(
                        f"guide entry at decision {run.steps} selects "
                        f"event {index}, but only {len(choices)} events "
                        f"are enabled; the guide does not belong to this "
                        f"configuration"
                    )
            else:
                choice = self.scheduling_policy.select(
                    choices, rng, run.steps
                )
                index = choices.index(choice)
            run.advance(index)
        return run.result(pending_choices=pending_choices)
