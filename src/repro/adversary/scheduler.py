"""Algorithm 1 — the adversarial scheduler, line for line.

Given any deterministic algorithm ``B`` implementing a broadcast
abstraction ``B`` in ``CAMP_{k+1}[k-SA]``, the scheduler constructs the
execution ``α_{k,N,B,B}`` of Definition 4:

* processes run **sequentially**, ``p_0`` through ``p_k`` (paper:
  ``p_1 … p_{k+1}``);
* each process repeatedly ``sync-broadcast``\\ s the constant message
  ``SYNCH`` until it has B-delivered N of its own messages;
* point-to-point messages to *other* processes are withheld by the
  scheduler (they stay in flight); self-sends are received immediately
  (line 11);
* k-SA proposals are decided adversarially: every process decides its own
  value (line 19), except that the last process is forced to copy
  ``p_k``'s decision when all first k processes proposed on the same
  object (lines 17–18) — the only concession k-SA-Agreement extracts;
* when that forcing becomes unavoidable — ``p_k`` (paper numbering)
  proposes on an object everyone before it used — the scheduler flushes
  ``p_k → p_{k+1}`` messages and resets ``p_k``'s delivery count
  (lines 21–25), excluding pre-flush messages from its counted N;
* finally all withheld messages are released (line 26) and the execution
  halts — only safety matters beyond this point (Section 4.2).

The scheduler is a driver of one
:class:`~repro.runtime.simulator.SimulationRun`: it names each event it
takes among the run's ``choices()`` and commits it with ``advance()``.
The run's network holds the withheld messages, its k-SA registry decides
lines 16–20 under :class:`~repro.runtime.ksa_objects.OwnValuePolicy`, and
its trace is α.

The result object packages α, its broadcast projection β, the Definition 5
witness (the counted messages), the Definition 4 sub-executions γ_i, and
the bookkeeping (reset positions, flush events) that the lemma verifiers
in :mod:`repro.adversary.lemmas` need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from ..core.actions import (
    CrashAction,
    DecideAction,
    DeliverAction,
    DeliverSetAction,
    SendAction,
)
from ..core.execution import Execution
from ..core.message import Message
from ..core.nsolo import NSoloWitness
from ..core.steps import Step
from ..runtime.ksa_objects import OwnValuePolicy
from ..runtime.network import InFlight
from ..runtime.process import BroadcastProcess
from ..runtime.simulator import Choice, SimulationRun, Simulator

__all__ = ["SYNCH", "AdversaryStalled", "AdversaryResult", "adversarial_scheduler"]

#: The content every sync-broadcast message carries (Algorithm 1, line 7).
SYNCH = "SYNCH"

AlgorithmFactory = Callable[[int, int], BroadcastProcess]


class AdversaryStalled(Exception):
    """The algorithm B has no enabled step in a solo configuration.

    A *correct* implementation of a broadcast abstraction can always make
    progress in the executions γ_i (all other processes may legitimately
    have crashed), by BC-Local-Termination and BC-Global-CS-Termination —
    so stalling here certifies that the candidate B is not a correct
    broadcast implementation in ``CAMP_{k+1}[k-SA]``.
    """


@dataclass
class AdversaryResult:
    """Everything Definition 4 names about one run of Algorithm 1."""

    k: int
    n_value: int
    #: α_{k,N,B,B} — the full CAMP_{k+1}[k-SA] execution.
    execution: Execution
    #: Trace index where line 26 (the final flush) begins.
    line26_mark: int
    #: Trace indices at which line 25 resets happened (after the flush).
    reset_marks: tuple[int, ...]
    #: The counted messages per process — the Definition 5 witness.
    witness: NSoloWitness
    #: The adversary's decided[ksa][process] table.
    decided: Mapping[str, Mapping[int, Hashable]]
    #: Trace index where the post-Algorithm-1 continuation begins, or
    #: ``None`` when the run halted at line 26 as the paper's does.
    continuation_mark: int | None = None

    @property
    def n(self) -> int:
        """System size (k + 1 processes)."""
        return self.k + 1

    @property
    def beta(self) -> Execution:
        """β_{k,N,B,B}: the broadcast-level projection of α (Def. 4)."""
        return self.execution.broadcast_projection()

    def gamma(self, i: int) -> Execution:
        """γ_{k,N,B,B,i} (Definition 4), crash steps included.

        Contains ``p_i``'s steps strictly before line 26, plus the steps
        of ``p_k`` (paper numbering; index ``k-1`` here) that precede the
        last line-25 reset.  All other processes crash initially, and
        ``p_k`` crashes before its first excluded step.
        """
        anchor = self.k - 1  # the paper's p_k
        last_reset = self.reset_marks[-1] if self.reset_marks else 0
        kept: list = []
        anchor_has_excluded_steps = False
        anchor_last_kept_position = -1
        for index, step in enumerate(self.execution):
            if step.process == i and index < self.line26_mark:
                kept.append(step)
            elif step.process == anchor and i != anchor:
                if index < last_reset:
                    kept.append(step)
                    anchor_last_kept_position = len(kept) - 1
                else:
                    anchor_has_excluded_steps = True
        if i != anchor and anchor_has_excluded_steps:
            crash = Step(anchor, CrashAction())
            kept.insert(anchor_last_kept_position + 1, crash)
        others = [
            p for p in range(self.n) if p not in (i, anchor)
        ]
        gamma = Execution.of(kept, self.n)
        return gamma.with_crashes(others)

    def __str__(self) -> str:
        return (
            f"adversarial execution: k={self.k}, N={self.n_value}, "
            f"{len(self.execution)} steps, "
            f"{len(self.reset_marks)} reset(s), witness of "
            f"{self.n_value} message(s) per process"
        )


def adversarial_scheduler(
    k: int,
    n_value: int,
    algorithm_factory: AlgorithmFactory,
    *,
    max_steps_per_process: int = 200_000,
    continue_after_flush: bool = False,
) -> AdversaryResult:
    """Run Algorithm 1 against an implementation ``B`` of a broadcast.

    Parameters
    ----------
    k:
        The agreement parameter; the system has ``k + 1`` processes and
        the oracle objects are k-SA (requires ``k > 1``, as in the paper).
    n_value:
        The paper's N — own deliveries each process must count.
    algorithm_factory:
        ``factory(pid, n)`` building each process's instance of B.
    max_steps_per_process:
        Safety budget against non-terminating candidates (Lemma 7
        guarantees termination for correct ones).
    continue_after_flush:
        Algorithm 1 halts right after releasing the withheld messages
        (line 26); their ``upon receive`` processing never runs, because
        only safety matters for the proof (Section 4.2).  With this flag
        the simulator's own loop then runs the system to quiescence,
        always taking the newest event — a legal fair extension of the
        schedule in which the deferred deliveries happen, materializing
        the ordering violations the paper's grey boxes allude to (used by
        the corollary experiment C1).  Its k-SA proposals are decided by
        the same ``OwnValuePolicy``, within the agreement envelope.

    Raises
    ------
    AdversaryStalled
        If B blocks in a solo configuration, or proposes twice on one
        k-SA object (B is then not a correct broadcast implementation —
        see Lemma 7's argument).
    """
    if k <= 1:
        raise ValueError(f"the construction requires k > 1, got k={k}")
    if n_value <= 0:
        raise ValueError(f"N must be positive, got {n_value}")

    n = k + 1
    anchor = k - 1  # the paper's p_k
    last = k  # the paper's p_{k+1}
    policy = OwnValuePolicy()  # lines 16-20
    run = Simulator(
        n, algorithm_factory, k=k, ksa_policy=policy, sync_broadcasts=True
    ).begin({})
    trace = run.trace
    reset_marks: list[int] = []
    counted: dict[int, list[Message]] = {p: [] for p in range(n)}

    for i in range(n):
        runtime = run.runtimes[i]
        local_del = 0
        budget = max_steps_per_process
        while local_del < n_value:
            budget -= 1
            if budget < 0:
                raise AdversaryStalled(
                    f"p{i} exceeded {max_steps_per_process} steps without "
                    f"counting {n_value} own deliveries — B does not "
                    f"terminate under the adversarial schedule"
                )
            current = run.last_sync_message[i]
            if current is None or (
                current.uid in runtime.returned_uids
                and runtime.has_delivered(current.uid)
            ):
                # Lines 6-7: start a new B.sync-broadcast(SYNCH).
                if current is not None:
                    trace.local(i, "return B.sync-broadcast(SYNCH)")
                run.append_script(i, SYNCH)
                _take(run, ("bcast", i))
                continue
            # Line 8: p_i's next local step in C(α), according to B.
            if ("local", i) not in run.choices():
                raise AdversaryStalled(
                    f"p{i} is stalled ({runtime.waiting_reason or 'idle'}) "
                    f"inside B.sync-broadcast — B violates its termination "
                    f"properties in the solo execution γ_{i}"
                )
            mark = trace.mark()
            _take(run, ("local", i))
            for step in trace.since(mark):
                action = step.action
                if isinstance(action, SendAction):
                    if action.p2p.receiver == i:
                        # Lines 10-11: self-sends are received immediately;
                        # lines 12-13: other sends stay in flight.
                        item = InFlight(action.p2p, action.payload)
                        _take(run, ("recv", item))
                elif isinstance(action, (DeliverAction, DeliverSetAction)):
                    # Lines 14-15, generalized to set-constrained delivery
                    # (the paper's Remark on Expressiveness): each own
                    # message in the delivered set counts.
                    delivered = (
                        action.messages
                        if isinstance(action, DeliverSetAction)
                        else (action.message,)
                    )
                    for message in delivered:
                        if message.sender == i:
                            if local_del >= 0:
                                counted[i].append(message)
                            local_del += 1
                elif (
                    isinstance(action, DecideAction)
                    and i == anchor
                    and all(
                        j in run.registry.objects[action.ksa].decisions
                        for j in range(k)
                    )
                ):
                    # Lines 21-25: the unavoidable-communication escape
                    # hatch.
                    for item in run.network.pending_between(anchor, last):
                        _take(run, ("recv", item))
                    local_del = -1
                    counted[i].clear()
                    reset_marks.append(trace.mark())

    # Line 26: release every withheld message.
    line26_mark = trace.mark()
    for item in run.network.deliverable(None):
        _take(run, ("recv", item))

    continuation_mark: int | None = None
    if continue_after_flush:
        continuation_mark = trace.mark()
        limit = run.steps + max_steps_per_process
        while run.steps < limit and (choices := run.choices()):
            _take(run, choices[-1])  # the newest event

    return AdversaryResult(
        k=k,
        n_value=n_value,
        execution=trace.execution(),
        line26_mark=line26_mark,
        reset_marks=tuple(reset_marks),
        witness=NSoloWitness(
            n_value,
            {p: tuple(m.uid for m in counted[p]) for p in range(n)},
        ),
        decided={
            name: dict(obj.decisions)
            for name, obj in run.registry.objects.items()
        },
        continuation_mark=continuation_mark,
    )


def _take(run: SimulationRun, choice: Choice) -> None:
    """Commit the enabled event ``choice``; a misused k-SA object stalls.

    :meth:`~repro.runtime.ksa_objects.KsaObject.propose` enforces the
    one-shot rule with a :class:`ValueError`; callers of the adversary
    get one exception type for "B is not a correct implementation".
    """
    index = run.choices().index(choice)
    try:
        run.advance(index)
    except ValueError as error:
        raise AdversaryStalled(
            f"{error} — B violates the one-shot usage of k-SA objects"
        ) from error
