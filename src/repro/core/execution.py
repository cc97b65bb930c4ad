"""Executions and the two symmetry transformations of the paper.

An :class:`Execution` is a finite sequence of :class:`~repro.core.steps.Step`
objects over processes ``p_0 … p_{n-1}``.  Besides the usual queries
(projections per process, delivery sequences, crash status), it implements
the two transformations on which the paper's Theorem 1 rests:

* :meth:`Execution.restrict` — the restriction of an execution onto a subset
  of its messages (Definition 2, compositionality);
* :meth:`Execution.rename` — the injective substitution of messages
  (Definition 3, content-neutrality);

plus :meth:`Execution.broadcast_projection`, the projection β of
Definition 4 keeping only broadcast-abstraction events.

Executions are immutable; all transformations return new objects.

.. note::
   Process identifiers are 0-based in the library (``p_0 … p_{n-1}``) while
   the paper uses 1-based ``p_1 … p_n``.  Renderers in
   :mod:`repro.analysis.report` convert back to the paper's convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

from .actions import (
    BROADCAST_ACTIONS,
    BroadcastInvoke,
    BroadcastReturn,
    CrashAction,
    DecideAction,
    DeliverAction,
    DeliverSetAction,
    ProposeAction,
    ReceiveAction,
    SendAction,
)
from .message import Message, MessageId, Renaming
from .steps import Step

__all__ = ["Execution", "PROJECTED_ACTIONS", "WellFormednessError"]

#: The action types :meth:`Execution.broadcast_projection` keeps: the
#: broadcast-level ones and crashes.
PROJECTED_ACTIONS = BROADCAST_ACTIONS + (CrashAction,)


class WellFormednessError(Exception):
    """Raised when an execution violates Definition 1 (well-formedness)."""


@dataclass(frozen=True)
class Execution:
    """An immutable, finite execution of the CAMP_n[H] model.

    Parameters
    ----------
    steps:
        The ordered sequence of steps.
    n:
        The number of processes in the system.  Steps may only involve
        processes ``0 … n-1``.
    """

    steps: tuple[Step, ...]
    n: int

    @staticmethod
    def of(steps: Iterable[Step], n: int) -> "Execution":
        """Build an execution from any iterable of steps."""
        return Execution(tuple(steps), n)

    @staticmethod
    def empty(n: int) -> "Execution":
        """The empty execution ε over ``n`` processes."""
        return Execution((), n)

    # ------------------------------------------------------------------
    # Sequence-like behaviour
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Step:
        return self.steps[index]

    def append(self, step: Step) -> "Execution":
        """Return the execution extended by one step (``α ⊕ step``)."""
        return Execution(self.steps + (step,), self.n)

    def extend(self, steps: Iterable[Step]) -> "Execution":
        """Return the execution extended by several steps."""
        return Execution(self.steps + tuple(steps), self.n)

    def prefix(self, length: int) -> "Execution":
        """The prefix consisting of the first ``length`` steps."""
        return Execution(self.steps[:length], self.n)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @cached_property
    def processes(self) -> tuple[int, ...]:
        """Processes that take at least one step, in first-step order."""
        seen: dict[int, None] = {}
        for step in self.steps:
            seen.setdefault(step.process, None)
        return tuple(seen)

    def steps_of(self, process: int) -> tuple[Step, ...]:
        """The subsequence of steps taken by ``process``."""
        return tuple(s for s in self.steps if s.process == process)

    @cached_property
    def crashed(self) -> frozenset[int]:
        """Processes that crash in this execution (take a crash step)."""
        return frozenset(s.process for s in self.steps if s.is_crash())

    @cached_property
    def correct(self) -> frozenset[int]:
        """Processes of the system that never crash in this execution."""
        return frozenset(range(self.n)) - self.crashed

    @cached_property
    def broadcast_messages(self) -> tuple[Message, ...]:
        """All messages B-broadcast in the execution, in invocation order."""
        return tuple(
            s.action.message for s in self.steps if s.is_invoke()
        )

    @cached_property
    def message_by_uid(self) -> Mapping[MessageId, Message]:
        """Index of broadcast messages by identity."""
        return {m.uid: m for m in self.broadcast_messages}

    def broadcasts_by(self, process: int) -> tuple[Message, ...]:
        """Messages B-broadcast by ``process``, in invocation order."""
        return tuple(
            m for m in self.broadcast_messages if m.sender == process
        )

    @cached_property
    def delivery_sequences(self) -> Mapping[int, tuple[Message, ...]]:
        """For each process, the sequence of messages it B-delivers.

        Set deliveries (SCD Broadcast) are flattened in uid order; the
        set structure itself is available via
        :attr:`set_delivery_sequences`.
        """
        sequences: dict[int, list[Message]] = {}
        for step in self.steps:
            if step.is_deliver():
                sequences.setdefault(step.process, []).append(
                    step.action.message
                )
            elif step.is_deliver_set():
                sequences.setdefault(step.process, []).extend(
                    step.action.messages
                )
        return {p: tuple(ms) for p, ms in sequences.items()}

    @cached_property
    def set_delivery_sequences(
        self,
    ) -> Mapping[int, tuple[tuple[Message, ...], ...]]:
        """For each process, its sequence of delivered *sets*.

        Individual deliveries count as singleton sets, so SCD-style
        predicates can be evaluated uniformly on mixed executions.
        """
        sequences: dict[int, list[tuple[Message, ...]]] = {}
        for step in self.steps:
            if step.is_deliver():
                sequences.setdefault(step.process, []).append(
                    (step.action.message,)
                )
            elif step.is_deliver_set():
                sequences.setdefault(step.process, []).append(
                    step.action.messages
                )
        return {p: tuple(sets) for p, sets in sequences.items()}

    def deliveries_of(self, process: int) -> tuple[Message, ...]:
        """The delivery sequence of one process (empty if it delivers none)."""
        return self.delivery_sequences.get(process, ())

    def first_delivered(self, process: int) -> Message | None:
        """The first message delivered by ``process``, or ``None``."""
        sequence = self.deliveries_of(process)
        return sequence[0] if sequence else None

    @cached_property
    def decisions(self) -> Mapping[str, Mapping[int, Hashable]]:
        """``decisions[ksa][p]`` = value decided by ``p`` on object ``ksa``."""
        decided: dict[str, dict[int, Hashable]] = {}
        for step in self.steps:
            if isinstance(step.action, DecideAction):
                decided.setdefault(step.action.ksa, {})[step.process] = (
                    step.action.value
                )
        return decided

    @cached_property
    def proposals(self) -> Mapping[str, Mapping[int, Hashable]]:
        """``proposals[ksa][p]`` = value proposed by ``p`` on object ``ksa``."""
        proposed: dict[str, dict[int, Hashable]] = {}
        for step in self.steps:
            if isinstance(step.action, ProposeAction):
                proposed.setdefault(step.action.ksa, {})[step.process] = (
                    step.action.value
                )
        return proposed

    # ------------------------------------------------------------------
    # Transformations (the paper's symmetry operations)
    # ------------------------------------------------------------------

    def broadcast_projection(self) -> "Execution":
        """β: keep only broadcast invocations, returns and deliveries.

        This is the projection used by Definition 4 to turn an execution of
        the implementation algorithm B (in CAMP[k-SA]) into an execution of
        the abstraction B.  Crash steps are retained so that the projected
        execution still records which processes are faulty (the paper keeps
        this information implicitly via step finiteness).
        """
        return Execution(
            tuple(
                s
                for s in self.steps
                if isinstance(s.action, PROJECTED_ACTIONS)
            ),
            self.n,
        )

    def restrict(self, uids: Iterable[MessageId]) -> "Execution":
        """Definition 2: restriction of the execution onto a message subset.

        Keeps every non-broadcast step, and keeps a broadcast-level step iff
        its message belongs to ``uids``.  Compositionality of an abstraction
        states that this transformation preserves admissibility.
        """
        keep = frozenset(uids)
        kept_steps: list[Step] = []
        for step in self.steps:
            if step.is_deliver_set():
                remaining = tuple(
                    m for m in step.action.messages if m.uid in keep
                )
                if remaining:
                    kept_steps.append(
                        Step(step.process, DeliverSetAction(remaining))
                    )
            elif (
                not step.is_broadcast_event()
                or step.action.message.uid in keep
            ):
                kept_steps.append(step)
        return Execution(tuple(kept_steps), self.n)

    def rename(self, renaming: Renaming) -> "Execution":
        """Definition 3: replace messages through an injective substitution.

        Every broadcast-level occurrence of a message ``m`` is replaced by
        ``r(m)`` (same identity skeleton, substituted content).  Injectivity
        on the *renamed contents* is enforced: two distinct messages may not
        be mapped to equal (uid, content) pairs — which cannot happen here
        because identities are preserved, so the substitution is always
        injective on messages; we still reject mappings for unknown uids to
        surface bugs early.
        """
        unknown = [
            uid for uid, _ in renaming.items()
            if uid not in self.message_by_uid
        ]
        if unknown:
            raise ValueError(f"renaming mentions unknown messages: {unknown}")

        def rename_step(step: Step) -> Step:
            action = step.action
            if isinstance(action, BroadcastInvoke):
                return Step(
                    step.process,
                    BroadcastInvoke(renaming.apply(action.message)),
                )
            if isinstance(action, BroadcastReturn):
                return Step(
                    step.process,
                    BroadcastReturn(renaming.apply(action.message)),
                )
            if isinstance(action, DeliverAction):
                return Step(
                    step.process,
                    DeliverAction(renaming.apply(action.message)),
                )
            if isinstance(action, DeliverSetAction):
                return Step(
                    step.process,
                    DeliverSetAction(
                        tuple(
                            renaming.apply(m) for m in action.messages
                        )
                    ),
                )
            return step

        return Execution(
            tuple(rename_step(s) for s in self.steps), self.n
        )

    def map_processes(self, mapping: Mapping[int, int]) -> "Execution":
        """Relabel process identifiers (used to embed CAMP_{k+1} in CAMP_n)."""

        def map_step(step: Step) -> Step:
            return Step(mapping.get(step.process, step.process), step.action)

        return Execution(tuple(map_step(s) for s in self.steps), self.n)

    def with_crashes(self, processes: Iterable[int]) -> "Execution":
        """Prepend crash steps for ``processes`` (crashed before any step)."""
        crashes = tuple(Step(p, CrashAction()) for p in processes)
        return Execution(crashes + self.steps, self.n)

    # ------------------------------------------------------------------
    # Well-formedness (Definition 1)
    # ------------------------------------------------------------------

    def check_well_formed(self) -> list[str]:
        """Check Definition 1; return a list of violation descriptions.

        The three conditions checked:

        1. only processes ``0 … n-1`` take steps;
        2. per process, operation invocations alternate with their
           responses (no nested/overlapping ``broadcast`` or ``propose``);
        3. no process takes a step after crashing.

        (The third bullet of Definition 1 — conformance of the steps
        *between* invocation and response to the algorithm's code — is
        enforced operationally by the step-machine drivers in
        :mod:`repro.runtime`, which only ever emit algorithm-produced
        steps.)
        """
        violations: list[str] = []
        open_broadcast: dict[int, Message | None] = {}
        open_propose: dict[int, str | None] = {}
        halted: set[int] = set()
        for index, step in enumerate(self.steps):
            p = step.process
            if not 0 <= p < self.n:
                violations.append(
                    f"step {index}: process p{p} outside 0..{self.n - 1}"
                )
                continue
            if p in halted:
                violations.append(
                    f"step {index}: p{p} takes a step after crashing"
                )
            action = step.action
            if isinstance(action, CrashAction):
                halted.add(p)
            elif isinstance(action, BroadcastInvoke):
                if open_broadcast.get(p) is not None:
                    violations.append(
                        f"step {index}: p{p} invokes broadcast while a "
                        f"previous invocation is pending"
                    )
                open_broadcast[p] = action.message
            elif isinstance(action, BroadcastReturn):
                pending = open_broadcast.get(p)
                if pending is None or pending.uid != action.message.uid:
                    violations.append(
                        f"step {index}: p{p} returns from a broadcast it "
                        f"did not invoke ({action.message})"
                    )
                open_broadcast[p] = None
            elif isinstance(action, ProposeAction):
                if open_propose.get(p) is not None:
                    violations.append(
                        f"step {index}: p{p} proposes while a previous "
                        f"proposal is pending"
                    )
                open_propose[p] = action.ksa
            elif isinstance(action, DecideAction):
                pending_ksa = open_propose.get(p)
                if pending_ksa != action.ksa:
                    violations.append(
                        f"step {index}: p{p} decides on {action.ksa} "
                        f"without a pending proposal on it"
                    )
                open_propose[p] = None
        return violations

    def require_well_formed(self) -> "Execution":
        """Raise :class:`WellFormednessError` on violation; else return self."""
        violations = self.check_well_formed()
        if violations:
            raise WellFormednessError("; ".join(violations))
        return self

    # ------------------------------------------------------------------
    # Rendering helpers
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"Execution over {self.n} processes, {len(self)} steps:"]
        lines.extend(f"  {i:4d}. {step}" for i, step in enumerate(self.steps))
        return "\n".join(lines)
