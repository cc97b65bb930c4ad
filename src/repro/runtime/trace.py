"""Trace recording: from driver events to :class:`~repro.core.Execution`.

The simulator appends every step of a run through a :class:`TraceRecorder`,
which provides one well-named method per step kind and guards the step
vocabulary in a single place.  The adversarial scheduler, which drives a
simulator run, reads the run's recorder and adds Algorithm 1's
``return B.sync-broadcast(SYNCH)`` local steps.
"""

from __future__ import annotations

from typing import Hashable

from ..core.actions import (
    BroadcastInvoke,
    BroadcastReturn,
    CrashAction,
    DecideAction,
    DeliverAction,
    DeliverSetAction,
    LocalAction,
    PointToPointId,
    ProposeAction,
    ReceiveAction,
    SendAction,
)
from ..core.execution import Execution
from ..core.message import Message
from ..core.steps import Step

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Accumulates the steps of one execution."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.steps: list[Step] = []

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def last(self) -> Step | None:
        return self.steps[-1] if self.steps else None

    def mark(self) -> int:
        """A position marker usable to slice the trace later."""
        return len(self.steps)

    def since(self, mark: int) -> list[Step]:
        """The steps recorded after ``mark`` (a :meth:`mark` return value)."""
        return self.steps[mark:]

    def fork(self) -> "TraceRecorder":
        """An independent recorder continuing from the current trace.

        Recorded :class:`~repro.core.steps.Step` objects are immutable and
        shared between the two recorders.
        """
        clone = TraceRecorder(self.n)
        clone.steps = list(self.steps)
        return clone

    def execution(self) -> Execution:
        """The execution recorded so far (a snapshot)."""
        return Execution(tuple(self.steps), self.n)

    # -- one method per step kind -----------------------------------------

    def send(
        self, process: int, p2p: PointToPointId, payload: Hashable
    ) -> Step:
        return self._append(process, SendAction(p2p, payload))

    def receive(
        self, process: int, p2p: PointToPointId, payload: Hashable
    ) -> Step:
        return self._append(process, ReceiveAction(p2p, payload))

    def broadcast_invoke(self, process: int, message: Message) -> Step:
        return self._append(process, BroadcastInvoke(message))

    def broadcast_return(self, process: int, message: Message) -> Step:
        return self._append(process, BroadcastReturn(message))

    def deliver(self, process: int, message: Message) -> Step:
        return self._append(process, DeliverAction(message))

    def deliver_set(
        self, process: int, messages: tuple[Message, ...]
    ) -> Step:
        return self._append(process, DeliverSetAction(messages))

    def propose(self, process: int, ksa: str, value: Hashable) -> Step:
        return self._append(process, ProposeAction(ksa, value))

    def decide(self, process: int, ksa: str, value: Hashable) -> Step:
        return self._append(process, DecideAction(ksa, value))

    def crash(self, process: int) -> Step:
        return self._append(process, CrashAction())

    def local(self, process: int, label: str = "") -> Step:
        return self._append(process, LocalAction(label))

    def _append(self, process: int, action) -> Step:
        step = Step(process, action)
        self.steps.append(step)
        return step
