"""Checkers for the send/receive channel axioms of CAMP_n (Section 2).

The communication model is a complete network of reliable, non-FIFO,
asynchronous uni-directional channels, governed by three properties:

* **SR-Validity** — every reception matches a prior emission;
* **SR-No-Duplication** — no point-to-point message is received twice;
* **SR-Termination** — a message sent to a correct process is eventually
  received.

Safety properties (the first two) are absolute.  SR-Termination is a
liveness property; on a finite execution it is checked under the reading
"the execution is complete", i.e. every message sent to a correct process
has been received *within* the prefix.  Pass ``assume_complete=False`` to
skip the liveness check (useful on prefixes of ongoing runs).

Two entry points share one implementation:

* :func:`check_channels` — one-shot check of a whole execution;
* :class:`ChannelTracker` — the same check fed *step deltas*, for callers
  that extend an execution incrementally (the schedule explorer evaluates
  channel properties along a DFS branch without rescanning the prefix at
  every terminal).  Trackers are forkable at branch points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import CrashAction, PointToPointId, ReceiveAction, SendAction
from .execution import Execution
from .steps import Step

__all__ = ["ChannelReport", "ChannelTracker", "check_channels"]


@dataclass
class ChannelReport:
    """Result of checking the three SR properties on one execution."""

    validity: list[str] = field(default_factory=list)
    no_duplication: list[str] = field(default_factory=list)
    termination: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no property is violated."""
        return not (self.validity or self.no_duplication or self.termination)

    def all_violations(self) -> list[str]:
        return self.validity + self.no_duplication + self.termination

    def __str__(self) -> str:
        if self.ok:
            return "channels: SR-Validity ✓  SR-No-Duplication ✓  SR-Termination ✓"
        return "channels: " + "; ".join(self.all_violations())


class ChannelTracker:
    """Incremental SR-property checker over a growing step sequence.

    Feed steps in execution order through :meth:`observe`; produce the
    report of the sequence observed so far with :meth:`report`.  The
    safety properties (validity, no-duplication) are maintained per step;
    SR-Termination is evaluated only when a report is requested, from the
    set of still-unreceived emissions.

    :meth:`fork` snapshots the tracker in O(observed emissions), which is
    what lets the schedule explorer check channel axioms along every
    branch of its search tree while scanning every step exactly once per
    tree *edge* instead of once per terminal-times-depth.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._index = 0
        self._sent_before: dict[PointToPointId, int] = {}
        self._received_at: dict[PointToPointId, int] = {}
        self._crashed: set[int] = set()
        self._validity: list[str] = []
        self._no_duplication: list[str] = []

    def observe(self, step: Step) -> None:
        """Account one more step (the next step of the execution)."""
        index = self._index
        self._index += 1
        action = step.action
        if isinstance(action, SendAction):
            first = self._sent_before.get(action.p2p)
            if first is not None:
                # Keep the first emission as the channel's reference point:
                # later receptions and the termination check must diagnose
                # against the emission that actually put the message in
                # flight, not against the (already illegal) duplicate.
                self._validity.append(
                    f"step {index}: duplicate emission of {action.p2p} "
                    f"(first emitted at step {first})"
                )
            if action.p2p.sender != step.process:
                self._validity.append(
                    f"step {index}: p{step.process} sends a message whose "
                    f"declared sender is p{action.p2p.sender}"
                )
            if first is None:
                self._sent_before[action.p2p] = index
        elif isinstance(action, ReceiveAction):
            if action.p2p.receiver != step.process:
                self._validity.append(
                    f"step {index}: p{step.process} receives a message "
                    f"addressed to p{action.p2p.receiver}"
                )
            if action.p2p not in self._sent_before:
                self._validity.append(
                    f"step {index}: {action.p2p} received but never sent"
                )
            if action.p2p in self._received_at:
                self._no_duplication.append(
                    f"step {index}: {action.p2p} received again (first at "
                    f"step {self._received_at[action.p2p]})"
                )
            else:
                self._received_at[action.p2p] = index
        elif isinstance(action, CrashAction):
            self._crashed.add(step.process)

    def fork(self) -> "ChannelTracker":
        """An independent tracker continuing from the current state."""
        clone = ChannelTracker(self.n)
        clone._index = self._index
        clone._sent_before = dict(self._sent_before)
        clone._received_at = dict(self._received_at)
        clone._crashed = set(self._crashed)
        clone._validity = list(self._validity)
        clone._no_duplication = list(self._no_duplication)
        return clone

    def report(self, *, assume_complete: bool = True) -> ChannelReport:
        """The :class:`ChannelReport` of the steps observed so far."""
        report = ChannelReport(
            validity=list(self._validity),
            no_duplication=list(self._no_duplication),
        )
        if assume_complete:
            for p2p in self._sent_before:
                if (
                    p2p.receiver not in self._crashed
                    and p2p not in self._received_at
                ):
                    report.termination.append(
                        f"{p2p} sent to correct p{p2p.receiver} but never "
                        f"received"
                    )
        return report


def check_channels(
    execution: Execution, *, assume_complete: bool = True
) -> ChannelReport:
    """Check SR-Validity, SR-No-Duplication and SR-Termination.

    Parameters
    ----------
    execution:
        The execution to check (full CAMP steps, not the broadcast
        projection).
    assume_complete:
        When True (default), SR-Termination is checked: every message sent
        to a correct process must have been received within the execution.
        When False only the two safety properties are checked.
    """
    tracker = ChannelTracker(execution.n)
    for step in execution:
        tracker.observe(step)
    return tracker.report(assume_complete=assume_complete)
