"""Failure-detector oracles: Ω and P as functions of the failure pattern.

A failure detector is formally a map from the failure pattern (who
crashes when) and time to per-process outputs.  Here the failure pattern
is the run's :class:`~repro.runtime.crash.CrashSchedule` and time is the
scheduler's step counter, shared through a :class:`Clock` the simulator
ticks — detectors never inspect algorithm state.

* :class:`OmegaOracle` (Ω) — eventual leader election: before its
  stabilization time it may output *any* live process (here: a rotating
  live process, so the system never deadlocks on a dead leader); from
  stabilization on, it outputs the same correct process everywhere,
  forever.  Ω is the weakest failure detector for consensus given a
  majority of correct processes.
* :class:`PerfectDetector` (P) — strong accuracy (never suspects a live
  process) and strong completeness (suspects every crashed process
  immediately; the detection lag is configurable).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.crash import CrashSchedule

__all__ = ["Clock", "OmegaOracle", "PerfectDetector"]


@dataclass
class Clock:
    """Mutable scheduler time shared between a simulator and oracles.

    Pass it to :meth:`repro.runtime.Simulator.run` (``clock=``), which
    ticks it with the decision count before each decision.
    """

    now: int = 0

    def tick(self, to: int) -> None:
        self.now = to


class OmegaOracle:
    """Ω — the eventual leader oracle.

    Parameters
    ----------
    n, crash_schedule:
        The system and its failure pattern.
    clock:
        The scheduler clock, ticked by
        :meth:`repro.runtime.Simulator.run` (its ``clock`` argument).
    stabilize_at:
        The (unknown to the algorithms!) time after which the output is
        the least-index correct process, everywhere and forever.
    rotation_period:
        Before stabilization, the output rotates among currently-live
        processes every this many steps — adversarial enough to exercise
        ballot preemption, while never electing a dead leader (which
        could deadlock an event-driven simulation).
    stable_leader:
        The post-stabilization output; defaults to the least-index
        correct process.  Must be correct (Ω's eventual accuracy).
    """

    def __init__(
        self,
        n: int,
        crash_schedule: CrashSchedule,
        clock: Clock,
        *,
        stabilize_at: int = 0,
        rotation_period: int = 7,
        stable_leader: int | None = None,
    ) -> None:
        self.n = n
        self.crash_schedule = crash_schedule
        self.clock = clock
        self.stabilize_at = stabilize_at
        self.rotation_period = max(1, rotation_period)
        if (
            stable_leader is not None
            and stable_leader in crash_schedule.faulty()
        ):
            raise ValueError(
                f"Ω must stabilize to a correct process; p{stable_leader} "
                f"is faulty"
            )
        self.stable_leader = stable_leader

    def _alive(self, at: int) -> list[int]:
        return [
            p
            for p in range(self.n)
            if p not in self.crash_schedule.initially
            and not self.crash_schedule.due(p, at)
        ]

    def _correct(self) -> list[int]:
        return [
            p for p in range(self.n)
            if p not in self.crash_schedule.faulty()
        ]

    def leader(self) -> int:
        """The current output (same value at every process, by design)."""
        now = self.clock.now
        if now >= self.stabilize_at:
            if self.stable_leader is not None:
                return self.stable_leader
            return min(self._correct())
        alive = self._alive(now)
        return alive[(now // self.rotation_period) % len(alive)]


class PerfectDetector:
    """P — never wrong, eventually (after ``lag`` steps) complete."""

    def __init__(
        self,
        n: int,
        crash_schedule: CrashSchedule,
        clock: Clock,
        *,
        lag: int = 0,
    ) -> None:
        self.n = n
        self.crash_schedule = crash_schedule
        self.clock = clock
        self.lag = lag

    def suspected(self) -> frozenset[int]:
        """Processes currently suspected (all of them actually crashed)."""
        now = self.clock.now
        suspects = set(self.crash_schedule.initially)
        for process, deadline in self.crash_schedule.at_step.items():
            if now >= deadline + self.lag:
                suspects.add(process)
        return frozenset(suspects)

    def trusted(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.suspected()
