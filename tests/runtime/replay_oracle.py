"""A from-scratch schedule explorer: the differential oracle.

Every depth-first prefix is re-run from the initial state through a
guided :meth:`~repro.runtime.simulator.Simulator.run` — no run handles,
no forks, no caches, no reductions.  That makes it slow (O(nodes ×
depth) events) and obviously correct, which is exactly what the
engine-equivalence tests need: :func:`explore_replay` must visit the
tree :func:`~repro.runtime.explorer.explore_schedules` visits, in the
same order, with the same violations and guides.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.runtime import CrashSchedule, Simulator
from repro.runtime.explorer import ExplorationResult, Violation


def explore_replay(
    simulator: Simulator,
    scripts: Mapping[int, Sequence[Hashable]],
    property_check,
    *,
    crash_schedule: CrashSchedule | None = None,
    max_schedules: int = 100_000,
    max_depth: int = 400,
    stop_at_first_violation: bool = False,
) -> ExplorationResult:
    """Explore like ``explore_schedules``, re-running each prefix.

    ``events_executed`` counts every re-run event and
    ``events_replayed`` the prefix part of each re-run — the per-node
    depth factor that forking run handles eliminates.
    """
    simulator = Simulator(
        simulator.n,
        simulator.algorithm_factory,
        k=simulator.k,
        ksa_policy=simulator.ksa_policy,
        sync_broadcasts=simulator.sync_broadcasts,
        atomic_local=True,
    )
    result = ExplorationResult(schedules_explored=0, terminal_schedules=0)

    def dfs(prefix: list[int]) -> bool:
        """Returns False to abort the whole search."""
        if result.terminal_schedules >= max_schedules:
            result.exhausted = False
            return False
        result.schedules_explored += 1
        result.max_depth_seen = max(result.max_depth_seen, len(prefix))
        outcome = simulator.run(
            scripts,
            crash_schedule=crash_schedule,
            guide=prefix,
            max_steps=max_depth + 1,
        )
        result.events_executed += len(prefix)
        result.events_replayed += max(0, len(prefix) - 1)
        if outcome.pending_choices == 0:
            result.terminal_schedules += 1
            problems = property_check(outcome)
            if problems:
                result.violations.append(
                    Violation(tuple(prefix), tuple(problems))
                )
                if stop_at_first_violation:
                    result.aborted = True
                    result.exhausted = False
                    return False
            return True
        if len(prefix) >= max_depth:
            result.exhausted = False
            return True
        for branch in range(outcome.pending_choices):
            prefix.append(branch)
            keep_going = dfs(prefix)
            prefix.pop()
            if not keep_going:
                return False
        return True

    dfs([])
    return result
