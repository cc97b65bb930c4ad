"""Differential tests of the state-deduplicating cache.

``dedup=True`` turns on the explorer's fingerprint transposition cache;
pruning must be *invisible* in the result — the same terminal count,
the same exhaustion verdict, and the identical violation list (guides
and rendered problems) as the search without the cache on every
configuration, in every stop mode, under budget caps, crash
schedules, and sharded execution.  What may (and must, on symmetric
configurations) differ is the work done: the cache keys branch points
only, so each distinct branch point is expanded once (``states_seen``)
and its later arrivals are pruned (``states_deduped``), instead of one
expansion per prefix.
"""

import pytest

from repro.runtime import CrashSchedule, explore_schedules
from repro.runtime.explorer import (
    channels_property,
    combine_properties,
    spec_property,
)
from repro.specs import SendToAllSpec, UniformReliableBroadcastSpec

from .test_branch_points import branch_points
from .test_explorer_engines import s2a_simulator, total_order, urb_simulator


def urb_prop():
    return combine_properties(
        spec_property(UniformReliableBroadcastSpec()), channels_property()
    )


def s2a_prop():
    return combine_properties(
        spec_property(SendToAllSpec()), channels_property()
    )


CONFIGS = [
    pytest.param(urb_simulator, {0: ["a"]}, urb_prop, {}, id="urb"),
    pytest.param(
        s2a_simulator, {0: ["a"], 1: ["b"]}, s2a_prop, {}, id="s2a"
    ),
    pytest.param(
        s2a_simulator,
        {0: ["a"], 1: ["b"]},
        total_order,
        {},
        id="s2a-total-order",
    ),
    pytest.param(
        lambda: s2a_simulator(3),
        {0: ["a"], 1: ["b"]},
        total_order,
        {
            "crash_schedule": CrashSchedule(at_step={1: 3}),
            "max_schedules": 300,
        },
        id="s2a-crash",
    ),
]


def assert_same_outcome(dedup, baseline):
    """The pruned search reports the identical outcome."""
    assert dedup.terminal_schedules == baseline.terminal_schedules
    assert dedup.max_depth_seen == baseline.max_depth_seen
    assert dedup.exhausted == baseline.exhausted
    assert dedup.aborted == baseline.aborted
    assert [v.guide for v in dedup.violations] == [
        v.guide for v in baseline.violations
    ]
    assert [v.problems for v in dedup.violations] == [
        v.problems for v in baseline.violations
    ]


class TestDedupEquivalence:
    """dedup == incremental on results; cheaper on expansions."""

    @pytest.mark.parametrize("simulator, scripts, prop, kwargs", CONFIGS)
    def test_identical_outcome_on_every_config(
        self, simulator, scripts, prop, kwargs
    ):
        baseline = explore_schedules(simulator(), scripts, prop(), **kwargs)
        dedup = explore_schedules(
            simulator(), scripts, prop(), dedup=True, **kwargs
        )
        assert_same_outcome(dedup, baseline)

    def test_symmetric_config_is_pruned_hard(self):
        baseline = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order()
        )
        dedup = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True,
        )
        # every keyed node is either a fresh branch point or a pruned
        # arrival; terminal and single-event nodes are expanded on every
        # arrival, so they add expansions but no states
        assert dedup.states_seen == branch_points(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, None, 400, ()
        )[0]
        assert dedup.schedules_explored > dedup.states_seen
        assert dedup.states_deduped > 0
        assert dedup.states_seen < baseline.schedules_explored
        # the cache-off search reports zeroed counters
        assert baseline.states_seen == 0
        assert baseline.states_deduped == 0

    def test_runs_are_deterministic(self):
        first = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True,
        )
        second = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True,
        )
        assert first == second


class TestDedupStopModes:
    """Cache replay honours budget cuts and first-violation aborts."""

    def test_budget_cap_matches_incremental(self):
        baseline = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            max_schedules=25,
        )
        dedup = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            max_schedules=25,
            dedup=True,
        )
        assert dedup.terminal_schedules == 25
        assert_same_outcome(dedup, baseline)

    @pytest.mark.parametrize("cap", [1, 7, 36, 79, 80])
    def test_every_budget_cut_point_agrees(self, cap):
        # caps landing inside replayed subtrees must cut the virtual
        # terminal sequence exactly where re-expansion would have
        baseline = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            max_schedules=cap,
        )
        dedup = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            max_schedules=cap, dedup=True,
        )
        assert_same_outcome(dedup, baseline)

    def test_stop_at_first_violation_matches_incremental(self):
        baseline = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            total_order(),
            stop_at_first_violation=True,
        )
        dedup = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            total_order(),
            stop_at_first_violation=True,
            dedup=True,
        )
        assert dedup.aborted and not dedup.exhausted
        assert_same_outcome(dedup, baseline)

    def test_max_depth_cut_matches_incremental(self):
        for depth in (2, 4, 6):
            baseline = explore_schedules(
                s2a_simulator(),
                {0: ["a"], 1: ["b"]},
                channels_property(assume_complete=False),
                max_depth=depth,
            )
            dedup = explore_schedules(
                s2a_simulator(),
                {0: ["a"], 1: ["b"]},
                channels_property(assume_complete=False),
                max_depth=depth,
                dedup=True,
            )
            assert_same_outcome(dedup, baseline)


class TestDedupParallel:
    """``workers > 1`` with dedup: one process, one cache, same result."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_dedup_matches_sequential(self, workers):
        sequential = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True,
        )
        parallel = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True, workers=workers,
        )
        assert parallel.workers == 1
        assert parallel == sequential
        assert parallel.states_deduped > 0

    def test_parallel_dedup_is_deterministic(self):
        first = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True, workers=3,
        )
        second = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True, workers=3,
        )
        assert first == second

    def test_parallel_dedup_matches_plain_incremental(self):
        baseline = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order()
        )
        parallel = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            dedup=True, workers=2,
        )
        assert_same_outcome(parallel, baseline)
