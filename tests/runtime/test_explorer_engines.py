"""Differential tests of the exploration engine.

The explorer (resumable run handles, fork-at-branch) and the replay
oracle of :mod:`tests.runtime.replay_oracle` (guided re-runs from
scratch) must explore the exact same schedule tree: same node and terminal counts, same violations
with the same reproduction guides.  The parallel front-end must merge
per-shard outcomes back into exactly the sequential result.  And every
violation guide must round-trip through ``Simulator.run(..., guide=...)``
to the same execution and the same violations.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.broadcasts import SendToAllBroadcast, UniformReliableBroadcast
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.explorer import (
    channels_property,
    combine_properties,
    explore_schedules,
    spec_property,
)
from repro.specs import (
    SendToAllSpec,
    TotalOrderBroadcastSpec,
    UniformReliableBroadcastSpec,
)

from .replay_oracle import explore_replay

#: The explorer and the oracle, by the names the tests are parametrized
#: over.
ENGINES = {"incremental": explore_schedules, "replay": explore_replay}


def urb_simulator(**kwargs):
    return Simulator(
        2, lambda pid, n: UniformReliableBroadcast(pid, n), **kwargs
    )


def s2a_simulator(n=2, **kwargs):
    return Simulator(
        n, lambda pid, n_: SendToAllBroadcast(pid, n_), **kwargs
    )


def total_order():
    return spec_property(TotalOrderBroadcastSpec(), assume_complete=False)


def worker_independent(result):
    """Every result field that must not depend on the worker count.

    ``workers`` itself is the only exception.
    """
    fields = dataclasses.asdict(result)
    del fields["workers"]
    return fields


class TestEngineEquivalence:
    """The explorer and the replay oracle visit the identical tree."""

    CONFIGS = [
        (
            urb_simulator(),
            {0: ["a"]},
            combine_properties(
                spec_property(UniformReliableBroadcastSpec()),
                channels_property(),
            ),
        ),
        (
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            combine_properties(
                spec_property(SendToAllSpec()), channels_property()
            ),
        ),
        (s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order()),
    ]

    @pytest.mark.parametrize("simulator, scripts, prop", CONFIGS)
    def test_same_tree_same_violations(self, simulator, scripts, prop):
        incremental = explore_schedules(simulator, scripts, prop)
        replay = explore_replay(simulator, scripts, prop)
        assert incremental.terminal_schedules == replay.terminal_schedules
        assert incremental.schedules_explored == replay.schedules_explored
        assert incremental.max_depth_seen == replay.max_depth_seen
        assert incremental.exhausted and replay.exhausted
        assert [v.guide for v in incremental.violations] == [
            v.guide for v in replay.violations
        ]
        assert [v.problems for v in incremental.violations] == [
            v.problems for v in replay.violations
        ]

    def test_agree_under_budget_cap(self):
        for explore in ENGINES.values():
            result = explore(
                s2a_simulator(),
                {0: ["a"], 1: ["b"]},
                channels_property(assume_complete=False),
                max_schedules=25,
            )
            assert result.terminal_schedules == 25
            assert not result.exhausted
            assert not result.aborted

    def test_agree_under_crash_schedule(self):
        crashes = CrashSchedule(at_step={1: 3})
        kwargs = dict(crash_schedule=crashes, max_schedules=300)
        incremental = explore_schedules(
            s2a_simulator(3), {0: ["a"], 1: ["b"]}, total_order(), **kwargs
        )
        replay = explore_replay(
            s2a_simulator(3), {0: ["a"], 1: ["b"]}, total_order(), **kwargs
        )
        assert incremental.terminal_schedules == replay.terminal_schedules
        assert incremental.violations, "config expected to violate"
        assert [v.guide for v in incremental.violations] == [
            v.guide for v in replay.violations
        ]

    def test_incremental_replays_far_fewer_events(self):
        """The point of the rebuild: >= 3x fewer re-executed events."""
        prop = channels_property()
        incremental = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, prop
        )
        replay = explore_replay(s2a_simulator(), {0: ["a"], 1: ["b"]}, prop)
        assert incremental.events_replayed * 3 <= replay.events_replayed

    def test_unknown_engine_rejected(self):
        """There is one engine: the old selector fails loudly."""
        with pytest.raises(TypeError, match="engine"):
            explore_schedules(
                urb_simulator(), {0: ["a"]}, channels_property(),
                engine="dedup",
            )


class TestStopModes:
    """`stop_at_first_violation` aborts: not exhausted, flagged aborted."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_stop_mode_reports_aborted_not_exhausted(self, engine):
        result = ENGINES[engine](
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            total_order(),
            stop_at_first_violation=True,
        )
        assert len(result.violations) == 1
        assert result.aborted
        assert not result.exhausted
        assert "aborted" in str(result)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_full_mode_collects_all_violations(self, engine):
        result = ENGINES[engine](
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order()
        )
        assert len(result.violations) == 36
        assert not result.aborted
        assert result.exhausted
        assert "exhaustive" in str(result)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_both_modes_find_the_same_first_violation(self, engine):
        explore = ENGINES[engine]
        stopped = explore(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            total_order(),
            stop_at_first_violation=True,
        )
        full = explore(s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order())
        assert stopped.violations[0] == full.violations[0]

    def test_clean_exhaustive_run_is_not_aborted(self):
        result = explore_schedules(
            urb_simulator(),
            {0: ["a"]},
            channels_property(),
            stop_at_first_violation=True,
        )
        assert result.ok
        assert result.exhausted
        assert not result.aborted


class TestParallelExploration:
    """Sharded exploration merges back to the sequential result."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_sequential(self, workers):
        sequential = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order()
        )
        parallel = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(),
            workers=workers,
        )
        assert parallel.workers == workers
        assert worker_independent(parallel) == worker_independent(sequential)

    def test_parallel_runs_are_deterministic(self):
        first = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(), workers=3
        )
        second = explore_schedules(
            s2a_simulator(), {0: ["a"], 1: ["b"]}, total_order(), workers=3
        )
        assert first == second

    def test_parallel_budget_cap_matches_sequential_terminals(self):
        sequential = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            max_schedules=25,
        )
        parallel = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            max_schedules=25,
            workers=2,
        )
        assert parallel.terminal_schedules == 25
        assert not parallel.exhausted
        assert parallel.violations == sequential.violations

    def test_parallel_stop_mode_finds_first_violation(self):
        sequential = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            total_order(),
            stop_at_first_violation=True,
        )
        parallel = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            total_order(),
            stop_at_first_violation=True,
            workers=2,
        )
        assert parallel.aborted
        assert not parallel.exhausted
        assert parallel.violations[0] == sequential.violations[0]

    def test_early_stops_drain_the_pool(self):
        # A capped sharded run stops merging while shards still run.
        # Terminating the pool then can kill a worker that holds the
        # result queue's lock and hang the shutdown; the pool must be
        # drained instead.  The race is rare, so the check repeats it,
        # with more workers than cores, in a child interpreter whose
        # timeout turns a hang into a failure.
        script = textwrap.dedent(
            """
            from repro.broadcasts import SendToAllBroadcast
            from repro.runtime import Simulator, explore_schedules

            for _ in range(100):
                result = explore_schedules(
                    Simulator(3, lambda pid, n: SendToAllBroadcast(pid, n)),
                    {0: ["x"], 1: ["y"]},
                    lambda result: ["every terminal violates"],
                    max_depth=8,
                    max_schedules=3,
                    workers=4,
                )
                assert result.terminal_schedules == 3, result
            """
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=120
        )

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            explore_schedules(
                urb_simulator(), {0: ["a"]}, channels_property(), workers=0
            )


class TestViolationRoundTrip:
    """Every Violation.guide replays to the identical violating run."""

    @staticmethod
    def round_trip(make_simulator, scripts, prop, *, crash_schedule=None,
                   max_schedules=100_000, limit=12):
        result = explore_schedules(
            make_simulator(),
            scripts,
            prop,
            crash_schedule=crash_schedule,
            max_schedules=max_schedules,
        )
        assert result.violations, "round-trip needs a violating config"
        replayer = make_simulator()
        replayer.atomic_local = True  # the explorer's sound reduction
        for violation in result.violations[:limit]:
            guide = list(violation.guide)
            replay = replayer.run(
                scripts, crash_schedule=crash_schedule, guide=guide
            )
            again = replayer.run(
                scripts, crash_schedule=crash_schedule, guide=guide
            )
            # the guide pins the schedule completely: replays agree
            # step for step, and end quiescent (it was a terminal)
            assert replay.execution.steps == again.execution.steps
            assert replay.quiescent
            assert replay.pending_choices == 0
            # the replayed run violates in exactly the recorded way
            assert tuple(prop(replay)) == violation.problems

    @pytest.mark.parametrize("sync_broadcasts", [False, True])
    def test_round_trip_sync_and_async(self, sync_broadcasts):
        self.round_trip(
            lambda: s2a_simulator(sync_broadcasts=sync_broadcasts),
            {0: ["a"], 1: ["b"]},
            total_order(),
        )

    def test_round_trip_with_crash_schedule(self):
        self.round_trip(
            lambda: s2a_simulator(3),
            {0: ["a"], 1: ["b"]},
            total_order(),
            crash_schedule=CrashSchedule(at_step={1: 3}),
            max_schedules=300,
        )


class TestGuideValidation:
    """Out-of-range guide entries fail loudly instead of aliasing."""

    def test_out_of_range_guide_entry_raises(self):
        simulator = s2a_simulator(atomic_local=True)
        with pytest.raises(ValueError, match="does not belong"):
            simulator.run({0: ["a"], 1: ["b"]}, guide=[99])

    def test_out_of_range_entry_mid_guide_raises(self):
        simulator = s2a_simulator(atomic_local=True)
        probe = simulator.run({0: ["a"], 1: ["b"]}, guide=[0])
        assert probe.pending_choices > 0
        with pytest.raises(ValueError, match="does not belong"):
            simulator.run(
                {0: ["a"], 1: ["b"]},
                guide=[0, probe.pending_choices],
            )

    def test_in_range_guide_still_replays(self):
        simulator = s2a_simulator(atomic_local=True)
        result = simulator.run({0: ["a"], 1: ["b"]}, guide=[0, 0, 0])
        assert result.steps_taken == 3
