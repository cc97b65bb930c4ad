"""Differential tests of the two per-node shortcuts of plain DFS.

* ``ProcessRuntime.fork`` copies an idle algorithm instance field by
  field instead of through ``copy.deepcopy``'s reduce path.  The copy
  must equal ``copy.deepcopy``'s, share no mutable container with the
  original, keep aliased fields aliased, and still refuse (so the fork
  replays the journal) when the instance holds a generator.
* Under ``atomic_local``, the prelude drains only the last event's
  origin instead of sweeping every alive pid.  Every decision point
  must reach the same state, footprint and choice count as the full
  sweep, and must end with no alive process holding an enabled step.
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.broadcasts import SendToAllBroadcast
from repro.core.message import MessageFactory
from repro.runtime import CrashSchedule, Simulator, SimulationRun
from repro.runtime.effects import Deliver, Wait
from repro.runtime.process import (
    BroadcastProcess,
    ProcessRuntime,
    _copy_algorithm,
)
from repro.server.descriptor import ALGORITHMS

#: Every registered algorithm, by descriptor name.
NAMES = sorted(ALGORITHMS)

SCRIPTS = {0: ["a", "c"], 1: ["b"], 2: ["d"]}

#: A schedule: per decision, an index into the enabled events (taken
#: modulo their count) and whether to continue on a fork.
schedules = st.lists(
    st.tuples(st.integers(0, 7), st.booleans()), max_size=24
)

crash_schedules = st.one_of(
    st.none(),
    st.builds(
        lambda pid, step: CrashSchedule(at_step={pid: step}),
        st.integers(0, 2),
        st.integers(0, 8),
    ),
    st.builds(
        lambda pid: CrashSchedule.initial([pid]), st.integers(0, 2)
    ),
)


#: The mutable objects an algorithm's state is built from.
MUTABLE = (list, dict, set, BroadcastProcess)


def mutable_ids(root):
    """Ids of every mutable object reachable from ``vars(root)``."""
    found: set[int] = set()
    stack = list(vars(root).values())
    while stack:
        value = stack.pop()
        if isinstance(value, MUTABLE):
            if id(value) in found:
                continue
            found.add(id(value))
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, set, tuple, frozenset)):
            stack.extend(value)
        elif isinstance(value, BroadcastProcess):
            stack.extend(vars(value).values())
    return found


def assert_copies_like_deepcopy(algorithm):
    try:
        expected = copy.deepcopy(algorithm)
    except TypeError:
        with pytest.raises(TypeError):
            _copy_algorithm(algorithm)
        return
    clone = _copy_algorithm(algorithm)
    assert type(clone) is type(algorithm)
    assert vars(clone) == vars(expected) == vars(algorithm)
    assert not mutable_ids(clone) & mutable_ids(algorithm)


class TestFieldwiseCopy:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        n=st.integers(2, 3),
        atomic=st.booleans(),
        schedule=schedules,
    )
    def test_matches_deepcopy_along_generated_prefixes(
        self, name, n, atomic, schedule
    ):
        simulator = Simulator(n, ALGORITHMS[name], atomic_local=atomic)
        run = simulator.begin({p: SCRIPTS[p] for p in range(n)})
        for index, _ in schedule:
            choices = run.choices()
            for runtime in run.runtimes.values():
                assert_copies_like_deepcopy(runtime.algorithm)
            if not choices:
                break
            run.advance(index % len(choices))
        forked = run.fork()
        assert forked.fingerprint() == run.fingerprint()
        for p, runtime in run.runtimes.items():
            assert vars(forked.runtimes[p].algorithm) == vars(
                runtime.algorithm
            )

    def test_aliased_fields_stay_aliased(self):
        algorithm = SendToAllBroadcast(0, 2)
        algorithm.log = [frozenset({1}), {"x": {2}}]
        algorithm.views = {"log": algorithm.log}
        algorithm.pair = (algorithm.log, algorithm.log)
        algorithm.me = algorithm
        clone = _copy_algorithm(algorithm)
        assert clone.views["log"] is clone.log is not algorithm.log
        assert clone.pair[0] is clone.pair[1] is clone.log
        assert clone.me is clone
        assert clone.log[1]["x"] == {2}
        assert clone.log[1]["x"] is not algorithm.log[1]["x"]
        assert not mutable_ids(clone) & mutable_ids(algorithm)

    def test_messages_are_shared(self):
        algorithm = SendToAllBroadcast(0, 2)
        message = MessageFactory().new(0, "a")
        algorithm.seen = {message.uid}
        algorithm.backlog = [message]
        clone = _copy_algorithm(algorithm)
        assert clone.backlog[0] is message
        assert next(iter(clone.seen)) is message.uid
        assert clone.seen is not algorithm.seen


    def test_classes_with_copy_hooks_are_deep_copied_whole(self):
        algorithm = Slotted(0, 2)
        algorithm.extra = {1}
        clone = _copy_algorithm(algorithm)
        assert clone.extra == {1} and clone.extra is not algorithm.extra
        assert _copy_algorithm(Hooked(0, 2)).copied_by_hook


class Slotted(SendToAllBroadcast):
    __slots__ = ("extra",)


class Hooked(SendToAllBroadcast):
    def __deepcopy__(self, memo):
        clone = Hooked(self.pid, self.n)
        clone.copied_by_hook = True
        return clone


class HeldCursor(BroadcastProcess):
    """Keeps its send loop in a field: an instance deepcopy refuses."""

    def on_broadcast(self, message):
        self.cursor = self.send_to_all(message)
        yield from self.cursor

    def on_receive(self, payload, sender):
        yield Deliver(payload)


class WaitsForTwo(BroadcastProcess):
    """Its operation stays suspended until two copies come back."""

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.heard = 0

    def on_broadcast(self, message):
        yield from self.send_to_all(message)
        yield Wait(lambda: self.heard >= 2)

    def on_receive(self, payload, sender):
        self.heard += 1
        yield Deliver(payload)


class TestGeneratorsStillReplay:
    def test_instance_holding_a_generator(self):
        run = Simulator(2, HeldCursor, atomic_local=True).begin({0: ["a"]})
        while run.choices():
            run.advance(0)
        assert not run.runtimes[0].busy
        with pytest.raises(TypeError):
            _copy_algorithm(run.runtimes[0].algorithm)
        forked = run.fork()
        assert forked.replayed_steps > 0
        assert forked.fingerprint() == run.fingerprint()

    def test_runtime_with_a_live_operation(self):
        run = Simulator(2, WaitsForTwo, atomic_local=True).begin(
            {0: ["a"]}
        )
        run.advance(0)  # p0 starts; the drain sends both copies
        run.choices()
        assert run.runtimes[0].busy
        forked = run.fork()
        assert forked.replayed_steps > 0
        assert forked.fingerprint() == run.fingerprint()


def full_drain(self):
    """The prelude's drain before it was narrowed to the event's origin."""
    progress = True
    while progress:
        progress = False
        for p in sorted(self.alive):
            runtime = self.runtimes[p]
            while runtime.has_enabled_step():
                self._take_local_step(p, runtime)
                progress = True


def decision_points(simulator, scripts, crash, schedule):
    """Per decision: fingerprint, choice count and last footprint."""
    run = simulator.begin(scripts, crash_schedule=crash)
    points = []
    for index, fork in schedule + [(0, False)]:
        choices = run.choices()
        for p in run.alive:
            assert not run.runtimes[p].has_enabled_step()
        points.append((run.fingerprint(), len(choices), run.last_footprint))
        if not choices:
            break
        if fork:
            run = run.fork()
        run.advance(index % len(choices))
    return points


class TestOriginDrain:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        n=st.integers(2, 3),
        sync=st.booleans(),
        crash=crash_schedules,
        schedule=schedules,
    )
    def test_same_state_at_every_decision_as_the_full_drain(
        self, name, n, sync, crash, schedule
    ):
        if crash is not None and max(crash.faulty()) >= n:
            crash = None
        simulator = Simulator(
            n, ALGORITHMS[name], atomic_local=True, sync_broadcasts=sync
        )
        scripts = {p: SCRIPTS[p] for p in range(n)}
        narrowed = decision_points(simulator, scripts, crash, schedule)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimulationRun, "_drain_local", full_drain)
            swept = decision_points(simulator, scripts, crash, schedule)
        assert narrowed == swept


def fresh_runtime(runtime, factory):
    """A runtime built by ``__init__`` in ``runtime``'s place."""
    return ProcessRuntime(
        factory(runtime.pid, runtime.n), message_factory=MessageFactory()
    )


class TestStructuralClone:
    """The structural fork builds its clone without ``__init__``."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(NAMES), schedule=schedules)
    def test_clone_has_every_field_of_a_fresh_runtime(self, name, schedule):
        # A field added to ``__init__`` and not to the clone shows here,
        # and so does one assigned out of order (which costs every
        # attribute read on the clone its shared dict layout).
        factory = ALGORITHMS[name]
        run = Simulator(3, factory, atomic_local=True).begin(SCRIPTS)
        for index, _ in schedule:
            choices = run.choices()
            if not choices:
                break
            run.advance(index % len(choices))
        for runtime in run.runtimes.values():
            clone, _ = runtime.fork(
                message_factory=MessageFactory(), algorithm_factory=factory
            )
            fresh = fresh_runtime(runtime, factory)
            assert list(vars(clone)) == list(vars(fresh))
            assert clone.fingerprint() == runtime.fingerprint()
            assert clone.delivered == runtime.delivered
            assert clone.delivered is not runtime.delivered
            assert clone.returned_uids == runtime.returned_uids

    def test_journal_replay_rebuilds_the_same_runtime(self):
        run = Simulator(2, WaitsForTwo, atomic_local=True).begin(
            {0: ["a"]}
        )
        run.advance(0)
        run.choices()
        runtime = run.runtimes[0]
        assert runtime.busy
        clone, replayed = runtime.fork(
            message_factory=MessageFactory(),
            algorithm_factory=WaitsForTwo,
        )
        assert replayed > 0
        fresh = fresh_runtime(runtime, WaitsForTwo)
        assert list(vars(clone)) == list(vars(fresh))
        assert clone.busy and clone.waiting_reason == runtime.waiting_reason
        assert vars(clone.algorithm) == vars(runtime.algorithm)
        assert clone.journal_entries() == runtime.journal_entries()
        assert clone.fingerprint() == runtime.fingerprint()
        assert clone._p2p_seq == runtime._p2p_seq
        # Both continue alike: the two copies come back, the operation
        # returns.
        for item in run.network.deliverable({0}):
            for side in (runtime, clone):
                side.inject_receive(item.p2p, item.payload)
        outcomes = [[], []]
        for side, log in zip((runtime, clone), outcomes):
            while side.has_enabled_step():
                log.append(side.next_step())
        assert outcomes[0] == outcomes[1] and outcomes[0]
        assert clone.fingerprint() == runtime.fingerprint()
        assert clone.returned_uids == runtime.returned_uids
