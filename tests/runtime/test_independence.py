"""Commutation differential tests for the recorded-footprint relation.

The sleep-set reduction prunes a branch whenever
:func:`repro.runtime.independence.independent` claims the event it takes
commutes with an already-explored sibling, so a wrong ``True`` silently
drops schedules.  These tests hold the relation to its contract — that
commutation is *fingerprint-exact* — by brute force: over every state of
small configurations (and random walks through larger ones), every pair
of enabled choices the relation claims independent is executed in both
orders from forked handles, and the reached fingerprints and enabled
choice-key sets must be identical.

The other direction (dependent verdicts) is allowed to be conservative,
but the relation must not be vacuous: the Send-To-All configurations
must yield claimed-independent pairs, otherwise sleep sets prune
nothing and the reduction is dead code.

The crash-aware differential (``TestCrashAwareCommutation``) is the
tentpole's proof obligation made executable: at *every* reachable
decision point of the crash-heavy configurations where a crash is still
pending (located via ``Footprint.pending_deadlines``), every pair the
crash-aware relation claims independent — including the pairs it
proves only through the victim-disjointness argument — is executed in
both orders and compared fingerprint-exactly.
"""

import random

import pytest

from repro.broadcasts import SendToAllBroadcast, UniformReliableBroadcast
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.independence import (
    Footprint,
    choice_key,
    classify,
    independent,
    observed_footprint,
)


def s2a(n=3, **kwargs):
    return Simulator(
        n, lambda pid, n_: SendToAllBroadcast(pid, n_),
        atomic_local=True, **kwargs,
    )


def urb(n=2, **kwargs):
    return Simulator(
        n, lambda pid, n_: UniformReliableBroadcast(pid, n_),
        atomic_local=True, **kwargs,
    )


CONFIGS = [
    pytest.param(s2a(), {0: ["a"], 1: ["b"]}, None, 6, id="s2a-async"),
    pytest.param(
        s2a(sync_broadcasts=True), {0: ["a"], 1: ["b"]}, None, 6,
        id="s2a-sync",
    ),
    pytest.param(
        s2a(), {0: ["a"], 1: ["b"]}, CrashSchedule(at_step={1: 3}), 6,
        id="s2a-crash",
    ),
    pytest.param(urb(), {0: ["a"], 1: ["b"]}, None, 5, id="urb-async"),
]


def reachable_states(simulator, scripts, crash_schedule, max_depth):
    """Every distinct state up to ``max_depth`` decisions, as handles."""
    root = simulator.begin(scripts, crash_schedule=crash_schedule)
    root.choices()
    frontier = [(root, 0)]
    seen = {root.fingerprint()}
    states = []
    while frontier:
        handle, depth = frontier.pop()
        states.append(handle)
        if depth >= max_depth:
            continue
        for index in range(len(handle.choices())):
            child = handle.fork()
            child.advance(index)
            child.choices()
            digest = child.fingerprint()
            if digest not in seen:
                seen.add(digest)
                frontier.append((child, depth + 1))
    return states


def take_by_key(handle, key):
    """Advance ``handle`` by the choice with identity ``key``."""
    for index, choice in enumerate(handle.choices()):
        if choice_key(choice) == key:
            handle.advance(index)

            handle.choices()  # run the prelude so footprints finalize
            return
    raise AssertionError(f"choice {key} not enabled — commutation broken")


def assert_pair_commutes(handle, index_a, index_b):
    """Execute both orders of (a, b) and compare the reached states."""
    choices = handle.choices()
    key_a = choice_key(choices[index_a])
    key_b = choice_key(choices[index_b])

    first = handle.fork()
    first.advance(index_a)
    first.choices()
    take_by_key(first, key_b)

    second = handle.fork()
    second.advance(index_b)
    second.choices()
    take_by_key(second, key_a)

    assert first.fingerprint() == second.fingerprint(), (
        f"claimed-independent pair {key_a} / {key_b} does not commute"
    )
    keys_first = {choice_key(c) for c in first.choices()}
    keys_second = {choice_key(c) for c in second.choices()}
    assert keys_first == keys_second


class TestExhaustiveCommutation:
    """Every claimed-independent pair at every reachable state commutes."""

    @pytest.mark.parametrize(
        "simulator, scripts, crashes, depth", CONFIGS
    )
    def test_all_pairs(self, simulator, scripts, crashes, depth):
        claimed = 0
        for handle in reachable_states(simulator, scripts, crashes, depth):
            choices = handle.choices()
            footprints = [
                observed_footprint(handle, index)
                for index in range(len(choices))
            ]
            for i in range(len(choices)):
                for j in range(i + 1, len(choices)):
                    if independent(footprints[i], footprints[j]):
                        claimed += 1
                        assert_pair_commutes(handle, i, j)
        # recorded for the non-vacuity checks below
        self.__class__.last_claimed = claimed

    def test_relation_not_vacuous_on_s2a(self):
        """Send-To-All receptions to distinct receivers must commute."""
        claimed = 0
        for handle in reachable_states(s2a(), {0: ["a"], 1: ["b"]}, None, 6):
            choices = handle.choices()
            footprints = [
                observed_footprint(handle, index)
                for index in range(len(choices))
            ]
            claimed += sum(
                independent(footprints[i], footprints[j])
                for i in range(len(choices))
                for j in range(i + 1, len(choices))
            )
        assert claimed > 0, "no independent pairs: sleep sets are dead code"

    def test_urb_first_receptions_dependent(self):
        """A URB reception that forwards emits sends: never independent."""
        simulator = urb()
        handle = simulator.begin({0: ["a"]})
        handle.choices()
        # take the broadcast, leaving one copy per receiver enabled
        take_by_key(handle, ("bcast", 0))
        choices = handle.choices()
        by_receiver = {
            choice_key(choice)[2]: index
            for index, choice in enumerate(choices)
            if choice[0] == "recv"
        }
        assert set(by_receiver) == {0, 1}
        own = observed_footprint(handle, by_receiver[0])
        first = observed_footprint(handle, by_receiver[1])
        # p0 already knows its own message: the self-copy is a duplicate
        assert own is not None and not own.sent
        # p1 learns it here and forwards to all — recorded as emissions
        assert first is not None and first.sent
        assert not independent(own, first)


class TestRandomizedCommutation:
    """Random walks through a deeper tree, probing random enabled pairs."""

    @pytest.mark.parametrize(
        "simulator, scripts, crashes",
        [
            pytest.param(
                s2a(), {0: ["a"], 1: ["b"], 2: ["c"]}, None, id="s2a-n3"
            ),
            pytest.param(
                urb(), {0: ["a"], 1: ["b"]},
                CrashSchedule(at_step={0: 4}), id="urb-crash",
            ),
        ],
    )
    def test_random_walks(self, simulator, scripts, crashes):
        rng = random.Random(20240806)
        for _ in range(40):
            handle = simulator.begin(scripts, crash_schedule=crashes)
            handle.choices()
            for _ in range(rng.randint(0, 10)):
                choices = handle.choices()
                if not choices:
                    break
                if len(choices) >= 2:
                    i, j = rng.sample(range(len(choices)), 2)
                    a = observed_footprint(handle, i)
                    b = observed_footprint(handle, j)
                    if independent(a, b):
                        assert_pair_commutes(handle, min(i, j), max(i, j))
                handle.advance(rng.randrange(len(choices)))
                handle.choices()


CRASH_HEAVY_CONFIGS = [
    pytest.param(
        s2a(), {0: ["a"], 1: ["b"]}, CrashSchedule(at_step={2: 4}), 8,
        id="s2a-crash-late",
    ),
    pytest.param(
        s2a(), {0: ["a"], 1: ["b"]}, CrashSchedule(at_step={1: 4}), 8,
        id="s2a-crash-mid",
    ),
    # n=3 with a non-broadcasting victim: with only two processes the
    # crash-aware proof has no disjoint pair avoiding the victim, so a
    # two-process config cannot witness the refinement
    pytest.param(
        urb(n=3), {0: ["a"]}, CrashSchedule(at_step={2: 6}), 5,
        id="urb-crash",
    ),
]


class TestCrashAwareCommutation:
    """Both orders at every pending-crash decision point, exhaustively."""

    @pytest.mark.parametrize(
        "simulator, scripts, crashes, depth", CRASH_HEAVY_CONFIGS
    )
    def test_every_pending_crash_decision_point(
        self, simulator, scripts, crashes, depth
    ):
        pending_points = 0
        crash_proofs = 0
        for handle in reachable_states(simulator, scripts, crashes, depth):
            choices = handle.choices()
            if not choices:
                continue
            footprints = [
                observed_footprint(handle, index)
                for index in range(len(choices))
            ]
            live = [f for f in footprints if f is not None and f.pending]
            if not live:
                continue  # the schedule drained: no crash in sight
            pending_points += 1
            for footprint in live:
                # the deadlines locate the pending injections exactly
                assert set(dict(footprint.pending_deadlines)) == set(
                    footprint.pending
                )
                for victim, deadline in footprint.pending_deadlines:
                    assert crashes.at_step[victim] == deadline
                # the imminent set is exactly the deadline==next-count
                # slice of the pending schedule (the probe committed at
                # handle.steps + 1, so "next" is handle.steps + 2)
                assert footprint.imminent == frozenset(
                    victim
                    for victim, deadline in footprint.pending_deadlines
                    if deadline == handle.steps + 2
                )
                assert footprint.imminent <= footprint.pending
            for i in range(len(choices)):
                for j in range(i + 1, len(choices)):
                    a, b = footprints[i], footprints[j]
                    verdict, source = classify(a, b)
                    assert verdict == independent(a, b)
                    if not verdict:
                        continue
                    if source == "crash_proof":
                        crash_proofs += 1
                        # the argument only carries pairs with a crash
                        # in sight
                        assert (
                            a.pending or b.pending or a.crashed or b.crashed
                        )
                    assert_pair_commutes(handle, i, j)
        assert pending_points > 0, "no pending-crash decision points probed"
        assert crash_proofs > 0, (
            "crash-aware proof never fired: the refinement is dead code"
        )


class TestClassify:
    """Verdict sources of the crash-aware relation."""

    def test_sources(self):
        free_a = Footprint("recv", frozenset({0}))
        free_b = Footprint("recv", frozenset({1}))
        assert classify(free_a, free_b) == (True, "dynamic")

        pend_a = Footprint("recv", frozenset({0}), pending_deadlines=((2, 9),))
        pend_b = Footprint("recv", frozenset({1}), pending_deadlines=((2, 9),))
        assert classify(pend_a, pend_b) == (True, "crash_proof")

        # touching a victim whose deadline is *distant* is fine: the
        # injection fires after both events in either order
        distant = Footprint(
            "recv", frozenset({2}), pending_deadlines=((2, 9),)
        )
        assert classify(distant, pend_b) == (True, "crash_proof")

        # touching a victim due at the very next decision count is not:
        # the injection lands inside the swapped pair's window
        victim = Footprint(
            "recv",
            frozenset({2}),
            pending_deadlines=((2, 9),),
            imminent=frozenset({2}),
        )
        assert classify(victim, pend_b) == (False, "conservative")
        assert classify(None, free_a) == (False, "conservative")

        # a crash that fired between the pair lands at the same count
        # in both orders — fine as long as neither event touched the
        # victim it killed
        straddle = Footprint(
            "recv", frozenset({0}), crashed_pids=frozenset({2})
        )
        assert classify(straddle, pend_b) == (True, "crash_proof")
        toucher = Footprint("recv", frozenset({1, 2}))
        assert classify(straddle, toucher) == (False, "conservative")


class TestPendingDeadlines:
    """``Footprint.pending_deadlines`` mirrors the live crash schedule."""

    def test_recorded_for_alive_victims(self):
        crashes = CrashSchedule(at_step={1: 3, 2: 5})
        handle = s2a(n=3).begin({0: ["a"]}, crash_schedule=crashes)
        handle.choices()
        handle.advance(0)
        handle.choices()
        footprint = handle.last_footprint
        assert footprint is not None
        assert footprint.pending == frozenset({1, 2})
        assert footprint.pending_deadlines == ((1, 3), (2, 5))

    def test_dropped_once_the_victim_dies(self):
        crashes = CrashSchedule(at_step={1: 1})
        handle = s2a(n=2).begin({0: ["a"]}, crash_schedule=crashes)
        handle.choices()
        handle.advance(0)
        handle.choices()  # this prelude injects the crash
        crashed = handle.last_footprint
        assert crashed is not None and crashed.crashed
        assert crashed.pending == frozenset()
        assert crashed.pending_deadlines == ()


class TestFootprintShape:
    """The recorded footprints carry what the docstrings promise."""

    def test_crash_marks_inflight_footprint(self):
        simulator = s2a(n=2)
        crashes = CrashSchedule(at_step={1: 1})
        handle = simulator.begin({0: ["a"]}, crash_schedule=crashes)
        handle.choices()
        handle.advance(0)  # the decision whose successor prelude crashes p1
        handle.choices()
        footprint = handle.last_footprint
        assert footprint is not None and footprint.crashed

    def test_terminal_probe_raises_a_clear_error(self):
        # Regression: probing a quiescent run used to fall through to
        # advance(), whose out-of-range index error hid the real cause.
        simulator = s2a(n=2)
        handle = simulator.begin({0: ["a"]})
        while handle.choices():
            handle.advance(0)
        with pytest.raises(ValueError, match="terminal run"):
            observed_footprint(handle, 0)
        # the probe runs on a fork: the original handle is untouched
        assert handle.choices() == []

    def test_probe_enumerates_choices_once(self, monkeypatch):
        # Regression: the probe used to enumerate twice (terminal guard
        # on the fork + prelude finalization).  The guard now runs on
        # the already-cached parent and the fork inherits that cache,
        # so only the post-event prelude enumerates fresh state.
        from repro.runtime.simulator import SimulationRun

        simulator = s2a(n=3)
        crashes = CrashSchedule(at_step={1: 3})
        handle = simulator.begin(
            {0: ["a"], 1: ["b"]}, crash_schedule=crashes
        )
        before = list(handle.choices())  # cache the parent enumeration

        calls = {"fresh": 0}
        real = SimulationRun._enabled_choices

        def counting(self):
            calls["fresh"] += 1
            return real(self)

        monkeypatch.setattr(SimulationRun, "_enabled_choices", counting)
        footprint = observed_footprint(handle, 0)
        assert footprint is not None
        assert calls["fresh"] == 1, (
            f"probe enumerated {calls['fresh']} times, expected 1"
        )
        # the probe ran on a fork: the parent still serves its cache
        assert handle.choices() == before
        assert calls["fresh"] == 1

    def test_probe_footprint_matches_direct_advance(self):
        # Regression companion: collapsing the double enumeration must
        # not change footprint contents — the probe observes exactly
        # what advancing a fork directly records, crash prelude and all.
        crashes = CrashSchedule(at_step={1: 3})
        for handle in reachable_states(
            s2a(), {0: ["a"], 1: ["b"]}, crashes, 5
        ):
            for index in range(len(handle.choices())):
                direct = handle.fork()
                direct.advance(index)
                direct.choices()
                assert observed_footprint(handle, index) == (
                    direct.last_footprint
                )

    def test_choice_keys_stable_across_siblings(self):
        simulator = s2a(n=3)
        handle = simulator.begin({0: ["a"], 1: ["b"]})
        choices = handle.choices()
        keys = {choice_key(c) for c in choices}
        # taking one branch re-indexes the rest but keeps their keys
        taken = choice_key(choices[0])
        handle.advance(0)
        handle.choices()
        after = {choice_key(c) for c in handle.choices()}
        assert (keys - {taken}) <= after
