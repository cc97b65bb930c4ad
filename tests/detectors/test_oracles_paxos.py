"""Tests for the failure-detector oracles and Paxos over Ω."""

import pytest

from repro.agreement import PaxosProcess
from repro.agreement.paxos import Ballot
from repro.detectors import Clock, OmegaOracle, PerfectDetector
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


class TestClock:
    def test_tick(self):
        clock = Clock()
        assert clock.now == 0
        clock.tick(42)
        assert clock.now == 42


class TestOmega:
    def make(self, crash=None, stabilize=100, n=4):
        clock = Clock()
        crash = crash or CrashSchedule.none()
        return clock, OmegaOracle(
            n, crash, clock, stabilize_at=stabilize, rotation_period=5
        )

    def test_stabilizes_to_least_correct(self):
        clock, omega = self.make(crash=CrashSchedule({0: 10}))
        clock.tick(100)
        assert omega.leader() == 1

    def test_rotates_before_stabilization(self):
        clock, omega = self.make()
        leaders = set()
        for now in range(0, 40, 5):
            clock.tick(now)
            leaders.add(omega.leader())
        assert len(leaders) > 1

    def test_never_elects_a_dead_process(self):
        clock, omega = self.make(crash=CrashSchedule({2: 0}))
        for now in range(0, 60, 3):
            clock.tick(now)
            assert omega.leader() != 2

    def test_stable_forever_after(self):
        clock, omega = self.make()
        outputs = set()
        for now in range(100, 200, 13):
            clock.tick(now)
            outputs.add(omega.leader())
        assert outputs == {0}


class TestPerfectDetector:
    def test_never_suspects_live_processes(self):
        clock = Clock()
        detector = PerfectDetector(
            3, CrashSchedule({2: 50}), clock, lag=10
        )
        clock.tick(30)
        assert detector.suspected() == frozenset()
        assert detector.trusted() == {0, 1, 2}

    def test_eventually_suspects_crashed(self):
        clock = Clock()
        detector = PerfectDetector(
            3, CrashSchedule({2: 50}, initially=frozenset({1})), clock,
            lag=10,
        )
        clock.tick(61)
        assert detector.suspected() == {1, 2}


class TestBallot:
    def test_total_order(self):
        assert Ballot(0, 3) < Ballot(1, 0)
        assert Ballot(1, 0) < Ballot(1, 2)


def paxos_run(seed, *, n=5, crash=None, stabilize=0,
              proposers=None, instance="c", stable_leader=None):
    crash = crash or CrashSchedule.none()
    clock = Clock()
    omega = OmegaOracle(
        n, crash, clock, stabilize_at=stabilize,
        stable_leader=stable_leader,
    )
    simulator = Simulator(
        n,
        lambda pid, size: PaxosProcess(pid, size, omega),
        seed=seed,
    )
    participants = proposers if proposers is not None else range(n)
    run = simulator.run(
        {
            p: [Invocation("propose", instance, f"v{p}")]
            for p in participants
        },
        crash_schedule=crash,
        max_steps=60_000,
        clock=clock,
    )
    decisions = {
        record.process: record.result
        for record in run.history.complete()
    }
    return run, decisions


class TestPaxos:
    @pytest.mark.parametrize("seed", range(5))
    def test_consensus_failure_free(self, seed):
        run, decisions = paxos_run(seed)
        assert run.quiescent and not run.blocked
        assert len(decisions) == 5
        assert len(set(decisions.values())) == 1
        assert set(decisions.values()) <= {f"v{p}" for p in range(5)}

    def test_survives_leader_crash(self):
        run, decisions = paxos_run(
            1, crash=CrashSchedule({0: 40}), stabilize=120
        )
        assert not run.blocked
        assert set(decisions) >= {1, 2, 3, 4}
        assert len(set(decisions.values())) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_safety_under_unstable_omega(self, seed):
        run, decisions = paxos_run(seed, stabilize=250)
        assert len(set(decisions.values())) <= 1

    def test_single_proposer_decides_own_value(self):
        # Ω must point at the lone proposer — ballots are leader-driven
        run, decisions = paxos_run(2, proposers=[3], stable_leader=3)
        assert decisions[3] == "v3"

    def test_non_leading_lone_proposer_waits(self):
        # with Ω stuck on a non-proposer, the lone proposer cannot make
        # progress — it parks on the leadership guard (no safety issue)
        run, decisions = paxos_run(2, proposers=[3], stable_leader=0)
        assert decisions == {}
        assert 3 in run.blocked
        assert "leadership" in run.blocked[3]

    def test_omega_rejects_faulty_stable_leader(self):
        clock = Clock()
        with pytest.raises(ValueError, match="faulty"):
            OmegaOracle(
                3, CrashSchedule({1: 5}), clock, stable_leader=1
            )

    def test_minority_crash_does_not_block(self):
        run, decisions = paxos_run(
            4, crash=CrashSchedule({4: 10, 3: 20})
        )
        assert not run.blocked
        assert set(decisions) >= {0, 1, 2}
        assert len(set(decisions.values())) == 1

    def test_independent_instances(self):
        crash = CrashSchedule.none()
        clock = Clock()
        omega = OmegaOracle(4, crash, clock)
        simulator = Simulator(
            4,
            lambda pid, size: PaxosProcess(pid, size, omega),
            seed=5,
        )
        run = simulator.run(
            {
                p: [
                    Invocation("propose", "a", f"a{p}"),
                    Invocation("propose", "b", f"b{p}"),
                ]
                for p in range(4)
            },
            max_steps=80_000,
            clock=clock,
        )
        per_instance: dict[str, set] = {"a": set(), "b": set()}
        for record in run.history.complete():
            per_instance[record.target].add(record.result)
        assert len(per_instance["a"]) == 1
        assert len(per_instance["b"]) == 1

    def test_unknown_operation_rejected(self):
        clock = Clock()
        omega = OmegaOracle(3, CrashSchedule.none(), clock)
        process = PaxosProcess(0, 3, omega)
        with pytest.raises(ValueError, match="unknown operation"):
            list(process.on_invoke(Invocation("read", "c")))
