"""Tests for FloodSet consensus with a perfect failure detector."""

import pytest

from repro.agreement.floodset import FloodSetProcess
from repro.detectors import Clock, PerfectDetector
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


def floodset_run(seed, *, n=4, crash=None, proposals=None):
    crash = crash or CrashSchedule.none()
    clock = Clock()
    detector = PerfectDetector(n, crash, clock, lag=0)
    simulator = Simulator(
        n,
        lambda pid, size: FloodSetProcess(pid, size, detector),
        seed=seed,
    )
    if proposals is None:
        proposals = {p: f"v{p}" for p in range(n)}
    outcome = simulator.run(
        {p: [Invocation("propose", "c", v)]
         for p, v in proposals.items()},
        crash_schedule=crash,
        max_steps=120_000,
        clock=clock,
    )
    decisions = {
        record.process: record.result
        for record in outcome.history.complete()
    }
    return outcome, decisions


class TestFloodSet:
    @pytest.mark.parametrize("seed", range(5))
    def test_consensus_failure_free(self, seed):
        outcome, decisions = floodset_run(seed)
        assert not outcome.blocked
        assert len(decisions) == 4
        assert len(set(decisions.values())) == 1

    def test_decides_minimum_known_value(self):
        _, decisions = floodset_run(
            1, proposals={0: "z", 1: "a", 2: "m", 3: "q"}
        )
        assert set(decisions.values()) == {"a"}

    def test_wait_free_with_n_minus_1_crashes(self):
        # the Ω+majority world cannot do this; P can
        outcome, decisions = floodset_run(
            1, crash=CrashSchedule({1: 10, 2: 25, 3: 45})
        )
        assert not outcome.blocked
        assert 0 in decisions

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_under_crashes(self, seed):
        outcome, decisions = floodset_run(
            seed, crash=CrashSchedule({3: 15})
        )
        assert len(set(decisions.values())) == 1
        assert set(decisions) >= {0, 1, 2}

    def test_validity(self):
        _, decisions = floodset_run(2)
        assert set(decisions.values()) <= {f"v{p}" for p in range(4)}

    def test_unknown_operation_rejected(self):
        clock = Clock()
        detector = PerfectDetector(3, CrashSchedule.none(), clock)
        process = FloodSetProcess(0, 3, detector)
        with pytest.raises(ValueError, match="unknown operation"):
            list(process.on_invoke(Invocation("read", "c")))
