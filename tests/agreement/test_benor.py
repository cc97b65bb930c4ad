"""Tests for Ben-Or randomized binary consensus."""

import pytest

from repro.agreement.benor import BenOrProcess
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


def benor_run(seed, *, n=5, proposals=None, crash=None, coin_seed=0,
              max_steps=150_000):
    crash = crash or CrashSchedule.none()
    if proposals is None:
        proposals = {p: p % 2 for p in range(n)}
    simulator = Simulator(
        n,
        lambda pid, size: BenOrProcess(pid, size, coin_seed=coin_seed),
        seed=seed,
    )
    outcome = simulator.run(
        {p: [Invocation("propose", "bit", v)]
         for p, v in proposals.items()},
        crash_schedule=crash,
        max_steps=max_steps,
    )
    decisions = {
        record.process: record.result
        for record in outcome.history.complete()
    }
    return outcome, decisions


class TestBenOr:
    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_and_termination(self, seed):
        outcome, decisions = benor_run(seed)
        assert not outcome.blocked
        assert len(decisions) == 5
        assert len(set(decisions.values())) == 1
        assert set(decisions.values()) <= {0, 1}

    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity_when_unanimous(self, bit):
        _, decisions = benor_run(
            2, proposals={p: bit for p in range(5)}
        )
        assert set(decisions.values()) == {bit}

    def test_tolerates_a_minority_of_crashes(self):
        outcome, decisions = benor_run(
            3, crash=CrashSchedule({4: 30, 3: 60})
        )
        assert not outcome.blocked
        assert set(decisions) >= {0, 1, 2}
        assert len(set(decisions.values())) == 1

    @pytest.mark.parametrize("coin_seed", [0, 1, 2])
    def test_safety_across_coin_outcomes(self, coin_seed):
        _, decisions = benor_run(4, coin_seed=coin_seed)
        assert len(set(decisions.values())) == 1

    def test_three_process_minimum_system(self):
        outcome, decisions = benor_run(
            5, n=3, proposals={0: 0, 1: 1, 2: 1}
        )
        assert len(decisions) == 3
        assert len(set(decisions.values())) == 1

    def test_non_binary_proposal_rejected(self):
        process = BenOrProcess(0, 3)
        with pytest.raises(ValueError, match="binary"):
            list(process.on_invoke(Invocation("propose", "bit", 7)))

    def test_unknown_operation_rejected(self):
        process = BenOrProcess(0, 3)
        with pytest.raises(ValueError, match="unknown operation"):
            list(process.on_invoke(Invocation("read", "bit", 0)))

    def test_tolerated_crash_bound(self):
        assert BenOrProcess(0, 5).t == 2
        assert BenOrProcess(0, 4).t == 1
        assert BenOrProcess(0, 3).t == 1
