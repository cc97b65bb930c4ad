"""Performance P7 — Paxos over Ω: decision latency in scheduler steps."""

import pytest

from repro.agreement import PaxosProcess
from repro.detectors import Clock, OmegaOracle
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


def consensus_run(*, n, seed, crash=None, stabilize_at=0):
    crash = crash or CrashSchedule.none()
    clock = Clock()
    omega = OmegaOracle(n, crash, clock, stabilize_at=stabilize_at)
    simulator = Simulator(
        n,
        lambda pid, size: PaxosProcess(pid, size, omega),
        seed=seed,
    )
    outcome = simulator.run(
        {p: [Invocation("propose", "slot", f"v{p}")] for p in range(n)},
        crash_schedule=crash,
        max_steps=100_000,
        clock=clock,
    )
    decisions = {
        record.process: record.result
        for record in outcome.history.complete()
    }
    assert len(set(decisions.values())) == 1
    return outcome


@pytest.mark.parametrize("n", [3, 5, 7])
def test_stable_leader_consensus(benchmark, n):
    outcome = benchmark(consensus_run, n=n, seed=1)
    assert outcome.quiescent


def test_leader_crash_recovery(benchmark):
    outcome = benchmark(
        consensus_run,
        n=5,
        seed=2,
        crash=CrashSchedule({0: 40}),
        stabilize_at=150,
    )
    assert not outcome.blocked


def test_unstable_omega_period(benchmark):
    outcome = benchmark(consensus_run, n=5, seed=4, stabilize_at=250)
    assert outcome.quiescent
