"""Performance P9 — the consensus family across detector assumptions.

One benchmark per classical algorithm, measuring full decision latency
(all correct processes decide) under the free scheduler:

* FloodSet in CAMP_n[P] — wait-free;
* Ben-Or in CAMP_n[coin] — majority, randomized;
* (Paxos over Ω is benchmarked in ``bench_paxos.py``.)
"""

import pytest

from repro.agreement import BenOrProcess, FloodSetProcess
from repro.detectors import Clock, PerfectDetector
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


@pytest.mark.parametrize("n", [3, 5])
def test_floodset_latency(benchmark, n):
    def run():
        crash = CrashSchedule.none()
        clock = Clock()
        detector = PerfectDetector(n, crash, clock, lag=0)
        simulator = Simulator(
            n,
            lambda pid, size: FloodSetProcess(pid, size, detector),
            seed=1,
        )
        outcome = simulator.run(
            {p: [Invocation("propose", "c", f"v{p}")] for p in range(n)},
            max_steps=120_000,
            clock=clock,
        )
        decisions = {
            r.process: r.result for r in outcome.history.complete()
        }
        assert len(set(decisions.values())) == 1
        return outcome

    outcome = benchmark(run)
    assert outcome.quiescent


def test_floodset_with_cascading_crashes(benchmark):
    def run():
        crash = CrashSchedule({1: 10, 2: 25, 3: 45})
        clock = Clock()
        detector = PerfectDetector(4, crash, clock, lag=0)
        simulator = Simulator(
            4,
            lambda pid, size: FloodSetProcess(pid, size, detector),
            seed=1,
        )
        outcome = simulator.run(
            {p: [Invocation("propose", "c", f"v{p}")] for p in range(4)},
            crash_schedule=crash,
            max_steps=120_000,
            clock=clock,
        )
        assert not outcome.blocked
        return outcome

    benchmark(run)


@pytest.mark.parametrize("n", [3, 5])
def test_benor_latency(benchmark, n):
    def run():
        simulator = Simulator(
            n,
            lambda pid, size: BenOrProcess(pid, size),
            seed=2,
        )
        outcome = simulator.run(
            {p: [Invocation("propose", "b", p % 2)] for p in range(n)},
            max_steps=200_000,
        )
        decisions = {
            r.process: r.result for r in outcome.history.complete()
        }
        assert len(set(decisions.values())) == 1
        return outcome

    benchmark(run)
