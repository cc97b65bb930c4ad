"""Performance P1 — simulator throughput across algorithms and scales.

Not a paper artifact: these benchmarks track the cost of the substrate
itself (scheduler steps per second, message fan-out) so regressions in
the runtime layer are visible.
"""

import pytest

from repro.broadcasts import (
    CausalBroadcast,
    FifoBroadcast,
    SendToAllBroadcast,
    TotalOrderBroadcast,
    UniformReliableBroadcast,
)
from repro.runtime import CrashSchedule, Simulator

ALGORITHMS = {
    "send-to-all": (SendToAllBroadcast, 1),
    "uniform-reliable": (UniformReliableBroadcast, 1),
    "fifo": (FifoBroadcast, 1),
    "causal": (CausalBroadcast, 1),
    "total-order": (TotalOrderBroadcast, 1),
}


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_algorithm_throughput(benchmark, name):
    algorithm_class, k = ALGORITHMS[name]

    def workload():
        simulator = Simulator(
            4, lambda pid, n: algorithm_class(pid, n), k=k, seed=7
        )
        result = simulator.run(
            {p: [f"m{p}.{i}" for i in range(4)] for p in range(4)}
        )
        assert result.quiescent
        return result.steps_taken

    steps = benchmark(workload)
    assert steps > 0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_scaling_with_processes(benchmark, n):
    def workload():
        simulator = Simulator(
            n, lambda pid, size: UniformReliableBroadcast(pid, size),
            seed=3,
        )
        result = simulator.run({p: ["x", "y"] for p in range(n)})
        assert result.quiescent
        return result.steps_taken

    benchmark(workload)


def test_prelude_with_footprint_read(benchmark):
    """The per-event cost the sleep-set reduction pays: ``advance``, the
    ``choices()`` prelude that finishes the footprint under a pending
    crash, then the ``last_footprint`` read, along one full walk of a
    crash-catalog config (Send-To-All, n=3, p1 crashing at count 4)."""
    simulator = Simulator(3, SendToAllBroadcast)
    crash = CrashSchedule(at_step={1: 4})

    def workload():
        handle = simulator.begin({0: ["a"], 1: ["b"]}, crash_schedule=crash)
        footprints = []
        while handle.choices():
            handle.advance(0)
            handle.choices()
            footprints.append(handle.last_footprint)
        return footprints

    footprints = benchmark(workload)
    assert any(f.pending_deadlines for f in footprints)
    assert any(f.crashed_pids for f in footprints)
