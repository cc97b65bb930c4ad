"""Performance P5 — the ABD register emulation and linearizability checking."""

import pytest

from repro.registers import AbdRegisterProcess, check_linearizable
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


def workload(n, ops_per_process):
    return {
        p: [
            Invocation("write" if i % 2 == 0 else "read", f"R{p % 2}",
                       i if i % 2 == 0 else None)
            for i in range(ops_per_process)
        ]
        for p in range(n)
    }


@pytest.mark.parametrize("n", [3, 5, 7])
def test_abd_throughput(benchmark, n):
    def run():
        simulator = Simulator(
            n, lambda pid, size: AbdRegisterProcess(pid, size), seed=1
        )
        result = simulator.run(workload(n, 2))
        assert result.quiescent
        return result

    result = benchmark(run)
    assert len(result.history.complete()) == 2 * n


def test_abd_with_minority_crash(benchmark):
    def run():
        simulator = Simulator(
            5, lambda pid, size: AbdRegisterProcess(pid, size), seed=2
        )
        result = simulator.run(
            workload(5, 2), crash_schedule=CrashSchedule({4: 30})
        )
        assert not result.blocked
        return result

    benchmark(run)


@pytest.mark.parametrize("ops", [6, 10])
def test_linearizability_checker_scaling(benchmark, ops):
    simulator = Simulator(
        5, lambda pid, size: AbdRegisterProcess(pid, size), seed=3
    )
    result = simulator.run(workload(5, ops // 2))
    report = benchmark(check_linearizable, result.history)
    assert report.ok
