"""Request/response emulations under the simulator's tools.

Operations run on the one simulator, so what it offers broadcast
algorithms applies to them too:

* the footprint sanitizer attributes an operation start to
  ``on_invoke``;
* a fork at any decision, mid-operation included, continues exactly as
  the run it was taken from (a pending operation is rebuilt from the
  ``"i"`` entry of its process's journal);
* the schedule explorer enumerates ABD's schedules and checks each
  history for linearizability.
"""

import random
from dataclasses import astuple

from repro.agreement import BenOrProcess, FloodSetProcess, PaxosProcess
from repro.broadcasts import SendToAllBroadcast
from repro.registers import AbdRegisterProcess, check_linearizable
from repro.runtime import CrashSchedule, Simulator, explore_schedules
from repro.runtime.service import Invocation
from repro.statics.analyzer import summarize_algorithm
from repro.statics.model import attributed_handlers

from .test_service_runs import MIXED


def test_operation_start_attributed_to_on_invoke():
    for cls in (AbdRegisterProcess, PaxosProcess, FloodSetProcess,
                BenOrProcess):
        summary = summarize_algorithm(cls)
        assert attributed_handlers(summary, "bcast") == (
            summary.handler("on_invoke"),
        )
    summary = summarize_algorithm(SendToAllBroadcast)
    assert attributed_handlers(summary, "bcast") == (
        summary.handler("on_broadcast"),
    )


def observed(run):
    """What a run shows at its end: execution, history, end state."""
    result = run.result()
    return (
        result.execution,
        [astuple(record) for record in result.history],
        result.quiescent,
        sorted(result.blocked.items()),
    )


def test_fork_at_every_decision_continues_identically():
    simulator = Simulator(5, AbdRegisterProcess)
    crash = CrashSchedule({4: 25})
    rng = random.Random(3)
    run = simulator.begin(MIXED, crash_schedule=crash)
    indices = []
    while run.choices():
        indices.append(rng.randrange(len(run.choices())))
        run.advance(indices[-1])
    expected = observed(run)
    assert len(expected[1]) == 9

    base = simulator.begin(MIXED, crash_schedule=crash)
    replayed = 0
    for depth, index in enumerate(indices):
        clone = base.fork()
        replayed += clone.replayed_steps
        for later in indices[depth:]:
            clone.advance(later)
        assert observed(clone) == expected, f"fork at decision {depth}"
        base.advance(index)
    assert observed(base) == expected
    assert replayed > 0  # forks inside an operation replay the journal


def linearizable(result):
    problems = [
        f"pending: {record}" for record in result.history.pending()
    ]
    report = check_linearizable(result.history)
    if not report.ok:
        problems.append(str(report))
    return problems


def test_capped_exploration_of_abd_finds_no_violation():
    result = explore_schedules(
        Simulator(2, AbdRegisterProcess),
        {0: [Invocation("write", "R", 1)], 1: [Invocation("read", "R")]},
        linearizable,
        max_schedules=300,
    )
    assert result.ok
    assert not result.exhausted
    assert result.terminal_schedules == 300
