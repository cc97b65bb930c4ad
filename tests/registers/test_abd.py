"""Tests for the ABD register emulation and its write-back ablation."""

from dataclasses import astuple

import pytest

from repro.core import check_channels
from repro.registers import (
    AbdRegisterProcess,
    History,
    RegularRegisterProcess,
    check_linearizable,
)
from repro.runtime import CrashSchedule, LockstepPolicy, Simulator
from repro.runtime.process import Blocked, ProcessRuntime, SendStep
from repro.runtime.service import Invocation, ResponseStep


def mixed_scripts(n):
    return {
        0: [Invocation("write", "R0", 10), Invocation("read", "R1")],
        1: [Invocation("write", "R1", 20), Invocation("read", "R0")],
        2: [Invocation("read", "R0"), Invocation("write", "R0", 30)],
        3: [Invocation("read", "R1"), Invocation("write", "R1", 40)],
        4: [Invocation("read", "R0")],
    }


class TestAbdConformance:
    @pytest.mark.parametrize("seed", range(6))
    def test_linearizable_failure_free(self, seed):
        simulator = Simulator(
            5, lambda pid, n: AbdRegisterProcess(pid, n), seed=seed
        )
        run = simulator.run(mixed_scripts(5))
        assert run.quiescent
        assert len(run.history.pending()) == 0
        assert check_linearizable(run.history).ok
        assert check_channels(run.execution).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_linearizable_with_minority_crashes(self, seed):
        simulator = Simulator(
            5, lambda pid, n: AbdRegisterProcess(pid, n), seed=seed
        )
        run = simulator.run(
            mixed_scripts(5),
            crash_schedule=CrashSchedule({4: 25, 3: 60}),
        )
        assert not run.blocked  # correct processes stay live
        assert check_linearizable(run.history).ok

    def test_blocks_without_a_majority(self):
        simulator = Simulator(
            4, lambda pid, n: AbdRegisterProcess(pid, n), seed=0
        )
        run = simulator.run(
            {0: [Invocation("write", "R", 1)]},
            crash_schedule=CrashSchedule.initial([1, 2]),
        )
        assert run.blocked == {0: "timestamp quorum for R"}
        assert run.history.pending()

    def test_lockstep_policy(self):
        """Operation starts are scheduled like broadcast starts: after
        every reception and local step, in enumeration order."""
        histories = []
        for seed in range(3):
            run = Simulator(
                3,
                lambda pid, n: AbdRegisterProcess(pid, n),
                seed=seed,
                scheduling_policy=LockstepPolicy(),
            ).run(
                {0: [Invocation("write", "R", 1)],
                 1: [Invocation("read", "R")]}
            )
            assert run.quiescent
            assert len(run.history.complete()) == 2
            assert check_linearizable(run.history).ok
            histories.append([astuple(record) for record in run.history])
        assert histories[0] == histories[1] == histories[2]

    def test_initial_value_readable(self):
        simulator = Simulator(
            3, lambda pid, n: AbdRegisterProcess(pid, n, initial="ε"),
            seed=1,
        )
        run = simulator.run({0: [Invocation("read", "R")]})
        (record,) = run.history.complete()
        assert record.result == "ε"


class _ManualCluster:
    """Hand-driven ABD cluster with explicit message routing.

    Lets tests construct exact interleavings — deliveries happen only
    when the test says so — which is how the new/old inversion below is
    produced deterministically.
    """

    def __init__(self, n, algorithm_class):
        self.runtimes = [
            ProcessRuntime(algorithm_class(p, n)) for p in range(n)
        ]
        self.mailbox = []  # (p2p, payload) not yet delivered
        self.clock = 0
        self.history = History()
        self.open = {}

    def invoke(self, p, *invocation_args):
        invocation = Invocation(*invocation_args)
        self.runtimes[p].invoke(invocation)
        self.clock += 1
        self.open[p] = self.history.begin(
            p,
            invocation.operation,
            invocation.target,
            invocation.argument,
            at=self.clock,
        )

    def drain_local(self, p):
        """Run p's enabled steps; outgoing messages stay in the mailbox."""
        runtime = self.runtimes[p]
        while runtime.has_enabled_step():
            outcome = runtime.next_step()
            self.clock += 1
            if isinstance(outcome, SendStep):
                self.mailbox.append((outcome.p2p, outcome.payload))
            elif isinstance(outcome, ResponseStep):
                record = self.open.pop(p)
                record.responded_at = self.clock
                record.result = outcome.result

    def deliver_to(self, receivers, *, from_senders=None):
        """Deliver pending messages addressed to ``receivers`` and run
        their handlers (responses they trigger stay in the mailbox)."""
        progressed = True
        while progressed:
            progressed = False
            for item in list(self.mailbox):
                p2p, payload = item
                if p2p.receiver not in receivers:
                    continue
                if from_senders is not None and p2p.sender not in from_senders:
                    continue
                self.mailbox.remove(item)
                self.runtimes[p2p.receiver].inject_receive(p2p, payload)
                self.drain_local(p2p.receiver)
                progressed = True


class TestWriteBackAblation:
    """The deterministic new/old inversion of the regular register."""

    def _quorum_exchange(self, cluster, caller, quorum):
        """Deliver the caller's requests to ``quorum`` and route the
        replies back, repeating once if the operation has a second
        phase (the ABD write-back)."""
        for _phase in range(3):
            cluster.deliver_to(quorum, from_senders={caller})
            cluster.deliver_to({caller}, from_senders=quorum - {caller})
            cluster.drain_local(caller)
            if not cluster.runtimes[caller].busy:
                break

    def _run_inversion(self, algorithm_class) -> History:
        n = 5
        cluster = _ManualCluster(n, algorithm_class)
        writer, reader_new, reader_old, updated = 0, 1, 2, 4

        # p0 starts write(R, 1): timestamp quorum {p0, p1, p3}, then its
        # STORE messages reach ONLY replica p4 — the write stays pending
        # (one ack) and even the writer's own replica is stale (its
        # self-addressed STORE sits in the mailbox).
        cluster.invoke(writer, "write", "R", 1)
        cluster.drain_local(writer)
        cluster.deliver_to({writer, 1, 3}, from_senders={writer})
        cluster.deliver_to({writer}, from_senders={1, 3})
        cluster.drain_local(writer)  # timestamp chosen; STOREs emitted
        cluster.deliver_to({updated}, from_senders={writer})

        # p1 reads with quorum {p1, p3, p4}: p4 reports the new value.
        cluster.invoke(reader_new, "read", "R")
        cluster.drain_local(reader_new)
        self._quorum_exchange(cluster, reader_new, {reader_new, 3, updated})

        # p2 reads strictly afterwards with quorum {p2, p0, p3}: all
        # three replicas missed the writer's STORE.  Under full ABD,
        # p1's read wrote the new value back to p3, so the very same
        # quorum reports it and the inversion is impossible.
        cluster.invoke(reader_old, "read", "R")
        cluster.drain_local(reader_old)
        self._quorum_exchange(cluster, reader_old, {reader_old, writer, 3})
        return cluster.history

    def test_regular_register_shows_new_old_inversion(self):
        history = self._run_inversion(RegularRegisterProcess)
        reads = [r for r in history if r.operation == "read"]
        assert [r.result for r in reads] == [1, 0]
        assert not check_linearizable(history).ok

    def test_full_abd_immune_on_the_same_schedule(self):
        history = self._run_inversion(AbdRegisterProcess)
        reads = [r for r in history.complete() if r.operation == "read"]
        # the write-back forces the second read to see the new value
        assert all(r.result == 1 for r in reads)
        assert check_linearizable(history).ok
