"""Consensus in message passing, done right: Paxos over Ω + majority.

The paper's k = 1 anchor says consensus ⇔ Total-Order Broadcast.  This
example supplies consensus itself as a message-passing protocol — the
synod algorithm over the eventual-leader failure detector Ω — and shows
the classical behaviours:

1. with a stable leader, everyone decides one proposed value;
2. the leader may crash mid-run: once Ω re-stabilizes on a correct
   process, the survivors still decide (one value);
3. before Ω stabilizes, leadership rotates and ballots preempt each
   other — safety (a single decided value) holds through the chaos,
   only termination waits for stability.  That split — safety
   unconditional, liveness behind an oracle — is exactly what the
   wait-free k-SA world of the paper *cannot* buy for 1 < k < n.

Run: ``python examples/consensus_with_omega.py``
"""

from repro.agreement import PaxosProcess
from repro.detectors import Clock, OmegaOracle
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.service import Invocation


def run_consensus(*, n=5, seed=0, crash=None, stabilize_at=0):
    crash = crash or CrashSchedule.none()
    clock = Clock()
    omega = OmegaOracle(n, crash, clock, stabilize_at=stabilize_at)
    simulator = Simulator(
        n,
        lambda pid, size: PaxosProcess(pid, size, omega),
        seed=seed,
    )
    outcome = simulator.run(
        {p: [Invocation("propose", "slot-0", f"v{p}")] for p in range(n)},
        crash_schedule=crash,
        max_steps=60_000,
        clock=clock,
    )
    decisions = {
        record.process: record.result
        for record in outcome.history.complete()
    }
    return outcome, decisions


def main() -> None:
    print("1. stable leader from the start:")
    outcome, decisions = run_consensus(seed=11)
    print(f"   decisions: {dict(sorted(decisions.items()))}")
    assert len(set(decisions.values())) == 1

    print("\n2. the leader crashes mid-run (Ω re-stabilizes):")
    outcome, decisions = run_consensus(
        seed=3, crash=CrashSchedule({0: 40}), stabilize_at=150
    )
    print(
        f"   survivors decide: {dict(sorted(decisions.items()))} "
        f"(p1 took over)"
    )
    assert len(set(decisions.values())) == 1
    assert not outcome.blocked

    print("\n3. a long unstable period (rotating leadership):")
    outcome, decisions = run_consensus(seed=7, stabilize_at=300)
    distinct = set(decisions.values())
    print(
        f"   {len(decisions)} processes decided "
        f"{distinct} after {outcome.steps_taken} steps — one value, "
        f"despite ballot preemption during rotation"
    )
    assert len(distinct) == 1

    print(
        "\nconsensus (1-SA) is solvable in CAMP_n[Ω] with a majority — "
        "the k = 1 boundary the paper anchors on; Theorem 1 is about the "
        "strict middle 1 < k < n, where no broadcast abstraction "
        "(content-neutral + compositional) plays the role Total-Order "
        "Broadcast plays here."
    )


if __name__ == "__main__":
    main()
