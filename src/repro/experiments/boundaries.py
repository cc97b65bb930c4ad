"""Experiment B1 — the boundary cases k = 1 and k = n (Section 4 opening).

* **k = 1**: Total-Order Broadcast characterizes consensus.  Both
  reductions run on the simulator: Total-Order Broadcast is implemented
  from consensus oracles
  (:class:`~repro.broadcasts.total_order.TotalOrderBroadcast`), and
  consensus is solved over it by deciding the first TO-delivered proposal
  — across seeds and crash schedules, all deciders agree on a single
  proposed value and the produced executions satisfy the Total-Order
  specification.

* **k = n**: n-set agreement is solved with zero communication (decide
  your own value), matching Send-To-All Broadcast's zero ordering power.

Run as a script::

    python -m repro.experiments.boundaries
"""

from __future__ import annotations

from typing import Sequence

from ..agreement import solve_agreement_with_broadcast, solve_nsa_trivially
from ..analysis.report import ascii_table
from ..broadcasts import TotalOrderBroadcast
from ..runtime.crash import CrashSchedule
from ..specs import TotalOrderBroadcastSpec

__all__ = ["consensus_rows", "trivial_rows", "run", "main"]

CONSENSUS_HEADERS = (
    "n",
    "seed",
    "crashes",
    "decisions",
    "distinct",
    "consensus",
    "TO spec",
)

TRIVIAL_HEADERS = ("n", "proposals", "decisions", "distinct ≤ n")


def consensus_rows(
    sizes: Sequence[int] = (3, 4, 5),
    seeds: Sequence[int] = (0, 1, 2),
) -> list[tuple]:
    """Consensus via Total-Order Broadcast, with and without crashes."""
    table: list[tuple] = []
    for n in sizes:
        for seed in seeds:
            for crashes in (
                CrashSchedule.none(),
                CrashSchedule({n - 1: 5}),
            ):
                outcome = solve_agreement_with_broadcast(
                    n,
                    lambda pid, size: TotalOrderBroadcast(pid, size),
                    {p: f"v{p}" for p in range(n)},
                    k=1,
                    seed=seed,
                    crash_schedule=crashes,
                )
                beta = (
                    outcome.simulation.execution.broadcast_projection()
                )
                verdict = TotalOrderBroadcastSpec().admits(
                    beta, assume_complete=False
                )
                distinct = len(outcome.distinct)
                table.append(
                    (
                        n,
                        seed,
                        len(crashes.faulty()),
                        dict(sorted(outcome.decisions.items())),
                        distinct,
                        "✓" if distinct <= 1 else "✗",
                        "✓" if verdict.admitted else "✗",
                    )
                )
    return table


PAXOS_HEADERS = (
    "n",
    "seed",
    "Ω stabilizes",
    "crashes",
    "decided",
    "distinct",
    "consensus",
)


def paxos_rows(
    sizes: Sequence[int] = (3, 5),
    seeds: Sequence[int] = (0, 1),
) -> list[tuple]:
    """Consensus from scratch: Paxos in CAMP_n[Ω] with a majority.

    Complements the oracle-backed Total-Order rows: here consensus is a
    real message-passing protocol, live once Ω stabilizes.
    """
    from ..agreement.paxos import PaxosProcess
    from ..detectors import Clock, OmegaOracle
    from ..runtime import Simulator
    from ..runtime.service import Invocation

    table: list[tuple] = []
    for n in sizes:
        for seed in seeds:
            for stabilize, crashes in ((0, CrashSchedule.none()),
                                       (120, CrashSchedule({0: 40}))):
                clock = Clock()
                omega = OmegaOracle(
                    n, crashes, clock, stabilize_at=stabilize
                )
                simulator = Simulator(
                    n,
                    lambda pid, size: PaxosProcess(pid, size, omega),
                    seed=seed,
                )
                outcome = simulator.run(
                    {
                        p: [Invocation("propose", "slot", f"v{p}")]
                        for p in range(n)
                    },
                    crash_schedule=crashes,
                    max_steps=80_000,
                    clock=clock,
                )
                decisions = {
                    record.process: record.result
                    for record in outcome.history.complete()
                }
                distinct = len(set(decisions.values()))
                table.append(
                    (
                        n,
                        seed,
                        stabilize,
                        len(crashes.faulty()),
                        len(decisions),
                        distinct,
                        "✓" if distinct == 1 else "✗",
                    )
                )
    return table


def trivial_rows(sizes: Sequence[int] = (2, 4, 8)) -> list[tuple]:
    """k = n: agreement for free."""
    table: list[tuple] = []
    for n in sizes:
        proposals = {p: f"v{p}" for p in range(n)}
        decisions = solve_nsa_trivially(proposals)
        table.append(
            (
                n,
                len(proposals),
                len(decisions),
                "✓" if len(set(decisions.values())) <= n else "✗",
            )
        )
    return table


def run() -> str:
    parts = [
        "Experiment B1 — boundary case k = 1: consensus ⇔ Total-Order "
        "Broadcast (both reductions, crash-prone runs):\n",
        ascii_table(CONSENSUS_HEADERS, consensus_rows()),
        "",
        "Consensus from scratch — Paxos in CAMP_n[Ω] with a majority "
        "(live once Ω stabilizes, safe always):\n",
        ascii_table(PAXOS_HEADERS, paxos_rows()),
        "",
        "Boundary case k = n: n-set agreement without communication "
        "(equivalent to Send-To-All Broadcast):\n",
        ascii_table(TRIVIAL_HEADERS, trivial_rows()),
    ]
    return "\n".join(parts)


def main() -> None:
    print(run())


if __name__ == "__main__":
    main()
