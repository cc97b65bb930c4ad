"""Total-Order Broadcast — the abstraction that characterizes consensus.

Ordering predicate: any two processes that both deliver two messages
deliver them in the same relative order.  Equivalently (and this is how
the checker is implemented) no pair of messages is disagreeing, i.e. the
*disagreement graph* of the execution has no edge — the k = 1 instance of
k-BO Broadcast's clique criterion.

The paper's Section 1.2 recalls that Total-Order Broadcast is
computationally equivalent to consensus (Chandra & Toueg), the k = 1
anchor of the k-SA question; :mod:`repro.agreement` implements both
reductions on the simulator.
"""

from __future__ import annotations

from ..core.broadcast_spec import BroadcastSpec
from ..core.execution import Execution
from ..core.order import disagreeing_pairs

__all__ = ["TotalOrderBroadcastSpec"]


class TotalOrderBroadcastSpec(BroadcastSpec):
    """Total-Order Broadcast: all processes agree on all pair orders."""

    name = "Total Order Broadcast"

    def ordering_violations(self, execution: Execution) -> list[str]:
        # Pairs are canonicalised (each pair uid-sorted, pairs listed in
        # uid order) so the rendered violations depend only on per-process
        # delivery observations, never on the global interleaving that
        # ordered the broadcasts — executions reaching the same state
        # along different prefixes must report identical violations.
        pairs = sorted(
            tuple(sorted(pair)) for pair in disagreeing_pairs(execution)
        )
        return [
            f"{first} and {second} are delivered in different orders by "
            f"different processes"
            for first, second in pairs
        ]
