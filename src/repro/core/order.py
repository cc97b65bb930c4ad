"""Delivery-order relations over broadcast-level executions.

These relations are the vocabulary in which the ordering predicates of the
broadcast abstractions (Section 3.2 and the Introduction) are written:

* per-process delivery positions;
* *uniform* pair order — two messages delivered in the same relative order
  by every process that delivers both (the building block of k-BO and
  Total-Order broadcast);
* the *disagreement graph*, whose (k+1)-cliques are exactly the witnesses
  violating k-BO Broadcast;
* the causal precedence relation among broadcast messages;
* first-delivered sets (the Introduction's "simplistic" broadcast).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping

import networkx as nx

from .execution import Execution
from .message import Message, MessageId

__all__ = [
    "delivery_positions",
    "pair_orders",
    "uniformly_ordered",
    "disagreeing_pairs",
    "disagreement_graph",
    "kbo_violation_witness",
    "causal_precedence",
    "first_delivered_set",
]


def delivery_positions(
    execution: Execution,
) -> Mapping[int, Mapping[MessageId, int]]:
    """For each process, map each delivered message to its delivery rank."""
    positions: dict[int, dict[MessageId, int]] = {}
    for process, sequence in execution.delivery_sequences.items():
        positions[process] = {
            message.uid: rank for rank, message in enumerate(sequence)
        }
    return positions


def pair_orders(
    positions: Mapping[int, Mapping[MessageId, int]],
    first: MessageId,
    second: MessageId,
) -> set[int]:
    """Relative orders observed for a pair of messages.

    Returns a subset of ``{-1, +1}``: ``+1`` if some process delivers
    ``first`` before ``second``, ``-1`` for the converse.  Processes that
    deliver at most one of the two contribute nothing.
    """
    observed: set[int] = set()
    for ranks in positions.values():
        if first in ranks and second in ranks:
            observed.add(1 if ranks[first] < ranks[second] else -1)
    return observed


def uniformly_ordered(
    positions: Mapping[int, Mapping[MessageId, int]],
    first: MessageId,
    second: MessageId,
) -> bool:
    """True iff all processes delivering both messages agree on their order.

    Vacuously true when no process delivers both.
    """
    return len(pair_orders(positions, first, second)) <= 1


def disagreeing_pairs(
    execution: Execution,
) -> list[tuple[MessageId, MessageId]]:
    """The pairs of broadcast messages that are not uniformly ordered.

    Each unordered pair appears once, as ``(first, second)`` with
    ``first`` broadcast before ``second``, in the order
    :func:`itertools.combinations` lists the broadcast uids.  A process
    that delivers a message twice ranks it at its last delivery, as
    :func:`delivery_positions` does.
    """
    uids = list(dict.fromkeys(m.uid for m in execution.broadcast_messages))
    if len(uids) < 2:
        return []
    before: set[tuple[MessageId, MessageId]] = set()
    for ranks in delivery_positions(execution).values():
        before.update(combinations(sorted(ranks, key=ranks.__getitem__), 2))
    return [
        (first, second)
        for first, second in combinations(uids, 2)
        if (first, second) in before and (second, first) in before
    ]


def disagreement_graph(execution: Execution) -> nx.Graph:
    """Graph on broadcast messages; edges join non-uniformly-ordered pairs.

    A (k+1)-clique in this graph is a set of k+1 messages *no* two of which
    are delivered in the same order by all processes — i.e. a violation
    witness for k-BO Broadcast, and for k = 1 an edge is a violation of
    Total-Order Broadcast.  The edges are :func:`disagreeing_pairs`.
    """
    graph = nx.Graph()
    graph.add_nodes_from(m.uid for m in execution.broadcast_messages)
    graph.add_edges_from(disagreeing_pairs(execution))
    return graph


def kbo_violation_witness(
    execution: Execution, k: int
) -> tuple[MessageId, ...] | None:
    """Find k+1 messages among which no pair is uniformly ordered.

    Returns a witness tuple (a violation of the k-BO ordering property), or
    ``None`` when the execution satisfies k-BO ordering.
    """
    graph = disagreement_graph(execution)
    for clique in nx.find_cliques(graph):
        if len(clique) >= k + 1:
            return tuple(sorted(clique)[: k + 1])
    return None


def causal_precedence(execution: Execution) -> nx.DiGraph:
    """The causal ("happened-before") precedence among broadcast messages.

    ``m → m'`` iff the broadcaster of ``m'`` had, before invoking
    ``broadcast(m')``, either invoked ``broadcast(m)`` itself or delivered
    ``m``; closed transitively.  This is the message-level projection of
    Lamport's happened-before relation used by Causal Broadcast.
    """
    graph = nx.DiGraph()
    known: dict[int, set[MessageId]] = {}
    for message in execution.broadcast_messages:
        graph.add_node(message.uid)
    for step in execution:
        if step.is_invoke():
            uid = step.action.message.uid
            for prior in known.get(step.process, ()):  # direct edges
                graph.add_edge(prior, uid)
            known.setdefault(step.process, set()).add(uid)
        elif step.is_deliver():
            known.setdefault(step.process, set()).add(
                step.action.message.uid
            )
    return nx.transitive_closure_dag(graph) if nx.is_directed_acyclic_graph(
        graph
    ) else nx.transitive_closure(graph)


def first_delivered_set(execution: Execution) -> set[MessageId]:
    """Messages that are delivered first by at least one process."""
    firsts: set[MessageId] = set()
    for process in range(execution.n):
        head = execution.first_delivered(process)
        if head is not None:
            firsts.add(head.uid)
    return firsts
