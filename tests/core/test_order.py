"""Unit tests for the delivery-order relations."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.order import (
    causal_precedence,
    delivery_positions,
    disagreeing_pairs,
    disagreement_graph,
    first_delivered_set,
    kbo_violation_witness,
    pair_orders,
    uniformly_ordered,
)
from tests.conftest import ExecutionBuilder, complete_exchange
from tests.core.test_execution_properties import broadcast_executions


def two_messages_disagreeing():
    b = ExecutionBuilder(2)
    first = b.broadcast(0, "a")
    second = b.broadcast(1, "b")
    b.deliver(0, "a", "b").deliver(1, "b", "a")
    return b.build(), first, second


class TestPositionsAndPairs:
    def test_delivery_positions(self):
        execution = complete_exchange(2)
        positions = delivery_positions(execution)
        uids = [m.uid for m in execution.broadcast_messages]
        assert positions[0][uids[0]] == 0
        assert positions[1][uids[1]] == 1

    def test_pair_orders_disagreement(self):
        execution, first, second = two_messages_disagreeing()
        positions = delivery_positions(execution)
        assert pair_orders(positions, first.uid, second.uid) == {1, -1}
        assert not uniformly_ordered(positions, first.uid, second.uid)

    def test_pair_orders_vacuous_when_disjoint_deliverers(self):
        b = ExecutionBuilder(2)
        first = b.broadcast(0, "a")
        second = b.broadcast(1, "b")
        b.deliver(0, "a").deliver(1, "b")
        positions = delivery_positions(b.build())
        assert pair_orders(positions, first.uid, second.uid) == set()
        assert uniformly_ordered(positions, first.uid, second.uid)


class TestDisagreementGraph:
    def test_agreeing_execution_has_no_edges(self):
        graph = disagreement_graph(complete_exchange(3))
        assert graph.number_of_edges() == 0
        assert graph.number_of_nodes() == 3

    def test_disagreeing_pair_is_an_edge(self):
        execution, first, second = two_messages_disagreeing()
        graph = disagreement_graph(execution)
        assert graph.has_edge(first.uid, second.uid)


@st.composite
def executions_with_redeliveries(draw):
    """A broadcast execution, some of whose deliveries happen twice."""
    execution = draw(broadcast_executions())
    deliveries = [step for step in execution if step.is_deliver()]
    repeats = (
        draw(st.lists(st.sampled_from(deliveries), max_size=3))
        if deliveries
        else []
    )
    return execution.extend(repeats)


class TestDisagreeingPairs:
    def test_disagreeing_pair_listed_once(self):
        execution, first, second = two_messages_disagreeing()
        assert disagreeing_pairs(execution) == [(first.uid, second.uid)]

    def test_agreeing_execution_has_none(self):
        assert disagreeing_pairs(complete_exchange(3)) == []

    @given(executions_with_redeliveries())
    @settings(max_examples=80)
    def test_graph_edges_are_the_pairs(self, execution):
        pairs = disagreeing_pairs(execution)
        assert set(disagreement_graph(execution).edges) == set(pairs)
        assert len(set(pairs)) == len(pairs)

    @given(executions_with_redeliveries())
    @settings(max_examples=80)
    def test_pairs_are_the_non_uniform_ones(self, execution):
        positions = delivery_positions(execution)
        uids = list(dict.fromkeys(m.uid for m in execution.broadcast_messages))
        assert disagreeing_pairs(execution) == [
            (first, second)
            for first, second in combinations(uids, 2)
            if not uniformly_ordered(positions, first, second)
        ]


class TestKboWitness:
    def test_no_witness_on_total_order(self):
        assert kbo_violation_witness(complete_exchange(4), k=1) is None

    def test_witness_for_k1_is_a_disagreeing_pair(self):
        execution, first, second = two_messages_disagreeing()
        witness = kbo_violation_witness(execution, k=1)
        assert witness is not None
        assert set(witness) == {first.uid, second.uid}

    def test_k2_needs_a_triangle(self):
        execution, _, _ = two_messages_disagreeing()
        assert kbo_violation_witness(execution, k=2) is None

    def test_three_way_disagreement(self):
        b = ExecutionBuilder(3)
        b.broadcast(0, "a")
        b.broadcast(1, "b")
        b.broadcast(2, "c")
        # rotate delivery orders: every pair is seen in both orders
        b.deliver(0, "a", "b", "c")
        b.deliver(1, "b", "c", "a")
        b.deliver(2, "c", "a", "b")
        witness = kbo_violation_witness(b.build(), k=2)
        assert witness is not None
        assert len(witness) == 3


class TestCausalPrecedence:
    def test_same_sender_order(self):
        b = ExecutionBuilder(2)
        first = b.broadcast(0, "a")
        second = b.broadcast(0, "b")
        graph = causal_precedence(b.build())
        assert graph.has_edge(first.uid, second.uid)

    def test_deliver_then_broadcast_edge(self):
        b = ExecutionBuilder(2)
        first = b.broadcast(0, "a")
        b.deliver(1, "a")
        reply = b.broadcast(1, "reply")
        graph = causal_precedence(b.build())
        assert graph.has_edge(first.uid, reply.uid)

    def test_transitivity(self):
        b = ExecutionBuilder(3)
        first = b.broadcast(0, "a")
        b.deliver(1, "a")
        middle = b.broadcast(1, "b")
        b.deliver(2, "b")
        last = b.broadcast(2, "c")
        graph = causal_precedence(b.build())
        assert graph.has_edge(first.uid, last.uid)

    def test_concurrent_messages_unrelated(self):
        b = ExecutionBuilder(2)
        first = b.broadcast(0, "a")
        second = b.broadcast(1, "b")
        graph = causal_precedence(b.build())
        assert not graph.has_edge(first.uid, second.uid)
        assert not graph.has_edge(second.uid, first.uid)


class TestFirstDelivered:
    def test_counts_distinct_heads(self):
        execution, first, second = two_messages_disagreeing()
        assert first_delivered_set(execution) == {first.uid, second.uid}

    def test_single_head_when_agreeing(self):
        execution = complete_exchange(3)
        assert len(first_delivered_set(execution)) == 1
