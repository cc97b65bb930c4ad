"""Round-trip tests for execution serialization."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from repro.adversary import adversarial_scheduler
from repro.agreement import Ballot
from repro.broadcasts import FirstKKsaBroadcast, ScdBroadcast
from repro.core import Execution
from repro.core.serialize import dumps, from_jsonable, loads, to_jsonable
from repro.registers import Timestamp
from repro.runtime import Simulator
from tests.core.test_execution_properties import broadcast_executions
from tests.conftest import complete_exchange


@dataclass(frozen=True)
class Unregistered:
    value: int


class TestRoundTrip:
    def test_empty_execution(self):
        execution = Execution.empty(3)
        assert loads(dumps(execution)) == execution

    def test_broadcast_level_execution(self):
        execution = complete_exchange(3, per_process=2)
        assert loads(dumps(execution)) == execution

    @given(broadcast_executions())
    @settings(max_examples=40)
    def test_random_broadcast_executions(self, execution):
        assert loads(dumps(execution)) == execution

    def test_full_camp_execution_with_oracle_steps(self):
        result = adversarial_scheduler(
            2, 2, lambda pid, n: FirstKKsaBroadcast(pid, n)
        )
        assert loads(dumps(result.execution)) == result.execution

    def test_set_delivery_execution(self):
        simulator = Simulator(
            3, lambda pid, n: ScdBroadcast(pid, n), k=1, seed=4
        )
        run = simulator.run({p: [f"m{p}"] for p in range(3)})
        assert loads(dumps(run.execution)) == run.execution

    def test_queries_survive_the_trip(self):
        result = adversarial_scheduler(
            2, 1, lambda pid, n: FirstKKsaBroadcast(pid, n)
        )
        reloaded = loads(dumps(result.execution))
        assert reloaded.broadcast_messages == (
            result.execution.broadcast_messages
        )
        assert reloaded.decisions == result.execution.decisions
        assert (
            reloaded.broadcast_projection()
            == result.execution.broadcast_projection()
        )


class TestFormat:
    def test_versioned_envelope(self):
        data = to_jsonable(complete_exchange(2))
        assert data["version"] == 1
        assert data["n"] == 2
        assert all({"p", "a"} <= set(step) for step in data["steps"])

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            from_jsonable({"version": 99, "n": 1, "steps": []})

    def test_unknown_action_tag_rejected(self):
        with pytest.raises(ValueError, match="action tag"):
            from_jsonable(
                {
                    "version": 1,
                    "n": 1,
                    "steps": [{"p": 0, "a": {"t": "warp"}}],
                }
            )

    def test_tuples_do_not_degrade_to_lists(self):
        from tests.conftest import ExecutionBuilder

        b = ExecutionBuilder(1)
        b.broadcast(0, "m", content=("tup", 1, ("nested",)))
        reloaded = loads(dumps(b.build()))
        content = reloaded.broadcast_messages[0].content
        assert content == ("tup", 1, ("nested",))
        assert isinstance(content, tuple)
        assert isinstance(content[2], tuple)

    def test_unserializable_content_rejected(self):
        from tests.conftest import ExecutionBuilder

        b = ExecutionBuilder(1)
        # a frozen dataclass outside the closed record registry
        b.broadcast(0, "m", content=Unregistered(1))
        with pytest.raises(TypeError, match="not serializable"):
            dumps(b.build())

    def test_frozensets_and_records_round_trip(self):
        from tests.conftest import ExecutionBuilder

        b = ExecutionBuilder(1)
        content = (Timestamp(2, 0), Ballot(3, 1), frozenset({"x", ("y", 1)}))
        b.broadcast(0, "m", content=content)
        reloaded = loads(dumps(b.build()))
        assert reloaded.broadcast_messages[0].content == content
        assert type(reloaded.broadcast_messages[0].content[0]) is Timestamp

    def test_frozenset_encoding_is_canonical(self):
        from tests.conftest import ExecutionBuilder

        texts = set()
        for order in (["a", "b", "c"], ["c", "b", "a"]):
            b = ExecutionBuilder(1)
            b.broadcast(0, "m", content=frozenset(order))
            texts.add(dumps(b.build()))
        assert len(texts) == 1

    def test_unknown_record_tag_rejected(self):
        from tests.conftest import ExecutionBuilder

        b = ExecutionBuilder(1)
        b.broadcast(0, "m", content=Timestamp(1, 0))
        data = to_jsonable(b.build())
        data["steps"][0]["a"]["m"]["__msg__"]["content"]["__record__"] = (
            "os.system"
        )
        with pytest.raises(ValueError, match="unknown record type"):
            from_jsonable(data)
