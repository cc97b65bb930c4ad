"""Unit tests for request/response processes on the one step machine."""

import pytest

from repro.core.actions import PointToPointId
from repro.core.message import Message, MessageId
from repro.runtime import Deliver, LocalNote, Propose, Send, Wait
from repro.runtime.process import (
    Blocked,
    Idle,
    LocalStep,
    ProcessRuntime,
    ProtocolError,
    SendStep,
)
from repro.runtime.service import Invocation, ResponseStep, ServiceProcess


class Echo(ServiceProcess):
    """ping(x) sends x to everyone and returns it doubled."""

    def on_invoke(self, invocation):
        yield from self.send_to_all(invocation.argument)
        return invocation.argument * 2

    def on_receive(self, payload, sender):
        yield LocalNote(f"got {payload} from {sender}")


class Quorum(ServiceProcess):
    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.acks = 0

    def on_invoke(self, invocation):
        yield from self.send_to_all("ping")
        yield Wait(lambda: self.acks >= 2, "two acks")
        return self.acks

    def on_receive(self, payload, sender):
        self.acks += 1
        return
        yield


class BadHandler(ServiceProcess):
    def on_invoke(self, invocation):
        return "never"
        yield

    def on_receive(self, payload, sender):
        yield Wait(lambda: True)


class TestLifecycle:
    def test_idle_then_invoke_then_respond(self):
        runtime = ProcessRuntime(Echo(0, 2))
        assert isinstance(runtime.next_step(), Idle)
        runtime.invoke(Invocation("ping", "svc", 21))
        assert runtime.busy
        first = runtime.next_step()
        second = runtime.next_step()
        assert isinstance(first, SendStep)
        assert isinstance(second, SendStep)
        response = runtime.next_step()
        assert isinstance(response, ResponseStep)
        assert response.result == 42
        assert not runtime.busy

    def test_overlapping_invocations_rejected(self):
        runtime = ProcessRuntime(Echo(0, 1))
        runtime.invoke(Invocation("ping", "svc", 1))
        with pytest.raises(ProtocolError, match="pending"):
            runtime.invoke(Invocation("ping", "svc", 2))

    def test_wait_blocks_until_guard(self):
        runtime = ProcessRuntime(Quorum(0, 3))
        runtime.invoke(Invocation("q", "svc"))
        for _ in range(3):
            assert isinstance(runtime.next_step(), SendStep)
        blocked = runtime.next_step()
        assert isinstance(blocked, Blocked)
        assert blocked.reason == "two acks"
        assert runtime.waiting_reason == "two acks"
        assert not runtime.has_enabled_step()
        runtime.inject_receive(PointToPointId(1, 0, 0), "ack")
        runtime.inject_receive(PointToPointId(2, 0, 0), "ack")
        # the two handlers are empty generators; the op then resumes
        response = runtime.next_step()
        assert isinstance(response, ResponseStep)
        assert response.result == 2

    def test_handlers_run_before_operation(self):
        runtime = ProcessRuntime(Echo(0, 1))
        runtime.invoke(Invocation("ping", "svc", 1))
        runtime.inject_receive(PointToPointId(1, 0, 0), "x")
        step = runtime.next_step()
        assert isinstance(step, LocalStep)
        assert "got x" in step.label


class TestProtocolErrors:
    def test_wait_in_handler_rejected(self):
        runtime = ProcessRuntime(BadHandler(0, 1))
        runtime.inject_receive(PointToPointId(1, 0, 0), None)
        with pytest.raises(ProtocolError, match="atomic"):
            runtime.next_step()

    def test_wrongly_addressed_receive_rejected(self):
        runtime = ProcessRuntime(Echo(0, 2))
        with pytest.raises(ProtocolError, match="addressed"):
            runtime.inject_receive(PointToPointId(1, 5, 0), None)

    def test_unsupported_effect_rejected(self):
        class Weird(ServiceProcess):
            def on_invoke(self, invocation):
                yield object()

            def on_receive(self, payload, sender):
                return
                yield

        runtime = ProcessRuntime(Weird(0, 1))
        runtime.invoke(Invocation("x", "svc"))
        with pytest.raises(ProtocolError, match="unsupported effect"):
            runtime.next_step()

    @pytest.mark.parametrize(
        "effect",
        [Propose("ksa", 1), Deliver(Message(MessageId(0, 0), "m"))],
        ids=["propose", "deliver"],
    )
    def test_broadcast_effects_rejected(self, effect):
        class Broadcaster(ServiceProcess):
            def on_invoke(self, invocation):
                yield effect

            def on_receive(self, payload, sender):
                return
                yield

        runtime = ProcessRuntime(Broadcaster(0, 1))
        runtime.invoke(Invocation("x", "svc"))
        with pytest.raises(ProtocolError, match="unsupported effect"):
            runtime.next_step()


class TestP2PMinting:
    def test_unique_ids_per_destination(self):
        runtime = ProcessRuntime(Echo(2, 3))
        ids = [runtime.mint_p2p(0) for _ in range(3)]
        ids += [runtime.mint_p2p(1) for _ in range(3)]
        assert len(set(ids)) == 6
        assert all(p.sender == 2 for p in ids)
