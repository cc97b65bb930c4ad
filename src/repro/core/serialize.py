"""Execution serialization: traces to and from JSON.

Recorded executions are first-class artifacts — the adversarial schedule
behind Figure 1, a violating schedule found by the explorer, a register
history — and deserve to be storable, diffable and replayable outside a
Python session.  This module provides a faithful JSON round-trip:

* every step becomes ``{"p": process, "a": {action...}}``;
* message identities and point-to-point identities keep their structure;
* contents survive as long as they are built from JSON scalars, tuples,
  lists, dicts, frozensets, :class:`~repro.core.message.Message` objects
  and the library's frozen content records — ABD's
  :class:`~repro.registers.abd.Timestamp` and Paxos'
  :class:`~repro.agreement.paxos.Ballot` (the shapes the library's
  algorithms use); tuples, frozensets, messages and records are tagged
  so the round-trip is exact (tuples do not degrade to lists).  A
  record's tag is looked up in a closed registry: no class is ever
  imported by a name read from the input.

``loads(dumps(execution)) == execution`` for every execution the library
produces — property-tested in ``tests/core/test_serialize.py``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from typing import Any

from .actions import (
    Action,
    BroadcastInvoke,
    BroadcastReturn,
    CrashAction,
    DecideAction,
    DeliverAction,
    DeliverSetAction,
    LocalAction,
    PointToPointId,
    ProposeAction,
    ReceiveAction,
    SendAction,
)
from .execution import Execution
from .message import Message, MessageId
from .steps import Step

__all__ = ["dumps", "loads", "to_jsonable", "from_jsonable"]


@cache
def _records() -> dict[str, type]:
    """The closed registry of frozen content records, by class name.

    Imported on first use: the record types live in modules that
    import :mod:`repro.core` themselves.
    """
    from ..agreement.paxos import Ballot
    from ..registers.abd import Timestamp

    return {cls.__name__: cls for cls in (Ballot, Timestamp)}


def _encode_content(value: Any) -> Any:
    if isinstance(value, Message):
        return {
            "__msg__": {
                "sender": value.uid.sender,
                "seq": value.uid.seq,
                "content": _encode_content(value.content),
            }
        }
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_content(v) for v in value]}
    if isinstance(value, list):
        return [_encode_content(v) for v in value]
    if isinstance(value, dict):
        return {
            "__dict__": [
                [_encode_content(k), _encode_content(v)]
                for k, v in value.items()
            ]
        }
    if isinstance(value, frozenset):
        # sorted by encoding: set iteration order varies with hashing
        return {
            "__frozenset__": sorted(
                (_encode_content(v) for v in value),
                key=lambda v: json.dumps(v, sort_keys=True),
            )
        }
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    tag = type(value).__name__
    if _records().get(tag) is type(value):
        return {
            "__record__": tag,
            "fields": [
                _encode_content(getattr(value, f.name)) for f in fields(value)
            ],
        }
    raise TypeError(
        f"content of type {type(value).__name__} is not serializable"
    )


def _decode_content(value: Any) -> Any:
    if isinstance(value, dict):
        if "__msg__" in value:
            raw = value["__msg__"]
            return Message(
                MessageId(raw["sender"], raw["seq"]),
                _decode_content(raw["content"]),
            )
        if "__tuple__" in value:
            return tuple(_decode_content(v) for v in value["__tuple__"])
        if "__dict__" in value:
            return {
                _decode_content(k): _decode_content(v)
                for k, v in value["__dict__"]
            }
        if "__frozenset__" in value:
            return frozenset(
                _decode_content(v) for v in value["__frozenset__"]
            )
        if "__record__" in value:
            cls = _records().get(value["__record__"])
            if cls is None:
                raise ValueError(
                    f"unknown record type {value['__record__']!r}"
                )
            return cls(*(_decode_content(v) for v in value["fields"]))
        raise ValueError(f"unknown tagged content: {list(value)}")
    if isinstance(value, list):
        return [_decode_content(v) for v in value]
    return value


def _encode_p2p(p2p: PointToPointId) -> list:
    return [p2p.sender, p2p.receiver, p2p.seq]


def _decode_p2p(raw: list) -> PointToPointId:
    return PointToPointId(*raw)


_SIMPLE_MESSAGE_ACTIONS = {
    "invoke": BroadcastInvoke,
    "return": BroadcastReturn,
    "deliver": DeliverAction,
}


def _encode_action(action: Action) -> dict:
    if isinstance(action, BroadcastInvoke):
        return {"t": "invoke", "m": _encode_content(action.message)}
    if isinstance(action, BroadcastReturn):
        return {"t": "return", "m": _encode_content(action.message)}
    if isinstance(action, DeliverAction):
        return {"t": "deliver", "m": _encode_content(action.message)}
    if isinstance(action, DeliverSetAction):
        return {
            "t": "deliver_set",
            "ms": [_encode_content(m) for m in action.messages],
        }
    if isinstance(action, SendAction):
        return {
            "t": "send",
            "ch": _encode_p2p(action.p2p),
            "pl": _encode_content(action.payload),
        }
    if isinstance(action, ReceiveAction):
        return {
            "t": "receive",
            "ch": _encode_p2p(action.p2p),
            "pl": _encode_content(action.payload),
        }
    if isinstance(action, ProposeAction):
        return {
            "t": "propose",
            "o": action.ksa,
            "v": _encode_content(action.value),
        }
    if isinstance(action, DecideAction):
        return {
            "t": "decide",
            "o": action.ksa,
            "v": _encode_content(action.value),
        }
    if isinstance(action, CrashAction):
        return {"t": "crash"}
    if isinstance(action, LocalAction):
        return {"t": "local", "l": action.label}
    raise TypeError(f"unknown action {action!r}")


def _decode_action(raw: dict) -> Action:
    kind = raw["t"]
    if kind in _SIMPLE_MESSAGE_ACTIONS:
        return _SIMPLE_MESSAGE_ACTIONS[kind](_decode_content(raw["m"]))
    if kind == "deliver_set":
        return DeliverSetAction(
            tuple(_decode_content(m) for m in raw["ms"])
        )
    if kind == "send":
        return SendAction(
            _decode_p2p(raw["ch"]), _decode_content(raw["pl"])
        )
    if kind == "receive":
        return ReceiveAction(
            _decode_p2p(raw["ch"]), _decode_content(raw["pl"])
        )
    if kind == "propose":
        return ProposeAction(raw["o"], _decode_content(raw["v"]))
    if kind == "decide":
        return DecideAction(raw["o"], _decode_content(raw["v"]))
    if kind == "crash":
        return CrashAction()
    if kind == "local":
        return LocalAction(raw.get("l", ""))
    raise ValueError(f"unknown action tag {kind!r}")


def to_jsonable(execution: Execution) -> dict:
    """The execution as plain JSON-compatible data."""
    return {
        "version": 1,
        "n": execution.n,
        "steps": [
            {"p": step.process, "a": _encode_action(step.action)}
            for step in execution
        ],
    }


def from_jsonable(data: dict) -> Execution:
    """Rebuild an execution from :func:`to_jsonable` data."""
    if data.get("version") != 1:
        raise ValueError(f"unsupported trace version {data.get('version')}")
    steps = [
        Step(raw["p"], _decode_action(raw["a"]))
        for raw in data["steps"]
    ]
    return Execution.of(steps, data["n"])


def dumps(execution: Execution, **json_kwargs: Any) -> str:
    """Serialize an execution to a JSON string."""
    return json.dumps(to_jsonable(execution), **json_kwargs)


def loads(text: str) -> Execution:
    """Deserialize an execution from a JSON string."""
    return from_jsonable(json.loads(text))
