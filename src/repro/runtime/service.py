"""Service processes: request/response objects over send/receive.

The broadcast step machines of :mod:`repro.runtime.process` expose one
operation (``broadcast``).  Shared-*object* emulations — the pivot of the
paper's §1.3 contrast between shared memory and message passing — need a
more general shape: named operations with arguments and **return
values**, implemented by exchanging point-to-point messages (e.g. the
ABD register emulation in :mod:`repro.registers.abd`).

A :class:`ServiceProcess` implements ``on_invoke`` (the operation body, a
generator over the same effect vocabulary, whose ``return`` value is the
operation's response) and ``on_receive`` (atomic handlers).  The
:class:`~repro.runtime.process.ProcessRuntime` that drives broadcast
algorithms drives it too: ``invoke`` starts an operation, and
``next_step`` reports its end as a :class:`ResponseStep`.  The simulator
takes an :class:`Invocation` in a script as the start of an operation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterator

from .effects import Effect, Send

__all__ = [
    "ServiceProcess",
    "ResponseStep",
    "Invocation",
]


@dataclass(frozen=True)
class Invocation:
    """One operation invocation: ``operation(*args) on register/object``."""

    operation: str
    target: str
    argument: Hashable = None

    def __str__(self) -> str:
        return f"{self.operation}({self.argument!r}) on {self.target}"


@dataclass(frozen=True)
class ResponseStep:
    """The pending invocation returned ``result``."""

    invocation: Invocation
    result: Hashable

    def __str__(self) -> str:
        return f"{self.invocation.operation} -> {self.result!r}"


class ServiceProcess(ABC):
    """One process of a request/response object emulation.

    Its handlers may yield only ``Send``, ``Wait`` and ``LocalNote``.
    """

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n

    @abstractmethod
    def on_invoke(self, invocation: Invocation) -> Iterator[Effect]:
        """The operation body; its ``return`` value is the response."""

    @abstractmethod
    def on_receive(self, payload: Hashable, sender: int) -> Iterator[Effect]:
        """Atomic 'upon receive' handler (must not ``Wait``)."""

    def everyone(self) -> range:
        return range(self.n)

    def others(self) -> Iterator[int]:
        return (p for p in range(self.n) if p != self.pid)

    def send_to_all(self, payload: Hashable) -> Iterator[Effect]:
        for dest in self.everyone():
            yield Send(dest, payload)
