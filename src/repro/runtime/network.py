"""The asynchronous reliable network of CAMP_n (Section 2).

Channels are reliable (no loss, corruption or creation), **not** FIFO, and
asynchronous: a sent message stays *in flight* until the scheduler decides
to deliver it, with no bound on how long that takes.  The
:class:`Network` is a passive pool of in-flight messages; scheduling
policy (who receives next) lives in the simulator or the adversary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator

from ..core.actions import PointToPointId
from .fingerprint import encoding, list_digest

__all__ = ["InFlight", "Network"]


@dataclass(frozen=True)
class InFlight:
    """One point-to-point message currently in transit."""

    p2p: PointToPointId
    payload: Hashable

    @property
    def sender(self) -> int:
        return self.p2p.sender

    @property
    def receiver(self) -> int:
        return self.p2p.receiver

    @cached_property
    def encoded(self) -> bytes:
        """``encoding((p2p, payload))``: this message's pool entry.

        Encoded once, on first use, and shared by every fork whose pool
        holds this message; the network's digest and the orbit key's
        memo read it.
        """
        return encoding((self.p2p, self.payload))


class Network:
    """The pool of in-flight point-to-point messages.

    Insertion order is preserved per destination so that deterministic
    schedulers (seeded, or the adversary's explicit flushes) are
    replayable.
    """

    def __init__(self) -> None:
        self._in_flight: dict[PointToPointId, InFlight] = {}
        #: The digest, cached until ``send`` or ``receive``.
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._in_flight)

    def fork(self) -> "Network":
        """An independent network with the same in-flight pool.

        The insertion order of the pool — which fixes the enumeration
        order of :meth:`deliverable` and hence the meaning of schedule
        guides — is preserved, so a forked branch and a from-scratch
        replay of the same prefix enumerate choices identically.
        """
        clone = Network()
        clone._in_flight = dict(self._in_flight)
        clone._digest = self._digest
        return clone

    def fingerprint(self) -> str:
        """A stable structural digest of the in-flight pool *in order*.

        Insertion order is part of the digest on purpose: it fixes the
        enumeration order of :meth:`deliverable` and therefore the
        meaning of schedule-guide indices, so only states whose pools
        agree as sequences may be treated as interchangeable by the
        explorer's dedup cache.

        The digest is ``stable_digest("network", [(p2p, payload), ...])``
        over the pool, built from the per-message encodings
        (:attr:`InFlight.encoded`); only messages sent since the last
        call are encoded.
        """
        if self._digest is None:
            self._digest = list_digest(
                ("network",),
                b"".join(item.encoded for item in self._in_flight.values()),
                len(self._in_flight),
            )
        return self._digest

    def send(self, p2p: PointToPointId, payload: Hashable) -> InFlight:
        """Put one message in flight; sends are unique by identity."""
        if p2p in self._in_flight:
            raise ValueError(f"duplicate emission of {p2p}")
        item = InFlight(p2p, payload)
        self._in_flight[p2p] = item
        self._digest = None
        return item

    def deliverable(
        self, to: Iterator[int] | set[int] | None = None
    ) -> list[InFlight]:
        """In-flight messages, optionally filtered by destination set."""
        if to is None:
            return list(self._in_flight.values())
        destinations = set(to)
        return [
            item
            for item in self._in_flight.values()
            if item.p2p.receiver in destinations
        ]

    def receive(self, p2p: PointToPointId) -> InFlight:
        """Remove one in-flight message, committing its reception."""
        try:
            item = self._in_flight.pop(p2p)
        except KeyError:
            raise ValueError(f"{p2p} is not in flight") from None
        self._digest = None
        return item

    def pending_to(self, receiver: int) -> list[InFlight]:
        """In-flight messages addressed to ``receiver``, oldest first."""
        return [
            item
            for item in self._in_flight.values()
            if item.p2p.receiver == receiver
        ]

    def pending_between(self, sender: int, receiver: int) -> list[InFlight]:
        """In-flight messages on one directed channel, oldest first."""
        return [
            item
            for item in self._in_flight.values()
            if item.p2p.sender == sender and item.p2p.receiver == receiver
        ]
