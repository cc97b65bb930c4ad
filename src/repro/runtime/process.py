"""Deterministic per-process step machines.

A :class:`BroadcastProcess` is one process's instance of a broadcast
algorithm ``B``: event-handler generators written against the effect
vocabulary of :mod:`repro.runtime.effects`.  A :class:`ProcessRuntime`
drives one such instance step by step, exposing exactly the interface
Algorithm 1 needs:

* :meth:`ProcessRuntime.start_broadcast` — begin a ``B.broadcast(m)``
  invocation (Algorithm 1 line 7);
* :meth:`ProcessRuntime.next_step` — produce "p_i's next local step
  according to B in C(α)" (line 8);
* :meth:`ProcessRuntime.inject_receive` — a ``receive`` event occurred
  (lines 11/23/26); the matching ``upon receive`` handler runs atomically
  over the subsequent ``next_step`` calls;
* :meth:`ProcessRuntime.resume_decide` — the pending ``propose`` was
  decided (lines 16–20).

It drives a request/response
:class:`~repro.runtime.service.ServiceProcess` the same way:
:meth:`ProcessRuntime.invoke` begins an operation, and ``next_step``
reports its end as a :class:`~repro.runtime.service.ResponseStep`.

Scheduling inside one process is deterministic: pending ``upon receive``
handlers run first (FIFO, to completion), then the operation body.  The
operation body may suspend on :class:`~repro.runtime.effects.Wait` guards;
a process whose operation is waiting and whose handler queue is empty has
no enabled local step and reports :class:`Blocked`.
"""

from __future__ import annotations

import copy
import copyreg
import functools
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from ..core.actions import PointToPointId
from ..core.message import Message, MessageFactory, MessageId
from .fingerprint import encoding, list_digest, tuple_encoding
from .effects import (
    Deliver,
    DeliverSet,
    Effect,
    LocalNote,
    Propose,
    Send,
    Wait,
)
from .service import Invocation, ResponseStep, ServiceProcess

__all__ = [
    "BroadcastProcess",
    "ProcessRuntime",
    "SendStep",
    "ProposeStep",
    "DeliverStep",
    "DeliverSetStep",
    "ReturnStep",
    "LocalStep",
    "Blocked",
    "Idle",
    "RuntimeOutcome",
    "ProtocolError",
]


class ProtocolError(Exception):
    """An algorithm or driver violated the step-machine protocol."""


class BroadcastProcess(ABC):
    """One process's instance of a broadcast algorithm.

    Subclasses implement the two event handlers as generators over
    :class:`~repro.runtime.effects.Effect`:

    * :meth:`on_broadcast` — the body of ``B.broadcast(m)``; it runs until
      exhaustion, at which point the invocation returns.  May ``Wait``.
    * :meth:`on_receive` — the ``upon receive`` handler; atomic, must not
      ``Wait``.
    """

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.n = n

    @abstractmethod
    def on_broadcast(self, message: Message) -> Iterator[Effect]:
        """Steps taken while executing ``B.broadcast(message)``."""

    @abstractmethod
    def on_receive(self, payload: Hashable, sender: int) -> Iterator[Effect]:
        """Steps taken upon receiving ``payload`` from ``sender``."""

    def symmetric_processes(self) -> Sequence[Iterable[int]] | None:
        """Groups of process ids this algorithm treats interchangeably.

        Returning groups declares *renaming equivariance*: for any
        permutation of pids within a group (identity elsewhere) and any
        injective renaming of message contents, the permuted-and-renamed
        image of a reachable system state behaves exactly like the
        original (same schedule tree up to the relabeling).  That holds
        when instances of the algorithm differ only in ``self.pid``,
        address processes uniformly (``send_to_all``, ``others()``) and
        never branch on a content's *value* — only on identity equality.
        The schedule explorer's ``symmetry="rename"`` reduction prunes
        states that are images of an already-expanded state under such a
        relabeling, so a wrong declaration silently drops schedules.

        The default ``None`` declares nothing and disables symmetry
        reduction for the algorithm.  Declared groups are further
        restricted by the explorer (crash-faulty pids are pinned, script
        shapes must match, the k-SA decision policy must be
        pid-uniform).
        """
        return None

    # -- convenience -----------------------------------------------------

    def everyone(self) -> range:
        """All process identifiers, including this process."""
        return range(self.n)

    def others(self) -> Iterator[int]:
        """All process identifiers except this process."""
        return (p for p in range(self.n) if p != self.pid)

    def send_to_all(self, payload: Hashable) -> Iterator[Effect]:
        """Yield ``Send`` effects addressing every process (self included)."""
        for dest in self.everyone():
            yield Send(dest, payload)


# ---------------------------------------------------------------------------
# Outcomes of ProcessRuntime.next_step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SendStep:
    """The process emitted one point-to-point message."""

    p2p: PointToPointId
    payload: Hashable


@dataclass(frozen=True)
class ProposeStep:
    """The process invoked ``ksa.propose(value)`` and awaits the decision."""

    ksa: str
    value: Hashable


@dataclass(frozen=True)
class DeliverStep:
    """The process B-delivered ``message``."""

    message: Message


@dataclass(frozen=True)
class DeliverSetStep:
    """The process B-delivered a set of messages (SCD interface)."""

    messages: tuple[Message, ...]


@dataclass(frozen=True)
class ReturnStep:
    """The pending ``B.broadcast(message)`` invocation returned."""

    message: Message


@dataclass(frozen=True)
class LocalStep:
    """The process took an internal computation step."""

    label: str


@dataclass(frozen=True)
class Blocked:
    """No enabled local step: the operation body is waiting on a guard."""

    reason: str


@dataclass(frozen=True)
class Idle:
    """No operation in progress and no pending handler work."""


#: What a :class:`ProcessRuntime` drives.
Algorithm = BroadcastProcess | ServiceProcess

RuntimeOutcome = (
    SendStep | ProposeStep | DeliverStep | DeliverSetStep | ReturnStep
    | ResponseStep | LocalStep | Blocked | Idle
)

#: ``encoding(())``: the encoded shape of an empty journal.
_EMPTY_SHAPE = encoding(())

#: Types ``copy.deepcopy`` returns as they are: immutable scalars, and
#: messages and their identities (see ``Message.__deepcopy__``).
_SHARED = frozenset(
    {type(None), bool, int, float, str, bytes, Message, MessageId}
)

#: The hooks through which a class customizes ``copy.deepcopy``.
_COPY_HOOKS = (
    "__deepcopy__", "__reduce_ex__", "__reduce__", "__getstate__",
    "__setstate__", "__getnewargs_ex__", "__getnewargs__",
)


@functools.cache
def _copies_plainly(cls: type) -> bool:
    """Is ``cls`` deep-copied as a new instance plus a copied ``__dict__``?

    True when the class overrides none of :data:`_COPY_HOOKS`, declares
    no non-empty ``__slots__`` (``ABC`` declares empty ones) and has no
    ``copyreg`` reducer.
    """
    return (
        cls not in copyreg.dispatch_table
        and not any(vars(k).get("__slots__") for k in cls.__mro__)
        and all(
            getattr(cls, name, None) is getattr(object, name, None)
            for name in _COPY_HOOKS
        )
    )


def _copy_algorithm(algorithm: BroadcastProcess) -> BroadcastProcess:
    """``copy.deepcopy(algorithm)``, without its ``__reduce_ex__`` path.

    The instance's ``__dict__`` is copied field by field under one
    memo, so aliased containers stay aliased.  Lists, dicts, sets and
    tuples are rebuilt element by element, :data:`_SHARED` values are
    shared, and anything else goes to ``copy.deepcopy`` with the same
    memo — a generator there raises ``TypeError``, as it does from
    ``copy.deepcopy(algorithm)``.  A class that customizes its copy
    (see :func:`_copies_plainly`) is handed to ``copy.deepcopy`` whole.
    """
    cls = type(algorithm)
    if not _copies_plainly(cls):
        return copy.deepcopy(algorithm)
    clone = cls.__new__(cls)
    memo: dict[int, Any] = {id(algorithm): clone}
    state = clone.__dict__
    for name, value in algorithm.__dict__.items():
        state[name] = (
            value if type(value) in _SHARED else _copy_value(value, memo)
        )
    return clone


def _copy_value(value: Any, memo: dict[int, Any]) -> Any:
    """One field of :func:`_copy_algorithm`, deep-copied under ``memo``."""
    cls = type(value)
    if cls in _SHARED:
        return value
    copied = memo.get(id(value))
    if copied is not None:
        return copied
    if cls is list:
        copied = memo[id(value)] = []
        copied.extend(_copy_value(item, memo) for item in value)
    elif cls is dict:
        copied = memo[id(value)] = {}
        for key, item in value.items():
            copied[_copy_value(key, memo)] = _copy_value(item, memo)
    elif cls is set:
        copied = memo[id(value)] = {_copy_value(item, memo) for item in value}
    elif cls is tuple:
        items = tuple(_copy_value(item, memo) for item in value)
        if all(a is b for a, b in zip(items, value)):
            return value  # deepcopy shares a tuple of shared values
        copied = memo[id(value)] = items
    else:
        return copy.deepcopy(value, memo)
    return copied


class ProcessRuntime:
    """Drives one :class:`BroadcastProcess` or
    :class:`~repro.runtime.service.ServiceProcess` one step at a time.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        *,
        message_factory: MessageFactory | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.pid = algorithm.pid
        self.n = algorithm.n
        self._factory = message_factory or MessageFactory()
        self._p2p_seq: dict[int, int] = {}
        self._handlers: deque[Iterator[Effect]] = deque()
        self._operation: Iterator[Effect] | None = None
        self._operation_message: Message | None = None
        #: The pending operation of a service process.
        self._invocation: Invocation | None = None
        self._service = isinstance(algorithm, ServiceProcess)
        self._waiting: Wait | None = None
        #: Generator that emitted a Propose and has not been decided yet.
        self._awaiting_decide: Iterator[Effect] | None = None
        #: Decided values waiting to be fed back, keyed by generator id.
        #: Several generators can be suspended at once (the operation plus
        #: the front 'upon receive' handler), so this is a map, not a slot.
        self._resume_values: dict[int, Hashable] = {}
        self._suspended: set[int] = set()
        #: Messages delivered locally, in delivery order.
        self.delivered: list[Message] = []
        self._delivered_uids: set[MessageId] = set()
        #: Messages whose broadcast invocation has returned.
        self.returned_uids: set[MessageId] = set()
        self._recording = True
        #: Journal of driver calls, the process's *input log*.  The local
        #: state of a deterministic algorithm is a function of this log,
        #: which is what makes a runtime with a live (suspended) operation
        #: generator forkable: generators cannot be copied, but the log
        #: can be replayed into a fresh instance (see :meth:`fork`).
        self._journal: list[tuple[Any, ...]] = []
        #: Entry tags of a journal prefix, extended on read by
        #: :attr:`journal_shape` (immutable, so forks share it), with
        #: the encodings of its tags and of the whole tuple.
        self._shape: tuple[str, ...] = ()
        self._shape_body = b""
        self._shape_encoding = _EMPTY_SHAPE
        #: Encodings of the first ``_encoded_count`` journal entries,
        #: extended lazily by :attr:`encoded_journal` (immutable, so
        #: forks share it), and the digest, cached until the next append.
        self._encoded_journal = b""
        self._encoded_count = 0
        self._digest: str | None = None

    # -- driver API ------------------------------------------------------

    def start_broadcast(
        self, content: Hashable, *, _replay_message: Message | None = None
    ) -> Message:
        """Begin a ``B.broadcast`` invocation; returns the minted message."""
        if self._operation is not None:
            raise ProtocolError(
                f"p{self.pid}: broadcast invoked while a previous "
                f"invocation is pending"
            )
        if _replay_message is not None:
            message = _replay_message
        else:
            message = self._factory.new(self.pid, content)
        self._log(("b", message))
        self._operation = self.algorithm.on_broadcast(message)
        self._operation_message = message
        self._waiting = None
        return message

    def invoke(self, invocation: Invocation) -> None:
        """Begin one operation of a service process."""
        if self._operation is not None:
            raise ProtocolError(
                f"p{self.pid}: invocation while an operation is pending"
            )
        self._log(("i", invocation))
        self._operation = self.algorithm.on_invoke(invocation)
        self._invocation = invocation
        self._waiting = None

    def inject_receive(self, p2p: PointToPointId, payload: Hashable) -> None:
        """A ``receive`` event occurred; queue its handler."""
        if p2p.receiver != self.pid:
            raise ProtocolError(
                f"p{self.pid}: received a message addressed to "
                f"p{p2p.receiver}"
            )
        self._log(("r", p2p, payload))
        self._handlers.append(
            self.algorithm.on_receive(payload, p2p.sender)
        )

    def resume_decide(self, value: Hashable) -> None:
        """Provide the decided value for the pending ``propose``."""
        if self._awaiting_decide is None:
            raise ProtocolError(
                f"p{self.pid}: decide without a pending proposal"
            )
        self._log(("d", value))
        self._resume_values[id(self._awaiting_decide)] = value
        self._awaiting_decide = None

    def mint_p2p(self, dest: int) -> PointToPointId:
        """Mint a unique point-to-point message identity towards ``dest``."""
        seq = self._p2p_seq.get(dest, 0)
        self._p2p_seq[dest] = seq + 1
        return PointToPointId(self.pid, dest, seq)

    @property
    def operation_message(self) -> Message | None:
        """The message of the in-progress broadcast invocation, if any."""
        return self._operation_message

    @property
    def busy(self) -> bool:
        """True while a broadcast or an operation has not yet returned."""
        return self._operation is not None

    @property
    def waiting_reason(self) -> str | None:
        """The reason of the operation's current Wait, if it is waiting."""
        if self._waiting is None:
            return None
        return self._waiting.reason or "operation waiting"

    def has_delivered(self, uid: MessageId) -> bool:
        return uid in self._delivered_uids

    def journal_entries(self) -> tuple[tuple[Any, ...], ...]:
        """The driver-call journal, the process's complete input log.

        A read-only snapshot.
        """
        return tuple(self._journal)

    @property
    def journal_shape(self) -> tuple[str, ...]:
        """The journal's entry tags, in order (``"b"``, ``"r"``, ...).

        The shape of the input history without its contents — the
        per-pid invariant the symmetry reduction's orbit profile reads.
        Kept incrementally: only entries appended since the last read
        are added.
        """
        self._extend_shape()
        return self._shape

    @property
    def encoded_journal_shape(self) -> bytes:
        """``encoding(self.journal_shape)``, kept with the shape."""
        self._extend_shape()
        return self._shape_encoding

    def _extend_shape(self) -> None:
        if len(self._shape) < len(self._journal):
            tags = tuple(
                entry[0] for entry in self._journal[len(self._shape) :]
            )
            self._shape += tags
            self._shape_body += encoding(*tags)
            self._shape_encoding = tuple_encoding(
                len(self._shape), self._shape_body
            )

    @property
    def encoded_journal(self) -> bytes:
        """``encoding(*journal_entries())``, the journal's raw encoding.

        Extended by the entries appended since the last read; the
        fingerprint and the symmetry reduction's memo (see *Orbit
        templates* in :mod:`repro.runtime.fingerprint`) read it.
        """
        journal = self._journal
        if self._encoded_count < len(journal):
            self._encoded_journal += encoding(*journal[self._encoded_count :])
            self._encoded_count = len(journal)
        return self._encoded_journal

    def _log(self, entry: tuple[Any, ...]) -> None:
        """Append one driver call to the journal (unless replaying)."""
        if self._recording:
            self._journal.append(entry)
            self._digest = None

    def fingerprint(self) -> str:
        """A stable structural digest of this runtime's local state.

        The journal is the process's complete input log and the
        algorithm is a deterministic step machine, so the local state —
        generators, delivered/returned bookkeeping, sequence counters —
        is a function of ``(pid, journal)``; digesting the journal
        therefore identifies the state without touching live generators.
        Equal fingerprints mean the two runtimes behave identically on
        every future driver call (the same argument that makes
        journal-replay :meth:`fork` sound).

        The digest is ``stable_digest("process", pid, journal)``, built
        from the cached encoding of the journal prefix plus the entries
        appended since the last call, and cached until the next append.
        """
        if self._digest is None:
            self._digest = list_digest(
                ("process", self.pid),
                self.encoded_journal,
                self._encoded_count,
            )
        return self._digest

    def _share_journal(self, clone: "ProcessRuntime") -> None:
        """Give ``clone`` this runtime's journal and its fingerprint caches."""
        clone._journal = list(self._journal)
        clone._shape = self._shape
        clone._shape_body = self._shape_body
        clone._shape_encoding = self._shape_encoding
        clone._encoded_journal = self._encoded_journal
        clone._encoded_count = self._encoded_count
        clone._digest = self._digest

    # -- snapshot / fork -------------------------------------------------

    def _copy(
        self, algorithm: Algorithm, message_factory: MessageFactory
    ) -> "ProcessRuntime":
        """An idle clone driving ``algorithm``, each field assigned once.

        No generator is live (see :meth:`fork`), so the clone's
        operation slots are empty and its bookkeeping is copied.  Fields
        are assigned in ``__init__``'s order: an instance whose
        attributes arrive in another order does not share its class's
        dict layout, and every attribute read on it is slower.
        """
        clone = ProcessRuntime.__new__(ProcessRuntime)
        clone.algorithm = algorithm
        clone.pid = self.pid
        clone.n = self.n
        clone._factory = message_factory
        clone._p2p_seq = dict(self._p2p_seq)
        clone._handlers = deque()
        clone._operation = None
        clone._operation_message = None
        clone._invocation = None
        clone._service = self._service
        clone._waiting = None
        clone._awaiting_decide = None
        clone._resume_values = {}
        clone._suspended = set()
        clone.delivered = list(self.delivered)
        clone._delivered_uids = set(self._delivered_uids)
        clone.returned_uids = set(self.returned_uids)
        clone._recording = True
        self._share_journal(clone)
        return clone

    def fork(
        self,
        *,
        message_factory: MessageFactory,
        algorithm_factory: Callable[[int, int], Algorithm] | None = None,
    ) -> tuple["ProcessRuntime", int]:
        """An independent runtime in the same local state.

        Returns ``(clone, replayed_steps)`` where ``replayed_steps`` is
        the number of local steps the clone had to re-execute.

        Two strategies, chosen automatically:

        * **structural copy** — when no generator is live (no operation in
          progress, no queued handlers), the runtime's state is plain
          data; the algorithm instance is copied field by field with
          ``copy.deepcopy``'s result (see :func:`_copy_algorithm`:
          messages are shared, they are immutable) and bookkeeping is
          copied into a clone built field by field, not through
          ``__init__`` (:meth:`_copy`).  Cost: O(local state), zero
          re-executed steps.
        * **journal replay** — a live generator (an operation suspended on
          a ``Wait`` guard, pending handlers, or a generator the instance
          keeps in a field) cannot be copied; the clone is rebuilt by
          replaying the recorded driver-call journal into a fresh
          algorithm instance (``algorithm_factory`` is required in this
          case).  Determinism of the algorithm makes the replayed state
          identical.

        Forking while a ``propose`` awaits its decision is a protocol
        error — drivers resolve decisions atomically with the propose
        step, so no consistent snapshot exists at that point.
        """
        if self._awaiting_decide is not None:
            raise ProtocolError(
                f"p{self.pid}: fork while awaiting a k-SA decision"
            )
        if (
            self._operation is None
            and not self._handlers
            and not self._resume_values
        ):
            try:
                algorithm = _copy_algorithm(self.algorithm)
            except TypeError:
                algorithm = None  # instance holds a generator; replay below
            if algorithm is not None:
                return self._copy(algorithm, message_factory), 0
        if algorithm_factory is None:
            raise ProtocolError(
                f"p{self.pid}: fork mid-operation requires an "
                f"algorithm_factory to replay the driver journal"
            )
        clone = ProcessRuntime(
            algorithm_factory(self.pid, self.n),
            message_factory=message_factory,
        )
        clone._recording = False
        replayed = 0
        for entry in self._journal:
            kind = entry[0]
            if kind == "s":
                clone.next_step()
                replayed += 1
            elif kind == "r":
                clone.inject_receive(entry[1], entry[2])
            elif kind == "b":
                message = entry[1]
                clone.start_broadcast(
                    message.content, _replay_message=message
                )
            elif kind == "i":
                clone.invoke(entry[1])
            else:  # "d"
                clone.resume_decide(entry[1])
        clone._recording = True
        self._share_journal(clone)
        return clone, replayed

    def has_enabled_step(self) -> bool:
        """True if ``next_step`` would produce an actual step."""
        outcome = self._peek()
        return not isinstance(outcome, (Blocked, Idle))

    def _peek(self) -> RuntimeOutcome | None:
        if self._awaiting_decide is not None:
            raise ProtocolError(
                f"p{self.pid}: stepped while awaiting a k-SA decision"
            )
        if self._handlers or self._resume_values:
            return None  # definitely has work
        if self._operation is None:
            return Idle()
        if self._waiting is not None and not self._waiting.guard():
            return Blocked(self._waiting.reason or "operation waiting")
        return None

    # -- the heart: one local step ----------------------------------------

    def next_step(self) -> RuntimeOutcome:
        """Produce the process's next local step according to the algorithm.

        Handler generators take priority (FIFO, atomic); the operation body
        runs when no handler is pending.  Exhausted generators are skipped
        transparently; an exhausted operation body produces
        :class:`ReturnStep`, or a service operation's
        :class:`~repro.runtime.service.ResponseStep`.
        """
        self._log(("s",))
        while True:
            peeked = self._peek()
            if peeked is not None:
                return peeked
            source, resume_value = self._pick_source()
            try:
                effect = source.send(resume_value)
            except StopIteration as stop:
                if source is self._operation:
                    self._operation = None
                    self._waiting = None
                    invocation = self._invocation
                    if invocation is not None:
                        self._invocation = None
                        return ResponseStep(invocation, stop.value)
                    message = self._operation_message
                    assert message is not None
                    self._operation_message = None
                    self.returned_uids.add(message.uid)
                    return ReturnStep(message)
                self._handlers.popleft()
                continue
            outcome = self._apply_effect(source, effect)
            if outcome is not None:
                return outcome

    def _pick_source(self) -> tuple[Iterator[Effect], Hashable]:
        """Choose the generator to advance and the value to resume it with.

        'Upon receive' handlers run first (atomic event-handler
        semantics); a generator suspended on a ``propose`` resumes with
        its decided value when its turn comes.  In particular an
        *operation* suspended on a decision resumes only once the handler
        queue is quiet, so messages received across the propose/decide
        pair are processed before the operation continues — this is the
        window in which SCD-style batching accumulates.
        """
        source = self._handlers[0] if self._handlers else self._operation
        assert source is not None
        if id(source) in self._suspended:
            if id(source) not in self._resume_values:
                raise ProtocolError(
                    f"p{self.pid}: generator suspended on a proposal "
                    f"whose decision never arrived"
                )
            self._suspended.discard(id(source))
            return source, self._resume_values.pop(id(source))
        if source is self._operation:
            self._waiting = None
        return source, None

    def _apply_effect(
        self, source: Iterator[Effect], effect: Effect
    ) -> RuntimeOutcome | None:
        """Translate one yielded effect into a runtime outcome (or none)."""
        if isinstance(effect, Send):
            return SendStep(self.mint_p2p(effect.dest), effect.payload)
        if self._service and not isinstance(effect, (Wait, LocalNote)):
            raise ProtocolError(
                f"p{self.pid}: service algorithm yielded unsupported effect "
                f"{effect!r}"
            )
        if isinstance(effect, Propose):
            self._awaiting_decide = source
            self._suspended.add(id(source))
            return ProposeStep(effect.ksa, effect.value)
        if isinstance(effect, Deliver):
            if effect.message.uid in self._delivered_uids:
                raise ProtocolError(
                    f"p{self.pid}: algorithm delivers "
                    f"{effect.message} twice"
                )
            self.delivered.append(effect.message)
            self._delivered_uids.add(effect.message.uid)
            return DeliverStep(effect.message)
        if isinstance(effect, DeliverSet):
            messages = tuple(
                sorted(effect.messages, key=lambda m: m.uid)
            )
            if not messages:
                raise ProtocolError(
                    f"p{self.pid}: algorithm delivers an empty set"
                )
            for message in messages:
                if message.uid in self._delivered_uids:
                    raise ProtocolError(
                        f"p{self.pid}: algorithm delivers {message} twice"
                    )
                self.delivered.append(message)
                self._delivered_uids.add(message.uid)
            return DeliverSetStep(messages)
        if isinstance(effect, Wait):
            if source is not self._operation:
                raise ProtocolError(
                    f"p{self.pid}: Wait inside an atomic 'upon receive' "
                    f"handler"
                )
            if effect.guard():
                return None  # guard already true: zero-cost transition
            self._waiting = effect
            return Blocked(effect.reason or "operation waiting")
        if isinstance(effect, LocalNote):
            return LocalStep(effect.label)
        raise ProtocolError(
            f"p{self.pid}: algorithm yielded unknown effect {effect!r}"
        )
