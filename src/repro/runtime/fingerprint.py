"""Canonical state fingerprints — the key of the explorer's dedup cache.

Distinct decision sequences frequently converge on the *same* global
state: receptions by different processes commute, and the symmetric
script configurations the paper's constructions produce (every process
broadcasting interchangeable SYNCH messages) multiply such convergences
combinatorially.  The dedup engine of :mod:`repro.runtime.explorer`
prunes a branch when the state it just reached was already expanded, so
it needs a *canonical* digest of a :class:`~repro.runtime.simulator.SimulationRun`:
equal digests must imply equal futures (same enabled-event lists, same
subtree of schedules, same per-process observations at every descendant
terminal).

What is fingerprinted — and what deliberately is not
----------------------------------------------------

A run's future is a function of:

* each process's *input journal* (the driver-call log of
  :class:`~repro.runtime.process.ProcessRuntime`): algorithms are
  deterministic step machines, so local state is a function of the log;
* the in-flight message pool **in insertion order** — the order fixes
  the enumeration order of :meth:`~repro.runtime.network.Network.deliverable`
  and hence the meaning of schedule guides, so two states are only
  interchangeable when their pools agree as *sequences*;
* the k-SA registry (proposals/decisions so far), the message-factory
  counters, the remaining scripts, the alive set, the sync-broadcast
  gates, and the decision count (crash schedules are indexed by it).

The recorded *trace* is exactly what is **not** fingerprinted: two
converging decision sequences differ precisely in how they interleaved
the same per-process histories, and collapsing them is the point.

Digests are :func:`hashlib.blake2b` over a tagged, length-prefixed
canonical encoding — stable across processes and interpreter runs
(``hash()`` is randomized per run and is deliberately not used).

The encoder is on the hot path of every dedup lookup, so it builds the
canonical byte stream into a reusable ``bytearray`` (one hash
finalization per digest, no per-value sub-hasher objects) and spends
about one table lookup per value:

* it dispatches on the value's **exact** type.  ``None``, ``bool``,
  ``int`` (the first 256 pre-encoded), ``float``, ``str``, ``bytes``,
  tuples, lists, sets and dicts have direct encoders, and each
  dataclass type gets one on first use, with its ``D`` header, its
  field names and its ``d`` trailer precomputed;
* a value whose exact type has no entry — a subclass, or a type the run
  state never holds — takes the ordered ``isinstance`` chain, so it
  encodes as the first base it matches, through its own methods: an
  ``IntEnum`` member as the int its ``str`` spells, a namedtuple as a
  tuple.  Only dataclass types enter the table from there;
* :class:`~repro.core.message.Message`,
  :class:`~repro.core.message.MessageId` and
  :class:`~repro.core.actions.PointToPointId` are immutable and
  reappear in every journal, pool entry and digest that holds them, so
  each *object* is encoded once and keeps its bytes in an instance
  attribute outside its dataclass fields (fields, equality, hashing and
  ``repr`` never see it).  The cache is keyed by the object and never
  by equality: ``Message(uid, 1) == Message(uid, True)`` and the two
  hash alike, yet one holds an int and the other a bool, so they encode
  differently.

The bytes are those of the plain ``isinstance`` chain over every value
(the differential oracle in ``tests/runtime/encoding_oracle.py``), so
no digest depends on which path or cache produced it.  Unordered
containers are canonicalized by sorting the raw element *encodings* —
self-delimiting byte strings, so concatenating them cannot alias.

Incremental digests
-------------------

An event touches one or two processes, so re-encoding the whole live
state at every explored node would pay for everything that did *not*
change.  Each component therefore caches its own encoding and digest,
and the bytes it hashes are exactly those :func:`stable_digest` would
build from scratch — the cached digests are byte-identical, so memo
keys and checkpointed cache keys do not depend on which path built
them.  Component encodings are immutable ``bytes`` shared by reference
with forks; each component drops its cached digest at the points that
change its encoded state:

* :class:`~repro.runtime.process.ProcessRuntime` keeps the encoded
  prefix of its journal and encodes only the entries appended since
  (lazily, when a digest is asked for); every journal append goes
  through ``_log``, which drops the digest;
* each :class:`~repro.runtime.network.InFlight` message keeps its
  own encoding, which forks share with the message, and
  :class:`~repro.runtime.network.Network` joins them in pool order;
  ``send`` and ``receive`` drop the digest;
* :class:`~repro.runtime.ksa_objects.KsaRegistry` drops its digest when
  ``get`` creates an object and on ``propose``;
* :class:`~repro.runtime.simulator.SimulationRun` keeps the encoding of
  the state only broadcast starts change (message-factory counters,
  sync gates, remaining scripts), dropped by ``advance`` on a
  broadcast start; the depth and the alive set are encoded every call.

:func:`list_digest` and :func:`encoded_digest` combine such pre-encoded
bytes with freshly encoded header parts under the layout of
:func:`_encode_into`.

Orbit templates
---------------

The symmetry reduction's key, :meth:`~repro.runtime.simulator.SimulationRun.canonical_state_digest`,
encodes the state under a pid permutation with every content replaced
by a token numbered by first appearance over the *whole* state, so a
component's canonical bytes depend on the permutation and on the
components before it.  What does not depend on either is its
:class:`OrbitTemplate`: the component's canonical encoding with three
kinds of slot,

* a *pid slot* for every structural pid (``MessageId.sender``, the
  sender and receiver of a ``PointToPointId``),
* a *content slot* for every leaf, numbered by first appearance within
  the component, and
* a *group slot* for every set, frozenset or dict: its members (a
  dict's ``(key, value)`` items) are written as templates of their own,
  in the order of their raw encoding,

plus the ordered list of the component's distinct contents.  A
component is a tuple of values — a journal's entries, an in-flight
message's ``(p2p, payload)`` pair, a remaining script — and its template
is a function of its *raw* encoding, :func:`encoding` ``(*values)``,
which the runtime already keeps for :meth:`~repro.runtime.simulator.SimulationRun.fingerprint`.
Filling a template maps each local content to its global
first-appearance token through the one token table of the state
encoding, then joins the literal chunks with the cached encodings of
``perm[p]`` and of the tokens: linear in the slots.  A group slot fills
each member and sorts the member encodings, whose order depends on the
token numbers; a template with no group slot is *flat* and fills with
one ``%`` formatting.  One walker, :class:`_TemplateBuilder`, writes
every template: what keeps none (the k-SA registry's values, the sync
gates' identities) is written for the call by
:meth:`PidCanonicalizer.encode`.  Token numbering is that of a walk of
the whole state, because a content's first appearance in the state is
its local first appearance in the first component that holds it, and
components are filled in traversal order.  Containers are delimited by
count and terminator, and a group's members carry their length, so a
filled slot of any length leaves the enclosing bytes valid.

The filled bytes are a function of ``(template, permutation, the
global tokens the local contents take)``, and the template one of the
raw encoding, so :meth:`PidCanonicalizer.digest` memoizes them exactly:
a search keeps one dict, shared by every fork, that interns each
template under its raw encoding and each component *digest* (16 bytes
of blake2b over the filled bytes) under ``(raw, permutation,
numbers)``.  A journal reached by another path, or by another pid,
reuses both.  The state key hashes the component digests, not the
filled bytes: digests are equal exactly when the canonical images are
(up to blake2b collisions), so the key partitions states as a hash of
the whole image would.  ``tests/runtime/canon_oracle.py`` builds every
canonical image from scratch, with none of this code, and keeps the
whole-image digest to check that partition.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
from typing import Any, Callable, Hashable, Sequence

from ..core.actions import PointToPointId
from ..core.message import Message, MessageId

__all__ = [
    "OrbitTemplate",
    "PidCanonicalizer",
    "canonical_update",
    "dict_encoding",
    "encoded_digest",
    "encoding",
    "int_encoding",
    "list_digest",
    "list_encoding",
    "orbit_digest",
    "payload_digest",
    "stable_digest",
    "tuple_digest",
    "tuple_encoding",
]

#: Hex-digest length: 16 bytes of blake2b — collision probability is
#: negligible at exploration scale (billions of states would be needed).
_DIGEST_SIZE = 16

#: Memoized ``dataclasses.fields`` name tuples — ``fields()`` rebuilds
#: its result list per call.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

#: Small pool of reusable encoding buffers.  Encoding is re-entrant in
#: principle (a ``repr`` fallback could digest something itself), so
#: buffers are acquired/released rather than held in one global.
_BUFFERS: list[bytearray] = []


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def _acquire_buffer() -> bytearray:
    if _BUFFERS:
        return _BUFFERS.pop()
    return bytearray()


def _release_buffer(buf: bytearray) -> None:
    if len(_BUFFERS) < 8:
        buf.clear()
        _BUFFERS.append(buf)


def _put(buf: bytearray, tag: bytes, payload: bytes) -> None:
    buf += tag
    buf += len(payload).to_bytes(8, "big")
    buf += payload


def _tagged(tag: bytes, payload: bytes) -> bytes:
    """``_put(buf, tag, payload)``'s bytes, for encodings kept as constants."""
    return tag + len(payload).to_bytes(8, "big") + payload


@functools.lru_cache(maxsize=1024)
def _list_open(count: int) -> bytes:
    """The opening of a ``count``-element list encoding (see ``_CLOSE``)."""
    return _tagged(b"l", str(count).encode())


@functools.lru_cache(maxsize=1024)
def _tuple_open(count: int) -> bytes:
    """The opening of a ``count``-element tuple encoding."""
    return _tagged(b"(", str(count).encode())


#: The terminator of every tuple and list encoding (an empty ``")"``).
_CLOSE = _tagged(b")", b"")
#: The terminator of every dataclass encoding.
_RECORD_CLOSE = _tagged(b"d", b"")
_NONE = _tagged(b"N", b"")
#: ``encoding(False)`` and ``encoding(True)``, indexed by the flag.
_BOOLS = (_tagged(b"B", b"0"), _tagged(b"B", b"1"))
#: ``encoding(i)`` for ``0 <= i < 256``: pids, degrees, small counters.
_SMALL_INTS = tuple(_tagged(b"i", str(i).encode()) for i in range(256))


def _encode_into(buf: bytearray, value: Any) -> None:
    """Append ``value``'s canonical encoding to ``buf``.

    The encoding is tagged and length-prefixed (containers carry an
    element count plus a terminator), so it is self-delimiting: no two
    structurally distinct values share an encoding, and container
    encodings can be concatenated and sorted without aliasing.  The
    encoder is one lookup of ``type(value)`` in ``_ENCODERS``; a type
    without an entry takes :func:`_encode_other`.
    """
    _ENCODERS.get(type(value), _encode_other)(buf, value)


def _encode_none(buf: bytearray, value: None) -> None:
    buf += _NONE


def _encode_bool(buf: bytearray, value: bool) -> None:
    buf += _BOOLS[value]


def _encode_int(buf: bytearray, value: int) -> None:
    if 0 <= value < 256:
        buf += _SMALL_INTS[value]
    else:
        _put(buf, b"i", str(value).encode())


def _encode_float(buf: bytearray, value: float) -> None:
    _put(buf, b"f", repr(value).encode())


def _encode_str(buf: bytearray, value: str) -> None:
    data = value.encode()
    buf += b"s"
    buf += len(data).to_bytes(8, "big")
    buf += data


def _encode_bytes(buf: bytearray, value: bytes) -> None:
    _put(buf, b"y", value)


def _encode_tuple(buf: bytearray, value: tuple) -> None:
    buf += _tuple_open(len(value))
    encoders = _ENCODERS
    for item in value:
        encoders.get(type(item), _encode_other)(buf, item)
    buf += _CLOSE


def _encode_list(buf: bytearray, value: list) -> None:
    # Lists carry their own tag: ``["a"]`` and ``("a",)`` are
    # structurally distinct and must not collide (they used to share
    # the tuple tag — see the regression tests).
    buf += _list_open(len(value))
    encoders = _ENCODERS
    for item in value:
        encoders.get(type(item), _encode_other)(buf, item)
    buf += _CLOSE


def _encode_set(buf: bytearray, value: set | frozenset) -> None:
    _put(buf, b"{", _sorted_encodings(buf, value))


def _encode_dict(buf: bytearray, value: dict) -> None:
    _put(buf, b"m", _sorted_encodings(buf, value.items()))


def _record_encoder(cls: type) -> Callable[[bytearray, Any], None]:
    """The encoder of dataclass ``cls``: its class name, then its fields."""
    head = _tagged(b"D", cls.__qualname__.encode())
    names = _field_names(cls)

    def encode(buf: bytearray, value: Any) -> None:
        buf += head
        encoders = _ENCODERS
        for name in names:
            item = getattr(value, name)
            encoders.get(type(item), _encode_other)(buf, item)
        buf += _RECORD_CLOSE

    return encode


#: The instance attribute in which a message or identity keeps its own
#: encoding (outside the dataclass fields, so equality, hashing and
#: ``repr`` never see it).
_ENCODED = "_canonical_encoding"


def _once_encoder(cls: type) -> Callable[[bytearray, Any], None]:
    """The encoder of immutable dataclass ``cls``, run once per object.

    The first encode of an instance stores the bytes on the instance
    itself; every later one appends them.  The cache is keyed by the
    object, never by equality: ``Message(uid, 1)`` and
    ``Message(uid, True)`` are equal and hash alike, yet encode
    differently.
    """
    encode = _record_encoder(cls)

    def encode_once(buf: bytearray, value: Any) -> None:
        try:
            buf += value._canonical_encoding  # the attribute ``_ENCODED``
        except AttributeError:
            start = len(buf)
            encode(buf, value)
            object.__setattr__(value, _ENCODED, bytes(buf[start:]))

    return encode_once


def _encode_other(buf: bytearray, value: Any) -> None:
    """Encode a value whose exact type has no entry in ``_ENCODERS``.

    The ordered ``isinstance`` chain: a subclass encodes as the first
    base it matches, through its own methods (an ``IntEnum`` member as
    the int its ``str`` spells, a namedtuple as a tuple, a subclass of
    a dataclass as a dataclass under its own name).  A dataclass type
    that reaches its branch gets an entry, so its next instance takes
    the table.
    """
    if isinstance(value, int):  # ``None`` and ``bool`` admit no subclass
        _put(buf, b"i", str(value).encode())
    elif isinstance(value, float):
        _put(buf, b"f", repr(value).encode())
    elif isinstance(value, str):
        _put(buf, b"s", value.encode())
    elif isinstance(value, bytes):
        _put(buf, b"y", value)
    elif isinstance(value, tuple):
        _encode_tuple(buf, value)
    elif isinstance(value, list):
        _encode_list(buf, value)
    elif isinstance(value, (set, frozenset)):
        _encode_set(buf, value)
    elif isinstance(value, dict):
        _encode_dict(buf, value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        encode = _ENCODERS[type(value)] = _record_encoder(type(value))
        encode(buf, value)
    else:
        _put(
            buf,
            b"r",
            type(value).__qualname__.encode() + b":" + repr(value).encode(),
        )


#: The encoder of each exact type: the built-in types the run state is
#: made of, the immutable identities (encoded once per object), and
#: every dataclass the chain has met.
_ENCODERS: dict[type, Callable[[bytearray, Any], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    tuple: _encode_tuple,
    list: _encode_list,
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
    Message: _once_encoder(Message),
    MessageId: _once_encoder(MessageId),
    PointToPointId: _once_encoder(PointToPointId),
}


def _sorted_encodings(buf: bytearray, items: Any) -> bytes:
    """The sorted, concatenated encodings of ``items`` (order-free).

    Elements are encoded into the tail of ``buf`` (reusing its storage),
    sliced back out, and the tail discarded — no per-element hasher.
    Element encodings are self-delimiting, so sorting and joining the
    raw byte strings never compares or aliases unlike values.
    """
    mark = len(buf)
    parts: list[bytes] = []
    for item in items:
        start = len(buf)
        _encode_into(buf, item)
        parts.append(bytes(buf[start:]))
    del buf[mark:]
    parts.sort()
    return b"".join(parts)


def encoding(*values: Any) -> bytes:
    """The concatenated canonical encodings of ``values``, as bytes.

    Encodings are self-delimiting, so the encodings of a list's items,
    concatenated, form the body :func:`list_digest` takes, and the
    encodings of trailing digest parts form the suffix
    :func:`encoded_digest` takes.
    """
    buf = _acquire_buffer()
    try:
        for value in values:
            _encode_into(buf, value)
        return bytes(buf)
    finally:
        _release_buffer(buf)


def canonical_update(hasher: "hashlib._Hash", value: Any) -> None:
    """Feed ``value``'s canonical encoding into ``hasher``.

    The encoding is tagged and length-prefixed, so structurally distinct
    values never collide by concatenation (``("ab",)`` vs ``("a", "b")``,
    ``["a"]`` vs ``("a",)``), and unordered containers (sets, dict
    items) are canonicalized by sorting their *encodings*, which never
    compares unlike values.  Dataclasses (messages, identities, script
    entries) encode as their class name plus field values; anything else
    falls back to ``repr``, which the run state of this library never
    needs — the fallback exists for exotic user script contents and is
    tagged separately so it cannot alias a structural encoding.
    """
    buf = _acquire_buffer()
    try:
        _encode_into(buf, value)
        hasher.update(buf)
    finally:
        _release_buffer(buf)


def stable_digest(*parts: Any) -> str:
    """A stable hex digest of ``parts`` under the canonical encoding.

    This is the definition behind every ``fingerprint()`` method in the
    runtime: components digest their own state and the
    :meth:`~repro.runtime.simulator.SimulationRun.fingerprint` combines
    the component digests, and nothing is read from the trace.  The
    components do not call it on their whole state, though: each caches
    the encoding of what it already digested and hashes the same bytes
    through :func:`list_digest` or :func:`encoded_digest`, so a state
    digest costs only the encoding of what changed since the last one
    (see the module docstring for the invalidation points).  One call
    builds the whole canonical byte stream in a reused buffer and
    hashes it once.
    """
    return encoded_digest(parts)


def encoded_digest(parts: Sequence[Any], *encoded: bytes) -> str:
    """``stable_digest(*parts, *rest)``, given ``rest`` pre-encoded.

    ``encoded`` are byte chunks whose concatenation is
    :func:`encoding` ``(*rest)``; they are hashed as they are, after the
    fresh encoding of ``parts``.
    """
    buf = _acquire_buffer()
    try:
        for part in parts:
            _encode_into(buf, part)
        hasher = hashlib.blake2b(buf, digest_size=_DIGEST_SIZE)
        for chunk in encoded:
            hasher.update(chunk)
        return hasher.hexdigest()
    finally:
        _release_buffer(buf)


def list_digest(header: Sequence[Any], body: bytes, count: int) -> str:
    """``stable_digest(*header, items)`` for a list ``items`` given encoded.

    ``body`` is :func:`encoding` ``(*items)`` and ``count`` is
    ``len(items)``: a component that keeps its list's element encodings
    digests it without re-encoding a single element.
    """
    return encoded_digest(header, _list_open(count), body, _CLOSE)


def tuple_encoding(count: int, *encoded: bytes) -> bytes:
    """``encoding(items)`` for a tuple ``items`` given its items encoded.

    ``encoded`` are byte chunks whose concatenation is
    :func:`encoding` ``(*items)`` and ``count`` is ``len(items)``.
    """
    return b"".join((_tuple_open(count), *encoded, _CLOSE))


def list_encoding(count: int, *encoded: bytes) -> bytes:
    """``encoding(items)`` for a list ``items`` given its items encoded."""
    return b"".join((_list_open(count), *encoded, _CLOSE))


def dict_encoding(items: Sequence[bytes]) -> bytes:
    """``encoding(mapping)`` given one encoding per ``(key, value)`` item."""
    return _tagged(b"m", b"".join(sorted(items)))


def tuple_digest(*items: bytes) -> str:
    """``stable_digest(values)`` for a tuple given one encoding per value."""
    hasher = hashlib.blake2b(
        _tuple_open(len(items)), digest_size=_DIGEST_SIZE
    )
    for item in items:
        hasher.update(item)
    hasher.update(_CLOSE)
    return hasher.hexdigest()


def int_encoding(value: int) -> bytes:
    """``encoding(value)`` for an int (not a bool), cached for small ones."""
    if 0 <= value < 256:
        return _SMALL_INTS[value]
    return encoding(value)


def payload_digest(text: str) -> str:
    """The integrity digest of one opaque serialized payload.

    Used by :mod:`repro.runtime.checkpoint` to seal checkpoint files:
    the payload is a canonical JSON string, and the digest is computed
    over it under the same tagged encoding as every other
    :func:`stable_digest` in the runtime, so it is stable across
    interpreter runs and machines (a checkpoint written on one host
    verifies on another).  The tag keeps payload digests from ever
    colliding with state fingerprints or memo keys.
    """
    return stable_digest("repro.payload", text)


#: ``encoding(("~", t))`` per content token ``t``, grown on demand: a
#: content slot fills with its global token's encoding.
_TOKEN_ENCODINGS: list[bytes] = []


class PidCanonicalizer:
    """Encodes run-state components under a pid permutation (symmetry).

    The explorer's renaming-symmetry reduction
    (``explore_schedules(..., symmetry="rename")``) treats two states as
    interchangeable when one is the image of the other under a
    permutation of declared-symmetric process ids *and* an injective
    renaming of message contents (the paper's Definition 3 applied to
    the state, not just the spec).  This helper produces the canonical
    encoding of state components under one candidate permutation, that
    is, the encoding of their *canonical image*:

    * process ids are mapped through the permutation wherever they occur
      structurally — message identities (``MessageId.sender``) and
      point-to-point identities;
    * *contents* (and any other leaf value) are replaced by opaque
      tokens ``("~", t)`` numbered by first appearance in the traversal,
      which realizes an injective content renaming: two states agree on
      the canonical encoding iff they differ only by the permutation
      plus some injective relabeling of contents;
    * containers are encoded structurally: a message as ``("M", uid,
      content)``, a dataclass as ``("C", name, fields)``, a list or
      tuple as a tuple, and a set or dict as ``("S"|"D", member
      encodings sorted)``, a dict's members being its ``(key, value)``
      items.  Members are visited in the order of their raw
      :func:`encoding`, so the tokens they take depend only on the
      state, never on ``PYTHONHASHSEED``.

    :meth:`digest` digests one component through ``memo`` and
    :meth:`encode` writes a value's encoding for the call.  Both draw
    tokens from the one table of this instance, in the order the
    components are encoded.  ``memo`` may be shared by every
    canonicalizer of a search (see *Orbit templates* in the module
    docstring); each call gets a fresh one by default.

    One instance encodes exactly **one** state: token numbers must be a
    pure function of the state (first appearance in *this* traversal).
    A reused instance would number contents by ordinals of the combined
    history, so the same state would encode differently depending on
    what was encoded first, and the dedup cache would mis-collapse or
    split orbits.  Callers mark the end of a state encoding with
    :meth:`seal`; any use after that raises :class:`RuntimeError`
    (``canonical_state_digest`` seals the instance it creates).
    """

    __slots__ = ("_tokens", "_sealed", "_perm", "_pids", "_memo")

    def __init__(
        self, permutation: Sequence[int], memo: dict | None = None
    ) -> None:
        self._tokens: dict[Hashable, int] = {}
        self._sealed = False
        self._perm = tuple(permutation)
        #: What a template's pid slot ``p`` fills with.
        self._pids = [int_encoding(image) for image in permutation]
        self._memo = {} if memo is None else memo

    def seal(self) -> None:
        """Mark the state encoding complete; further use raises."""
        self._sealed = True

    def digest(self, raw: bytes, values: Sequence[Any]) -> bytes:
        """The digest of the canonical encoding of the tuple ``values``.

        ``raw`` is :func:`encoding` ``(*values)``, which determines the
        component's template; the result is 16 bytes of blake2b over
        the filled template.  The memo interns the template under
        ``raw`` and keeps the digest under ``(raw, permutation,
        numbers)``, ``numbers`` being the global tokens the template's
        local contents take, in local first-appearance order: fresh
        contents are numbered exactly as a walk of the component would
        number them.
        """
        memo = self._memo
        template = memo.get(raw)
        if template is None:
            template = memo[raw] = OrbitTemplate(values)
        numbers = self._numbers(template.contents)
        key = (raw, self._perm, numbers)
        digest = memo.get(key)
        if digest is None:
            digest = memo[key] = hashlib.blake2b(
                template.fill(self._table(numbers)),
                digest_size=_DIGEST_SIZE,
            ).digest()
        return digest

    def encode(self, value: Any) -> bytes:
        """The canonical encoding of ``value``, through a template
        written for this call."""
        builder = _TemplateBuilder()
        builder.value(value)
        table = self._table(self._numbers(builder.contents))
        return _fill(builder.body(), builder.slots, table)

    def _numbers(self, contents: Sequence[Hashable]) -> tuple[int, ...]:
        """The global tokens of ``contents``, each drawn from the table
        or the next free one."""
        if self._sealed:
            raise RuntimeError(
                "PidCanonicalizer instances are single-use: this one "
                "already encoded a state, and its token table would "
                "carry that state's content ordinals into the next "
                "encoding (making the digest history-dependent instead "
                "of a function of the state).  Create a fresh instance "
                "per state."
            )
        tokens = self._tokens
        return tuple(
            [tokens.setdefault(content, len(tokens)) for content in contents]
        )

    def _table(self, numbers: Sequence[int]) -> list[bytes]:
        """What the slots of a template whose contents take ``numbers``
        fill from.

        Pid slot ``p`` reads ``table[p]`` and content slot ``~i`` reads
        ``table[~i]``, the i-th entry from the end.
        """
        while len(_TOKEN_ENCODINGS) < len(self._tokens):
            _TOKEN_ENCODINGS.append(encoding(("~", len(_TOKEN_ENCODINGS))))
        return self._pids + [_TOKEN_ENCODINGS[n] for n in reversed(numbers)]


def _fill(fmt: bytes, slots: Sequence[Any], table: list[bytes]) -> bytes:
    """``fmt`` with its slots filled: a pid or content slot reads
    ``table``, a group slot fills itself from it."""
    return fmt % tuple(
        slot.fill(table) if type(slot) is _Group else table[slot]
        for slot in slots
    )


class _Group:
    """A set, frozenset or dict in a template: one slot.

    ``members`` holds one ``(fmt, slots)`` pair per member, in the order
    of the members' raw :func:`encoding`.  The slot fills with the
    encoding of ``(tag, tuple(sorted member encodings))``.
    """

    __slots__ = ("_open", "_members")

    def __init__(self, tag: str, members: list[tuple[bytes, tuple]]) -> None:
        self._open = (
            _tuple_open(2) + encoding(tag) + _tuple_open(len(members))
        )
        self._members = tuple(members)

    def fill(self, table: list[bytes]) -> bytes:
        filled = sorted(
            _fill(fmt, slots, table) for fmt, slots in self._members
        )
        return b"".join(
            (self._open, *[_tagged(b"y", item) for item in filled], _CLOSE,
             _CLOSE)
        )


#: Types whose values are always content leaves (exact types only:
#: a subclass takes the general path).
_LEAF_TYPES = frozenset({str, int, bool, float, bytes, type(None)})

#: Literal openings of the canonical images the builder writes.
_MESSAGE_OPEN = _tuple_open(3) + encoding("M")
_UID_OPEN = _tuple_open(3) + encoding("U")
_P2P_OPEN = _tuple_open(4) + encoding("P")
_RECORD_OPEN = _tuple_open(3) + encoding("C")


class _TemplateBuilder:
    """Writes canonical images with slots (see :class:`OrbitTemplate`).

    The one walker of the canonical image (the rules are listed on
    :class:`PidCanonicalizer`).  It writes the image's encoding rather
    than the image: literal bytes collect in a buffer that is escaped
    into the format at each slot, and every permuted pid and content
    token becomes a ``%b`` slot.  A set, frozenset or dict becomes one
    :class:`_Group` slot, each member written to a format of its own;
    ``flat`` stays True until one is written.  ``contents`` lists the
    distinct contents in first-appearance order.
    """

    __slots__ = ("contents", "slots", "flat", "_index", "_fmt", "_literal")

    def __init__(self) -> None:
        self.contents: list = []
        self.slots: list = []
        self.flat = True
        self._index: dict[Hashable, int] = {}
        self._fmt = bytearray()
        self._literal = bytearray()

    def _slot(self, code: "int | _Group") -> None:
        self._fmt += self._literal.replace(b"%", b"%%")
        self._fmt += b"%b"
        self._literal.clear()
        self.slots.append(code)

    def body(self) -> bytes:
        """The format written so far."""
        self._fmt += self._literal.replace(b"%", b"%%")
        self._literal.clear()
        return bytes(self._fmt)

    def value(self, value: Any) -> None:
        write = _WRITERS.get(type(value))
        if write is None:
            write = _writer_other(value)
        write(self, value)

    def _message(self, value: Message) -> None:
        self._literal += _MESSAGE_OPEN
        self.value(value.uid)
        self.value(value.content)
        self._literal += _CLOSE

    def _uid(self, value: MessageId) -> None:
        self._literal += _UID_OPEN
        self._slot(value.sender)
        _encode_into(self._literal, value.seq)
        self._literal += _CLOSE

    def _p2p(self, value: PointToPointId) -> None:
        self._literal += _P2P_OPEN
        self._slot(value.sender)
        self._slot(value.receiver)
        _encode_into(self._literal, value.seq)
        self._literal += _CLOSE

    def _sequence(self, value: tuple | list) -> None:
        self._literal += _tuple_open(len(value))
        for item in value:
            self.value(item)
        self._literal += _CLOSE

    def _group(self, tag: str, members: list) -> None:
        outer = self._fmt, self._literal, self.slots
        written = []
        for member in members:
            self._fmt, self._literal, self.slots = bytearray(), bytearray(), []
            self.value(member)
            written.append((self.body(), tuple(self.slots)))
        self._fmt, self._literal, self.slots = outer
        self._slot(_Group(tag, written))
        self.flat = False

    def _set(self, value: set | frozenset) -> None:
        self._group("S", sorted(value, key=encoding))

    def _mapping(self, value: dict) -> None:
        self._group("D", sorted(value.items(), key=encoding))

    def _record(self, value: Any) -> None:
        cls = type(value)
        names = _field_names(cls)
        literal = self._literal
        literal += _RECORD_OPEN
        _encode_into(literal, cls.__qualname__)
        literal += _tuple_open(len(names))
        for name in names:
            self.value(getattr(value, name))
        literal += _CLOSE
        literal += _CLOSE

    def _content(self, value: Hashable) -> None:
        number = self._index.get(value)
        if number is None:
            number = self._index[value] = len(self._index)
            self.contents.append(value)
        self._slot(~number)


def _writer_other(value: Any) -> Callable[[_TemplateBuilder, Any], None]:
    """The write rule of a value whose exact type has no entry in
    ``_WRITERS``: the ordered ``isinstance`` chain (a subclass takes the
    rule of the first base it matches, anything else is a content).  A
    dataclass type that reaches its branch gets an entry."""
    if isinstance(value, Message):
        return _TemplateBuilder._message
    if isinstance(value, MessageId):
        return _TemplateBuilder._uid
    if isinstance(value, PointToPointId):
        return _TemplateBuilder._p2p
    if isinstance(value, (tuple, list)):
        return _TemplateBuilder._sequence
    if isinstance(value, (set, frozenset)):
        return _TemplateBuilder._set
    if isinstance(value, dict):
        return _TemplateBuilder._mapping
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _WRITERS[type(value)] = _TemplateBuilder._record
        return _TemplateBuilder._record
    return _TemplateBuilder._content


#: The write rule of each exact type (see :func:`_writer_other`).
_WRITERS: dict[type, Callable[[_TemplateBuilder, Any], None]] = {
    **dict.fromkeys(_LEAF_TYPES, _TemplateBuilder._content),
    Message: _TemplateBuilder._message,
    MessageId: _TemplateBuilder._uid,
    PointToPointId: _TemplateBuilder._p2p,
    tuple: _TemplateBuilder._sequence,
    list: _TemplateBuilder._sequence,
    set: _TemplateBuilder._set,
    frozenset: _TemplateBuilder._set,
    dict: _TemplateBuilder._mapping,
}


class OrbitTemplate:
    """A component's canonical encoding with pid, content and group slots.

    The component is the tuple ``values`` (a journal's entries, a pool
    entry, a remaining script); see *Orbit templates* in the module
    docstring.  ``fmt`` is the tuple's canonical encoding with each slot
    written as ``%b`` (literal ``%`` doubled), ``slots`` codes the slots
    in order — ``p`` for pid ``p``, ``~i`` for local content ``i``, a
    :class:`_Group` for a set or dict — and ``contents`` lists the
    distinct contents in local first-appearance order.  ``flat`` says no
    slot is a group.  Templates are immutable.
    """

    __slots__ = ("fmt", "slots", "contents", "flat")

    def __init__(self, values: Sequence[Any]) -> None:
        builder = _TemplateBuilder()
        builder._sequence(values)
        self.fmt = builder.body()
        self.slots = tuple(builder.slots)
        self.contents = tuple(builder.contents)
        self.flat = builder.flat

    def fill(self, table: list[bytes]) -> bytes:
        """The canonical encoding, each slot filled from ``table`` (see
        :meth:`PidCanonicalizer._table`)."""
        if self.flat:
            return self.fmt % tuple(map(table.__getitem__, self.slots))
        return _fill(self.fmt, self.slots, table)


# ---------------------------------------------------------------------------
# Orbit-canonical digests: canonical labelling instead of enumeration
# ---------------------------------------------------------------------------


def orbit_digest(
    groups: Sequence[Sequence[int]],
    n: int,
    profile: Callable[[int], Hashable],
    encode: Callable[[Sequence[int]], str],
) -> tuple[str, tuple[int, ...], int]:
    """One representative digest per symmetry orbit, by canonical labelling.

    Minimizing :func:`encode` (a permuted-state digest such as
    :meth:`~repro.runtime.simulator.SimulationRun.canonical_state_digest`)
    over *every* admissible pid permutation costs |perms| encodings per
    state.  This pass instead refines each symmetric ``group`` into
    cells of equal per-pid invariant (``profile``), assigns cells to the
    group's sorted positions in sorted invariant order, and searches only
    the *residual automorphism candidates* — the permutations of
    equal-invariant pids over their cell's positions.  When invariants
    separate every pid, exactly one candidate (hence ~1 encoding per
    state) remains.

    ``profile`` must be **equivariant**: computed from the state without
    reading raw pid labels, so that pid ``σ(p)`` of the σ-relabeled
    state carries the invariant of pid ``p`` (journal *tag shapes*,
    alive flags, script-remainder shapes and pool degrees qualify;
    anything mentioning a concrete peer pid or a raw content does not).
    Under that contract the candidate sets of two orbit-related states
    correspond, so the minimized digest is constant on the orbit — the
    same canonical key full enumeration would compute, at a fraction of
    the encodings.  A non-equivariant profile can only *split* orbits
    (distinct keys for related states), never merge unrelated ones:
    equal digests still certify an admissible permutation, because every
    candidate acts within the declared groups.

    Invariants are grouped by equality and ordered by ``<``, so they
    must be hashable and mutually comparable; a profile of mixed shapes
    returns a digest of each (:meth:`~repro.runtime.simulator.SimulationRun.orbit_key`
    returns ``stable_digest`` of its profile tuple, assembled from
    cached encodings).

    Returns ``(digest, permutation, encodings)``: the orbit-canonical
    digest, the witnessing permutation achieving it, and the number of
    candidate encodings performed (the cost that was previously
    |perms|).
    """
    candidates: list[list[int]] = [list(range(n))]
    for group in groups:
        positions = sorted(set(group))
        by_invariant: dict[Any, list[int]] = {}
        for p in positions:
            by_invariant.setdefault(profile(p), []).append(p)
        offset = 0
        for invariant in sorted(by_invariant):
            members = by_invariant[invariant]
            targets = positions[offset : offset + len(members)]
            offset += len(members)
            if len(members) == 1:
                for candidate in candidates:
                    candidate[members[0]] = targets[0]
                continue
            extended: list[list[int]] = []
            for candidate in candidates:
                for images in itertools.permutations(targets):
                    new = list(candidate)
                    for source, image in zip(members, images):
                        new[source] = image
                    extended.append(new)
            candidates = extended
    best: str | None = None
    best_perm: tuple[int, ...] | None = None
    for candidate in candidates:
        digest = encode(candidate)
        if best is None or digest < best:
            best, best_perm = digest, tuple(candidate)
    assert best is not None and best_perm is not None
    return best, best_perm, len(candidates)
