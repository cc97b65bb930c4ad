"""The canonical encoder against its ``isinstance``-chain oracle.

:func:`repro.runtime.fingerprint.encoding` looks each value's exact type
up in a table and encodes messages and identities once per object;
:mod:`tests.runtime.encoding_oracle` walks the ordered ``isinstance``
chain and encodes everything from scratch.  The bytes must be equal on
every value — including the subclasses and look-alikes an exact-type
table could get wrong — and stay equal once the per-object caches are
warm.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.actions import PointToPointId
from repro.core.message import Message, MessageId
from repro.broadcasts import SendToAllBroadcast
from repro.runtime import Simulator
from repro.runtime.fingerprint import (
    _ENCODED,
    PidCanonicalizer,
    encoding,
    stable_digest,
)

from . import encoding_oracle as oracle


def component_digest(image) -> bytes:
    """The digest a component with canonical image ``image`` takes."""
    return hashlib.blake2b(oracle.encoding(image), digest_size=16).digest()


class Color(enum.IntEnum):
    RED = 1
    BLUE = 300


class Phase(str, enum.Enum):
    ONE = "one"


Point = namedtuple("Point", "x y")


class Name(str):
    pass


class Count(int):
    def __str__(self):
        return f"count-{int(self)}"


class Items(list):
    pass


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclass
class Box:
    item: object


@dataclass(frozen=True)
class Stamped(Message):
    """A dataclass subclass of ``Message``: encoded under its own name."""

    stamp: int = 0


class Opaque:
    """No structure the encoder knows: the ``repr`` fallback."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"Opaque({self.tag!r})"

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)


small = st.integers(0, 3)
uids = st.builds(MessageId, small, small)
p2ps = st.builds(PointToPointId, small, small, small)

#: Scalars, look-alikes (``1``, ``True``, ``1.0``, ``"1"``) and the
#: subclasses an exact-type table must hand to the chain.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-300, 300),
    st.integers(),
    st.sampled_from([0, 1, 0.0, 1.0, -0.0, True, False, "1", b"1"]),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.sampled_from(list(Color) + [Phase.ONE]),
    st.builds(Name, st.text(max_size=4)),
    st.builds(Count, st.integers(-2, 300)),
    st.builds(Opaque, st.integers(0, 3)),
    st.just(3 + 4j),
    uids,
    p2ps,
)


def hashables(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner),
            st.builds(Point, inner, inner),
            st.frozensets(inner, max_size=3),
            st.builds(Pair, inner, inner),
            st.builds(Message, uids, inner),
            st.builds(Stamped, uids, inner, small),
        ),
        max_leaves=6,
    )


keys = hashables(scalars)

values = st.recursive(
    keys,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(Items),
        st.sets(keys, max_size=3),
        st.dictionaries(keys, inner, max_size=3),
        st.dictionaries(keys, inner, max_size=3).map(OrderedDict),
        st.builds(Box, inner),
        st.builds(Pair, inner, inner),
        st.builds(Message, uids, keys),
    ),
    max_leaves=12,
)


class TestAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(value=values)
    def test_every_value_encodes_as_the_chain_does(self, value):
        expected = oracle.encoding(value)
        assert encoding(value) == expected
        # again, with every message and identity in it cached
        assert encoding(value) == expected
        assert encoding(value, [value]) == oracle.encoding(value, [value])

    @settings(max_examples=100, deadline=None)
    @given(value=values)
    def test_digests_follow_the_encoding(self, value):
        digest = stable_digest("x", value)
        assert digest == stable_digest("x", value)
        assert encoding("x", value) == oracle.encoding("x", value)

    def test_subclasses_take_the_chain(self):
        for value, base in [
            (Color.BLUE, 300),
            (Point(1, "a"), (1, "a")),
            (Name("n"), "n"),
            (Items([1]), [1]),
            (OrderedDict(a=1), {"a": 1}),
        ]:
            assert encoding(value) == oracle.encoding(value)
            assert encoding(value) == encoding(base)
        # an int subclass encodes through its own ``str``, as the chain
        # always did, not through the small-int table
        assert encoding(Count(5)) == oracle.encoding(Count(5))
        assert encoding(Count(5)) != encoding(5)


class TestPerObjectEncodings:
    def test_equal_messages_keep_their_own_bytes(self):
        uid = MessageId(0, 0)
        assert Message(uid, 1) == Message(uid, True)
        assert hash(Message(uid, 1)) == hash(Message(uid, True))
        for contents in [(1, True), (True, 1)]:  # either cached first
            first, second = (Message(uid, c) for c in contents)
            encoding(first)
            encoding(second)
            for message in (first, second):
                assert encoding(message) == oracle.encoding(message)
            assert encoding(first) != encoding(second)
            assert encoding({first: 1}) == oracle.encoding({first: 1})

    def test_identities_are_cached_on_the_object(self):
        uid, p2p = MessageId(1, 2), PointToPointId(0, 1, 2)
        message = Message(uid, "a")
        encoding((p2p, message))
        for value in (uid, p2p, message):
            assert vars(value)[_ENCODED] == oracle.encoding(value)
        # the cache is no field: equality, hashing and repr ignore it
        assert message == Message(MessageId(1, 2), "a")
        assert hash(message) == hash(Message(MessageId(1, 2), "a"))
        assert repr(message) == repr(Message(MessageId(1, 2), "a"))

    def test_a_forked_run_reuses_the_cached_bytes(self):
        run = Simulator(3, SendToAllBroadcast, atomic_local=True).begin(
            {0: ["a"], 1: ["b"]}
        )
        for _ in range(3):
            run.advance(0)
            run.choices()
        run.fingerprint()
        fork = run.fork()
        messages = [
            item.payload for item in run.network.deliverable(None)
        ]
        assert messages
        forked = [item.payload for item in fork.network.deliverable(None)]
        assert all(a is b for a, b in zip(messages, forked))
        # The fork encodes through the bytes cached on the shared
        # objects: planting other bytes there changes its encoding.
        message = forked[0]
        cached = vars(message)[_ENCODED]
        assert cached == oracle.encoding(message)
        try:
            object.__setattr__(message, _ENCODED, b"planted")
            assert encoding(message) == b"planted"
            assert b"planted" in encoding(fork.network.deliverable(None))
        finally:
            object.__setattr__(message, _ENCODED, cached)
        assert encoding(message) == oracle.encoding(message)


class TestOrbitImagesAgainstTheChain:
    """The orbit path dispatches by exact type too: its templates must
    encode the chain's canonical image."""

    @settings(max_examples=150, deadline=None)
    @given(value=values, permutation=st.permutations(range(4)))
    def test_canonicalizer_images(self, value, permutation):
        expected = oracle.canonical_image(permutation, value)
        assert PidCanonicalizer(permutation).encode(value) == (
            oracle.encoding(expected)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(values, max_size=3),
        permutation=st.permutations(range(4)),
    )
    def test_templates(self, items, permutation):
        digest = PidCanonicalizer(permutation).digest(encoding(*items), items)
        expected = oracle.canonical_image(permutation, tuple(items))
        assert digest == component_digest(expected)

    @settings(max_examples=150, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(values, st.booleans()), min_size=1, max_size=4
        ),
        permutation=st.permutations(range(4)),
    )
    def test_one_token_table_across_components(self, parts, permutation):
        # a content keeps the token it took in an earlier component,
        # whether either component is digested from a template or
        # encoded for the call, and whatever groups hold it; a second
        # state encoding through the same memo answers from it
        memo: dict = {}
        for _ in range(2):
            canon = PidCanonicalizer(permutation, memo)
            tokens: dict = {}
            for value, templated in parts:
                if templated:
                    digest = canon.digest(encoding(value, value), [value] * 2)
                    image = oracle.canonical_image(
                        permutation, (value, value), tokens
                    )
                    assert digest == component_digest(image)
                else:
                    image = oracle.canonical_image(permutation, value, tokens)
                    assert canon.encode(value) == oracle.encoding(image)
            canon.seal()

    def test_subclasses_take_the_rule_of_their_base(self):
        canon = PidCanonicalizer((1, 0))
        value = (
            Point(Color.RED, Name("x")),
            Stamped(MessageId(0, 1), "c", 2),
            Box(MessageId(1, 0)),
        )
        assert canon.encode(value) == oracle.encoding(
            (
                (("~", 0), ("~", 1)),
                ("M", ("U", 1, 1), ("~", 2)),
                ("C", "Box", (("U", 0, 0),)),
            )
        )
