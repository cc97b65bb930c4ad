"""Property tests for the field-driven codec of exploration artifacts.

Every type the explorer ships or checkpoints — :class:`Violation`,
:class:`ExplorationResult`, :class:`ProgressSnapshot` and the subtree
summary ``_Summary`` — must survive ``encode → json → decode`` as an
equal object.  Which missing keys are errors and which take the field's
default is pinned here independently of the field declarations, so the
tolerance for older payloads cannot drift.  A test-only subclass shows
that a new counter is one field declaration: it round-trips, defaults
when absent, and is summed by :func:`repro.runtime.codec.absorb`, the
merge a sharded search applies to each cut subtree's outcome.
"""

import json
from dataclasses import dataclass, fields

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime.codec import SUM, absorb, coded, decode, encode
from repro.runtime.explorer import (
    RESULT_SCHEMA,
    ExplorationResult,
    ProgressSnapshot,
    Violation,
    _Summary,
)

PROPERTY = settings(max_examples=50, deadline=None)

counts = st.integers(min_value=0, max_value=10**12)
small = st.integers(min_value=0, max_value=40)
words = st.text(max_size=12)
ids = st.tuples(small, small, small) | st.lists(small, max_size=6).map(tuple)
depth_map = st.dictionaries(small, counts, max_size=5)
stat_map = st.dictionaries(
    st.sampled_from(["dynamic", "crash_proof", "conservative", "memo_hits"]),
    counts,
)
reals = st.floats(allow_nan=False, allow_infinity=False)

violations = st.builds(
    Violation,
    guide=ids,
    problems=st.lists(words, max_size=3).map(tuple),
    permutation=st.none() | ids,
)
results = st.builds(
    ExplorationResult,
    schedules_explored=counts,
    terminal_schedules=counts,
    violations=st.lists(violations, max_size=3),
    exhausted=st.booleans(),
    max_depth_seen=small,
    aborted=st.booleans(),
    interrupted=st.booleans(),
    events_executed=counts,
    events_replayed=counts,
    workers=st.integers(min_value=1, max_value=8),
    states_seen=counts,
    states_deduped=counts,
    states_pruned_sleep=counts,
    states_merged_symmetry=counts,
    orbit_encodings=counts,
    expansions_by_depth=depth_map,
    dedup_hits_by_depth=depth_map,
    independence_stats=stat_map,
    progress_errors=st.lists(words, max_size=2),
)
snapshots = st.builds(
    ProgressSnapshot,
    expansions=counts,
    terminals=counts,
    depth=small,
    elapsed=reals,
    states_per_second=reals,
    expansions_by_depth=depth_map,
    dedup_hits_by_depth=depth_map,
    independence_stats=stat_map,
)
summaries = st.builds(
    _Summary,
    terminals=counts,
    violations=st.lists(
        st.tuples(
            counts,
            ids,
            st.lists(words, max_size=2).map(tuple),
            st.none() | ids,
        ),
        max_size=3,
    ),
    height=small,
    truncated=st.booleans(),
)


def wire(data: dict) -> dict:
    return json.loads(json.dumps(data))


#: type → (instances, to JSON, from JSON, keys whose absence is an error)
CASES = {
    "Violation": (
        violations, Violation.to_json, Violation.from_json,
        {"guide", "problems"},
    ),
    "ExplorationResult": (
        results, ExplorationResult.to_json, ExplorationResult.from_json,
        {
            "schedules_explored", "terminal_schedules", "violations",
            "exhausted", "max_depth_seen", "aborted", "events_executed",
            "events_replayed",
        },
    ),
    "ProgressSnapshot": (
        snapshots, ProgressSnapshot.to_json, ProgressSnapshot.from_json,
        {"expansions", "terminals", "depth"},
    ),
    "_Summary": (
        summaries, encode, lambda data: decode(_Summary, data),
        {"terminals", "violations", "height", "truncated"},
    ),
}


def default_of(cls, name):
    (f,) = [f for f in fields(cls) if f.name == name]
    return f.default_factory() if callable(f.default_factory) else f.default


@pytest.mark.parametrize("case", sorted(CASES))
class TestCodec:
    @PROPERTY
    @given(data=st.data())
    def test_round_trip(self, case, data):
        instances, to_json, from_json, _ = CASES[case]
        obj = data.draw(instances)
        assert from_json(wire(to_json(obj))) == obj

    @PROPERTY
    @given(data=st.data())
    def test_missing_optional_key_takes_the_default(self, case, data):
        instances, to_json, from_json, required = CASES[case]
        obj = data.draw(instances)
        payload = wire(to_json(obj))
        optional = sorted(set(payload) - required - {"schema"})
        if not optional:
            return
        name = data.draw(st.sampled_from(optional))
        del payload[name]
        restored = from_json(payload)
        assert getattr(restored, name) == default_of(type(obj), name)

    @PROPERTY
    @given(data=st.data())
    def test_missing_required_key_names_the_field(self, case, data):
        instances, to_json, from_json, required = CASES[case]
        payload = wire(to_json(data.draw(instances)))
        name = data.draw(st.sampled_from(sorted(required)))
        del payload[name]
        with pytest.raises(ValueError, match=repr(name)):
            from_json(payload)


@pytest.mark.parametrize("case", ["ExplorationResult", "ProgressSnapshot"])
@PROPERTY
@given(data=st.data(), ahead=st.integers(min_value=1, max_value=5))
def test_newer_schema_rejected(case, data, ahead):
    instances, to_json, from_json, _ = CASES[case]
    payload = wire(to_json(data.draw(instances)))
    assert payload["schema"] == RESULT_SCHEMA
    payload["schema"] = RESULT_SCHEMA + ahead
    with pytest.raises(ValueError, match=f"schema {RESULT_SCHEMA + ahead}"):
        from_json(payload)


def absorbed_by_hand(out: dict, sub: dict) -> dict:
    """The merge of a cut subtree's outcome, written out field by field.

    Work counters add up and the depth bound takes the maximum; a
    subtree that was not exhausted makes the whole search non-exhaustive.
    Terminals, violations and the flags merge elsewhere (through replay)
    and stay as they are.
    """
    merged = dict(out)
    for name in (
        "schedules_explored", "events_executed", "events_replayed",
        "states_seen", "states_deduped", "states_pruned_sleep",
        "states_merged_symmetry", "orbit_encodings",
    ):
        merged[name] = out[name] + sub[name]
    for name in ("expansions_by_depth", "dedup_hits_by_depth",
                 "independence_stats"):
        merged[name] = {
            key: out[name].get(key, 0) + sub[name].get(key, 0)
            for key in set(out[name]) | set(sub[name])
        }
    merged["max_depth_seen"] = max(
        out["max_depth_seen"], sub["max_depth_seen"]
    )
    merged["exhausted"] = out["exhausted"] and sub["exhausted"]
    return merged


@PROPERTY
@given(out=results, sub=results)
def test_absorb_follows_field_metadata(out, sub):
    expected = absorbed_by_hand(vars(out), vars(sub))
    absorb(out, sub)
    assert vars(out) == expected


@dataclass
class LayeredResult(ExplorationResult):
    """A result with one more counter: its only declaration is below."""

    layer_calls: int = coded(0, merge=SUM)


class TestOneFieldCounter:
    @PROPERTY
    @given(base=results, calls=counts)
    def test_round_trips_and_defaults(self, base, calls):
        result = LayeredResult(**vars(base), layer_calls=calls)
        payload = wire(result.to_json())
        assert payload["layer_calls"] == calls
        assert LayeredResult.from_json(payload) == result
        del payload["layer_calls"]  # written before the counter existed
        assert LayeredResult.from_json(payload).layer_calls == 0

    @PROPERTY
    @given(out=results, sub=results, mine=counts, theirs=counts)
    def test_summed_by_absorb(self, out, sub, mine, theirs):
        out = LayeredResult(**vars(out), layer_calls=mine)
        sub = LayeredResult(**vars(sub), layer_calls=theirs)
        absorb(out, sub)
        assert out.layer_calls == mine + theirs


def test_fixed_tuple_arity_is_checked():
    # a summary violation is an (ordinal, guide, problems, perm) 4-tuple
    data = wire(encode(_Summary(1, [(0, (1,), ("p",), None)], 1, False)))
    data["violations"][0].pop()
    with pytest.raises(ValueError):
        decode(_Summary, data)
