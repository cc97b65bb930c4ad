"""Unit tests of the canonical state-fingerprint layer.

The dedup engine treats two runs as interchangeable exactly when their
fingerprints agree, so the digest must be (a) stable across interpreter
runs, (b) invariant under the orderings it canonicalizes away (set and
dict iteration order), and (c) sensitive to everything it keeps (pool
insertion order, journals, registry state, depth).  The components
cache their encodings, so (d) every cached digest must equal the
from-scratch encoding of the same state, and pinned golden digests
catch any drift of the encoding itself.  The same holds for the orbit
keys of the symmetry reduction: the templated encoding must equal the
whole-state oracle of ``canon_oracle`` wherever a search asks for one.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.broadcasts import (
    FirstKKsaBroadcast,
    KSteppedKsaBroadcast,
    SendToAllBroadcast,
    TrivialKsaBroadcast,
    UniformReliableBroadcast,
)
from repro.core.message import Message, MessageId
from repro.runtime import (
    CrashSchedule,
    KsaRegistry,
    PidCanonicalizer,
    Simulator,
    SimulationRun,
    orbit_digest,
    stable_digest,
)
from repro.runtime.checkpoint import CheckpointError, read_checkpoint
from repro.runtime.explorer import (
    channels_property,
    explore_schedules,
    spec_property,
)
from repro.runtime.fingerprint import OrbitTemplate, encoding
from repro.specs import (
    KSteppedBroadcastSpec,
    SendToAllSpec,
    TotalOrderBroadcastSpec,
)

from . import canon_oracle
from .test_explorer_checkpoint import Countdown, assert_identical


def s2a_simulator(n=2, **kwargs):
    return Simulator(
        n, lambda pid, n_: SendToAllBroadcast(pid, n_), **kwargs
    )


def started_run(n=2, scripts=None):
    simulator = s2a_simulator(n, atomic_local=True)
    return simulator.begin(scripts or {0: ["a"], 1: ["b"]})


def settled_fingerprint(run):
    """Fingerprint at a decision point, per the documented contract.

    ``choices()`` applies the per-decision prelude (due crashes, the
    ``atomic_local`` drain) so states are compared after it, exactly as
    the dedup engine does.
    """
    run.choices()
    return run.fingerprint()


class TestStableDigest:
    """The encoding primitive underneath every fingerprint() method."""

    def test_deterministic_within_a_run(self):
        value = ("x", 3, {2: "b", 1: "a"}, frozenset({5, 6}))
        assert stable_digest(value) == stable_digest(value)

    def test_stable_across_interpreter_runs(self):
        # hash() randomization must not leak in: a fresh interpreter
        # (fresh PYTHONHASHSEED) computes the identical digest.
        code = (
            "from repro.runtime import stable_digest;"
            "print(stable_digest("
            "('x', 3, {2: 'b', 1: 'a'}, frozenset({5, 6}))))"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert fresh == stable_digest(
            ("x", 3, {2: "b", 1: "a"}, frozenset({5, 6}))
        )

    def test_unordered_containers_are_canonicalized(self):
        assert stable_digest({3, 1, 2}) == stable_digest({1, 2, 3})
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )

    def test_sequences_keep_their_order(self):
        assert stable_digest([1, 2]) != stable_digest([2, 1])

    def test_length_prefix_blocks_concatenation_aliasing(self):
        assert stable_digest(("ab",)) != stable_digest(("a", "b"))
        assert stable_digest("12") != stable_digest(12)

    def test_dataclasses_encode_structurally(self):
        first = Message(MessageId(0, 0), "a")
        assert stable_digest(first) == stable_digest(
            Message(MessageId(0, 0), "a")
        )
        assert stable_digest(first) != stable_digest(
            Message(MessageId(0, 1), "a")
        )
        assert stable_digest(first) != stable_digest(
            Message(MessageId(0, 0), "b")
        )


class TestRunFingerprint:
    """SimulationRun.fingerprint pins exactly the forkable state."""

    def test_identical_prefixes_agree(self):
        first, second = started_run(), started_run()
        for _ in range(3):
            first.advance(0)
            second.advance(0)
        assert first.fingerprint() == second.fingerprint()

    def test_fork_preserves_the_fingerprint(self):
        run = started_run()
        run.advance(0)
        assert run.fork().fingerprint() == run.fingerprint()

    def test_diverging_choices_disagree(self):
        first, second = started_run(), started_run()
        assert len(first.choices()) >= 2
        first.advance(0)
        second.advance(1)
        assert first.fingerprint() != second.fingerprint()

    def test_converging_interleavings_agree(self):
        # Two independent receptions commute: taking them in either
        # order reaches the same global state — the convergence the
        # dedup engine exists to collapse.  Find a commuting pair by
        # probing the actual choice tree rather than hardcoding indices.
        base = started_run()
        while True:
            choices = base.choices()
            assert choices, "no commuting pair found before quiescence"
            found = None
            for i in range(len(choices)):
                for j in range(i + 1, len(choices)):
                    one, other = base.fork(), base.fork()
                    one.advance(i)
                    one.advance(
                        next(
                            x
                            for x, c in enumerate(one.choices())
                            if c == choices[j]
                        )
                    )
                    other.advance(j)
                    other.advance(
                        next(
                            x
                            for x, c in enumerate(other.choices())
                            if c == choices[i]
                        )
                    )
                    if settled_fingerprint(one) == settled_fingerprint(
                        other
                    ):
                        found = (one, other)
                        break
                if found:
                    break
            if found:
                one, other = found
                # the traces differ even though the states agree
                assert (
                    one.trace.execution().steps
                    != other.trace.execution().steps
                )
                return
            base.advance(0)

    def test_depth_is_part_of_the_fingerprint(self):
        # Crash schedules are indexed by decision count, so a state is
        # only interchangeable with another at the same depth.
        run = started_run()
        before = run.fingerprint()
        run.advance(0)
        assert run.fingerprint() != before


class TestTagAliasing:
    """Structurally distinct values must never share an encoding.

    Regression tests for the tag-aliasing bug where tuples and lists
    shared the ``b"("`` tag, so ``["a"]`` and ``("a",)`` collided by
    construction — directly contradicting the docstring's "structurally
    distinct values never collide" and silently merging dedup-cache
    states that differ only in a list-vs-tuple script entry.
    """

    def test_list_and_tuple_do_not_collide(self):
        assert stable_digest(["a"]) != stable_digest(("a",))
        assert stable_digest([]) != stable_digest(())
        assert stable_digest([1, 2]) != stable_digest((1, 2))

    def test_nested_aliasing_blocked(self):
        assert stable_digest({"k": ["a"]}) != stable_digest({"k": ("a",)})
        assert stable_digest((["x"],)) != stable_digest((("x",),))
        assert stable_digest([("a",)]) != stable_digest((["a"],))

    def test_equal_structures_still_agree(self):
        assert stable_digest(["a", 1]) == stable_digest(["a", 1])
        assert stable_digest((["a"], ("b",))) == stable_digest(
            (["a"], ("b",))
        )

    def test_set_elements_sort_by_encoding_not_value(self):
        # mixed-type sets canonicalize by sorting element *encodings*
        # (self-delimiting byte strings) — no cross-type comparisons
        assert stable_digest({1, "a", (2,)}) == stable_digest(
            {(2,), 1, "a"}
        )
        assert stable_digest({("a", 1), ("b", 2)}) == stable_digest(
            {("b", 2), ("a", 1)}
        )


class TestPidCanonicalizerSingleUse:
    """A canonicalizer encodes exactly one state; reuse must raise."""

    def test_second_top_level_encode_raises(self):
        canon = PidCanonicalizer((0, 1))
        canon.encode(("x", "y"))
        canon.seal()
        with pytest.raises(RuntimeError, match="single-use"):
            canon.encode(("x", "y"))
        with pytest.raises(RuntimeError, match="single-use"):
            canon.digest(encoding("z"), ["z"])

    def test_reuse_would_make_encodings_history_dependent(self):
        """The miscollapse the seal prevents, demonstrated.

        Token numbers are first-appearance ordinals, so on a fresh
        instance they are a pure function of the encoded state.  A
        reused instance carries the previous state's token table: the
        same state then encodes differently depending on what was
        encoded before it (and states that merely share content
        ordinals with the instance's history become indistinguishable
        from differently-valued ones) — the digest stops being a
        function of the state, and the orbit cache splits or merges on
        encoding history instead of state identity.
        """
        state = ("y", "z")
        fresh = PidCanonicalizer((0, 1)).encode(state)
        # simulate the forbidden reuse: encode another state first on
        # the same (unsealed) instance, then the state under test
        reused = PidCanonicalizer((0, 1))
        reused.encode(("x",))  # history: "x" takes token 0
        assert reused.encode(state) != fresh
        # with enforcement, the dedup layer can never observe this:
        # canonical_state_digest seals its canonicalizer per call, so
        # back-to-back digests of one run are reproducible
        run = started_run()
        run.choices()
        assert run.canonical_state_digest((0, 1)) == (
            run.canonical_state_digest((0, 1))
        )


#: A symmetric search whose scripts hold sets: each sender's set shares
#: one element with its second broadcast, so the tokens the set's
#: elements take decide how that broadcast encodes.
HASH_SEED_PROBE = """
import json
from repro.broadcasts import SendToAllBroadcast
from repro.runtime import Simulator
from repro.runtime.explorer import channels_property, explore_schedules

simulator = Simulator(2, SendToAllBroadcast)
scripts = {
    0: [frozenset({"x", "y", "z"}), "y"],
    1: [frozenset({"u", "v", "w"}), "w"],
}
result = explore_schedules(
    simulator, scripts, channels_property(),
    dedup=True, sleep_sets=True, symmetry="rename", max_schedules=100,
)
run = simulator.begin(scripts)
run.choices()
run.advance(0)
run.choices()
print(json.dumps([result.to_json(), run.orbit_key(((0, 1),))]))
"""


class TestHashSeedIndependence:
    """Orbit keys of states holding sets do not depend on ``hash()``.

    Set elements used to take their content tokens in hash-iteration
    order, so the same search explored a different number of orbits
    under some ``PYTHONHASHSEED`` values.
    """

    def test_searches_agree_across_hash_seeds(self):
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", HASH_SEED_PROBE],
                stdout=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            for seed in range(5)
        ]
        outputs = []
        for proc in procs:
            with proc:
                outputs.append(proc.communicate()[0])
            assert proc.returncode == 0
        first = outputs[0]
        assert json.loads(first)[0]["orbit_encodings"] > 0
        assert all(output == first for output in outputs)


class TestOrbitDigest:
    """Canonical labelling: one digest per orbit, few encodings."""

    @staticmethod
    def _encode_for(states):
        """An encode() over explicit per-pid leaf values."""

        def encode(perm):
            relabeled = [None] * len(states)
            for pid, value in enumerate(states):
                relabeled[perm[pid]] = value
            # injective content renaming: first-appearance tokens over
            # the relabeled order, like PidCanonicalizer
            tokens: dict = {}
            image = []
            for value in relabeled:
                tokens.setdefault(value, len(tokens))
                image.append(tokens[value])
            return stable_digest(tuple(image))

        return encode

    def test_separating_profiles_cost_one_encoding(self):
        # distinct invariants per pid → a single residual candidate
        digest, perm, encodings = orbit_digest(
            [(0, 1, 2)], 3, lambda p: ("deg", p), self._encode_for("abc")
        )
        assert encodings == 1
        assert sorted(perm) == [0, 1, 2]

    def test_equal_profiles_search_the_residual_group(self):
        digest, perm, encodings = orbit_digest(
            [(0, 1)], 3, lambda p: "same", self._encode_for("ab")
        )
        assert encodings == 2  # 2! candidates within the cell

    def test_orbit_related_states_share_the_digest(self):
        # "ab" and "ba" are images of each other under the 0<->1 swap
        # (plus the injective renaming); equal-profile pids force the
        # residual search, which lands both on the same canonical key
        profile = lambda p: "same"
        one = orbit_digest([(0, 1)], 2, profile, self._encode_for("ab"))
        other = orbit_digest([(0, 1)], 2, profile, self._encode_for("ba"))
        assert one[0] == other[0]

    def test_profiles_gate_candidates_equivariantly(self):
        # give each pid its value as profile: the relabeled states
        # carry the profiles with them, so the two states still meet
        profile_ab = lambda p: "ab"[p]
        profile_ba = lambda p: "ba"[p]
        one = orbit_digest([(0, 1)], 2, profile_ab, self._encode_for("ab"))
        other = orbit_digest([(0, 1)], 2, profile_ba, self._encode_for("ba"))
        assert one[0] == other[0]
        assert one[2] == other[2] == 1  # profiles separate: 1 encoding

    def test_no_groups_is_the_identity_encoding(self):
        encode = self._encode_for("ab")
        digest, perm, encodings = orbit_digest([], 2, lambda p: p, encode)
        assert digest == encode((0, 1))
        assert perm == (0, 1)
        assert encodings == 1

    def test_run_orbit_key_merges_swapped_scripts(self):
        # integration: two initial states related by the 0<->1 swap
        # (scripts exchanged, contents renamed) share the orbit key
        one = started_run(scripts={0: ["a"], 1: ["b"]})
        other = started_run(scripts={0: ["b"], 1: ["a"]})
        one.choices(), other.choices()
        groups = ((0, 1),)
        key_one = one.orbit_key(groups)
        key_other = other.orbit_key(groups)
        assert key_one[0] == key_other[0]
        # the digest is the canonical encoding under the witness perm
        assert key_one[0] == one.canonical_state_digest(key_one[1])

    def test_run_orbit_key_distinguishes_genuinely_different_states(self):
        one = started_run(scripts={0: ["a"], 1: ["b"]})
        other = started_run(scripts={0: ["a", "b"], 1: ["c"]})
        one.choices(), other.choices()
        groups = ((0, 1),)
        assert one.orbit_key(groups)[0] != other.orbit_key(groups)[0]


# ---------------------------------------------------------------------------
# Cached component digests vs the from-scratch encoding
# ---------------------------------------------------------------------------
#
# Every component caches its encoding and digest and re-encodes only what
# changed.  The oracle below is the from-scratch definition of each
# digest: one ``stable_digest`` over the component's whole live state.
# The cached digests must equal it byte for byte, at every node.


def scratch_process_digest(runtime):
    return stable_digest(
        "process", runtime.pid, list(runtime.journal_entries())
    )


def scratch_network_digest(network):
    return stable_digest(
        "network",
        [(item.p2p, item.payload) for item in network.deliverable(None)],
    )


def scratch_registry_digest(registry):
    return stable_digest(
        "registry",
        registry.k,
        [
            stable_digest(
                "ksa", name, obj.k, obj.proposals, obj.decisions
            )
            for name, obj in sorted(registry.objects.items())
        ],
    )


def scratch_run_digest(run):
    n = run.simulator.n
    return stable_digest(
        "run",
        run.steps,
        sorted(run.alive),
        [scratch_process_digest(run.runtimes[p]) for p in range(n)],
        scratch_network_digest(run.network),
        scratch_registry_digest(run.registry),
        run.factory.counters(),
        {
            p: None if m is None else m.uid
            for p, m in run.last_sync_message.items()
        },
        run.remaining,
    )


#: The cached implementation, kept before any test wraps it.
cached_run_digest = SimulationRun.fingerprint


def assert_cached_digests_match(run):
    """Compare every cached digest of ``run`` with the oracle.

    The cached run digest is taken first, so the comparison sees the
    caches exactly as the explorer left them.
    """
    assert cached_run_digest(run) == scratch_run_digest(run)
    for runtime in run.runtimes.values():
        assert runtime.fingerprint() == scratch_process_digest(runtime)
        assert runtime.journal_shape == tuple(
            entry[0] for entry in runtime.journal_entries()
        )
    assert run.network.fingerprint() == scratch_network_digest(run.network)
    assert run.registry.fingerprint() == scratch_registry_digest(
        run.registry
    )


@pytest.fixture
def checked_fingerprints(monkeypatch):
    """Check every ``SimulationRun.fingerprint`` call against the oracle."""
    tally = {"runs": 0}

    def checked(self):
        digest = cached_run_digest(self)
        assert_cached_digests_match(self)
        tally["runs"] += 1
        return digest

    monkeypatch.setattr(SimulationRun, "fingerprint", checked)
    return tally


#: The templated implementation, kept before any test wraps it.
cached_orbit_key = SimulationRun.orbit_key


@pytest.fixture
def checked_orbit_keys(monkeypatch):
    """Check every ``SimulationRun.orbit_key`` call against the oracle."""
    tally = {"keys": 0}

    def checked(self, groups):
        key = cached_orbit_key(self, groups)
        assert key == canon_oracle.orbit_key(self, groups)
        tally["keys"] += 1
        return key

    monkeypatch.setattr(SimulationRun, "orbit_key", checked)
    return tally


#: The three families: send-to-all, uniform reliable broadcast and the
#: k-stepped broadcast (the latter proposes to k-SA objects, so the
#: registry changes along the search).
FAMILIES = {
    "s2a": (
        3,
        SendToAllBroadcast,
        {},
        {0: ["a"], 1: ["b"]},
        lambda: spec_property(
            TotalOrderBroadcastSpec(), assume_complete=False
        ),
    ),
    "urb": (
        2,
        UniformReliableBroadcast,
        {},
        {0: ["a"], 1: ["b"]},
        lambda: channels_property(assume_complete=False),
    ),
    "kst": (
        2,
        KSteppedKsaBroadcast,
        {"k": 1},
        {0: ["a"], 1: ["b"]},
        lambda: spec_property(
            KSteppedBroadcastSpec(1), assume_complete=False
        ),
    ),
}

#: One crash per family, inside the explored trees.
CRASHES = {"s2a": {2: 4}, "urb": {0: 3}, "kst": {1: 3}}

#: Crashed symmetric searches: the victim is not a sender, so the two
#: senders stay interchangeable (urb needs a third process for that,
#: and a budget to stay small).
SYMMETRIC_CRASHES = {
    "s2a": (
        Simulator(3, SendToAllBroadcast),
        {"crash_schedule": CrashSchedule(at_step={2: 4})},
    ),
    "urb": (
        Simulator(3, UniformReliableBroadcast),
        {
            "crash_schedule": CrashSchedule(at_step={2: 3}),
            "max_schedules": 300,
        },
    ),
}


def family_config(family):
    n, algorithm, options, scripts, prop = FAMILIES[family]
    return Simulator(n, algorithm, **options), scripts, prop()


class TestCachedDigestsMatchScratch:
    """Dedup+sleep explorations: cached == from-scratch at every node."""

    @pytest.mark.parametrize("crash", [False, True], ids=["none", "crash"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_explored_node(self, family, crash, checked_fingerprints):
        simulator, scripts, prop = family_config(family)
        result = explore_schedules(
            simulator,
            scripts,
            prop,
            dedup=True,
            sleep_sets=True,
            crash_schedule=(
                CrashSchedule(at_step=CRASHES[family]) if crash else None
            ),
        )
        assert result.states_seen > 0
        assert checked_fingerprints["runs"] >= result.states_seen

    def test_symmetric_search(self, checked_fingerprints, checked_orbit_keys):
        for family, crash in [
            ("s2a", False),
            ("s2a", True),
            ("urb", False),
            ("urb", True),
        ]:
            simulator, scripts, prop = family_config(family)
            options = {}
            if crash:
                # a crash pins its victim: keep two interchangeable senders
                simulator, options = SYMMETRIC_CRASHES[family]
            before = checked_orbit_keys["keys"]
            result = explore_schedules(
                simulator,
                scripts,
                prop,
                dedup=True,
                sleep_sets=True,
                symmetry="rename",
                **options,
            )
            assert result.exhausted or crash
            assert result.states_merged_symmetry > 0
            assert checked_orbit_keys["keys"] - before >= result.states_seen
        assert checked_fingerprints["runs"] > 0

    def test_unordered_contents_take_the_slow_path(self, checked_orbit_keys):
        # a component holding a set has a template like any other, in
        # which the set is one group slot
        simulator = Simulator(2, SendToAllBroadcast)
        scripts = {
            0: [frozenset({"x", "y"}), "y"],
            1: [frozenset({"u", "v"}), "v"],
        }
        run = simulator.begin(scripts)
        run.advance(0)  # p0 starts broadcasting its set
        run.advance(0)  # and sends it
        assert not OrbitTemplate(run.runtimes[0].journal_entries()).flat
        assert OrbitTemplate(run.runtimes[1].journal_entries()).flat
        (item,) = run.network.deliverable()
        assert not OrbitTemplate(((item.p2p, item.payload),)).flat
        for permutation in [(0, 1), (1, 0)]:
            assert run.canonical_state_digest(permutation) == (
                canon_oracle.canonical_state_digest(run, permutation)
            )
        result = explore_schedules(
            simulator,
            scripts,
            channels_property(assume_complete=False),
            dedup=True,
            sleep_sets=True,
            symmetry="rename",
            max_schedules=200,
        )
        assert checked_orbit_keys["keys"] >= result.states_seen > 0

    @pytest.mark.parametrize(
        "algorithm, k, adopts",
        [(TrivialKsaBroadcast, 2, False), (FirstKKsaBroadcast, 1, True)],
        ids=["trivial-ksa", "first-k"],
    )
    def test_ksa_registry_under_every_permutation(
        self, algorithm, k, adopts, monkeypatch
    ):
        # the registry keeps no template: its proposals and decisions
        # (messages holding a set or a tuple here) are encoded per call,
        # into the token table the templated components fill from.
        # trivial-ksa proposes on one object per message; first-k with
        # k=1 shares one, so a later proposer adopts an earlier value
        # and the decisions differ from the proposals
        permutations = list(itertools.permutations(range(3)))
        tally = {"nodes": 0, "decided": 0, "adopted": 0}

        def checked(self):
            for permutation in permutations:
                assert self.canonical_state_digest(permutation) == (
                    canon_oracle.canonical_state_digest(self, permutation)
                )
            tally["nodes"] += 1
            decisions = [
                (obj.proposals[p], value)
                for obj in self.registry.objects.values()
                for p, value in obj.decisions.items()
            ]
            tally["decided"] += bool(decisions)
            tally["adopted"] += any(mine != value for mine, value in decisions)
            return cached_run_digest(self)

        monkeypatch.setattr(SimulationRun, "fingerprint", checked)
        result = explore_schedules(
            Simulator(3, algorithm, k=k),
            {0: [frozenset({"a", "b"})], 1: [("b", "a")]},
            lambda result: [],
            dedup=True,
            sleep_sets=True,
            max_schedules=30,
        )
        assert tally["nodes"] >= result.states_seen > 300
        assert tally["decided"] > 300
        assert (tally["adopted"] > 300) == adopts

    def test_resume_from_checkpoint(self, checked_fingerprints, tmp_path):
        simulator, scripts, prop = family_config("s2a")
        options = dict(
            dedup=True,
            sleep_sets=True,
            crash_schedule=CrashSchedule(at_step=CRASHES["s2a"]),
        )
        reference = explore_schedules(simulator, scripts, prop, **options)
        path = os.path.join(tmp_path, "search.ckpt")
        first = explore_schedules(
            *family_config("s2a"),
            cancel=Countdown(reference.schedules_explored // 2),
            checkpoint_to=path,
            checkpoint_every=1,
            **options,
        )
        assert first.interrupted
        before = checked_fingerprints["runs"]
        resumed = explore_schedules(
            *family_config("s2a"), resume_from=path, **options
        )
        assert checked_fingerprints["runs"] > before
        assert_identical(resumed, reference)


#: The ``orbit-checkpoint`` search of the end-to-end benchmark.
THREE_SENDERS = (
    Simulator(3, SendToAllBroadcast),
    {0: ["a"], 1: ["b"], 2: ["c"]},
    lambda: spec_property(SendToAllSpec()),
)

#: Set contents: each sender's set shares an element with the next one
#: (``SET_SCRIPTS`` of ``benchmarks/bench_explorer.py``).
SET_SCRIPTS = {
    0: [frozenset({"a", "b"})],
    1: [frozenset({"b", "c"})],
    2: [frozenset({"c", "a"})],
}

#: Symmetric searches whose keyed states the key layouts must partition
#: alike: the 3-sender search and the rename rows of
#: ``benchmarks/run_explorer_bench.py``, then the set-content scripts.
PARTITION_SEARCHES = {
    "three-senders": (*THREE_SENDERS, {"sleep_sets": True}),
    "bench-n3-depth8": (
        Simulator(3, SendToAllBroadcast),
        {0: ["a"], 1: ["b"]},
        lambda: channels_property(assume_complete=False),
        {},
    ),
    "bench-n3-depth8-sleep": (
        Simulator(3, SendToAllBroadcast),
        {0: ["a"], 1: ["b"]},
        lambda: channels_property(assume_complete=False),
        {"sleep_sets": True},
    ),
    "bench-totalorder-n2": (
        Simulator(2, SendToAllBroadcast),
        {0: ["x"], 1: ["y"]},
        lambda: spec_property(
            TotalOrderBroadcastSpec(), assume_complete=False
        ),
        {"sleep_sets": True},
    ),
    "set-scripts": (
        Simulator(3, SendToAllBroadcast),
        SET_SCRIPTS,
        lambda: channels_property(assume_complete=False),
        {"sleep_sets": True},
    ),
}


def assert_same_partition(pairs):
    """``pairs`` holds ``(key, other key)`` per item: each key must
    determine the other, so both split the items alike."""
    assert len(set(pairs)) == len({a for a, _ in pairs})
    assert len(set(pairs)) == len({b for _, b in pairs})


class TestComponentDigestKeys:
    """The key over component digests, memoized across the search.

    It hashes other bytes than the whole canonical image of a state.
    Under every permutation a search tries, its digest must determine
    the whole-image digest and be determined by it: component digests
    are equal exactly when component images are.  The state keys, the
    minimum over the candidates, must then split the keyed states alike
    too — except where the canonical image is no group action.  A set's
    members take their tokens in the order of their *raw* encodings,
    which hold raw pids and raw contents, so two states of one orbit
    may share only some of their images; which of the two minima lands
    in the shared part depends on the hash.  Both keys merge only
    states with a common image, but on set contents they may merge
    different pairs, so the state partition is not compared there.
    """

    @pytest.mark.parametrize("search", sorted(PARTITION_SEARCHES))
    def test_same_partition_as_the_whole_image(self, search, monkeypatch):
        simulator, scripts, prop, options = PARTITION_SEARCHES[search]
        keys, digests = [], []
        cached_digest = SimulationRun.canonical_state_digest

        def paired_digest(self, permutation):
            digest = cached_digest(self, permutation)
            whole = canon_oracle.whole_image_digest(self, permutation)
            digests.append((digest, whole))
            return digest

        def paired_key(self, groups):
            # the whole-image key minimizes over the same candidates
            start = len(digests)
            key = cached_orbit_key(self, groups)
            keys.append((key[0], min(whole for _, whole in digests[start:])))
            return key

        monkeypatch.setattr(
            SimulationRun, "canonical_state_digest", paired_digest
        )
        monkeypatch.setattr(SimulationRun, "orbit_key", paired_key)
        result = explore_schedules(
            simulator,
            scripts,
            prop(),
            dedup=True,
            symmetry="rename",
            max_schedules=10**6,
            **options,
        )
        assert result.exhausted
        assert result.states_merged_symmetry > 0
        assert len(keys) >= result.states_seen
        assert len(digests) >= len(keys)
        assert_same_partition(digests)
        if search != "set-scripts":
            assert_same_partition(keys)

    @pytest.mark.parametrize(
        "algorithm, k",
        [(TrivialKsaBroadcast, 2), (FirstKKsaBroadcast, 1)],
        ids=["trivial-ksa", "first-k"],
    )
    def test_same_partition_with_a_registry(self, algorithm, k, monkeypatch):
        # the configurations of test_ksa_registry_under_every_permutation,
        # every pid interchangeable: registries holding set and tuple
        # contents, encoded into the table the components draw from
        permutations = list(itertools.permutations(range(3)))
        keys, digests = [], []

        def paired(self):
            for permutation in permutations:
                digests.append(
                    (
                        self.canonical_state_digest(permutation),
                        canon_oracle.whole_image_digest(self, permutation),
                    )
                )
            groups = ((0, 1, 2),)
            keys.append(
                (
                    cached_orbit_key(self, groups)[0],
                    canon_oracle.orbit_key(
                        self, groups, canon_oracle.whole_image_digest
                    )[0],
                )
            )
            return cached_run_digest(self)

        monkeypatch.setattr(SimulationRun, "fingerprint", paired)
        result = explore_schedules(
            Simulator(3, algorithm, k=k),
            {0: [frozenset({"a", "b"})], 1: [("b", "a")]},
            lambda result: [],
            dedup=True,
            sleep_sets=True,
            max_schedules=30,
        )
        assert len(keys) >= result.states_seen > 300
        assert_same_partition(digests)
        assert_same_partition(keys)

    def test_the_shared_memo_changes_no_key(self, monkeypatch):
        # at every keyed node, the key through the memo the search has
        # filled equals the key of a fork that starts an empty one
        tally = {"keys": 0}

        def checked(self, groups):
            key = cached_orbit_key(self, groups)
            fork = self.fork()
            fork._orbit_memo = {}
            assert cached_orbit_key(fork, groups) == key
            tally["keys"] += 1
            return key

        monkeypatch.setattr(SimulationRun, "orbit_key", checked)
        simulator, scripts, prop = THREE_SENDERS
        result = explore_schedules(
            simulator,
            scripts,
            prop(),
            dedup=True,
            sleep_sets=True,
            symmetry="rename",
            max_schedules=10**12,
        )
        assert result.exhausted
        # the orbits among the search's branch points: the depth-6 cut
        # of this tree is held to the oracle's count in
        # test_branch_points.py
        assert tally["keys"] >= result.states_seen == 8088


class TestPinnedDigests:
    """Golden digests computed by the from-scratch encoder.

    The explorer's memo keys and the ``raw`` keys of checkpointed dedup
    caches are these digests; any drift in the encoding would silently
    orphan them, so it must fail here instead.
    """

    GOLDEN = {
        "s2a": (
            "edbfae9b522fbc00ddd03a77c3da73a5",
            [1, 0, 1, 1, 1, 1, 3],
            "e4a115725860177e7d82c25deded861c",
        ),
        "urb": (
            "7d564ed27e2598f69dcac7315b2bf8ec",
            [1, 0, 1, 1, 1, 0, 4, 2, 1, 0],
            "3f2acb8fabeda54e78714209c04956b7",
        ),
        "kst": (
            "6ab897925c9afee6b9257f982f3f062b",
            [1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0],
            "c0ac545df29ddb6e5d3a2876cf2db3a5",
        ),
    }

    #: k-stepped broadcasts twice from p0, so the prefix leaves a
    #: script entry unstarted next to a decided k-SA object.
    SCRIPTS = {"kst": {0: ["a", "c"], 1: ["b"]}}

    @pytest.mark.parametrize("family", sorted(GOLDEN))
    def test_initial_and_guided_prefix(self, family):
        initial, guide, prefix = self.GOLDEN[family]
        simulator, scripts, _ = family_config(family)
        run = simulator.begin(self.SCRIPTS.get(family, scripts))
        run.choices()
        assert run.fingerprint() == initial
        for index in guide:
            run.choices()
            run.advance(index)
        run.choices()
        assert run.fingerprint() == prefix
        assert scratch_run_digest(run) == prefix

    #: ``(n, algorithm, scripts, guide)`` of the pinned orbit keys: all
    #: pids form one symmetric group, and the guides stop with messages
    #: in flight and every journal non-empty.
    ORBIT_RUNS = {
        "s2a": (
            3,
            SendToAllBroadcast,
            {0: ["a"], 1: ["b"], 2: ["c"]},
            [2, 0, 1, 1, 3, 0, 2, 1],
        ),
        "urb": (
            2,
            UniformReliableBroadcast,
            {0: ["a"], 1: ["b"]},
            [1, 0, 1, 1, 1, 0, 4, 2, 1, 0],
        ),
    }

    #: ``orbit_key`` as ``(digest, permutation, encodings)``, initially
    #: and after the guide, over the whole state's canonical image
    #: (:func:`canon_oracle.whole_image_digest`): the key's bytes before
    #: component digests.
    ORBIT_GOLDEN = {
        "s2a": (
            ("c1c4d53a1c0cd978ef2e7c8353c59881", (0, 1, 2), 6),
            ("9c3c92d74adc293c7832df867812a1e5", (0, 2, 1), 1),
        ),
        "urb": (
            ("f5db6958b635a2de89384fb08030cb4b", (0, 1), 2),
            ("cfc50feac330001d10474be9474caec0", (1, 0), 1),
        ),
    }

    #: The same keys over component digests, the layout of
    #: ``SimulationRun.orbit_key``: other bytes, the same witnesses.
    COMPONENT_GOLDEN = {
        "s2a": (
            ("a54179e2bab57422ecb0f738499d5c1b", (0, 1, 2), 6),
            ("5626b69ac66d151c42d9da4cc15727f1", (0, 2, 1), 1),
        ),
        "urb": (
            ("be8522f41df69e43a5b6c1c546c90731", (0, 1), 2),
            ("9455837bed7d498ed813204e5964c02d", (1, 0), 1),
        ),
    }

    @pytest.mark.parametrize("family", sorted(ORBIT_GOLDEN))
    def test_orbit_keys(self, family):
        n, algorithm, scripts, guide = self.ORBIT_RUNS[family]
        groups = (tuple(range(n)),)
        run = Simulator(n, algorithm).begin(scripts)
        run.choices()
        keys = [run.orbit_key(groups)]
        whole = [
            canon_oracle.orbit_key(run, groups, canon_oracle.whole_image_digest)
        ]
        for index in guide:
            run.choices()
            run.advance(index)
        run.choices()
        assert len(run.network) > 0
        keys.append(run.orbit_key(groups))
        whole.append(
            canon_oracle.orbit_key(run, groups, canon_oracle.whole_image_digest)
        )
        assert tuple(keys) == self.COMPONENT_GOLDEN[family]
        assert tuple(whole) == self.ORBIT_GOLDEN[family]
        assert canon_oracle.orbit_key(run, groups) == keys[-1]

    def test_checkpoint_from_the_scratch_encoder_refused(self, tmp_path):
        """A dedup checkpoint written before branch-point keying.

        ``tests/data/s2a_n3_crash_dedup_sleep.ckpt`` was cut a third of
        the way through a dedup+sleep search and written by the
        from-scratch encoder, when the cache keyed every node.  Its
        configuration digest lacks the ``cache_keys`` facet, so a resume
        is refused rather than continued against a cache that holds
        terminal entries today's search never stores.  The encoder's
        promise still holds: every cache key equals today's
        ``fingerprint()`` of the state its entry's ``base`` path reaches.
        """
        source = os.path.join(
            os.path.dirname(__file__),
            os.pardir,
            "data",
            "s2a_n3_crash_dedup_sleep.ckpt",
        )
        path = os.path.join(tmp_path, "search.ckpt")
        shutil.copy(source, path)
        crashes = CrashSchedule(at_step=CRASHES["s2a"])
        with pytest.raises(CheckpointError, match="configuration"):
            explore_schedules(
                *family_config("s2a"),
                dedup=True,
                sleep_sets=True,
                crash_schedule=crashes,
                resume_from=path,
            )
        simulator, scripts, _ = family_config("s2a")
        simulator.atomic_local = True
        cache = read_checkpoint(source)["cache"]
        assert len(cache) > 100
        for key, entry in cache:
            run = simulator.begin(scripts, crash_schedule=crashes)
            for index in entry["base"]:
                run.choices()
                run.advance(index)
            run.choices()
            assert run.fingerprint() == key == entry["raw"]


class FingerprintMachine(RuleBasedStateMachine):
    """Advance, fork, probe and digest runs in arbitrary order.

    Runs are built without ``atomic_local``, so forks taken while an
    operation is in progress go through journal replay.  Digests are
    checked only on the ``check`` rule and orbit keys only on the
    ``orbit`` rule, so several changes accumulate between two cached
    digests or two template extensions.
    """

    @initialize(
        family=st.sampled_from(sorted(FAMILIES)), crash=st.booleans()
    )
    def setup(self, family, crash):
        simulator, scripts, _ = family_config(family)
        self.runs = [
            simulator.begin(
                scripts,
                crash_schedule=(
                    CrashSchedule(at_step=CRASHES[family]) if crash else None
                ),
            )
        ]
        self.current = 0
        self.replayed = 0

    @property
    def run(self):
        return self.runs[self.current]

    @precondition(lambda self: bool(self.run.choices()))
    @rule(index=st.integers(0, 7))
    def advance(self, index):
        choices = self.run.choices()
        self.run.advance(index % len(choices))

    @precondition(lambda self: len(self.runs) < 4)
    @rule()
    def fork(self):
        clone = self.run.fork()
        self.replayed += clone.replayed_steps
        self.runs.append(clone)

    @rule(which=st.integers(0, 3))
    def switch(self, which):
        self.current = which % len(self.runs)

    @rule()
    def result(self):
        self.run.result()

    @rule()
    def check(self):
        assert_cached_digests_match(self.run)

    @rule()
    def orbit(self):
        # every pid declared interchangeable: the key must match the
        # whole-state oracle whatever forks share the templates
        groups = (tuple(range(self.run.simulator.n)),)
        assert self.run.orbit_key(groups) == canon_oracle.orbit_key(
            self.run, groups
        )

    def teardown(self):
        for run in getattr(self, "runs", ()):
            assert_cached_digests_match(run)


TestFingerprintMachine = FingerprintMachine.TestCase
TestFingerprintMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_registry_digest_follows_creation_and_proposals():
    registry = KsaRegistry(2)
    digests = [registry.fingerprint()]
    registry.get("x")  # creating an instance changes the state
    digests.append(registry.fingerprint())
    registry.propose("x", 0, "a")
    digests.append(registry.fingerprint())
    clone = registry.fork()
    assert clone.fingerprint() == digests[-1]
    clone.propose("x", 1, "b")
    assert clone.fingerprint() == scratch_registry_digest(clone)
    assert registry.fingerprint() == digests[-1]
    assert len(set(digests)) == len(digests)
    assert digests[-1] == scratch_registry_digest(registry)


def test_journal_replay_fork_shares_the_caches():
    """A mid-operation fork rebuilds by replay and keeps the digests."""
    simulator, scripts, _ = family_config("urb")
    run = simulator.begin(scripts)
    run.advance(0)  # a broadcast start: p0's operation is live
    run.advance(0)
    assert run.runtimes[0].busy
    digest = run.fingerprint()
    clone = run.fork()
    assert clone.replayed_steps > 0
    assert clone.runtimes[0]._digest == run.runtimes[0]._digest
    assert clone.fingerprint() == digest
    clone.advance(0)
    assert_cached_digests_match(clone)
    assert run.fingerprint() == digest
