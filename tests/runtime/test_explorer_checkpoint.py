"""Checkpoint/resume: interruption loses no work and changes no result.

The contract under test: kill an exploration at *any* node entry, and
resuming from its checkpoint produces a result construction-identical
to an uninterrupted run — same terminals, same violations (digest and
guides), same counters, same per-depth maps — on every engine variant
(plain DFS, dedup, sleep sets, symmetry, their composition, and the
sharded parallel front-end).  A resume re-runs its checkpointed path
without counting it, so ``events_executed``/``events_replayed`` match
too.  The worker count is
held to a stricter contract: a ``workers=N`` run equals the sequential
run field for field, apart from ``workers``.

The small n=2 configurations are cut at *every* cancellation boundary
(every node entry is a poll point); the depth-8 n=3 showcase is cut at
a stride, keeping the suite fast while still crossing checkpoint
boundaries deep in the tree.
"""

import inspect
import multiprocessing
import os
import shutil
import threading

import pytest

import repro.runtime.explorer as explorer_module
from repro.broadcasts import SendToAllBroadcast, UniformReliableBroadcast
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.checkpoint import (
    CanonicalJSON,
    CheckpointError,
    canonical_json,
    read_checkpoint,
    shard_checkpoint_path,
    write_checkpoint,
)
from repro.runtime.explorer import (
    _cache_to_json,
    channels_property,
    combine_properties,
    explore_schedules,
    spec_property,
)
from repro.specs import SendToAllSpec, TotalOrderBroadcastSpec

from .test_explorer_engines import worker_independent


def s2a_simulator(n=2):
    return Simulator(n, lambda pid, n_: SendToAllBroadcast(pid, n_))


def violating_property():
    return spec_property(
        TotalOrderBroadcastSpec(), assume_complete=False
    )


def clean_property():
    return combine_properties(
        spec_property(SendToAllSpec()), channels_property()
    )


class Countdown:
    """A cancel token that fires on the Nth ``is_set`` poll."""

    def __init__(self, fire_after: int) -> None:
        self.remaining = fire_after

    def is_set(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0


class PollCounter:
    """A cancel token that never fires but counts poll points."""

    def __init__(self) -> None:
        self.count = 0

    def is_set(self) -> bool:
        self.count += 1
        return False


#: Every engine-variant kwarg set the identity contract covers.
VARIANTS = {
    "plain": {},
    "dedup": {"dedup": True},
    "sleep": {"sleep_sets": True},
    "dedup-sleep": {"dedup": True, "sleep_sets": True},
    "composed": {"dedup": True, "sleep_sets": True, "symmetry": "rename"},
}

#: Fields that must survive an interrupt/resume cycle bit-for-bit.
IDENTITY = (
    "schedules_explored",
    "terminal_schedules",
    "exhausted",
    "max_depth_seen",
    "aborted",
    "states_seen",
    "states_deduped",
    "states_pruned_sleep",
    "states_merged_symmetry",
    "expansions_by_depth",
    "dedup_hits_by_depth",
    "events_executed",
    "events_replayed",
)


def assert_identical(resumed, reference):
    assert not resumed.interrupted
    for name in IDENTITY:
        assert getattr(resumed, name) == getattr(reference, name), name
    assert resumed.violations_digest() == reference.violations_digest()
    assert [v.guide for v in resumed.violations] == [
        v.guide for v in reference.violations
    ]


def interrupt_and_resume(make_config, path, cut, **kwargs):
    """One kill at poll point ``cut``, then resume runs to completion."""
    simulator, scripts, prop = make_config()
    first = explore_schedules(
        simulator,
        scripts,
        prop,
        cancel=Countdown(cut),
        checkpoint_to=path,
        checkpoint_every=1,
        **kwargs,
    )
    assert first.interrupted
    assert not first.exhausted
    simulator, scripts, prop = make_config()
    resumed = explore_schedules(
        simulator,
        scripts,
        prop,
        checkpoint_to=path,
        resume_from=path,
        **kwargs,
    )
    return resumed


class TestEveryBoundary:
    """n=2: interrupt at every node entry, on every engine variant."""

    @staticmethod
    def make_config():
        return s2a_simulator(), {0: ["a"], 1: ["b"]}, violating_property()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_cut_is_lossless(self, variant, tmp_path):
        kwargs = VARIANTS[variant]
        polls = PollCounter()
        simulator, scripts, prop = self.make_config()
        reference = explore_schedules(
            simulator, scripts, prop, cancel=polls, **kwargs
        )
        assert reference.violations, "config expected to violate"
        path = os.path.join(tmp_path, "search.ckpt")
        for cut in range(polls.count):
            resumed = interrupt_and_resume(
                self.make_config, path, cut, **kwargs
            )
            assert_identical(resumed, reference)
            os.unlink(path)


class TestDepthEightStrided:
    """n=3 depth-8 showcase: strided cuts deep into the tree."""

    @staticmethod
    def make_config():
        return (
            s2a_simulator(3),
            {0: ["a"], 1: ["b"]},
            clean_property(),
        )

    @pytest.mark.parametrize(
        "variant", ["plain", "dedup-sleep", "composed"]
    )
    def test_strided_cuts_are_lossless(self, variant, tmp_path):
        kwargs = VARIANTS[variant]
        polls = PollCounter()
        simulator, scripts, prop = self.make_config()
        reference = explore_schedules(
            simulator, scripts, prop, cancel=polls, **kwargs
        )
        path = os.path.join(tmp_path, "search.ckpt")
        stride = max(1, polls.count // 5)
        for cut in range(0, polls.count, stride):
            resumed = interrupt_and_resume(
                self.make_config, path, cut, **kwargs
            )
            assert_identical(resumed, reference)
            os.unlink(path)


class TestParallelResume:
    """workers=2: per-shard checkpoints, parent-side merge identity."""

    @staticmethod
    def make_config():
        return (
            s2a_simulator(3),
            {0: ["a"], 1: ["b"]},
            clean_property(),
        )

    #: case → (explore kwargs, property factory).  ``capped`` restores
    #: violating shard outcomes and cuts their violations at the budget
    #: by the ordinals stored with them.
    CASES = {
        "plain": (VARIANTS["plain"], clean_property),
        "dedup-sleep": (VARIANTS["dedup-sleep"], clean_property),
        "capped": (
            {"sleep_sets": True, "max_schedules": 10},
            violating_property,
        ),
    }

    @pytest.mark.parametrize(
        "cut, variant",
        [
            (cut, variant)
            for variant in ("plain", "dedup-sleep")
            for cut in (0, 3, 40)
        ]
        + [(40, "capped"), (80, "capped")],
    )
    def test_interrupted_shards_resume(self, cut, variant, tmp_path):
        kwargs, make_property = self.CASES[variant]

        def make_config():
            return s2a_simulator(3), {0: ["a"], 1: ["b"]}, make_property()

        reference = explore_schedules(*make_config(), workers=2, **kwargs)
        sequential = explore_schedules(*make_config(), **kwargs)
        path = os.path.join(tmp_path, "parallel.ckpt")
        resumed = interrupt_and_resume(
            make_config, path, cut, workers=2, **kwargs
        )
        assert_identical(resumed, reference)
        assert resumed.terminal_schedules == sequential.terminal_schedules
        assert resumed.violations == sequential.violations

    def test_complete_checkpoint_short_circuits(self, tmp_path):
        path = os.path.join(tmp_path, "done.ckpt")
        simulator, scripts, prop = self.make_config()
        reference = explore_schedules(
            simulator, scripts, prop, workers=2, checkpoint_to=path
        )
        # the per-shard side files are gone once the merge completed
        assert os.listdir(tmp_path) == ["done.ckpt"]
        # the completed run leaves a complete checkpoint; resuming it
        # reconstructs the stored result without re-exploring
        simulator, scripts, prop = self.make_config()
        resumed = explore_schedules(
            simulator, scripts, prop, workers=2, resume_from=path
        )
        assert resumed == reference

    def test_parent_writes_two_bodies(self, tmp_path, monkeypatch):
        # the shards own their outcomes: the parent writes its marker
        # and the complete result, never a body per merged shard
        path = os.path.join(tmp_path, "parent.ckpt")
        parent_writes = []
        write = explorer_module.write_checkpoint

        def counting(target, body):
            if target == path:
                parent_writes.append(body["complete"])
            write(target, body)

        monkeypatch.setattr(explorer_module, "write_checkpoint", counting)
        result = explore_schedules(
            *self.make_config(), workers=2, checkpoint_to=path
        )
        assert parent_writes == [False, True]
        assert result == explore_schedules(*self.make_config(), workers=2)


class TestCheckpointBodyBytes:
    """Kept per-entry texts write the file the whole cache would.

    A search keeps each cache entry's at-rest text from the checkpoint
    after the entry was stored.  Between two writes of a symmetric
    sleep-set search, entries are added, arrivals merge into orbits and
    less-slept arrivals take slots over; every file must still equal
    the one written from ``_cache_to_json`` over the live cache.
    """

    def test_pre_encoded_value_writes_the_same_file(self, tmp_path):
        value = [["k\u00e9y", {"b": [1, None], "a": "\"q\""}], [2.5, True]]
        body = {"kind": "subtree", "z": {"y": 1, "x": 2}, "cache": value}
        files = []
        for cache in (value, CanonicalJSON(canonical_json(value))):
            files.append(os.path.join(tmp_path, f"{len(files)}.ckpt"))
            write_checkpoint(files[-1], {**body, "cache": cache})
        with open(files[0]) as plain, open(files[1]) as spliced:
            assert plain.read() == spliced.read()
        assert read_checkpoint(files[1])["cache"] == value

    def test_every_write_equals_the_whole_cache_encoding(
        self, tmp_path, monkeypatch
    ):
        path = os.path.join(tmp_path, "search.ckpt")
        reference = os.path.join(tmp_path, "reference.ckpt")
        write = explorer_module.write_checkpoint
        tally = {"writes": 0, "reencoded": 0}
        previous = {}  # cache key → (entry, text) kept at the last write

        def compared(target, body):
            write(target, body)
            # the writing search's live cache and the texts it kept
            cache_text = inspect.currentframe().f_back.f_locals["cache_text"]
            scope = dict(
                zip(
                    cache_text.__code__.co_freevars,
                    (cell.cell_contents for cell in cache_text.__closure__),
                )
            )
            cache, texts = scope["cache"], scope["texts"]
            old_way = dict(body)
            if not body["complete"]:
                old_way["cache"] = _cache_to_json(cache)
            write(reference, old_way)
            with open(target) as got, open(reference) as expected:
                assert got.read() == expected.read()
            for key, (entry, text) in texts.items():
                kept = previous.get(key)
                if kept is not None and kept[0] is not entry:
                    # taken over since the last write: a new text
                    assert entry is cache[key]
                    tally["reencoded"] += text != kept[1]
            previous.clear()
            previous.update(texts)
            tally["writes"] += 1

        monkeypatch.setattr(explorer_module, "write_checkpoint", compared)
        result = explore_schedules(
            s2a_simulator(3),
            {0: ["a"], 1: ["b"]},
            clean_property(),
            checkpoint_to=path,
            checkpoint_every=7,
            **VARIANTS["composed"],
        )
        assert result.states_merged_symmetry > 0
        assert tally["writes"] > 10
        assert tally["reencoded"] > 0
        assert result == explore_schedules(
            s2a_simulator(3),
            {0: ["a"], 1: ["b"]},
            clean_property(),
            **VARIANTS["composed"],
        )


class TestSymmetricResume:
    """A resumed symmetric search reports what an uninterrupted one does.

    The resumed search starts with no remembered orbit keys, so it
    computes keys the interrupted one had already computed; the result,
    ``orbit_encodings`` included, must not show it.  Re-taking the
    checkpointed path counts no event and no verdict either, so the
    whole payload matches, no field exempted.
    """

    @staticmethod
    def make_config():
        return s2a_simulator(3), {0: ["a"], 1: ["b"]}, clean_property()

    def test_resumed_payload_equals_uninterrupted(self, tmp_path):
        kwargs = VARIANTS["composed"]
        polls = PollCounter()
        simulator, scripts, prop = self.make_config()
        reference = explore_schedules(
            simulator, scripts, prop, cancel=polls, **kwargs
        ).to_json()
        assert reference["orbit_encodings"] > 0
        path = os.path.join(tmp_path, "search.ckpt")
        for cut in range(1, polls.count, max(1, polls.count // 7)):
            resumed = interrupt_and_resume(
                self.make_config, path, cut, **kwargs
            ).to_json()
            assert resumed == reference
            os.unlink(path)


class TestOrbitKeyLayout:
    """A cached checkpoint names the layout of its cache keys.

    The orbit key used to hash the whole canonical image of a state and
    now hashes per-component digests, so a symmetric checkpoint written
    before holds keys the resumed search never computes.  Likewise the
    cache used to key every node and now keys branch points only, so a
    dedup checkpoint written before holds entries and counters the
    resumed search would not reproduce.  Their configuration digests
    lack the facets the digest of such a search now carries (the key
    layout under symmetry, ``cache_keys`` under dedup), so the resume
    is refused.  Plain and sharded searches have no cache and keep
    their digests (the fixture tests below resume them).
    """

    #: The configuration digests the explorer stamped on checkpoints of
    #: :class:`TestSymmetricResume`'s configuration before the facet:
    #: with ``VARIANTS["composed"]`` and ``VARIANTS["dedup-sleep"]``.
    BEFORE = {
        "composed": "30e6e83f3c6a9839221cf1fc79336f5e",
        "dedup-sleep": "90e8fa32593c2845179f15851cf07cc4",
    }

    def checkpoint(self, path, variant):
        first = explore_schedules(
            *TestSymmetricResume.make_config(),
            cancel=Countdown(20),
            checkpoint_to=path,
            checkpoint_every=1,
            **VARIANTS[variant],
        )
        assert first.interrupted
        return read_checkpoint(path)

    def assert_refused_before_the_facet(self, tmp_path, variant):
        path = os.path.join(tmp_path, f"{variant}.ckpt")
        body = self.checkpoint(path, variant)
        assert body["config"] != self.BEFORE[variant]
        body["config"] = self.BEFORE[variant]
        write_checkpoint(path, body)  # resealed: only the config differs
        with pytest.raises(CheckpointError, match="configuration"):
            explore_schedules(
                *TestSymmetricResume.make_config(),
                resume_from=path,
                **VARIANTS[variant],
            )

    def test_symmetric_checkpoint_before_the_facet_is_refused(
        self, tmp_path
    ):
        self.assert_refused_before_the_facet(tmp_path, "composed")

    def test_old_dedup_checkpoint_is_refused(self, tmp_path):
        self.assert_refused_before_the_facet(tmp_path, "dedup-sleep")


class TestCompleteCheckpoint:
    """A finished sequential run's checkpoint replays for free."""

    def test_sequential_fast_path(self, tmp_path):
        path = os.path.join(tmp_path, "done.ckpt")
        simulator = s2a_simulator()
        prop = violating_property()
        reference = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            prop,
            dedup=True,
            checkpoint_to=path,
        )
        resumed = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            violating_property(),
            dedup=True,
            resume_from=path,
        )
        assert resumed == reference


class TestCrashAwareVariants:
    """The crash-aware relation across every variant and execution mode.

    The crash-aware commutation proof runs by default, so the identity
    contract must hold where it actually fires: a crash-heavy
    configuration.  Same-variant runs must be construction-identical
    whether sequential, sharded, or killed-and-resumed from a
    checkpoint; and every variant must agree on the semantic outcome.
    """

    CRASHES = CrashSchedule(at_step={2: 4})

    @staticmethod
    def make_config():
        return (
            s2a_simulator(3),
            {0: ["x"], 1: ["y"]},
            violating_property(),
        )

    def run(self, **kwargs):
        simulator, scripts, prop = self.make_config()
        return explore_schedules(
            simulator, scripts, prop,
            crash_schedule=self.CRASHES, max_depth=8, **kwargs,
        )

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_modes_identical_per_variant(self, variant, tmp_path):
        kwargs = VARIANTS[variant]
        reference = self.run(**kwargs)
        assert reference.exhausted
        assert reference.violations, "crash config expected to violate"

        parallel = self.run(workers=2, **kwargs)
        assert_identical(parallel, reference)
        assert parallel.violations == reference.violations

        path = os.path.join(tmp_path, f"{variant}.ckpt")
        resume_kwargs = dict(
            kwargs, crash_schedule=self.CRASHES, max_depth=8
        )
        for cut in (0, 7, 31):
            resumed = interrupt_and_resume(
                self.make_config, path, cut, **resume_kwargs
            )
            assert_identical(resumed, reference)
            os.unlink(path)

    def test_variants_agree_semantically(self):
        runs = {name: self.run(**VARIANTS[name]) for name in VARIANTS}
        digests = {r.violations_digest() for r in runs.values()}
        assert len(digests) == 1, "variants disagree on violations"
        assert all(r.exhausted for r in runs.values())
        # the sleep variants did their job through the pending crash
        sleeping = runs["dedup-sleep"]
        assert (
            sleeping.terminal_schedules < runs["dedup"].terminal_schedules
        )
        assert sleeping.independence_stats.get("crash_proof", 0) > 0


class TestWorkerCountDifferential:
    """``workers`` changes speed, never the answer.

    Every variant, with and without a pending crash, at two worker
    counts: the result equals the sequential one in every field but
    ``workers``.  Cache-less variants really shard;
    cached ones run in one process and say so.
    """

    @staticmethod
    def run(variant, crashes, **kwargs):
        return explore_schedules(
            s2a_simulator(3),
            {0: ["x"], 1: ["y"]},
            violating_property(),
            crash_schedule=crashes,
            max_depth=8,
            **VARIANTS[variant],
            **kwargs,
        )

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "crashes",
        [None, CrashSchedule(at_step={2: 4})],
        ids=["no-crash", "crash-2-at-4"],
    )
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_sharded_equals_sequential(self, variant, crashes, workers):
        sequential = self.run(variant, crashes)
        sharded = self.run(variant, crashes, workers=workers)
        assert sequential.violations, "config expected to violate"
        cached = VARIANTS[variant].get("dedup", False)
        assert sharded.workers == (1 if cached else workers)
        assert worker_independent(sharded) == worker_independent(sequential)

    #: Trees whose frontier pass reaches cases the depth-8 tree above
    #: never does.  With one sender the tree is shallower than the cut,
    #: so terminals lie above it (and, at some worker counts, no shard
    #: is left at all); a ``max_depth`` of 1 or 2 cuts branches above it.
    SHALLOW = {
        "urb-one-sender": (
            lambda: Simulator(
                2, lambda pid, n_: UniformReliableBroadcast(pid, n_)
            ),
            {0: ["a"]},
            {},
        ),
        "s2a-max-depth-1": (
            lambda: s2a_simulator(3), {0: ["x"], 1: ["y"]}, {"max_depth": 1}
        ),
        "s2a-max-depth-2": (
            lambda: s2a_simulator(3), {0: ["x"], 1: ["y"]}, {"max_depth": 2}
        ),
    }

    #: Search bounds.  A budget-capped or aborted sharded run gives every
    #: shard the full budget, so only what the merge cuts is compared.
    BOUNDS = {
        "exhaustive": {},
        "stop-at-first": {"stop_at_first_violation": True},
        "max-schedules-3": {"max_schedules": 3},
    }

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("variant", ["plain", "sleep"])
    @pytest.mark.parametrize("bound", sorted(BOUNDS))
    @pytest.mark.parametrize("tree", sorted(SHALLOW))
    def test_shallow_frontier_equals_sequential(
        self, tree, bound, variant, workers
    ):
        make_simulator, scripts, options = self.SHALLOW[tree]
        kwargs = dict(VARIANTS[variant], **options, **self.BOUNDS[bound])

        def run(**extra):
            return explore_schedules(
                make_simulator(),
                scripts,
                lambda result: ["every terminal violates"],
                **kwargs,
                **extra,
            )

        sequential = run()
        sharded = run(workers=workers)
        assert sharded.workers == workers
        if bound == "exhaustive":
            assert worker_independent(sharded) == worker_independent(
                sequential
            )
        else:
            assert sharded.terminal_schedules == sequential.terminal_schedules
            assert sharded.violations == sequential.violations
            assert sharded.aborted == sequential.aborted


class TestCheckpointFromTheTwoLoopExplorer:
    """A plain-DFS checkpoint written before the loops were unified.

    ``tests/data/s2a_n3_crash_plain.ckpt`` was cut a third of the way
    through a cache-off search by the explorer that still ran plain DFS
    in a loop of its own; its frames carry no summaries.  The unified
    loop must resume it to the uninterrupted result.
    """

    FIXTURE = os.path.join(
        os.path.dirname(__file__),
        os.pardir,
        "data",
        "s2a_n3_crash_plain.ckpt",
    )
    OPTIONS = dict(crash_schedule=CrashSchedule(at_step={2: 4}), max_depth=8)

    @staticmethod
    def make_config():
        return (
            s2a_simulator(3),
            {0: ["x"], 1: ["y"]},
            violating_property(),
        )

    def test_resumes_to_the_uninterrupted_result(self, tmp_path):
        path = os.path.join(tmp_path, "search.ckpt")
        shutil.copy(self.FIXTURE, path)
        reference = explore_schedules(*self.make_config(), **self.OPTIONS)
        resumed = explore_schedules(
            *self.make_config(), resume_from=path, **self.OPTIONS
        )
        assert reference.violations, "crash config expected to violate"
        assert_identical(resumed, reference)
        assert resumed.violations == reference.violations


class TestParallelCheckpointFromTheBreadthFirstFrontier:
    """A parallel checkpoint written while the frontier was breadth-first.

    ``tests/data/s2a_n3_parallel.ckpt`` was cut by the explorer that
    still expanded the parallel frontier in a breadth-first loop of its
    own: a plain ``workers=2`` search of the :class:`TestParallelResume`
    configuration, interrupted parent-side after shards 0-2 had merged
    and shard 3 had completed unmerged.  Its body still carries that
    explorer's map of merged shard outcomes, keyed by shard index.  The
    parent checkpoint is now only a marker: the map is no longer read,
    every shard runs again, and the legacy body must still resume to the
    uninterrupted result.
    """

    FIXTURE = os.path.join(
        os.path.dirname(__file__),
        os.pardir,
        "data",
        "s2a_n3_parallel.ckpt",
    )

    def test_resumes_to_the_uninterrupted_result(self, tmp_path):
        path = os.path.join(tmp_path, "search.ckpt")
        shutil.copy(self.FIXTURE, path)
        body = read_checkpoint(path)
        assert body["kind"] == "parallel" and not body["complete"]
        assert sorted(body["shards"], key=int) == ["0", "1", "2", "3"]
        reference = explore_schedules(
            *TestParallelResume.make_config(), workers=2
        )
        resumed = explore_schedules(
            *TestParallelResume.make_config(), workers=2, resume_from=path
        )
        assert_identical(resumed, reference)
        assert resumed.violations == reference.violations
        assert os.listdir(tmp_path) == ["search.ckpt"]


class TestCooperativeCancel:
    """The cancel token interrupts promptly and checkpoints first."""

    def test_immediate_cancel_stops_at_first_node(self, tmp_path):
        path = os.path.join(tmp_path, "early.ckpt")
        result = explore_schedules(
            s2a_simulator(3),
            {0: ["a"], 1: ["b"]},
            clean_property(),
            cancel=Countdown(0),
            checkpoint_to=path,
        )
        assert result.interrupted
        assert not result.exhausted
        assert result.schedules_explored == 0
        assert os.path.exists(path)

    def test_cancel_stops_the_running_shard(self, tmp_path):
        """A cancel reaches the shard the merge is waiting for.

        Forked shards see a fork-time snapshot of the token, which this
        one keeps unset: it fires only in the parent, once a shard is
        holding at its first terminal.  The merge pass must notice while
        it waits and stop the shard, so shard 0 ends interrupted rather
        than running to the end of its subtree.  The shards are let go
        only well after the parent has had its chance to stop them.
        """
        ctx = multiprocessing.get_context("fork")
        holding, release = ctx.Event(), ctx.Event()
        parent = os.getpid()
        held = []
        let_go = threading.Timer(0.2, release.set)

        def hold_first_terminal(result):
            if os.getpid() != parent and not held:
                held.append(True)
                holding.set()
                release.wait(5)
            return []

        class ParentToken:
            def is_set(self):
                if os.getpid() != parent or not holding.is_set():
                    return False
                if not let_go.is_alive() and not release.is_set():
                    let_go.start()
                return True

        path = os.path.join(tmp_path, "search.ckpt")
        simulator, scripts, _ = TestParallelResume.make_config()
        first = explore_schedules(
            simulator,
            scripts,
            hold_first_terminal,
            workers=2,
            cancel=ParentToken(),
            checkpoint_to=path,
        )
        assert first.interrupted
        let_go.join()
        shard_0 = read_checkpoint(shard_checkpoint_path(path, 0))
        assert shard_0["complete"] is False
        reference = explore_schedules(
            *TestParallelResume.make_config(), workers=2
        )
        resumed = explore_schedules(
            *TestParallelResume.make_config(),
            workers=2,
            checkpoint_to=path,
            resume_from=path,
        )
        assert_identical(resumed, reference)
        assert os.listdir(tmp_path) == ["search.ckpt"]

    def test_interrupt_without_checkpoint_path(self):
        result = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            clean_property(),
            cancel=Countdown(5),
        )
        assert result.interrupted

    def test_interrupted_result_round_trips(self, tmp_path):
        from repro.runtime.explorer import ExplorationResult

        result = explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            clean_property(),
            cancel=Countdown(3),
        )
        assert result.interrupted
        clone = ExplorationResult.from_json(result.to_json())
        assert clone.interrupted


class TestCheckpointSafety:
    """Corruption, mismatch, and misuse are loud errors, not bad data."""

    def checkpointed_run(self, path, **kwargs):
        return explore_schedules(
            s2a_simulator(),
            {0: ["a"], 1: ["b"]},
            clean_property(),
            cancel=Countdown(4),
            checkpoint_to=path,
            checkpoint_every=1,
            **kwargs,
        )

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            explore_schedules(
                s2a_simulator(),
                {0: ["a"], 1: ["b"]},
                clean_property(),
                resume_from=os.path.join(tmp_path, "absent.ckpt"),
            )

    def test_corruption_is_detected(self, tmp_path):
        path = os.path.join(tmp_path, "bits.ckpt")
        self.checkpointed_run(path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace('"schedules_explored":', '"x":', 1))
        with pytest.raises(CheckpointError, match="integrity"):
            read_checkpoint(path)

    def test_truncation_is_detected(self, tmp_path):
        path = os.path.join(tmp_path, "torn.ckpt")
        self.checkpointed_run(path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(path)

    def test_schema_mismatch_is_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "future.ckpt")
        body = read_checkpoint_body_stub()
        write_checkpoint(path, body)
        with open(path) as handle:
            text = handle.read()
        # a future engine wrote schema 99; sealing is consistent, so
        # only the schema gate can (and must) refuse it
        import json

        envelope = json.loads(text)
        envelope["checkpoint"]["schema"] = 99
        from repro.runtime.fingerprint import payload_digest

        canonical = json.dumps(
            envelope["checkpoint"], sort_keys=True, separators=(",", ":")
        )
        envelope["integrity"] = payload_digest(canonical)
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(CheckpointError, match="schema"):
            read_checkpoint(path)

    def test_config_mismatch_refuses_resume(self, tmp_path):
        path = os.path.join(tmp_path, "other.ckpt")
        self.checkpointed_run(path)
        with pytest.raises(CheckpointError, match="configuration"):
            explore_schedules(
                s2a_simulator(3),  # different system size
                {0: ["a"], 1: ["b"]},
                clean_property(),
                resume_from=path,
            )

    def test_engine_mismatch_refuses_resume(self, tmp_path):
        path = os.path.join(tmp_path, "engine.ckpt")
        self.checkpointed_run(path)
        with pytest.raises(CheckpointError, match="configuration"):
            explore_schedules(
                s2a_simulator(),
                {0: ["a"], 1: ["b"]},
                clean_property(),
                dedup=True,
                resume_from=path,
            )

    def test_checkpoint_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            explore_schedules(
                s2a_simulator(),
                {0: ["a"], 1: ["b"]},
                clean_property(),
                checkpoint_to=os.path.join(tmp_path, "x.ckpt"),
                checkpoint_every=0,
            )


def read_checkpoint_body_stub():
    """A minimal well-formed body for schema-tamper tests."""
    return {"kind": "subtree", "config": "cfg", "complete": False}
