"""Differential tests of the pre-step reductions (sleep sets, symmetry).

Sleep sets prune redundant interleavings *before* forking; renaming
symmetry merges states equal up to a pid permutation plus an injective
content renaming.  Both must preserve exactly what the explorer is for:
the set of distinct terminal observations and the set of violations
(symmetry: modulo the recorded permutation).  These tests diff every
reduction against the plain dedup search over sync/async/crash
configurations, through budget and depth cut points, across worker
counts, and on double runs (determinism).
"""

import itertools
import threading

import pytest

import repro.runtime.explorer as explorer
from repro.broadcasts import SendToAllBroadcast, UniformReliableBroadcast
from repro.runtime import CrashSchedule, Simulator
from repro.runtime.explorer import (
    channels_property,
    explore_schedules,
    spec_property,
)
from repro.runtime.ksa_objects import ScriptedPolicy
from repro.runtime.simulator import SimulationRun
from repro.specs import SendToAllSpec, TotalOrderBroadcastSpec

from .test_branch_points import branch_points
from .test_explorer_engines import worker_independent


def s2a(n=3, **kwargs):
    return Simulator(n, lambda pid, n_: SendToAllBroadcast(pid, n_), **kwargs)


def urb(n=2, **kwargs):
    return Simulator(
        n, lambda pid, n_: UniformReliableBroadcast(pid, n_), **kwargs
    )


def observing_property(observations):
    """A property that records each terminal's per-process deliveries."""

    def prop(result):
        observations.add(
            tuple(
                tuple(m.uid for m in result.deliveries(p))
                for p in sorted(result.runtimes)
            )
        )
        return ()

    return prop


def observations_of(simulator, scripts, **kwargs):
    seen = set()
    result = explore_schedules(
        simulator, scripts, observing_property(seen), **kwargs
    )
    return seen, result


CONFIGS = [
    pytest.param(s2a, {0: ["a"], 1: ["b"]}, None, {}, id="s2a-async"),
    pytest.param(
        s2a, {0: ["a"], 1: ["b"]}, None, {"sync_broadcasts": True},
        id="s2a-sync",
    ),
    pytest.param(
        s2a, {0: ["a"], 1: ["b"]}, CrashSchedule(at_step={1: 3}), {},
        id="s2a-crash",
    ),
    pytest.param(
        s2a, {0: ["a"], 1: ["b"]},
        CrashSchedule(initially=frozenset({2})), {},
        id="s2a-initial-crash",
    ),
    pytest.param(urb, {0: ["a"]}, None, {}, id="urb-async"),
    pytest.param(
        urb, {0: ["a"]}, CrashSchedule(at_step={0: 4}), {}, id="urb-crash"
    ),
]


class TestSleepSetsPreserveObservations:
    """Sleep pruning keeps every distinct terminal observation."""

    @pytest.mark.parametrize("factory, scripts, crashes, kwargs", CONFIGS)
    @pytest.mark.parametrize("base_engine", ["incremental", "dedup"])
    def test_observation_sets_equal(
        self, factory, scripts, crashes, kwargs, base_engine
    ):
        plain, base = observations_of(
            factory(**kwargs), scripts, crash_schedule=crashes,
            dedup=base_engine == "dedup", max_depth=10,
        )
        slept, reduced = observations_of(
            factory(**kwargs), scripts, crash_schedule=crashes,
            dedup=base_engine == "dedup", max_depth=10, sleep_sets=True,
        )
        assert slept == plain
        assert reduced.exhausted and base.exhausted
        # the reduction must actually reduce work somewhere; crash
        # configurations legitimately stay unpruned while a scheduled
        # crash is pending (every event is crash-sensitive until then)
        assert reduced.terminal_schedules <= base.terminal_schedules

    @pytest.mark.parametrize("factory, scripts, crashes, kwargs", CONFIGS)
    def test_depth_cuts_preserved(self, factory, scripts, crashes, kwargs):
        for depth in (3, 5):
            plain, _ = observations_of(
                factory(**kwargs), scripts, crash_schedule=crashes,
                dedup=True, max_depth=depth,
            )
            slept, _ = observations_of(
                factory(**kwargs), scripts, crash_schedule=crashes,
                dedup=True, max_depth=depth, sleep_sets=True,
            )
            assert slept == plain

    def test_sleep_actually_prunes(self):
        _, result = observations_of(
            s2a(), {0: ["a"], 1: ["b"]}, dedup=True,
            max_depth=8, sleep_sets=True,
        )
        assert result.states_pruned_sleep > 0
        assert result.terminal_schedules < 2520  # the unreduced count

    def test_budget_cut_points(self):
        """Budgeted sleep runs stop cleanly and deterministically."""
        for budget in (1, 7, 40):
            first = explore_schedules(
                s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
                dedup=True, sleep_sets=True, max_schedules=budget,
            )
            again = explore_schedules(
                s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
                dedup=True, sleep_sets=True, max_schedules=budget,
            )
            assert first.terminal_schedules <= budget
            assert not first.exhausted
            assert first.terminal_schedules == again.terminal_schedules
            assert first.states_seen == again.states_seen
            assert first.states_pruned_sleep == again.states_pruned_sleep

    def test_sleep_does_not_mint_cache_slots(self):
        """Distinct states match plain dedup: sleep left the cache key.

        With the subset-reuse rule the transposition cache is keyed by
        the state alone, so the sleep-set reduction can no longer mint
        extra slots for the same state reached under different sleep
        sets — ``states_seen`` is a pure count of the distinct branch
        points, the only nodes the cache keys (255 of the tree's 321
        distinct states, by the oracle walk).  Arrivals whose sleep set
        is incompatible with the stored entry re-expand (counted in
        ``schedules_explored``), they do not re-count.
        """
        dedup = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
            dedup=True, max_depth=8,
        )
        slept = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
            dedup=True, max_depth=8, sleep_sets=True,
        )
        raw_branch_points, _ = branch_points(
            s2a(), {0: ["a"], 1: ["b"]}, None, 8, ()
        )
        assert slept.states_seen == dedup.states_seen == raw_branch_points
        assert raw_branch_points == 255
        assert slept.schedules_explored >= slept.states_seen
        # the reduction still wins where it should: terminals and events
        assert slept.terminal_schedules < dedup.terminal_schedules
        assert slept.events_executed < dedup.events_executed

    def test_workers_match_sequential(self):
        sequential = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
            sleep_sets=True, max_depth=8,
        )
        parallel = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
            sleep_sets=True, max_depth=8, workers=3,
        )
        assert parallel.workers == 3
        assert worker_independent(parallel) == worker_independent(sequential)


def pid_permuted(observation, perm):
    """Apply a pid permutation to a terminal observation tuple."""
    renamed = [None] * len(observation)
    for pid, deliveries in enumerate(observation):
        renamed[perm[pid]] = tuple(
            type(uid)(perm[uid.sender], uid.seq) for uid in deliveries
        )
    return tuple(renamed)


class TestRenamingSymmetry:
    """Orbit merging is violation- and observation-complete."""

    GROUP = [(0, 1, 2), (1, 0, 2)]  # senders 0/1 interchangeable, 2 pinned

    def test_observations_complete_modulo_renaming(self):
        plain, _ = observations_of(
            s2a(), {0: ["a"], 1: ["b"]}, dedup=True, max_depth=8,
        )
        merged, result = observations_of(
            s2a(), {0: ["a"], 1: ["b"]}, dedup=True, max_depth=8,
            sleep_sets=True, symmetry="rename",
        )
        assert result.states_merged_symmetry > 0
        # no invented observations...
        assert merged <= plain
        # ...and every unreduced observation is covered by a visited
        # one under some permutation of the declared symmetry group
        for observation in plain:
            assert any(
                pid_permuted(observation, perm) in merged
                for perm in self.GROUP
            )

    def test_depth8_acceptance_bounds(self):
        """The headline composition on the symmetric depth-8 config.

        The cache keys branch points only: plain dedup expands 255
        distinct branch-point states over 2520 terminals (the tree
        holds 321 distinct states; the other 66 are terminal or
        single-event nodes, re-expanded on every arrival).  Renaming
        merges 79 orbit pairs among them (176 canonical branch points —
        the floor: the remaining ones are fixed points of the 0<->1
        swap, so no sound renaming can merge them).  Both counts are
        the oracle walk's.  Sleep sets cannot reduce *distinct* states
        (a slept event's target is reachable via the commuted,
        explored order by construction), and since the sleep set left
        the cache key (subset-reuse), composing them with symmetry
        stays exactly on the 176 orbit floor — the few
        sleep-incompatible arrivals re-expand an already-counted orbit
        (visible in ``schedules_explored``) instead of minting new
        cache slots.  The canonical-labelling pass pays ~1 state
        encoding per cache lookup, where permutation enumeration paid
        |perms| = 2.
        """
        dedup = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(), dedup=True,
            max_depth=8,
        )
        renamed = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(), dedup=True,
            max_depth=8, symmetry="rename",
        )
        composed = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(), dedup=True,
            max_depth=8, sleep_sets=True, symmetry="rename",
        )
        groups = explorer._renaming_groups(s2a(), {0: ["a"], 1: ["b"]}, None)
        raws, orbits = branch_points(
            s2a(), {0: ["a"], 1: ["b"]}, None, 8, groups
        )
        assert (raws, orbits) == (255, 176)
        assert dedup.states_seen == raws
        assert dedup.terminal_schedules == 2520
        assert renamed.states_seen == orbits
        assert composed.states_seen == orbits  # the proven orbit floor
        # subset-reuse keeps covered-distinct terminals far below the
        # 2520 raw interleavings (a handful of commutation-redundant
        # terminals ride along through less-slept cached subtrees)
        assert composed.terminal_schedules == 62
        assert composed.schedules_explored == 292
        # the composition beats both the unreduced terminal count and
        # the unreduced expansion count
        assert composed.states_seen < dedup.states_seen
        assert composed.events_executed < dedup.events_executed
        # canonical labelling: ~1 encoding per lookup, not |perms|;
        # without sleep sets each keyed node is a first expansion or a hit
        lookups = (
            renamed.states_seen
            + renamed.states_deduped
            + renamed.states_merged_symmetry
        )
        assert renamed.orbit_encodings <= 1.2 * lookups
        assert renamed.orbit_encodings < 2 * lookups  # enumeration cost
        assert dedup.orbit_encodings == 0

    def test_violations_complete_modulo_permutation(self):
        scripts = {0: ["x"], 1: ["y"]}
        prop = spec_property(TotalOrderBroadcastSpec(), assume_complete=False)
        base = explore_schedules(
            s2a(n=2), scripts, prop, dedup=True
        )
        reduced = explore_schedules(
            s2a(n=2), scripts, prop, dedup=True,
            sleep_sets=True, symmetry="rename",
        )
        assert base.violations and reduced.violations
        assert {v.problems for v in reduced.violations} == {
            v.problems for v in base.violations
        }
        replayer = s2a(n=2)
        replayer.atomic_local = True
        for violation in reduced.violations:
            if violation.permutation is not None:
                assert sorted(violation.permutation) == [0, 1]
            replay = replayer.run(scripts, guide=list(violation.guide))
            assert replay.quiescent and replay.pending_choices == 0
            assert tuple(prop(replay)) == violation.problems

    def test_inert_without_symmetric_hook(self):
        """A pid-dependent oracle policy disables the reduction."""
        policy = ScriptedPolicy({})
        plain = explore_schedules(
            s2a(ksa_policy=policy), {0: ["a"], 1: ["b"]},
            channels_property(), dedup=True, max_depth=6,
        )
        renamed = explore_schedules(
            s2a(ksa_policy=policy), {0: ["a"], 1: ["b"]},
            channels_property(), dedup=True, max_depth=6,
            symmetry="rename",
        )
        assert renamed.states_seen == plain.states_seen
        assert renamed.states_merged_symmetry == 0

    def test_crashed_pids_pinned(self):
        """Faulty processes never participate in the renaming group."""
        crashes = CrashSchedule(at_step={1: 3})
        plain, _ = observations_of(
            s2a(), {0: ["a"], 1: ["b"]}, dedup=True,
            crash_schedule=crashes, max_depth=8,
        )
        merged, _ = observations_of(
            s2a(), {0: ["a"], 1: ["b"]}, dedup=True,
            crash_schedule=crashes, max_depth=8, symmetry="rename",
        )
        # 0 and 1 are distinguishable (1 crashes): nothing may merge
        # across them, but states may still merge via content renaming
        assert merged <= plain

    def test_determinism_double_run(self):
        runs = [
            explore_schedules(
                s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
                dedup=True, max_depth=8, sleep_sets=True,
                symmetry="rename",
            )
            for _ in range(2)
        ]
        for field in (
            "states_seen", "states_deduped", "states_pruned_sleep",
            "states_merged_symmetry", "terminal_schedules",
            "schedules_explored", "expansions_by_depth",
            "dedup_hits_by_depth",
        ):
            assert getattr(runs[0], field) == getattr(runs[1], field)
        assert runs[0].violations == runs[1].violations


#: The ``symmetry="rename"`` rows of ``benchmarks/run_explorer_bench.py``
#: (name → simulator, scripts, property, the rows' ``sleep_sets``
#: values) and the end-to-end benchmark's 3-sender orbit search.
MEMO_CONFIGS = {
    "s2a-2senders-n3-depth8": (
        s2a,
        {0: ["a"], 1: ["b"]},
        lambda: channels_property(assume_complete=False),
        (False, True),
    ),
    "s2a-totalorder-n2": (
        lambda: s2a(2),
        {0: ["x"], 1: ["y"]},
        lambda: spec_property(
            TotalOrderBroadcastSpec(), assume_complete=False
        ),
        (True,),
    ),
    "orbit-s2a-n3-3senders": (
        s2a,
        {0: ["a"], 1: ["b"], 2: ["c"]},
        lambda: spec_property(SendToAllSpec()),
        (True,),
    ),
}


class TestOrbitKeyMemo:
    """A search computes each orbit key once per raw fingerprint.

    The key it remembers must be the key a fresh
    :meth:`~repro.runtime.simulator.SimulationRun.orbit_key` gives at
    every later node with that fingerprint, and ``orbit_encodings``
    must count every keyed node's candidates, repeats included.
    """

    @pytest.mark.parametrize(
        "name, sleep_sets",
        [
            (name, sleep)
            for name, (*_, sleeps) in MEMO_CONFIGS.items()
            for sleep in sleeps
        ],
    )
    def test_remembered_key_is_fresh(self, name, sleep_sets, monkeypatch):
        make_simulator, scripts, make_property, _ = MEMO_CONFIGS[name]
        simulator = make_simulator()
        groups = explorer._renaming_groups(simulator, scripts, None)
        assert groups
        fingerprint = SimulationRun.fingerprint
        orbit_key = SimulationRun.orbit_key
        remembered = {}  # raw fingerprint → the explorer's orbit_key result
        tally = {"nodes": 0, "repeats": 0, "candidates": 0}

        def keyed_node(self):
            # the explorer fingerprints each keyed node once, first
            raw = fingerprint(self)
            fresh = orbit_key(self, groups)
            if raw in remembered:
                tally["repeats"] += 1
                assert remembered[raw] == fresh
            tally["nodes"] += 1
            tally["candidates"] += fresh[2]
            return raw

        def computed(self, groups_):
            raw = fingerprint(self)
            assert raw not in remembered, "orbit key computed twice"
            remembered[raw] = orbit_key(self, groups_)
            return remembered[raw]

        monkeypatch.setattr(SimulationRun, "fingerprint", keyed_node)
        monkeypatch.setattr(SimulationRun, "orbit_key", computed)
        result = explore_schedules(
            simulator,
            scripts,
            make_property(),
            dedup=True,
            sleep_sets=sleep_sets,
            symmetry="rename",
            max_schedules=10**12,
        )
        assert result.exhausted
        assert tally["repeats"] > 0
        assert len(remembered) == tally["nodes"] - tally["repeats"]
        assert result.orbit_encodings == tally["candidates"]


class TestProgressReporting:
    """The progress callback sees consistent, monotone telemetry."""

    def test_snapshots_consistent(self):
        snapshots = []
        result = explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
            dedup=True, max_depth=8,
            progress=snapshots.append, progress_every=50,
        )
        assert snapshots, "expected at least one snapshot"
        previous = 0
        for snap in snapshots:
            assert snap.expansions % 50 == 0
            assert snap.expansions > previous
            previous = snap.expansions
            assert sum(snap.expansions_by_depth.values()) == snap.expansions
            assert snap.elapsed >= 0
            assert snap.states_per_second >= 0
        # every expansion is counted per depth, keyed or not; the keyed
        # first expansions are the oracle's distinct branch points
        assert (
            sum(result.expansions_by_depth.values())
            == result.schedules_explored
        )
        assert result.states_seen == branch_points(
            s2a(), {0: ["a"], 1: ["b"]}, None, 8, ()
        )[0]
        assert (
            sum(result.dedup_hits_by_depth.values()) == result.states_deduped
        )

    def test_progress_with_sleep_and_symmetry(self):
        snapshots = []
        explore_schedules(
            s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
            dedup=True, max_depth=8, sleep_sets=True,
            symmetry="rename", progress=snapshots.append, progress_every=25,
        )
        assert snapshots

    def test_workers2_counters_consistent(self):
        """Per-depth counters under ``workers=2`` add up exactly once.

        The parallel engine accounts frontier expansions directly into
        the merged result and each shard worker reports only the nodes
        it expanded itself, so the DFS-order merge must neither drop
        nor double-count: summed per-depth expansions equal the total
        expansion count, and every counter equals the sequential run's.
        With the cache on the search runs in one process, so there is
        nothing to merge and the result is the sequential one.
        """
        for kwargs in (
            {"sleep_sets": True},
            {"dedup": True, "sleep_sets": True},
        ):
            sequential = explore_schedules(
                s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
                max_depth=8, **kwargs,
            )
            parallel = explore_schedules(
                s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
                max_depth=8, workers=2, **kwargs,
            )
            assert (
                sum(parallel.expansions_by_depth.values())
                == parallel.schedules_explored
            )
            assert (
                sum(parallel.dedup_hits_by_depth.values())
                == parallel.states_deduped + parallel.states_merged_symmetry
            )
            assert worker_independent(parallel) == worker_independent(
                sequential
            )

    def test_resumed_rate_counts_only_its_own_expansions(
        self, monkeypatch, tmp_path
    ):
        # a clock that advances one second per read: the first snapshot
        # of a call comes one second after its start
        ticks = itertools.count()
        monkeypatch.setattr(explorer, "_now", lambda: float(next(ticks)))
        path = str(tmp_path / "search.ckpt")

        def run(progress, **kwargs):
            return explore_schedules(
                s2a(), {0: ["a"], 1: ["b"]}, channels_property(),
                progress=progress, progress_every=50, checkpoint_to=path,
                **kwargs,
            )

        stop = threading.Event()

        def stop_at_400(snapshot):
            if snapshot.expansions == 400:
                stop.set()

        first = run(stop_at_400, cancel=stop)
        assert first.interrupted and first.schedules_explored == 400
        resumed, cold = [], []
        run(resumed.append, resume_from=path)
        assert resumed[0].expansions == 450
        assert resumed[0].states_per_second == 50.0
        run(cold.append)
        assert cold[0].expansions == 50
        assert cold[0].states_per_second == 50.0

    def test_validation_errors(self):
        config = (s2a(), {0: ["a"]}, channels_property())
        with pytest.raises(ValueError, match="symmetry"):
            explore_schedules(*config, symmetry="mirror")
        with pytest.raises(ValueError, match="dedup"):
            explore_schedules(*config, symmetry="rename")
        with pytest.raises(ValueError, match="progress_every"):
            explore_schedules(*config, progress_every=0)
        with pytest.raises(ValueError, match="workers"):
            explore_schedules(
                *config, workers=2, progress=lambda s: None
            )

    def test_cached_search_reports_progress_at_any_worker_count(self):
        # dedup=True runs in one process whatever ``workers`` says, so
        # the progress callback is wired, not refused
        snapshots = []
        result = explore_schedules(
            s2a(), {0: ["a"]}, channels_property(),
            dedup=True, workers=2, progress=snapshots.append,
            progress_every=1,
        )
        assert result.workers == 1
        assert len(snapshots) == result.schedules_explored
