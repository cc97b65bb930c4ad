"""Performance P6 — exhaustive schedule exploration throughput."""

import pytest

import repro.runtime.explorer as explorer
from repro.broadcasts import (
    KSteppedKsaBroadcast,
    SendToAllBroadcast,
    UniformReliableBroadcast,
)
from repro.runtime import (
    CrashSchedule,
    Simulator,
    channels_property,
    combine_properties,
    explore_schedules,
    spec_property,
)
from repro.runtime.fingerprint import OrbitTemplate, stable_digest
from repro.runtime.independence import Footprint, classify
from repro.runtime.simulator import SimulationRun
from repro.specs import (
    KSteppedBroadcastSpec,
    SendToAllSpec,
    TotalOrderBroadcastSpec,
    UniformReliableBroadcastSpec,
)
from tests.runtime import canon_oracle


def test_exhaustive_urb_single_broadcast(benchmark):
    simulator = Simulator(2, lambda pid, n: UniformReliableBroadcast(pid, n))

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"]},
            combine_properties(
                spec_property(UniformReliableBroadcastSpec()),
                channels_property(),
            ),
        )
        assert result.exhausted and result.ok
        return result

    result = benchmark(explore)
    assert result.terminal_schedules == 8


def test_exhaustive_two_senders(benchmark):
    simulator = Simulator(2, lambda pid, n: SendToAllBroadcast(pid, n))

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            spec_property(SendToAllSpec()),
        )
        assert result.exhausted and result.ok
        return result

    result = benchmark(explore)
    assert result.terminal_schedules == 80


def test_terminal_heavy_plain_dfs(benchmark):
    """The terminal path of plain DFS: k-Stepped n=2, no crash.

    16,128 terminals over 640 distinct broadcast projections, so the
    time is dominated by what a terminal costs — the spec verdict,
    shared by forks holding the same projection, and no result built
    for a tracker that does not read it.
    """
    simulator = Simulator(2, KSteppedKsaBroadcast, k=1)

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            spec_property(KSteppedBroadcastSpec(1), assume_complete=False),
        )
        assert result.exhausted and result.ok
        return result

    result = benchmark(explore)
    assert result.terminal_schedules == 16128


def test_violation_search(benchmark):
    simulator = Simulator(2, lambda pid, n: SendToAllBroadcast(pid, n))

    def search():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            spec_property(TotalOrderBroadcastSpec(),
                          assume_complete=False),
            stop_at_first_violation=True,
        )
        assert not result.ok
        return result

    benchmark(search)


@pytest.mark.parametrize("engine", ["incremental", "dedup"])
def test_engine_comparison_two_senders(benchmark, engine):
    """Plain fork-at-branch search vs the dedup cache, same tree."""
    simulator = Simulator(2, lambda pid, n: SendToAllBroadcast(pid, n))

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            dedup=engine == "dedup",
        )
        assert result.exhausted
        return result

    result = benchmark(explore)
    assert result.terminal_schedules == 80


def test_incremental_depth8_three_processes(benchmark):
    """The depth-8 config of BENCH_explorer.json, dedup cache off."""
    simulator = Simulator(3, lambda pid, n: SendToAllBroadcast(pid, n))

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
        )
        assert result.exhausted
        # the whole point of forking run handles: no event is ever
        # re-executed on this tree (fork snapshots cover every branch)
        assert result.events_replayed == 0
        return result

    result = benchmark(explore)
    assert result.terminal_schedules == 2520
    assert result.max_depth_seen == 8


def test_dedup_depth8_three_processes(benchmark):
    """The same depth-8 tree through the fingerprint transposition cache.

    The symmetric configuration collapses 2520 terminal schedules onto a
    few hundred distinct states; the cache expands each once and replays
    its recorded subtree summary everywhere else.
    """
    simulator = Simulator(3, lambda pid, n: SendToAllBroadcast(pid, n))

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            dedup=True,
        )
        assert result.exhausted
        return result

    result = benchmark(explore)
    assert result.terminal_schedules == 2520
    assert result.max_depth_seen == 8
    # the dedup acceptance metric: far fewer expansions than terminals
    assert result.states_seen * 3 <= result.terminal_schedules
    assert result.states_deduped > 0


def test_crash_aware_sleep_depth8(benchmark):
    """The crash config of BENCH_explorer.json through the crash-aware
    sleep-set datapath: choice-keyed sleep sets and the relation's
    verdicts hot in the DFS inner loop."""
    simulator = Simulator(3, lambda pid, n: SendToAllBroadcast(pid, n))

    def explore():
        result = explore_schedules(
            simulator,
            {0: ["a"], 1: ["b"]},
            channels_property(assume_complete=False),
            dedup=True,
            sleep_sets=True,
            crash_schedule=CrashSchedule(at_step={2: 4}),
            max_depth=8,
        )
        assert result.exhausted
        return result

    result = benchmark(explore)
    # the crash-aware acceptance numbers: strictly below the blanket
    # relation's 263 terminals, with the proof visibly firing
    assert result.terminal_schedules == 141
    assert result.independence_stats["crash_proof"] > 0


def test_dedup_sleep_chain_heavy(benchmark, monkeypatch):
    """Dedup plus sleep sets on a tree of long single-event chains.

    URB n=2 with two senders: a reception is followed by relays and
    deliveries that leave many nodes with one enabled event.  The cache
    keys only branch points (two or more enabled events), so a chain
    node costs no fingerprint.  Outside the timed rounds, one counted
    search checks that the fingerprint calls equal the branch points
    the search enters — each keyed once per arrival, nothing else
    keyed — and that the violation set is plain DFS's.
    """
    simulator = Simulator(2, UniformReliableBroadcast)
    scripts = {0: ["a"], 1: ["b"]}

    def total_order():
        # URB does not order deliveries: the violation set is not empty
        return spec_property(TotalOrderBroadcastSpec(), assume_complete=False)

    def explore():
        result = explore_schedules(
            simulator, scripts, total_order(), dedup=True, sleep_sets=True
        )
        assert result.exhausted and result.violations
        return result

    result = benchmark(explore)
    fingerprint, sync = SimulationRun.fingerprint, explorer._Cursor.sync
    counts = {"fingerprints": 0, "branch_points": 0}

    def counted_fingerprint(self):
        counts["fingerprints"] += 1
        return fingerprint(self)

    def counted_sync(self):
        # the search syncs each node once, right after its prelude
        if len(self.handle.choices()) >= 2:
            counts["branch_points"] += 1
        sync(self)

    monkeypatch.setattr(SimulationRun, "fingerprint", counted_fingerprint)
    monkeypatch.setattr(explorer._Cursor, "sync", counted_sync)
    counted = explore()
    monkeypatch.undo()
    assert counted == result
    assert counts["fingerprints"] == counts["branch_points"]
    assert counts["branch_points"] < result.schedules_explored
    plain = explore_schedules(simulator, scripts, total_order())
    assert result.violations_digest() == plain.violations_digest()


def test_independence_classify(benchmark):
    """The relation microbench: what one sleep-set verdict costs.

    Replays the verdict-query mix of a crash exploration (every pair
    of eight recorded footprints under a pending crash, 32 rounds)
    through :func:`~repro.runtime.independence.classify`, the call the
    DFS inner loop makes once per (slept event, taken event) pair."""
    footprints = [
        Footprint("recv", frozenset({pid}), pending_deadlines=((2, 9),))
        for pid in range(4)
    ] + [
        Footprint(
            "recv",
            frozenset({pid}),
            pending_deadlines=((2, 9),),
            imminent=frozenset({2}),
        )
        for pid in range(4)
    ]
    pairs = [
        (a, b) for a in footprints for b in footprints if a is not b
    ]

    def query_all():
        sources: dict[str, int] = {}
        for _ in range(32):
            for a, b in pairs:
                _, source = classify(a, b)
                sources[source] = sources.get(source, 0) + 1
        return sources

    sources = benchmark(query_all)
    assert sum(sources.values()) == 32 * len(pairs)
    assert sources.get("crash_proof", 0) > 0



def from_scratch_fingerprint(run):
    """``SimulationRun.fingerprint`` re-encoding the whole live state."""
    registry = run.registry
    return stable_digest(
        "run",
        run.steps,
        sorted(run.alive),
        [
            stable_digest(
                "process", p, list(run.runtimes[p].journal_entries())
            )
            for p in range(run.simulator.n)
        ],
        stable_digest(
            "network",
            [(item.p2p, item.payload) for item in run.network.deliverable()],
        ),
        stable_digest(
            "registry",
            registry.k,
            [obj.fingerprint() for _, obj in sorted(registry.objects.items())],
        ),
        run.factory.counters(),
        {
            p: None if m is None else m.uid
            for p, m in run.last_sync_message.items()
        },
        run.remaining,
    )


def deep_urb_state():
    """A URB n=3 run 60 decisions deep, with its digest already taken.

    Taking the first enabled event favours local steps over receptions,
    so journals grow long and 19 messages stay in flight.
    """
    simulator = Simulator(3, UniformReliableBroadcast)
    run = simulator.begin({0: ["a", "b"], 1: ["c"], 2: ["d"]})
    for _ in range(60):
        run.choices()
        run.advance(0)
    run.choices()
    run.fingerprint()
    return run


@pytest.mark.parametrize("digest", ["cached", "from-scratch"])
def test_fingerprint_after_one_event(benchmark, digest):
    """The dedup key after an event that touches one pid.

    Each round forks the deep state (fork passes every cache), commits
    one reception and runs its prelude — untimed — then times one state
    digest: the cached ``fingerprint`` re-encodes only the receiver's
    new journal entries and the changed pool, the from-scratch oracle
    re-encodes everything.
    """
    base = deep_urb_state()
    fingerprint = (
        type(base).fingerprint
        if digest == "cached"
        else from_scratch_fingerprint
    )

    def one_event():
        run = base.fork()
        receptions = [
            i for i, (kind, _) in enumerate(run.choices()) if kind == "recv"
        ]
        run.advance(receptions[0])
        run.choices()
        return (run,), {}

    result = benchmark.pedantic(
        fingerprint, setup=one_event, rounds=300, warmup_rounds=10
    )
    run, _ = one_event()
    assert result == type(base).fingerprint(run[0])
    assert result == from_scratch_fingerprint(run[0])


#: Every process of the symmetric send-to-all state is interchangeable.
SYMMETRIC_GROUPS = [(0, 1, 2)]


def symmetric_s2a_state(scripts=None):
    """Send-to-all n=3 with three senders, 6 decisions deep, keyed.

    The state the ``orbit-checkpoint`` search explores: every process
    broadcasts once, so symmetric states abound.  Taking the first
    enabled event starts all three broadcasts and leaves their copies
    in flight.  Its orbit key is already taken, so the memo its forks
    share holds the template and digest of each of its components.
    """
    simulator = Simulator(3, SendToAllBroadcast)
    run = simulator.begin(scripts or {0: ["a"], 1: ["b"], 2: ["c"]})
    for _ in range(6):
        run.choices()
        run.advance(0)
    run.choices()
    run.orbit_key(SYMMETRIC_GROUPS)
    return run


def time_orbit_key_after_one_event(benchmark, base, memo):
    """Time ``orbit_key`` on a fork of ``base`` after one reception.

    Each round forks ``base``, commits its first enabled reception and
    runs the prelude — untimed — then times one key.  With ``memo ==
    "cold"`` the fork starts an empty memo, so every component's
    template is built, filled and hashed: what the key of a state
    costs whose components the search has not met.  With ``"warm"`` it
    shares the memo of ``base``, which every earlier round has filled:
    each component is a lookup, as at most nodes of a search.  The key
    must equal the from-scratch encoding of
    ``tests/runtime/canon_oracle.py`` either way.  Returns the last
    round's run.
    """

    def one_event():
        run = base.fork()
        if memo == "cold":
            run._orbit_memo = {}
        receptions = [
            i for i, (kind, _) in enumerate(run.choices()) if kind == "recv"
        ]
        run.advance(receptions[0])
        run.choices()
        return (run, SYMMETRIC_GROUPS), {}

    result = benchmark.pedantic(
        type(base).orbit_key, setup=one_event, rounds=300, warmup_rounds=10
    )
    (run, groups), _ = one_event()
    assert result == type(base).orbit_key(run, groups)
    assert result == canon_oracle.orbit_key(run, groups)
    return run


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_orbit_key_after_one_event(benchmark, memo):
    """The symmetry reduction's cache key after one reception (see
    :func:`time_orbit_key_after_one_event`)."""
    time_orbit_key_after_one_event(benchmark, symmetric_s2a_state(), memo)


#: Set contents: each sender's set shares an element with the next one.
SET_SCRIPTS = {
    0: [frozenset({"a", "b"})],
    1: [frozenset({"b", "c"})],
    2: [frozenset({"c", "a"})],
}


@pytest.mark.parametrize("memo", ["cold", "warm"])
def test_orbit_key_with_set_contents(benchmark, memo):
    """:func:`test_orbit_key_after_one_event` with frozenset scripts.

    Every journal, pool entry and script holding a set fills through a
    group slot: each member is filled, the member encodings sorted.
    """
    run = time_orbit_key_after_one_event(
        benchmark, symmetric_s2a_state(SET_SCRIPTS), memo
    )
    assert not OrbitTemplate(run.runtimes[0].journal_entries()).flat
