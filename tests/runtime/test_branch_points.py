"""The dedup cache keys branch points only, checked against an oracle.

A cached search fingerprints a node, looks it up and remembers it only
when its ``choices()`` lists two or more events.  The oracle here walks
every reachable state with plain depth-first search, independently of
the explorer, and counts the distinct raw fingerprints, and the distinct
from-scratch orbit keys of :mod:`tests.runtime.canon_oracle`, among the
states with at least two choices.  Without sleep sets every distinct
keyed state is expanded exactly once, so ``states_seen`` must equal
those counts, under ``dedup`` and ``dedup`` plus ``symmetry="rename"``.
Every variant must still report plain DFS's problem set.

The configurations are the end-to-end benchmark's crash catalog and the
configurations of ``BENCH_explorer.json``.
"""

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
    explore_schedules,
    spec_property,
)
from repro.runtime.simulator import SimulationRun
from repro.specs import (
    KSteppedBroadcastSpec,
    SendToAllSpec,
    TotalOrderBroadcastSpec,
)

from . import canon_oracle
from .crash_catalog import SCRIPTS, catalog


def catalog_property(simulator):
    """The property the end-to-end benchmark checks a catalog family on."""
    algorithm = simulator.algorithm_factory
    if algorithm is SendToAllBroadcast:
        return spec_property(TotalOrderBroadcastSpec(), assume_complete=False)
    if algorithm is UniformReliableBroadcast:
        return channels_property(assume_complete=False)
    assert algorithm is KSteppedKsaBroadcast
    return spec_property(KSteppedBroadcastSpec(1), assume_complete=False)


def s2a(n):
    return Simulator(n, SendToAllBroadcast)


#: ``id → (simulator, scripts, property, crash_schedule, max_depth)``:
#: the catalog, then the ``BENCH_explorer.json`` configurations whose
#: tree the catalog does not already hold (its URB row is the catalog's
#: ``urb-n2-none`` tree) and the end-to-end benchmark's ``--quick``
#: orbit search, whose pids are all interchangeable.
CONFIGS = {
    **{
        name: (simulator, SCRIPTS, catalog_property(simulator), crashes, 400)
        for name, simulator, crashes in catalog()
    },
    "bench-s2a-2senders-n2": (
        s2a(2), SCRIPTS, channels_property(assume_complete=False), None, 400
    ),
    "bench-s2a-2senders-n3-depth8": (
        s2a(3), SCRIPTS, channels_property(assume_complete=False), None, 400
    ),
    "bench-s2a-totalorder-n2": (
        s2a(2),
        {0: ["x"], 1: ["y"]},
        spec_property(TotalOrderBroadcastSpec(), assume_complete=False),
        None,
        400,
    ),
    "bench-s2a-crash-n3-depth8": (
        s2a(3),
        SCRIPTS,
        channels_property(assume_complete=False),
        CrashSchedule(at_step={2: 4}),
        8,
    ),
    "orbit-s2a-n3-3senders-depth6": (
        s2a(3),
        {0: ["a"], 1: ["b"], 2: ["c"]},
        spec_property(SendToAllSpec(), assume_complete=False),
        None,
        6,
    ),
}


def branch_points(simulator, scripts, crash_schedule, max_depth, groups):
    """Distinct raw fingerprints and orbit keys among branch points.

    Walks the whole schedule tree down to ``max_depth``, every state
    taken after its ``choices()`` prelude, with the explorer's atomic
    local steps.  A state's orbit key is a function of the state its
    raw fingerprint digests, so it is computed once per fingerprint.
    """
    walker = Simulator(
        simulator.n,
        simulator.algorithm_factory,
        k=simulator.k,
        atomic_local=True,
    )
    raws: set[str] = set()
    orbits: set[str] = set()
    stack = [(walker.begin(scripts, crash_schedule=crash_schedule), 0)]
    while stack:
        run, depth = stack.pop()
        choices = run.choices()
        if len(choices) >= 2:
            raw = run.fingerprint()
            if raw not in raws:
                raws.add(raw)
                if groups:
                    orbits.add(canon_oracle.orbit_key(run, groups)[0])
        if depth == max_depth:
            continue
        for index in range(len(choices)):
            child = run.fork()
            child.advance(index)
            stack.append((child, depth + 1))
    return len(raws), len(orbits) if groups else len(raws)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_states_seen_counts_branch_points(name):
    simulator, scripts, prop, crashes, max_depth = CONFIGS[name]
    groups = explorer._renaming_groups(simulator, scripts, crashes)
    raw_count, orbit_count = branch_points(
        simulator, scripts, crashes, max_depth, groups
    )

    def explore(**options):
        result = explore_schedules(
            simulator,
            scripts,
            prop,
            crash_schedule=crashes,
            max_depth=max_depth,
            max_schedules=10**9,
            **options,
        )
        assert result.exhausted or max_depth < 400
        return result

    plain = explore()
    dedup = explore(dedup=True)
    renamed = explore(dedup=True, symmetry="rename")
    assert dedup.states_seen == raw_count
    assert renamed.states_seen == orbit_count
    for result in (
        dedup,
        renamed,
        explore(dedup=True, sleep_sets=True),
        explore(dedup=True, sleep_sets=True, symmetry="rename"),
    ):
        assert result.violations_digest() == plain.violations_digest()


@pytest.mark.parametrize("sleep_sets", [False, True])
def test_only_branch_points_are_keyed(sleep_sets, monkeypatch):
    """``fingerprint`` and ``orbit_key`` run only where two events are
    enabled, once per keyed node, and ``states_seen`` counts first
    expansions among those nodes."""
    fingerprint = SimulationRun.fingerprint
    orbit_key = SimulationRun.orbit_key
    calls = {"fingerprint": [], "orbit_key": []}

    def counted_fingerprint(self):
        calls["fingerprint"].append(len(self.choices()))
        return fingerprint(self)

    def counted_orbit_key(self, groups):
        calls["orbit_key"].append(len(self.choices()))
        return orbit_key(self, groups)

    monkeypatch.setattr(SimulationRun, "fingerprint", counted_fingerprint)
    monkeypatch.setattr(SimulationRun, "orbit_key", counted_orbit_key)
    result = explore_schedules(
        s2a(3),
        SCRIPTS,
        channels_property(assume_complete=False),
        dedup=True,
        sleep_sets=sleep_sets,
        symmetry="rename",
    )
    assert result.exhausted and result.states_merged_symmetry > 0
    assert calls["fingerprint"] and calls["orbit_key"]
    assert min(calls["fingerprint"]) >= 2
    assert min(calls["orbit_key"]) >= 2
    keyed = len(calls["fingerprint"])
    hits = result.states_deduped + result.states_merged_symmetry
    assert result.states_seen + hits <= keyed
    if not sleep_sets:
        # no sleep-incompatible arrival re-expands a keyed state
        assert result.states_seen + hits == keyed
    # unkeyed nodes are expanded on every arrival
    assert result.schedules_explored > result.states_seen
