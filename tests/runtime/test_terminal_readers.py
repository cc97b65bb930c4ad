"""A terminal pays only for what its property tracker reads.

* The explorer builds a :class:`SimulationResult` at a terminal only
  when the tracker declares ``reads_result``: never for the built-in
  spec and channel trackers, once per terminal as soon as a plain
  callable is among the properties, and always for a
  :class:`PropertyTracker` subclass that does not say otherwise.
* Spec trackers holding the same projection tuple share one verdict,
  so plain DFS judges fewer projections than it visits terminals, and
  a caller that changes a returned verdict changes no other terminal's.

Verdict equality at every terminal is checked by
``test_spec_tracker.py``; these tests count work and check isolation.
"""

import pytest

from repro.runtime import (
    SimulationResult,
    SimulationRun,
    channels_property,
    combine_properties,
    explore_schedules,
    spec_property,
)
from repro.runtime.explorer import PropertyTracker
from repro.specs import KSteppedBroadcastSpec, TotalOrderBroadcastSpec

from .crash_catalog import SCRIPTS, catalog

CONFIGS = {config_id: (sim, crash) for config_id, sim, crash in catalog()}


def s2a():
    """A violating catalog config (584 terminals)."""
    return CONFIGS["s2a-n3-p2@4"]


def total_order():
    return spec_property(TotalOrderBroadcastSpec(), assume_complete=False)


@pytest.fixture
def result_calls(monkeypatch):
    """How many times ``SimulationRun.result`` has been called."""
    calls = [0]
    original = SimulationRun.result

    def counting(self, **kwargs):
        calls[0] += 1
        return original(self, **kwargs)

    monkeypatch.setattr(SimulationRun, "result", counting)
    return calls


def explore(prop, **options):
    simulator, crash = s2a()
    return explore_schedules(
        simulator, SCRIPTS, prop, crash_schedule=crash, **options
    )


REDUCTIONS = {
    "plain": {},
    "dedup-sleep": {"dedup": True, "sleep_sets": True},
}

BUILT_IN = {
    "spec": total_order,
    "channels": lambda: channels_property(assume_complete=False),
    "combined": lambda: combine_properties(
        total_order(), channels_property(assume_complete=False)
    ),
}


@pytest.mark.parametrize("reduction", sorted(REDUCTIONS))
@pytest.mark.parametrize("name", sorted(BUILT_IN))
def test_built_in_trackers_build_no_result(result_calls, name, reduction):
    result = explore(BUILT_IN[name](), **REDUCTIONS[reduction])
    assert result.exhausted
    assert result.terminal_schedules > 0
    assert result_calls[0] == 0


@pytest.mark.parametrize(
    "prop",
    [
        lambda: (lambda result: []),
        lambda: combine_properties(total_order(), lambda result: []),
    ],
    ids=["callable", "combined-with-callable"],
)
def test_a_plain_callable_gets_one_result_per_terminal(result_calls, prop):
    result = explore(prop())
    assert result.exhausted
    assert result_calls[0] == result.terminal_schedules == 584


class ResultChecker(PropertyTracker):
    """A subclass that leaves ``reads_result`` at its default."""

    def __init__(self, seen):
        self._seen = seen

    def at_terminal(self, result):
        self._seen.append(isinstance(result, SimulationResult))
        return []


class ResultCheckingProperty:
    def __init__(self):
        self.seen = []

    def __call__(self, result):
        return []

    def tracker(self, n):
        return ResultChecker(self.seen)


def test_a_subclass_receives_a_result_by_default():
    assert ResultChecker.reads_result
    prop = ResultCheckingProperty()
    result = explore(prop)
    assert len(prop.seen) == result.terminal_schedules == 584
    assert all(prop.seen)


class TamperingTracker(PropertyTracker):
    """Wraps a spec tracker and changes every verdict list it returns."""

    reads_result = False

    def __init__(self, inner):
        self._inner = inner

    def observe(self, steps):
        self._inner.observe(steps)

    def fork(self):
        return TamperingTracker(self._inner.fork())

    def at_terminal(self, result):
        problems = self._inner.at_terminal(result)
        verdict = list(problems)
        problems.append("tampered")
        return verdict


class Tampering:
    def __init__(self, prop):
        self._prop = prop

    def __call__(self, result):
        return self._prop(result)

    def tracker(self, n):
        return TamperingTracker(self._prop.tracker(n))


def kstepped_search(prop):
    """Plain DFS on ``kst-n2-none``: 16,128 terminals, no violation."""
    simulator, _ = CONFIGS["kst-n2-none"]
    result = explore_schedules(simulator, SCRIPTS, prop)
    assert result.exhausted
    assert result.terminal_schedules == 16128
    return result


def test_forks_share_a_projection_verdict(monkeypatch):
    calls = [0]
    original = KSteppedBroadcastSpec.admits

    def counting(self, execution, **kwargs):
        calls[0] += 1
        return original(self, execution, **kwargs)

    monkeypatch.setattr(KSteppedBroadcastSpec, "admits", counting)
    result = kstepped_search(
        spec_property(KSteppedBroadcastSpec(1), assume_complete=False)
    )
    assert result.violations == []
    assert 0 < calls[0] < result.terminal_schedules


def test_a_changed_verdict_reaches_no_other_terminal():
    result = kstepped_search(
        Tampering(
            spec_property(KSteppedBroadcastSpec(1), assume_complete=False)
        )
    )
    assert result.violations == []
