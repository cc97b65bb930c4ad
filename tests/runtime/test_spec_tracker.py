"""A spec property's branch tracker agrees with the spec's own check.

:func:`spec_property` keeps the broadcast projection along each branch
when the explorer drives it.  These tests judge, at every terminal a
search visits, the tracker's verdict against the spec applied to the
terminal trace's broadcast projection, computed here, for every spec of
the service registry under ``assume_complete`` True and False: over
the crash catalog, the 3-sender symmetric search, a two-worker search,
and a search resumed from a mid-run checkpoint.  Any disagreement
surfaces as a violation naming the spec.
"""

import pytest

from repro.broadcasts import SendToAllBroadcast
from repro.runtime import Simulator
from repro.runtime.explorer import (
    PropertyTracker,
    explore_schedules,
    spec_property,
)
from repro.server.descriptor import SPECS

from .crash_catalog import SCRIPTS, catalog
from .test_explorer_checkpoint import Countdown

CATALOG = catalog()


class DifferentialTracker(PropertyTracker):
    """Every tracker beside its property; a mismatch is a violation."""

    def __init__(self, entries, verdicts):
        self._entries = entries
        self._verdicts = verdicts

    def observe(self, steps):
        for _, _, tracker in self._entries:
            tracker.observe(steps)

    def fork(self):
        return DifferentialTracker(
            [(label, judge, tracker.fork())
             for label, judge, tracker in self._entries],
            self._verdicts,
        )

    def at_terminal(self, result):
        problems = []
        projection = result.execution.broadcast_projection()
        for label, (spec, complete), tracker in self._entries:
            tracked = tracker.at_terminal(result)
            if tracked:
                self._verdicts[label] = self._verdicts.get(label, 0) + 1
            expected = spec.admits(
                projection, assume_complete=complete
            ).all_violations()
            if tracked != expected:
                problems.append(f"{label}: tracker {tracked!r}")
        return problems


class Differential:
    """Every registry spec, under both ``assume_complete`` flags."""

    def __init__(self):
        #: (label, (spec, assume_complete), property)
        self.props = [
            (
                f"{name}/{complete}",
                (spec, complete),
                spec_property(spec, assume_complete=complete),
            )
            for name in sorted(SPECS)
            for spec in [SPECS[name](1)]
            for complete in (True, False)
        ]
        #: label → terminals the tracker rejected (sequential runs only)
        self.verdicts = {}

    def __call__(self, result):
        return []

    def tracker(self, n):
        return DifferentialTracker(
            [
                (label, judge, prop.tracker(n))
                for label, judge, prop in self.props
            ],
            self.verdicts,
        )


@pytest.mark.parametrize("config", CATALOG, ids=[c[0] for c in CATALOG])
def test_catalog(config):
    config_id, simulator, crash = config
    differential = Differential()
    result = explore_schedules(
        simulator, SCRIPTS, differential, crash_schedule=crash,
        dedup=True, sleep_sets=True,
    )
    assert result.exhausted
    assert result.violations == []
    if config_id.startswith("s2a"):
        # not vacuous: Send-To-All breaks the ordered specs
        assert differential.verdicts["total-order/False"]


def test_symmetric_three_sender_search():
    differential = Differential()
    result = explore_schedules(
        Simulator(3, SendToAllBroadcast), {0: ["a"], 1: ["b"], 2: ["c"]},
        differential, dedup=True, sleep_sets=True, symmetry="rename",
        max_schedules=10**12,
    )
    assert result.exhausted
    assert result.violations == []
    assert differential.verdicts["total-order/False"]


def s2a_with_crash():
    _, simulator, crash = next(c for c in CATALOG if c[0] == "s2a-n3-p2@4")
    return simulator, crash


def test_two_workers():
    simulator, crash = s2a_with_crash()
    result = explore_schedules(
        simulator, SCRIPTS, Differential(), crash_schedule=crash, workers=2,
    )
    assert result.exhausted
    assert result.terminal_schedules == 584
    assert result.violations == []


def test_resumed_from_a_mid_run_checkpoint(tmp_path):
    simulator, crash = s2a_with_crash()
    path = str(tmp_path / "search.ckpt")
    first = explore_schedules(
        simulator, SCRIPTS, Differential(), crash_schedule=crash,
        cancel=Countdown(300), checkpoint_to=path, checkpoint_every=1,
    )
    assert first.interrupted
    resumed = explore_schedules(
        simulator, SCRIPTS, Differential(), crash_schedule=crash,
        checkpoint_to=path, resume_from=path,
    )
    assert resumed.exhausted
    assert resumed.terminal_schedules == 584
    assert resumed.violations == []
