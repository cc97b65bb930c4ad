"""The footprint sanitizer: recorded footprints inside static summaries.

``attributed_handlers`` maps a scheduling event's kind to the handlers
whose code it may run; the simulator's ``validate_footprints=True`` mode
turns each recorded footprint into a containment assertion against the
closed static summary of those handlers.  The acceptance runs require
zero violations across sync/async/crash configurations of every
exercised algorithm, under every search variant of the explorer.
"""

from __future__ import annotations

import ast
import dataclasses

import pytest

from repro.broadcasts import (
    KSteppedKsaBroadcast,
    SendToAllBroadcast,
    UniformReliableBroadcast,
)
from repro.lint import LintEngine
from repro.runtime import BroadcastProcess, CrashSchedule, Simulator
from repro.runtime.effects import Deliver, Wait
from repro.runtime.explorer import explore_schedules
from repro.runtime.simulator import FootprintViolationError
from repro.statics import (
    attributed_handlers,
    summarize_algorithm,
    summarize_module,
)


def s2a(n=3, **kwargs):
    return Simulator(n, lambda pid, n_: SendToAllBroadcast(pid, n_), **kwargs)


def urb(n=2, **kwargs):
    return Simulator(
        n, lambda pid, n_: UniformReliableBroadcast(pid, n_), **kwargs
    )


def observing_property(observations):
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


@pytest.fixture(scope="module")
def summary():
    built = summarize_algorithm(SendToAllBroadcast)
    assert built.closed
    return built


class TestAttributedHandlers:
    def test_bcast_maps_to_on_broadcast(self, summary):
        names = {
            next(n for n, s in summary.handlers if s is h)
            for h in attributed_handlers(summary, "bcast")
        }
        assert names == {"on_broadcast"}

    def test_recv_includes_waiting_operation_bodies(self):
        summaries = summarize_module(
            ast.parse(
                """
class Waiter(BroadcastProcess):
    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.acks = 0

    def on_broadcast(self, message):
        yield from self.send_to_all(message)
        yield Wait(lambda: self.acks >= self.n)
        yield Deliver(message)

    def on_receive(self, payload, sender):
        self.acks += 1
"""
            )
        )
        picked = attributed_handlers(summaries[0], "recv")
        names = {
            next(n for n, s in summaries[0].handlers if s is h)
            for h in picked
        }
        # the reception may resume the suspended on_broadcast body
        assert names == {"on_receive", "on_broadcast"}

    def test_local_maps_to_every_handler(self, summary):
        assert len(attributed_handlers(summary, "local")) == len(
            summary.handlers
        )


#: Every search variant the sanitizer must stay silent under.
VARIANTS = [
    pytest.param({}, id="plain"),
    pytest.param({"dedup": True}, id="dedup"),
    pytest.param({"dedup": True, "sleep_sets": True}, id="dedup-sleep"),
    pytest.param(
        {"dedup": True, "sleep_sets": True, "symmetry": "rename"},
        id="dedup-sleep-rename",
    ),
]


class TestFootprintSanitizer:
    """validate_footprints: dynamic footprints contained in static ones."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "factory, scripts, crashes, kwargs",
        [
            pytest.param(
                s2a, {0: ["a"], 1: ["b"]}, None, {}, id="s2a-async"
            ),
            pytest.param(
                s2a, {0: ["a"], 1: ["b"]}, None,
                {"sync_broadcasts": True}, id="s2a-sync",
            ),
            pytest.param(
                s2a, {0: ["a"], 1: ["b"]}, CrashSchedule(at_step={1: 3}),
                {}, id="s2a-crash",
            ),
            pytest.param(urb, {0: ["a"]}, None, {}, id="urb-async"),
            pytest.param(
                urb, {0: ["a"]}, CrashSchedule(at_step={0: 4}), {},
                id="urb-crash",
            ),
        ],
    )
    def test_exploration_clean_under_validation(
        self, factory, scripts, crashes, kwargs, variant
    ):
        # FootprintViolationError would propagate out of the explorer;
        # a normal exhaustive result is the zero-violations assertion
        seen, result = observations_of(
            factory(validate_footprints=True, **kwargs), scripts,
            crash_schedule=crashes, max_depth=8, **variant,
        )
        assert result.exhausted
        plain_seen, _ = observations_of(
            factory(**kwargs), scripts,
            crash_schedule=crashes, max_depth=8, **variant,
        )
        assert seen == plain_seen

    def test_validation_survives_explorer_rebuild(self):
        # explore_schedules rebuilds the simulator (atomic_local etc.);
        # the flag must survive the rebuild — checked by observing the
        # sanitizer summary got attached to the rebuilt instance
        simulator = s2a(validate_footprints=True)
        _, result = observations_of(
            simulator, {0: ["a"]}, dedup=True, max_depth=6,
        )
        assert result.exhausted

    def test_violation_raises(self):
        """A handler whose dynamic effects escape its summary is caught."""
        # forge a summary claiming on_broadcast never sends: the first
        # broadcast's recorded emission must trip the containment check
        forged = summarize_algorithm(SendToAllBroadcast)
        handlers = dict(forged.handlers)
        handlers["on_broadcast"] = dataclasses.replace(
            handlers["on_broadcast"], sends=frozenset()
        )
        simulator = Simulator(
            2, lambda pid, n: SendToAllBroadcast(pid, n),
            atomic_local=True, validate_footprints=True,
        )
        simulator._footprint_summary = dataclasses.replace(
            forged, handlers=tuple(handlers.items())
        )
        simulator._footprint_summary_ready = True
        handle = simulator.begin({0: ["a"]})
        handle.choices()
        with pytest.raises(FootprintViolationError):
            handle.advance(0)
            handle.choices()

    @pytest.mark.parametrize(
        "algorithm, n, crashes",
        [
            pytest.param(SendToAllBroadcast, 3, {0: 4}, id="s2a-n3-p0@4"),
            pytest.param(
                UniformReliableBroadcast, 2, {0: 3}, id="urb-n2-p0@3"
            ),
            pytest.param(KSteppedKsaBroadcast, 2, {1: 3}, id="kst-n2-p1@3"),
        ],
    )
    def test_plain_dfs_over_the_crash_catalog(self, algorithm, n, crashes):
        # the catalog's three families, each with a mid-run crash: under
        # validation every pid is drained, so a step at a process the
        # event did not name would raise here; without it only the
        # event's origin is, and the two searches must agree
        scripts = {0: ["a"], 1: ["b"]}
        crash_schedule = CrashSchedule(at_step=crashes)
        seen, result = observations_of(
            Simulator(n, algorithm, validate_footprints=True), scripts,
            crash_schedule=crash_schedule, max_depth=7,
        )
        plain_seen, plain = observations_of(
            Simulator(n, algorithm), scripts,
            crash_schedule=crash_schedule, max_depth=7,
        )
        assert seen == plain_seen
        assert result.schedules_explored == plain.schedules_explored
        assert result.terminal_schedules == plain.terminal_schedules


class HandedBoard(BroadcastProcess):
    """Processes that release each other through one dict handed in.

    A broadcast at ``p`` marks ``p + 1`` released, and every process but
    p0 waits for its own mark.  So p0's broadcast enables a step at p1:
    the cross-process coupling the model forbids.  The factory hands
    every instance the same dict, which each keeps as an attribute set
    in ``__init__``: to the linter and the static analyzer that is
    per-instance state, so the summary comes out closed and only the
    recorded footprint shows the coupling.
    """

    def __init__(self, pid, n, board):
        super().__init__(pid, n)
        self.board = board

    def on_broadcast(self, message):
        self.board[self.pid + 1] = True
        yield Wait(lambda: self.board.get(self.pid, self.pid == 0))
        yield Deliver(message)

    def on_receive(self, payload, sender):
        return
        yield


def handed_boards():
    """A factory that hands every instance one and the same dict."""
    board: dict[int, bool] = {}
    return lambda pid, n: HandedBoard(pid, n, board)


class TestCrossProcessState:
    """The sanitizer catches a coupling the static summary misses."""

    def test_release_of_another_process_raises(self):
        # the analyzer sees only an instance attribute; an open summary
        # would leave the sanitizer nothing to check against
        assert summarize_algorithm(HandedBoard).closed
        run = Simulator(
            2, handed_boards(), atomic_local=True, validate_footprints=True
        ).begin({0: ["a"], 1: ["b"]})
        run.advance(run.choices().index(("bcast", 1)))
        assert run.choices() == [("bcast", 0)]
        assert run.runtimes[1].busy  # p1 waits for its mark
        run.advance(0)
        with pytest.raises(
            FootprintViolationError, match=r"foreign processes \[1\]"
        ):
            run.choices()


class SharedBoard(BroadcastProcess):
    """``board`` is bound on the class after its body (see the fixture)."""

    board: dict[int, bool]

    def on_broadcast(self, message):
        self.board[self.pid + 1] = True
        yield Deliver(message)

    def on_receive(self, payload, sender):
        return
        yield


@pytest.fixture
def shared_board():
    # repro-lint: disable-next-line=REP004 -- shared on purpose
    SharedBoard.board = {}
    yield SharedBoard
    del SharedBoard.board


class TestBindingAfterTheBody:
    """A class-level dict bound outside the class body is shared state."""

    def test_summary_is_open(self, shared_board):
        summary = summarize_algorithm(SharedBoard)
        assert not summary.closed
        (on_broadcast,) = [
            effects
            for name, effects in summary.handlers
            if name == "on_broadcast"
        ]
        assert any(
            "'board'" in reason.message
            for reason in on_broadcast.open_reasons
        )

    def test_summary_is_closed_without_the_binding(self):
        assert summarize_algorithm(SharedBoard).closed

    def test_rep004_flags_the_binding(self):
        source = (
            "class Board(BroadcastProcess):\n"
            "    def on_broadcast(self, message):\n"
            "        self.board[self.pid + 1] = True\n"
            "        yield Deliver(message)\n"
            "\n"
            "Board.board = {}\n"
        )
        findings = LintEngine().lint_source(source, "anywhere/algo.py")
        assert [(f.rule, f.line) for f in findings] == [("REP004", 6)]
