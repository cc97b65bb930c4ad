"""One footprint record per event, finished by the prelude.

``advance`` creates the record, the next ``choices()`` prelude fills
it, and ``SimulationRun.last_footprint`` hands it out as it is; nothing
writes to it afterwards, so forks share it.  Over random walks through
every config of the crash catalog, at every decision after the prelude,
a footprint read at once equals one read late — after a sibling fork
advanced past it and after ``result()`` probes — equals what a probe
from the parent decision observed, and survives the checkpoint codec
unchanged, with the derived ``crashed``/``pending`` facts written as
the stored ones imply.  The sanitizer still validates every record at
the prelude, read or not.
"""

import random

import pytest

from repro.broadcasts import SendToAllBroadcast
from repro.runtime import Simulator
from repro.runtime.checkpoint import footprint_from_json, footprint_to_json
from repro.runtime.independence import Footprint, observed_footprint
from repro.runtime.simulator import FootprintViolationError

from .crash_catalog import SCRIPTS, catalog

WALKS = 12

CATALOG = catalog()


def late_read(handle, rng):
    """``handle``'s footprint, read after its forks moved on."""
    late = handle.fork()
    sibling = late.fork()
    choices = sibling.choices()
    if choices:
        sibling.advance(rng.randrange(len(choices)))
        sibling.result()  # a probe: the prelude runs on a fork
        sibling.choices()  # the sibling's own prelude
        sibling.last_footprint
    late.result()
    return late.last_footprint


def assert_codec_round_trip(footprint):
    """The checkpoint codec restores the record and writes the derived
    crash facts from the stored ones."""
    data = footprint_to_json(footprint)
    assert footprint_from_json(data) == footprint
    assert data["crashed"] == bool(footprint.crashed_pids)
    assert data["pending"] == [p for p, _ in footprint.pending_deadlines]


@pytest.mark.parametrize(
    "simulator, crash", [c[1:] for c in CATALOG], ids=[c[0] for c in CATALOG]
)
def test_late_read_equals_read_at_once(simulator, crash):
    rng = random.Random(0)
    seen = {"imminent": 0, "crashed": 0, "pending": 0}
    for _ in range(WALKS):
        handle = simulator.begin(SCRIPTS, crash_schedule=crash)
        assert handle.choices()
        assert handle.last_footprint is None
        parent = index = None
        while True:
            if parent is not None:
                at_once = handle.fork().last_footprint
                assert isinstance(at_once, Footprint)
                assert late_read(handle, rng) == at_once
                assert observed_footprint(parent, index) == at_once
                # one record: every read and every fork hands it out
                assert handle.last_footprint is handle.last_footprint
                assert handle.fork().last_footprint is handle.last_footprint
                assert handle.last_footprint == at_once
                assert_codec_round_trip(at_once)
                seen["imminent"] += bool(at_once.imminent)
                seen["crashed"] += at_once.crashed
                seen["pending"] += bool(at_once.pending)
            choices = handle.choices()
            if not choices:
                break
            parent, index = handle.fork(), rng.randrange(len(choices))
            previous = handle.last_footprint
            handle.advance(index)
            # until the next prelude, the previous event's footprint
            assert handle.fork().last_footprint == previous
            handle.choices()
    if crash is not None:
        assert seen["pending"], "no walk met a pending crash"
        assert seen["imminent"], "no walk met an imminent crash"
        assert seen["crashed"], "no walk met a crash injection"


def test_unread_draft_is_still_validated():
    """A stray pid planted in the pending record trips the sanitizer at
    the prelude."""
    run = Simulator(
        3, SendToAllBroadcast, atomic_local=True, validate_footprints=True
    ).begin(SCRIPTS)
    run.advance(run.choices().index(("bcast", 0)))
    run._pending_footprint.pids.add(2)
    with pytest.raises(
        FootprintViolationError, match=r"foreign processes \[2\]"
    ):
        run.choices()
