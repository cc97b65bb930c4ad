"""Dynamic independence of scheduling events — the POR foundation.

Two scheduling choices *commute* when taking them in either order from
the same state reaches the same state (equal
:meth:`~repro.runtime.simulator.SimulationRun.fingerprint`) and leaves
the same events enabled.  The schedule explorer's sleep-set reduction
(:mod:`repro.runtime.explorer`) uses commutation to prune redundant
interleavings *before* forking a run handle, so the relation here must
be sound: claiming independence for a dependent pair would silently
drop schedules.

Rather than reasoning statically about what an event *might* touch, the
simulator records what each committed event *actually* touched — its
:class:`Footprint`, one record per event that ``advance`` creates and
the next decision point's prelude completes: the processes whose
runtimes stepped (including the ``atomic_local`` drain the event
triggered), the point-to-point messages it emitted, whether it
consulted a k-SA oracle object, and which crashes were injected
alongside it or are still scheduled.  Independence is then a pure
check over two footprints:

* disjoint process sets — neither event read or wrote the other's
  runtime, journal, scripts or sync gates;
* no emissions — the in-flight pool is fingerprinted *in insertion
  order* (it fixes the meaning of schedule guides), so two events that
  both append to the pool do not commute fingerprint-exactly even when
  they touch different processes.  This is why a reception whose
  handler forwards (Uniform Reliable Broadcast's first copy) is
  conservatively dependent while Send-To-All receptions always commute;
* no oracle touch — k-SA decision policies read the global
  proposals-so-far order, so propose steps never commute;
* no crash in the pair's window — crash schedules are indexed by the
  global decision count, and an adjacent swap preserves every
  subsequent count, so the victims an event must avoid are exactly
  those whose injection lands between or immediately after the pair
  (``crashed_pids`` and ``imminent`` below).

Crashes — fired or pending — do not blanket the relation: crashes
inject at a fixed *global decision count*, and swapping two adjacent
events preserves every subsequent decision count, so the injection
lands on the same index either way.  For a pair enabled at decision
count *s* (events committing at counts *s+1* and *s+2*), a schedule
entry with deadline *t* interacts with the swap in exactly one of
three ways:

* ``t == s+1`` — the injection fires *between* the pair, at the
  prelude after whichever event ran first, the same count in both
  orders.  Both probed footprints record the victim in
  ``crashed_pids``; the pair commutes iff neither event touched it.
* ``t == s+2`` — the injection fires at the prelude after the second
  event, *before* that prelude's ``atomic_local`` drain.  An event
  touching the victim therefore behaves differently in second position
  (its handler work on the victim is cut off by the crash) than in
  first (fully drained one prelude earlier) — so the pair commutes
  only when neither event's ``pids`` intersects the victims due at
  exactly that count: the **imminent** set.
* ``t > s+2`` — the injection fires after both events in both orders;
  every victim is alive throughout the pair's window either way, and
  the swap is invisible to the crash *even if the events touch the
  victim*.

The recorded footprint distinguishes the imminent and just-killed
sets from the full still-alive schedule (``pending_deadlines``), which
is what makes the third case provable.  :func:`classify` reports which
argument carried the verdict so the explorer can count them.

The conservative direction is always safe: a dependent verdict merely
keeps a branch.  The commutation differential tests
(``tests/runtime/test_independence.py``) execute both orders of every
claimed-independent pair from forked handles — including at every
pending-crash decision point of crash-heavy configs — and compare
fingerprints and enabled sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.actions import PointToPointId

__all__ = [
    "Footprint",
    "choice_key",
    "classify",
    "independent",
    "observed_footprint",
]


@dataclass(slots=True)
class Footprint:
    """What one committed scheduling event actually touched.

    The one record of an event: ``SimulationRun.advance`` creates it,
    the event's ``atomic_local`` drain and the next decision point's
    prelude (crash injection, the pending schedule) fill it, so it
    covers the *whole* state delta between two consecutive decision
    points.  After that prelude nothing writes to it:
    ``SimulationRun.last_footprint`` hands it out as it is, and forks
    share it.

    ``crashed`` and ``pending`` are derived from ``crashed_pids`` and
    ``pending_deadlines``; ``imminent`` is stored, since it depends on
    the decision count at which the prelude ran.
    """

    #: The choice kind that was committed: ``"local"``/``"recv"``/``"bcast"``.
    kind: str
    #: Processes whose runtime stepped (receiver, broadcaster, plus every
    #: process the post-event local drain advanced).
    pids: set[int]
    #: Point-to-point messages emitted into the in-flight pool.
    sent: tuple[PointToPointId, ...] = ()
    #: True when the event (or its drain) proposed on a k-SA object.
    oracle: bool = False
    #: The pending schedule: sorted ``(victim, deadline)`` pairs for
    #: every still-alive victim when the prelude ran, where ``deadline``
    #: is the global decision count at which the injection fires.
    #: Observability and the commutation differential tests use this to
    #: locate pending-crash decision points.
    pending_deadlines: tuple[tuple[int, int], ...] = ()
    #: Victims due to crash at the *next* decision count after the
    #: prelude — the only pending entries an adjacent swap can observe
    #: (the injection would land after the second event of the pair,
    #: ahead of that prelude's drain).  The hot independence check needs
    #: exactly this set.
    imminent: frozenset[int] = frozenset()
    #: Victims the prelude actually killed.  For a pair probed from the
    #: same state the injection fires *between* the two events in both
    #: orders — at the same decision count — so the swap commutes
    #: whenever neither event touched one of these victims.
    crashed_pids: frozenset[int] = frozenset()
    #: The process the committed choice named (the receiver of a
    #: reception, the broadcaster of a start): the process the drain
    #: steps and the anchor the footprint-validation mode checks
    #: ``pids`` against.  Not part of what the event touched, so not
    #: compared and not checkpointed.
    origin: int | None = field(default=None, compare=False, repr=False)

    @property
    def crashed(self) -> bool:
        """True when the prelude injected a crash after this event."""
        return bool(self.crashed_pids)

    @property
    def pending(self) -> frozenset[int]:
        """Still-alive victims of the crash schedule (non-empty: a crash
        is *pending*)."""
        return frozenset(p for p, _ in self.pending_deadlines)

    def copy(self) -> "Footprint":
        """A record the in-flight event of a fork can go on filling."""
        return replace(self, pids=set(self.pids))


def independent(a: Footprint | None, b: Footprint | None) -> bool:
    """May the two recorded events be taken in either order?

    True only when commutation is *fingerprint-exact*: same reached
    state, same enabled events, same schedule-guide meaning.  ``None``
    (no footprint recorded) is conservatively dependent.

    Crash-aware: a crash no longer blankets the pair.  The injection
    fires at a global decision count that an adjacent swap preserves,
    so the only victims the swap can observe are those whose injection
    lands inside the pair's window: the ones the probe's own prelude
    killed (``crashed_pids`` — between the two events, at the same
    count in both orders) and the ones due at the very next count
    (``imminent`` — after the second event, ahead of that prelude's
    drain).  The pair commutes iff neither event's ``pids`` (including
    the ``atomic_local`` drain) intersects either set.  Victims with
    later deadlines crash after both events in both orders, so they
    impose no constraint at all.
    """
    if a is None or b is None:
        return False
    if a.oracle or b.oracle:
        return False
    if a.sent or b.sent:
        return False
    if a.pids & b.pids:
        return False
    # Crash-aware victim disjointness: swapping adjacent events keeps
    # every later decision count, so an injection lands on the same
    # index either way — it is only observable through the pair if one
    # of them advanced a victim that dies inside the pair's window
    # (killed by the probed prelude, or due at the count right after
    # the second event, where the prelude injects before draining and
    # cuts off that victim's handler work when its event runs second).
    hazards = a.crashed_pids | b.crashed_pids | a.imminent | b.imminent
    return not ((a.pids | b.pids) & hazards)


def classify(
    a: Footprint | None, b: Footprint | None
) -> tuple[bool, str]:
    """The :func:`independent` verdict plus the argument that carried it.

    Sources:

    * ``"dynamic"`` — independent with no crash, fired or pending, in
      sight;
    * ``"crash_proof"`` — independent *because* the crash-aware victim
      disjointness argument discharged a pending or fired crash;
    * ``"conservative"`` — dependent (branch kept).
    """
    if not independent(a, b):
        return (False, "conservative")
    assert a is not None and b is not None
    if (
        a.pending_deadlines
        or b.pending_deadlines
        or a.crashed_pids
        or b.crashed_pids
    ):
        return (True, "crash_proof")
    return (True, "dynamic")


def choice_key(choice: tuple[str, object]) -> tuple:
    """A stable identity for an enabled choice, across sibling states.

    Choice *indices* shift as the enabled list evolves; the key does
    not: a reception is identified by its point-to-point identity, a
    local step or broadcast start by its process.  Sleep sets are keyed
    by this, so an event put to sleep at one node is recognized among
    the (re-indexed) choices of a descendant node.
    """
    kind, payload = choice
    if kind == "recv":
        p2p = payload.p2p  # type: ignore[attr-defined]
        return ("recv", p2p.sender, p2p.receiver, p2p.seq)
    return (kind, payload)


def observed_footprint(run, index: int) -> Footprint | None:
    """The footprint of taking choice ``index`` from ``run``, on a fork.

    Executes the event (and the following decision point's prelude) on
    an independent fork, leaving ``run`` untouched — the probe the
    commutation tests use; the explorer itself reads
    ``SimulationRun.last_footprint`` from the handles it advances
    anyway, at zero extra cost.

    ``choices()`` is enumerated once per probe: the terminal guard runs
    on ``run`` itself (idempotent — the enumeration is cached on the
    handle), so the fork inherits the cached choice list and only the
    post-event prelude enumerates fresh state.
    """
    enabled = run.choices()
    if not enabled:
        raise ValueError(
            "observed_footprint probed a terminal run: no event is "
            "enabled, so there is no footprint to observe (advance "
            "would have rejected the index with an out-of-range error "
            "that hides the real cause)"
        )
    probe = run.fork()
    probe.advance(index)
    probe.choices()
    return probe.last_footprint
