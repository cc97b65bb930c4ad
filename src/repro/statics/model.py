"""The effect-summary model: what a handler *may* touch, statically.

A dynamic :class:`~repro.runtime.independence.Footprint` records what one
committed scheduling event *did* touch.  An :class:`EffectSummary` is its
static counterpart: a conservative over-approximation, inferred from the
handler's AST (:mod:`repro.statics.analyzer`), of everything any
execution of the handler *could* touch — instance fields read and
written, messages emitted (with a destination *shape* rather than a
concrete pid), k-SA oracle proposals, deliveries, and whether the body
may suspend on a :class:`~repro.runtime.effects.Wait`.

A summary is **closed** when the inference accounted for every effect:
all helper calls resolved, no dynamic attribute access, no state shared
beyond the instance.  Closure is the load-bearing property — it proves
the *per-process isolation* that the recorded-footprint independence
relation silently assumes (disjoint pid sets only imply commutation when
no handler reaches state outside its own process), and it is what the
simulator's footprint sanitizer requires before checking recorded
footprints against a summary (:func:`attributed_handlers`).  An open
summary carries :class:`OpenReason` records saying exactly where and why
inference gave up; the lint rules REP007/REP008 surface those as
findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "AlgorithmSummary",
    "EffectSummary",
    "OpenReason",
    "RACE",
    "OPAQUE",
    "attributed_handlers",
]

#: Open-reason category: the handler reaches state shared beyond its own
#: process instance (class attribute, module global) — a *static race*
#: between handlers that breaks pid-disjoint commutation.  REP007.
RACE = "race"

#: Open-reason category: the construct defeats inference (unresolved
#: helper, dynamic attribute access, unrecognized effect expression), so
#: the summary cannot be proven complete.  REP008.
OPAQUE = "opaque"


@dataclass(frozen=True, order=True)
class OpenReason:
    """One place where inference could not close the summary."""

    line: int
    col: int
    #: :data:`RACE` or :data:`OPAQUE`.
    category: str
    message: str

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "line": self.line,
            "col": self.col,
            "category": self.category,
            "message": self.message,
        }


@dataclass(frozen=True)
class EffectSummary:
    """The inferred effect envelope of one handler (or one message case).

    ``sends`` holds destination *shapes*, not pids: ``"all"`` (every
    process, e.g. ``send_to_all``), ``"others"``, ``"self"``,
    ``"sender"`` (reply to the message's sender), ``"constant"`` (a
    literal pid) or ``"dynamic"`` (computed — still accounted, just not
    shaped).
    """

    handler: str
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    sends: frozenset[str] = frozenset()
    proposes: bool = False
    delivers: bool = False
    waits: bool = False
    open_reasons: tuple[OpenReason, ...] = ()
    #: Per message-type refinement, when the handler dispatches on a
    #: recognizable payload tag: ``(tag, sub-summary)`` pairs, sorted by
    #: tag.  Consumers needing soundness use the whole-handler union
    #: above; the cases exist for inspection and golden snapshots.
    cases: tuple[tuple[str, "EffectSummary"], ...] = ()

    @property
    def closed(self) -> bool:
        return not self.open_reasons

    def to_jsonable(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "handler": self.handler,
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "sends": sorted(self.sends),
            "proposes": self.proposes,
            "delivers": self.delivers,
            "waits": self.waits,
            "closed": self.closed,
        }
        if self.open_reasons:
            data["open_reasons"] = [
                r.to_jsonable() for r in sorted(self.open_reasons)
            ]
        if self.cases:
            data["cases"] = {
                tag: case.to_jsonable() for tag, case in self.cases
            }
        return data


@dataclass(frozen=True)
class AlgorithmSummary:
    """Every handler summary of one process class, plus its provenance."""

    qualname: str
    #: ``"broadcast"`` (``on_broadcast``/``on_receive``) or ``"service"``
    #: (``on_invoke``/``on_receive``).
    kind: str
    handlers: tuple[tuple[str, EffectSummary], ...] = ()

    def handler(self, name: str) -> EffectSummary | None:
        for handler_name, summary in self.handlers:
            if handler_name == name:
                return summary
        return None

    @property
    def closed(self) -> bool:
        return all(summary.closed for _, summary in self.handlers)

    def open_reasons(self) -> Iterator[tuple[str, OpenReason]]:
        """Every ``(handler name, reason)`` that keeps the summary open."""
        for handler_name, summary in self.handlers:
            for reason in summary.open_reasons:
                yield handler_name, reason

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "algorithm": self.qualname,
            "kind": self.kind,
            "closed": self.closed,
            "handlers": {
                name: summary.to_jsonable()
                for name, summary in self.handlers
            },
        }


def attributed_handlers(
    summary: AlgorithmSummary, kind: str
) -> tuple[EffectSummary, ...]:
    """The handlers whose code a ``kind`` scheduling event may run.

    A ``"bcast"`` event starts the next script entry: ``on_broadcast``,
    or a service process's ``on_invoke`` (and the drain runs its body up
    to the first suspension).  A ``"recv"`` event runs
    ``on_receive`` — and may *resume* a suspended ``on_broadcast`` /
    ``on_invoke`` operation body whose ``Wait`` guard the reception
    unblocked, so suspendable operation handlers are attributed too.  A
    ``"local"`` event (non-atomic runs only) may advance any handler.
    """
    handlers = {name: s for name, s in summary.handlers}
    if kind == "bcast":
        picked = [handlers.get("on_broadcast") or handlers.get("on_invoke")]
    elif kind == "recv":
        picked = [handlers.get("on_receive")]
        for operation in ("on_broadcast", "on_invoke"):
            body = handlers.get(operation)
            if body is not None and body.waits:
                picked.append(body)
    else:
        picked = [handlers.get(name) for name in handlers]
    return tuple(s for s in picked if s is not None)
