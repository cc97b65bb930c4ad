"""REP007/REP008 — handler effects must stay statically inferable.

The effect-summary analyzer (:mod:`repro.statics.analyzer`) infers, per
step handler, a conservative footprint of what the handler may touch.
Two downstream consumers stand on that inference being *closed*: the
simulator's footprint sanitizer and the golden summary snapshots.  An
algorithm whose handlers defeat the analyzer silently loses both — so
the two failure categories the analyzer reports become lint findings:

* **REP007** (``race``) — a handler reaches state *outside* its own
  instance fields: a ``global``/``nonlocal`` mutation, a write to an
  unbound (module-level) name, or a class-level mutable attribute
  shared by every process instance.  Pid-disjoint events of such an
  algorithm do not commute, which breaks the isolation assumption every
  consumer relies on: a static race.
* **REP008** (``opaque``) — a handler hides effects from inference: a
  call into an unresolvable helper, dynamic attribute access
  (``getattr``/``setattr``/``vars``), or an unrecognized yielded
  effect.  The summary is *open*: nothing downstream may trust it.

Both rules run the same analysis; they differ only in which open-reason
category they surface, so a file can suppress one without the other.
"""

from __future__ import annotations

from typing import Iterator

from ...statics.analyzer import summarize_module
from ...statics.model import OPAQUE, RACE
from ..findings import Finding
from .base import ModuleContext, Rule

__all__ = ["StaticRaceRule", "SummaryClosureRule"]

#: Directory names holding process-class algorithm implementations.
_ALGORITHM_DIRS = frozenset(
    {"agreement", "apps", "broadcasts", "registers"}
)


def _category_findings(
    rule: Rule, module: ModuleContext, category: str
) -> Iterator[Finding]:
    """Findings for every open reason of ``category`` in the module."""
    for summary in summarize_module(module.tree):
        for handler_name, reason in summary.open_reasons():
            if reason.category != category:
                continue
            yield Finding(
                path=str(module.path),
                line=reason.line,
                col=reason.col + 1,
                rule=rule.id,
                message=(
                    f"{summary.qualname}.{handler_name}: {reason.message}"
                ),
            )


class StaticRaceRule(Rule):
    """Flag handlers that reach state outside their own instance."""

    id = "REP007"
    summary = (
        "step handlers must touch only their own instance state; "
        "global/class-level mutation is a static race that voids the "
        "explorer's commutation proofs"
    )
    scope = _ALGORITHM_DIRS

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from _category_findings(self, module, RACE)


class SummaryClosureRule(Rule):
    """Flag constructs that defeat effect-summary inference."""

    id = "REP008"
    summary = (
        "step handlers must keep their effects statically inferable; "
        "dynamic access and unresolvable calls leave the summary open "
        "(unusable by the sanitizer and the explorer)"
    )
    scope = _ALGORITHM_DIRS

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from _category_findings(self, module, OPAQUE)
