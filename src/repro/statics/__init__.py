"""repro.statics — static effect summaries for process-class handlers.

Infers, per handler and message type, a conservative **effect summary**
of what a :class:`~repro.runtime.process.BroadcastProcess` /
:class:`~repro.runtime.service.ServiceProcess` step handler may touch:
fields read and written, messages emitted (with destination shape), k-SA
oracle proposals, deliveries, and ``Wait`` suspension.  Two consumers:

* **lint** — REP007/REP008 (:mod:`repro.lint.rules.footprint`) surface
  static races and inference-defeating constructs;
* **sanitizer** — the simulator's ``validate_footprints=True`` mode
  asserts every recorded dynamic footprint is contained in the summary
  of the handlers its event may run (:func:`attributed_handlers`).

Run ``python -m repro.statics [paths]`` to print summaries, or with
``--check`` to fail on open (unproven) summaries; see
``docs/static_analysis.md``.
"""

from __future__ import annotations

from .analyzer import (
    HANDLER_NAMES,
    summarize_algorithm,
    summarize_classdef,
    summarize_module,
)
from .model import (
    OPAQUE,
    RACE,
    AlgorithmSummary,
    EffectSummary,
    OpenReason,
    attributed_handlers,
)
from .snapshot import load_snapshot, render_snapshot

__all__ = [
    "AlgorithmSummary",
    "EffectSummary",
    "HANDLER_NAMES",
    "OPAQUE",
    "OpenReason",
    "RACE",
    "attributed_handlers",
    "load_snapshot",
    "render_snapshot",
    "summarize_algorithm",
    "summarize_classdef",
    "summarize_module",
]
