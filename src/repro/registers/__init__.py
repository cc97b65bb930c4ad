"""Shared-memory emulation: the other side of the paper's §1.3 contrast.

The paper's impossibility hinges on the divide between shared memory and
message passing: k-BO Broadcast is equivalent to k-SA *given registers*,
and k-SA (k > 1) cannot provide them.  This subpackage supplies the
register side:

* :mod:`repro.registers.abd` — the ABD majority-quorum atomic register
  emulation (needs t < n/2; the tests show exactly how it blocks without
  a majority, which is why the paper's wait-free model has no registers);
* :mod:`repro.registers.history` / :mod:`repro.registers.linearizability`
  — operation histories with real-time precedence and an exact
  linearizability checker.

Emulations run on the one simulator: a script of
:class:`~repro.runtime.service.Invocation` s given to
:meth:`repro.runtime.Simulator.run` yields the execution and the
:class:`History` (``SimulationResult.history``).
"""

from .abd import AbdRegisterProcess, RegularRegisterProcess, Timestamp
from .history import History, OperationRecord
from .linearizability import LinearizabilityReport, check_linearizable

__all__ = [
    "AbdRegisterProcess",
    "RegularRegisterProcess",
    "History",
    "LinearizabilityReport",
    "OperationRecord",
    "Timestamp",
]
