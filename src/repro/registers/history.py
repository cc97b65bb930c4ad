"""Operation histories: invocations, responses, and real-time precedence.

A history records, for each completed (or pending) operation, the global
scheduler times of its invocation and response.  Operation ``a``
*precedes* ``b`` when ``a`` responded before ``b`` was invoked — the
partial order linearizability must extend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

__all__ = ["OperationRecord", "History"]


@dataclass
class OperationRecord:
    """One operation's lifetime within a run."""

    op_id: int
    process: int
    operation: str
    target: str
    argument: Hashable
    invoked_at: int
    responded_at: int | None = None
    result: Hashable = None

    @property
    def complete(self) -> bool:
        return self.responded_at is not None

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time precedence: this responded before ``other`` began."""
        return (
            self.responded_at is not None
            and self.responded_at < other.invoked_at
        )

    def __str__(self) -> str:
        span = (
            f"[{self.invoked_at},{self.responded_at}]"
            if self.complete
            else f"[{self.invoked_at},…"
        )
        arg = "" if self.argument is None else repr(self.argument)
        result = "" if self.result is None else f" -> {self.result!r}"
        return (
            f"p{self.process}.{self.operation}({arg}) on "
            f"{self.target}{result} {span}"
        )


class History:
    """A mutable collection of operation records, one run's history."""

    def __init__(self, records: Iterable[OperationRecord] = ()) -> None:
        self._records: list[OperationRecord] = list(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[OperationRecord]:
        return iter(self._records)

    def begin(
        self,
        process: int,
        operation: str,
        target: str,
        argument: Hashable,
        at: int,
    ) -> OperationRecord:
        record = OperationRecord(
            op_id=len(self._records),
            process=process,
            operation=operation,
            target=target,
            argument=argument,
            invoked_at=at,
        )
        self._records.append(record)
        return record

    def complete(self) -> list[OperationRecord]:
        """Only the operations that responded."""
        return [r for r in self._records if r.complete]

    def pending(self) -> list[OperationRecord]:
        """Operations that never responded (their process crashed/stalled)."""
        return [r for r in self._records if not r.complete]

    def on_target(self, target: str) -> list[OperationRecord]:
        """The subhistory of one register/object."""
        return [r for r in self._records if r.target == target]

    def targets(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.target, None)
        return list(seen)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._records)
