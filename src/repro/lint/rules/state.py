"""REP004 — process state must be per-instance, never aliased.

Every process in CAMP_n owns its local state outright; the only channels
between processes are messages.  Two Python footguns silently violate
that model by aliasing one object across calls or across *all* process
instances:

* mutable default arguments (one list/dict/set shared by every call);
* mutable class-level attributes on process classes (one object shared
  by every process in the system — shared memory by accident), whether
  bound in the class body or later, by ``Cls.attr = []`` on a process
  class defined in the same file;
* stateful iterators (``itertools.count()``, ``itertools.cycle(...)``)
  bound at class or module level: one shared cursor advances across
  every call site, so two identically-seeded runs in the same process
  observe different values — the irreproducibility that bit
  ``sample_renamings`` before its fresh-token counter was scoped per
  call.  Instance-level iterators (``self._ids = itertools.count()`` in
  ``__init__``) are per-object state and are fine.

Any of these turns independent runs into coupled ones, which breaks
replay and the per-process step accounting the lemma verifiers rely on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import ModuleContext, Rule, dotted_name, is_process_class

__all__ = ["MutableStateRule"]

#: Constructors producing fresh mutable containers.
_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Constructors producing stateful iterators: a shared binding is a
#: shared cursor, silently coupling every call site that draws from it.
_STATEFUL_ITERATOR_CALLS = frozenset({"count", "cycle"})


def _is_stateful_iterator(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in _STATEFUL_ITERATOR_CALLS


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_CALLS
    return False


class MutableStateRule(Rule):
    """Flag mutable defaults and class-level mutable process state."""

    id = "REP004"
    summary = (
        "no mutable default arguments; no mutable class-level "
        "attributes on process classes (aliased cross-process state); "
        "no class- or module-level stateful iterators (shared cursors)"
    )
    scope = None  # everywhere: this is plain Python hygiene

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._check_module_iterators(module)
        processes = {
            stmt.name
            for stmt in module.tree.body
            if isinstance(stmt, ast.ClassDef) and is_process_class(stmt)
        }
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_bound_later(module, node, processes)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(module, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class_iterators(module, node)
                if is_process_class(node):
                    yield from self._check_class_attributes(module, node)

    def _check_defaults(
        self,
        module: ModuleContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_value(default):
                yield module.finding(
                    self,
                    default,
                    f"mutable default argument in {node.name}(): one "
                    f"object is shared across every call; default to None "
                    f"and allocate inside the body",
                )

    @staticmethod
    def _assigned_value(stmt: ast.stmt) -> ast.AST | None:
        if isinstance(stmt, ast.Assign):
            return stmt.value
        if isinstance(stmt, ast.AnnAssign):
            return stmt.value
        return None

    def _check_module_iterators(
        self, module: ModuleContext
    ) -> Iterator[Finding]:
        for stmt in module.tree.body:
            value = self._assigned_value(stmt)
            if value is not None and _is_stateful_iterator(value):
                yield module.finding(
                    self,
                    stmt,
                    "module-level stateful iterator: one shared cursor "
                    "advances across every call site, so identically-"
                    "seeded runs diverge; create the iterator inside the "
                    "function or object that consumes it",
                )

    def _check_class_iterators(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            value = self._assigned_value(stmt)
            if value is not None and _is_stateful_iterator(value):
                yield module.finding(
                    self,
                    stmt,
                    f"class-level stateful iterator on {cls.name}: one "
                    f"shared cursor advances across every instance and "
                    f"call, so identically-seeded runs diverge; mint it "
                    f"per call or per instance (in __init__)",
                )

    def _check_bound_later(
        self,
        module: ModuleContext,
        stmt: ast.Assign | ast.AnnAssign,
        processes: set[str],
    ) -> Iterator[Finding]:
        if stmt.value is None or not _is_mutable_value(stmt.value):
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in processes
            ):
                yield module.finding(
                    self,
                    stmt,
                    f"class-level mutable bound on process class "
                    f"{target.value.id} outside its body: every process "
                    f"instance aliases one object — shared memory the "
                    f"message-passing model forbids; move it into "
                    f"__init__",
                )

    def _check_class_attributes(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            value = self._assigned_value(stmt)
            if value is not None and _is_mutable_value(value):
                yield module.finding(
                    self,
                    stmt,
                    f"class-level mutable on process class {cls.name}: "
                    f"every process instance aliases one object — shared "
                    f"memory the message-passing model forbids; move it "
                    f"into __init__",
                )
